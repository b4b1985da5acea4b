import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfclust import FuzzyPartition, RoughPartition, evaluate
from pfclust._util import _RECOMPUTE_FRAC, SqDistances, sq_distances
from pfclust.fuzzy import compute_alpha, compute_centroids, pfcm_objective, update_memberships
from pfclust.validity import mae, rmse, xie_beni

import _oracles


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 12),
    k=st.integers(1, 5),
    d=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    spread=st.sampled_from([1e-6, 1.0, 1e3]),
    n_dup=st.integers(0, 4),
    n_shared=st.integers(0, 5),
    offset=st.booleans(),
)
def test_sq_distances_matches_loop_oracle(n, k, d, seed, spread, n_dup, n_shared, offset):
    rng = np.random.default_rng(seed)
    x = spread * rng.standard_normal((n, d))
    w = spread * rng.standard_normal((k, d))
    # duplicate rows, and centroids that are exact copies of rows
    x[rng.integers(n, size=n_dup)] = x[rng.integers(n, size=n_dup)]
    shared = min(n_shared, k)
    w[:shared] = x[rng.integers(n, size=shared)]
    if offset:
        cols = rng.random(d) < 0.5
        x[:, cols] += 1e6
        w[:, cols] += 1e6
    got = sq_distances(x, w)
    want = _oracles.sq_distances(x, w)
    mu = x.mean(axis=0)
    scale = ((x - mu) ** 2).sum(axis=1)[:, None] + ((w - mu) ** 2).sum(axis=1)[None, :]
    assert got.shape == (n, k)
    assert (got >= 0.0).all()
    assert (np.abs(got - want) <= 1e-12 * scale).all()
    equal = (x[:, None, :] == w[None, :, :]).all(axis=2)
    assert (got[equal] == 0.0).all()


def _coincident(seed, n, k, d, spread, offset):
    """Rows that are copies of centroids, in columns offset far from 0."""
    rng = np.random.default_rng(seed)
    w = spread * rng.standard_normal((k, d)) + offset
    return w[rng.integers(k, size=n)], w


def _expansion(x, w):
    """The kernel's ||a||^2 - 2 a.b + ||b||^2 before any recompute, as it sums
    it, and the bound at or below which it recomputes an entry."""
    bound = SqDistances(x)
    wc = np.ascontiguousarray(w - bound.mu)
    wn = np.einsum("ij,ij->i", wc, wc)
    e = (-2.0 * wc) @ bound.xc.T
    e += bound.xn[None, :]
    e += wn[:, None]
    return e.T, (_RECOMPUTE_FRAC * (bound.xn[None, :] + wn[:, None])).T


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    k=st.integers(1, 5),
    d=st.integers(1, 6),
    spread=st.sampled_from([1e-6, 1.0, 1e3]),
    offset=st.sampled_from([0.0, 1e6]),
)
@example(seed=2, n=7, k=3, d=3, spread=1.0, offset=1e6)
def test_coincident_rows_and_centroids_match_the_row_difference_oracle(seed, n, k, d, spread,
                                                                       offset):
    x, w = _coincident(seed, n, k, d, spread, offset)
    got = sq_distances(x, w)
    e, bound = _expansion(x, w)
    # the exact row-difference oracle, summed per row as the recompute sums
    want = np.array([np.einsum("ij,ij->i", diff, diff) for diff in x[:, None, :] - w[None]])
    redo = ~(e > bound)
    # every entry the expansion leaves negative (or small) is the oracle's
    assert (got[redo] == want[redo]).all()
    assert (got[~redo] == e[~redo]).all()
    assert (got >= 0.0).all()
    assert (got[(x[:, None, :] == w[None]).all(axis=2)] == 0.0).all()


def test_the_coincident_cases_drive_the_expansion_negative():
    # the case the property above covers, and why the kernel needs no clamp at 0
    assert any((_expansion(*_coincident(seed, 12, 5, 6, 1.0, 1e6))[0] < 0).any()
               for seed in range(10))


def test_distance_kernels_build_no_n_k_d_temporary():
    n, k, d = 5000, 10, 50
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, d))
    w = rng.standard_normal((k, d))
    u = rng.random((n, k))
    bound = 4 * (n * d + n * k) * 8
    for call in (lambda: sq_distances(x, w), lambda: mae(x, u, w)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def test_the_kernel_is_cluster_major_and_keeps_one_copy_of_x():
    n, k, d = 50, 7, 4
    rng = np.random.default_rng(1)
    x = rng.standard_normal((n, d))
    bound = SqDistances(x)
    d2 = bound(rng.standard_normal((k, d)))
    # the (n, k) result is the transpose of a C-contiguous (k, n) array
    assert d2.shape == (n, k) and d2.T.flags.c_contiguous
    # x is read through views: the bound kernel owns only mu, xc and xn
    owned = [a for a in vars(bound).values() if a is not x]
    assert sum(a.nbytes for a in owned) == (d + n * d + n) * 8
    assert all(a.base is None for a in owned)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 30),
    c=st.integers(1, 12),
    d=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from([1.5, 2.0, 3.0]),
    v=st.sampled_from([0.0, 0.8]),
    m_score=st.sampled_from([1.0, 2.0]),
)
def test_the_layout_of_the_inputs_changes_no_result(n, c, d, seed, m, v, m_score):
    # C- and F-ordered copies of one d2, u and w give bit-identical results;
    # numpy's sum over a C-ordered row changes order at 8 entries, hence c to 12
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-2, 2, d)
    # centroids on data rows (singular memberships at v = 0), some moved off
    w = x[rng.integers(n, size=c)] + rng.standard_normal((c, d)) * rng.integers(0, 2, (c, 1))
    u = rng.random((n, c)) ** 4 + 1e-3
    u /= u.sum(axis=1, keepdims=True)
    d2 = sq_distances(x, w)
    alpha = compute_alpha(u ** m)
    member = u >= u.max(axis=1, keepdims=True) / 2
    results = []
    for order in "CF":
        d2o, uo, um, wo, mo = (np.array(a, order=order) for a in (d2, u, u ** m, w, member))
        fuzzy = FuzzyPartition(uo, wo, alpha, (), 0, "tolerance")
        rough = RoughPartition(mo, wo, 0, "tolerance")
        results.append([
            update_memberships(d2o, alpha, m, v),
            compute_alpha(um),
            compute_centroids(um, x),
            pfcm_objective(um, d2o, alpha, v),
            rmse(x, uo, wo, m_score),
            mae(x, uo, wo, m_score),
            xie_beni(x, uo, wo) if c > 1 else None,
            evaluate(x, fuzzy, m_score),
            evaluate(x, rough, m_score),
        ])
    for got_c, got_f in zip(*results):
        assert np.array_equal(got_c, got_f) if isinstance(got_c, np.ndarray) else got_c == got_f
