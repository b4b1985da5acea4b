import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfclust import kmeans, parse_matrix, rough_kmeans
from pfclust._util import initial_centroids, weighted_means

import _oracles
from _oracles import enumerate_kmeans_sse, sq_distances


def test_four_point_fixture(four_points):
    part = kmeans(four_points, 2, seed=3)
    assert sorted(part.centroids.ravel().tolist()) == [0.5, 10.5]
    assert part.trace[-1] == pytest.approx(1.0, abs=1e-12)
    assert sorted(np.bincount(part.assignments).tolist()) == [2, 2]


def test_k_equals_n_zero_sse():
    rng = np.random.default_rng(5)
    x = rng.random((6, 3))
    part = kmeans(x, 6, seed=0)
    assert part.trace[-1] == pytest.approx(0.0, abs=1e-18)
    assert sorted(part.assignments.tolist()) == list(range(6))


def test_k_one_centroid_is_mean():
    rng = np.random.default_rng(7)
    x = rng.random((9, 4))
    part = kmeans(x, 1, seed=0)
    assert np.allclose(part.centroids[0], x.mean(axis=0), atol=1e-12)
    assert (part.assignments == 0).all()


def test_k_out_of_range():
    x = np.zeros((3, 2))
    with pytest.raises(ValueError):
        kmeans(x, 0)
    with pytest.raises(ValueError):
        kmeans(x, 4)


def test_bad_parameters():
    x = np.zeros((3, 2))
    with pytest.raises(ValueError):
        kmeans(x, 2, max_iter=0)
    with pytest.raises(ValueError):
        kmeans(x, 2, eps=0.0)


def test_sse_trace_non_increasing():
    rng = np.random.default_rng(11)
    for trial in range(25):
        n = int(rng.integers(5, 40))
        k = int(rng.integers(1, min(6, n) + 1))
        x = rng.normal(size=(n, int(rng.integers(1, 4))))
        part = kmeans(x, k, seed=trial)
        diffs = np.diff(part.trace)
        assert (diffs <= 1e-9).all(), (trial, part.trace)


def test_sse_matches_recomputation():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(30, 3))
    part = kmeans(x, 4, seed=2)
    recomputed = sum(
        float(((x[i] - part.centroids[part.assignments[i]]) ** 2).sum())
        for i in range(30)
    )
    assert part.trace[-1] == pytest.approx(recomputed, rel=1e-9)


def test_no_empty_clusters():
    rng = np.random.default_rng(17)
    for trial in range(20):
        x = rng.normal(size=(12, 2))
        part = kmeans(x, 5, seed=trial)
        assert len(set(part.assignments.tolist())) == 5


def test_empty_cluster_repair_with_coincident_init():
    # both initial centroids identical: assignment sends everything to
    # index 0 and the repair must fill cluster 1
    x = np.array([[0.0], [0.2], [10.0], [10.2]])
    init = np.array([[5.0], [5.0]])
    part = kmeans(x, 2, init_centroids=init)
    assert len(set(part.assignments.tolist())) == 2
    assert (np.diff(part.trace) <= 1e-9).all()


def test_matches_exhaustive_optimum_best_of_ten():
    rng = np.random.default_rng(19)
    for n, k, d in [(4, 2, 1), (6, 2, 2), (7, 3, 2), (8, 3, 1), (8, 2, 2)]:
        x = rng.normal(size=(n, d))
        opt = enumerate_kmeans_sse(x, k)
        best = min(kmeans(x, k, seed=s).trace[-1] for s in range(10))
        assert best <= opt + 1e-9, (n, k, best, opt)


def test_deterministic_per_seed():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(25, 3))
    a = kmeans(x, 3, seed=9)
    b = kmeans(x, 3, seed=9)
    assert np.array_equal(a.assignments, b.assignments)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.trace == b.trace


def test_init_centroids_override():
    x = np.array([[0.0], [1.0], [10.0], [11.0]])
    part = kmeans(x, 2, init_centroids=np.array([[0.0], [10.0]]))
    assert sorted(part.centroids.ravel().tolist()) == [0.5, 10.5]
    with pytest.raises(ValueError, match="shape"):
        kmeans(x, 2, init_centroids=np.zeros((3, 1)))


def test_farthest_init_spreads_centroids():
    # two tight bumps far apart: farthest-point init must pick one row
    # from each bump, so a single iteration lands the right split
    x = np.vstack([np.zeros((5, 2)), np.full((5, 2), 100.0)])
    part = kmeans(x, 2, seed=0, farthest_init=True)
    assert part.trace[-1] == pytest.approx(0.0, abs=1e-18)


def test_iteration_callback_sees_progress():
    rng = np.random.default_rng(29)
    x = rng.normal(size=(20, 2))
    seen = []
    part = kmeans(x, 3, seed=1, on_iteration=lambda a, w: seen.append((a, w)))
    assert len(seen) == part.iterations
    assert np.array_equal(seen[-1][0], part.assignments)


def test_sse_is_sum_of_assigned_squared_residuals(bundled_path):
    x = parse_matrix(bundled_path.read_text(), "tsv").values
    part = kmeans(x, 4, seed=2)
    d2 = sq_distances(x, part.centroids)
    want = sum(d2[i, part.assignments[i]] for i in range(x.shape[0]))
    assert part.trace[-1] == pytest.approx(want, rel=1e-12)


# awkward small inputs: lattice data with distance ties, duplicate rows,
# and init centroids that copy genes (and each other), which leaves
# clusters empty for the kmeans repair and upper sets empty for rough
_AWKWARD = dict(
    n=st.integers(1, 14),
    k=st.integers(1, 5),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    lattice=st.booleans(),
    n_dup=st.integers(0, 4),
    n_shared=st.integers(0, 3),
)


def _awkward(n, k, d, seed, lattice, n_dup, n_shared):
    k = min(k, n)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    if lattice:
        # small integers give distance ties
        x = np.round(2.0 * x)
    x[rng.integers(n, size=n_dup)] = x[rng.integers(n, size=n_dup)]
    init = rng.standard_normal((k, d))
    shared = min(n_shared, k)
    init[:shared] = x[rng.integers(n, size=shared)]
    return x, k, init


@settings(max_examples=150, deadline=None)
@given(**_AWKWARD, eps=st.sampled_from([1e-5, 1e-2, 1.0]), max_iter=st.integers(1, 25))
def test_matches_loop_oracle_with_stability_stop(
    n, k, d, seed, lattice, n_dup, n_shared, eps, max_iter
):
    # the oracle also stops on a repeated assignment; the package relies on
    # the movement test alone, so equal results show that stop never decides
    x, k, init = _awkward(n, k, d, seed, lattice, n_dup, n_shared)
    _assert_matches_loop_oracle(x, k, init, eps, max_iter)


def _assert_matches_loop_oracle(x, k, init, eps, max_iter, seed=0):
    part = kmeans(x, k, seed=seed, max_iter=max_iter, eps=eps, init_centroids=init)
    if init is None:
        init = initial_centroids(x, k, seed, False)
    assign, w, iterations, converged, trace = _oracles.kmeans(
        x, k, init, max_iter=max_iter, eps=eps
    )
    assert np.array_equal(part.assignments, assign)
    assert np.array_equal(part.centroids, w)
    if part.stop_reason == "cycle":
        # the oracle has no cycle test, so it runs every round
        assert iterations == max_iter and not converged
        assert part.iterations < max_iter
    else:
        assert part.iterations == iterations
    assert part.converged == converged
    assert part.trace == trace[:part.iterations]
    return part


# one column with 4 distinct rows, clustered into 5: the empty-cluster repair
# makes the assignments alternate with period 2 from the first round
_CYCLING = np.array([-1.93746318743253, -1.1809254487794874, 2.139255412850659,
                     0.9365148280171314, -1.1809254487794874, 0.9365148280171314,
                     0.9365148280171314])[:, None]


@pytest.mark.parametrize("max_iter", [3, 4, 300, 301])
def test_cycle_stop_returns_the_max_iter_state(max_iter):
    # round 3's centroids equal round 1's, so the run stops there; 300 and
    # 301 end on different states of the cycle, which the oracle reaches
    # by running every round
    part = _assert_matches_loop_oracle(_CYCLING, 5, None, 1e-5, max_iter)
    assert (part.stop_reason, part.iterations) == ("max_iter" if max_iter == 3 else "cycle", 3)
    assert len(set(part.delta)) == 1 and part.delta[0] > 2.0
    # the trace holds the rounds run: after a cycle its last entry is round
    # 3's SSE, not the SSE of the state returned (0 on an even cap)
    assert part.trace == (3.697785493223493e-32, 0.0, 3.697785493223493e-32)
    want = 0.0 if max_iter % 2 == 0 else 3.697785493223493e-32
    assert ((_CYCLING[:, 0] - part.centroids[part.assignments, 0]) ** 2).sum() == want


def test_cycles_stop_before_max_iter_for_every_seed():
    # 40 of these 50 seeds ran all 300 rounds before kmeans looked for cycles
    reasons = [kmeans(_CYCLING, 5, seed=seed).stop_reason for seed in range(50)]
    assert reasons.count("cycle") == 40 and "max_iter" not in reasons


@settings(max_examples=60, deadline=None)
@given(**_AWKWARD, eps=st.sampled_from([1e-5, 1e-2, 1.0]), max_iter=st.integers(1, 25),
       rows=st.integers(1, 4), order=st.sampled_from("CF"))
def test_sse_summed_in_row_blocks_matches_the_loop_oracle(
    n, k, d, seed, lattice, n_dup, n_shared, eps, max_iter, rows, order
):
    # blocks of a few rows, so that a round sums several, of C- or F-ordered x
    x, k, init = _awkward(n, k, d, seed, lattice, n_dup, n_shared)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys.modules["pfclust.kmeans"], "_BLOCK", 8 * d * rows)
        _assert_matches_loop_oracle(np.asarray(x, order=order), k, init, eps, max_iter)


def test_peak_memory_is_bounded():
    # a round holds one block of residuals, not an n x d gather and buffer
    # (3.3 x.nbytes); SqDistances' centred copy of x is the rest
    x = np.random.default_rng(0).normal(size=(20000, 72))
    tracemalloc.start()
    try:
        kmeans(x, 20, seed=0, max_iter=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * x.nbytes


def _set_mean(x, rows):
    return x[sorted(rows)].mean(axis=0)


@settings(max_examples=150, deadline=None)
@given(**_AWKWARD, zeta=st.sampled_from([1.0, 1.05, 1.3, 2.0, 1e6]),
       w_lower=st.sampled_from([0.5, 0.7, 1.0]))
def test_one_round_centroids_are_the_set_means(
    n, k, d, seed, lattice, n_dup, n_shared, zeta, w_lower
):
    # the oracles share weighted_means, so this checks it against plain
    # per-set means: within 1e-12 of the data scale, and bit-equal on
    # lattice data, whose sums are exact in any order
    x, k, init = _awkward(n, k, d, seed, lattice, n_dup, n_shared)
    hard = kmeans(x, k, max_iter=1, init_centroids=init)
    want_hard = np.array([_set_mean(x, np.flatnonzero(hard.assignments == j)) for j in range(k)])
    rough = rough_kmeans(x, k, zeta=zeta, w_lower=w_lower, max_iter=1, init_centroids=init)
    want_rough = np.empty_like(init)
    for j in range(k):
        low, bound = rough.lower[j], rough.boundary(j)
        if low and bound:
            want_rough[j] = w_lower * _set_mean(x, low) + (1.0 - w_lower) * _set_mean(x, bound)
        else:
            want_rough[j] = _set_mean(x, low or bound) if low or bound else init[j]
    tol = 1e-12 * max(np.abs(x).max(), np.abs(init).max())
    for got, want in ((hard.centroids, want_hard), (rough.centroids, want_rough)):
        if lattice:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= tol


def test_weighted_means_of_an_empty_column_is_a_zero_row():
    x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    g = np.array([[1.0, 0.0, 0.5], [1.0, 0.0, 0.0], [0.0, 0.0, 1.5]])
    means, mass = weighted_means(g, x)
    assert np.array_equal(mass, [2.0, 0.0, 2.0])
    assert np.array_equal(means, [[2.0, 3.0], [0.0, 0.0], [4.0, 5.0]])


def test_rough_keeps_the_centroid_of_an_empty_upper_set():
    # no gene is near the third centroid, so its upper set is empty
    x = np.array([[0.0], [1.0], [10.0], [11.0]])
    init = np.array([[0.0], [11.0], [100.0]])
    part = rough_kmeans(x, 3, zeta=1.0, max_iter=1, init_centroids=init)
    assert part.upper[2] == frozenset()
    assert np.array_equal(part.centroids, [[0.5], [10.5], [100.0]])
