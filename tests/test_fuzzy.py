import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pfclust.fuzzy
from pfclust import (
    NumericalError,
    compute_alpha,
    compute_centroids,
    fcm,
    generate_synthetic,
    pfcm,
    pfcm_objective,
    run_algorithm,
    update_memberships,
    z_score,
)

from pfclust._util import sq_distances

import _oracles
from _oracles import objective


def test_compute_alpha_uniform():
    u = np.full((6, 3), 1.0 / 3.0)
    alpha = compute_alpha(u ** 2.0)
    assert np.allclose(alpha, 1.0 / 3.0, atol=1e-12)
    assert float(alpha.sum()) == 1.0


def test_compute_alpha_single_cluster():
    alpha = compute_alpha(np.ones((4, 1)) ** 2.0)
    assert alpha.tolist() == [1.0]


def test_compute_alpha_crisp_counts():
    # crisp memberships: alpha reduces to cluster size fractions
    u = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    alpha = compute_alpha(u ** 2.0)
    assert alpha[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert alpha[1] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert float(alpha.sum()) == 1.0


def test_compute_alpha_zero_mass():
    with pytest.raises(ValueError, match="zero total mass"):
        compute_alpha(np.zeros((3, 2)) ** 2.0)


def test_compute_alpha_floor_keeps_positive():
    u = np.array([[1.0, 0.0], [1.0, 0.0]])
    alpha = compute_alpha(u ** 2.0)
    assert (alpha > 0.0).all()
    assert float(alpha.sum()) == 1.0


def test_compute_centroids_crisp():
    u = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    x = np.array([[0.0], [1.0], [10.0], [11.0]])
    w = compute_centroids(u ** 2.0, x)
    assert w.tolist() == [[0.5], [10.5]]


def test_compute_centroids_weighted():
    u = np.array([[0.2], [0.8]])
    x = np.array([[1.0], [0.0]])
    w = compute_centroids(u ** 2.0, x)
    # 0.2^2 * 1 / (0.2^2 + 0.8^2) = 0.04 / 0.68
    assert w[0, 0] == pytest.approx(0.04 / 0.68, abs=1e-15)


def test_compute_centroids_zero_mass_cluster():
    u = np.array([[1.0, 0.0], [1.0, 0.0]])
    x = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError, match="cluster 1 has zero membership mass"):
        compute_centroids(u ** 2.0, x)


def test_update_equidistant_splits_evenly():
    x = np.array([[0.0, 0.0]])
    w = np.array([[1.0, 0.0], [-1.0, 0.0]])
    u = update_memberships(sq_distances(x, w), np.array([0.5, 0.5]), 2.0, 0.0)
    assert np.allclose(u, 0.5, atol=1e-15)


def test_update_inverse_square_weighting():
    # v=0, m=2: memberships proportional to 1/d^2, here d^2 = (1, 4)
    x = np.array([[0.0]])
    w = np.array([[1.0], [-2.0]])
    u = update_memberships(sq_distances(x, w), np.array([0.5, 0.5]), 2.0, 0.0)
    assert u[0, 0] == pytest.approx(0.8, abs=1e-15)
    assert u[0, 1] == pytest.approx(0.2, abs=1e-15)


def test_update_penalty_favors_big_cluster():
    # equidistant gene, unbalanced proportions: the log penalty shifts
    # membership toward the larger cluster
    x = np.array([[0.0]])
    w = np.array([[1.0], [-1.0]])
    alpha = np.array([0.8, 0.2])
    u = update_memberships(sq_distances(x, w), alpha, 2.0, 1.0)
    d1 = 1.0 - math.log(0.8)
    d2 = 1.0 - math.log(0.2)
    assert u[0, 0] == pytest.approx(d2 / (d1 + d2), abs=1e-15)
    assert u[0, 1] == pytest.approx(d1 / (d1 + d2), abs=1e-15)
    assert u[0, 0] > u[0, 1]


def test_update_gene_on_centroid_goes_crisp():
    x = np.array([[0.0], [5.0]])
    w = np.array([[0.0], [5.0]])
    u = update_memberships(sq_distances(x, w), np.array([0.5, 0.5]), 2.0, 0.0)
    assert u.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_update_tie_on_coincident_centroids_splits():
    x = np.array([[0.0]])
    w = np.array([[0.0], [0.0]])
    u = update_memberships(sq_distances(x, w), np.array([0.5, 0.5]), 2.0, 0.0)
    assert u.tolist() == [[0.5, 0.5]]


# a few values, so that rows hold exact zeros, near-zero entries on both
# sides of the 1e-12 singularity bound, and exact ties
_D2_VALUES = st.one_of(
    st.sampled_from([0.0, 1e-13, 1e-12, 2e-12, 1.0, 2.0]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def _update_inputs(draw):
    n, k = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    d2 = draw(st.lists(_D2_VALUES, min_size=n * k, max_size=n * k))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    return np.array(d2).reshape(n, k), weights / weights.sum()


@given(
    inputs=_update_inputs(),
    m=st.one_of(st.sampled_from([1.5, 2.0, 3.0]), st.floats(1.05, 6.0)),
    v=st.sampled_from([0.0, 0.0, 0.5, 2.0]),
)
# rows with two zeros, all zeros, an entry at the bound, a tie, and a regular row
@example(
    inputs=(
        np.array([[0.0, 3.0, 0.0], [0.0, 0.0, 0.0], [1e-12, 4.0, 4.0], [2.0, 2.0, 5.0]]),
        np.array([0.2, 0.3, 0.5]),
    ),
    m=2.5,
    v=0.0,
)
@settings(max_examples=300, deadline=None)
def test_update_matches_the_split_row_paths(inputs, m, v):
    d2, alpha = inputs
    got = update_memberships(d2, alpha, m, v)
    want = _oracles.update_memberships(d2, alpha, m, v)
    for got_row, want_row in zip(got, want):
        assert got_row.tobytes() == want_row.tobytes()


def test_update_fuzzier_m_flattens_memberships():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(12, 3))
    w = rng.normal(size=(3, 3))
    alpha = np.array([0.5, 0.3, 0.2])
    dev = {}
    for m in (2.0, 12.0):
        u = update_memberships(sq_distances(x, w), alpha, m, 1.0)
        dev[m] = float(np.abs(u - 1.0 / 3.0).max())
    assert dev[12.0] < dev[2.0]


def test_objective_hand_value():
    u = np.array([[1.0, 0.0], [0.0, 1.0]])
    w = np.array([[0.0], [3.0]])
    x = np.array([[1.0], [3.0]])
    alpha = np.array([0.5, 0.5])
    # scatter = 1/2 * (1*1 + 0) = 0.5; penalty = -1/2 * v * (ln .5 + ln .5)
    got = pfcm_objective(u ** 2.0, sq_distances(x, w), alpha, 2.0)
    assert got == pytest.approx(0.5 + math.log(2.0) * 2.0, abs=1e-12)
    assert pfcm_objective(u ** 2.0, sq_distances(x, w), alpha, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert pfcm_objective(u ** 2.0, sq_distances(x, w), None, 2.0) == pytest.approx(0.5, abs=1e-15)


def test_objective_matches_loop_oracle():
    rng = np.random.default_rng(37)
    x = rng.normal(size=(9, 2))
    u = rng.random((9, 3))
    u /= u.sum(axis=1, keepdims=True)
    w = rng.normal(size=(3, 2))
    alpha = compute_alpha(u ** 2.0)
    for v in (0.0, 0.7, 2.0):
        got = pfcm_objective(u ** 2.0, sq_distances(x, w), alpha, v)
        want = objective(u, w, x, 2.0, v, alpha=alpha)
        assert got == pytest.approx(want, rel=1e-12)


def test_pfcm_single_cluster_trivial():
    rng = np.random.default_rng(41)
    x = rng.normal(size=(5, 2))
    part = pfcm(x, 1, seed=0)
    assert part.memberships.tolist() == [[1.0]] * 5
    assert part.alpha.tolist() == [1.0]
    assert np.allclose(part.centroids[0], x.mean(axis=0), atol=1e-12)
    assert part.converged
    assert part.iterations == 1


def test_pfcm_separated_bumps_near_crisp():
    rng = np.random.default_rng(43)
    x = np.vstack(
        [rng.normal(0.0, 0.1, size=(15, 2)), rng.normal(20.0, 0.1, size=(15, 2))]
    )
    part = pfcm(x, 2, seed=1)
    assert part.converged
    top = part.memberships.max(axis=1)
    assert (top > 0.99).all()
    labels = part.assignments
    assert len(set(labels[:15].tolist())) == 1
    assert len(set(labels[15:].tolist())) == 1
    assert labels[0] != labels[15]
    assert np.allclose(np.sort(part.alpha), [0.5, 0.5], atol=1e-3)


def test_fcm_is_pfcm_at_zero_penalty():
    rng = np.random.default_rng(47)
    x = rng.normal(size=(30, 4))
    a = pfcm(x, 3, v=0.0, seed=5)
    b = fcm(x, 3, seed=5)
    assert np.array_equal(a.memberships, b.memberships)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.trace == b.trace
    assert b.alpha is None
    assert a.alpha is not None


def test_row_sums_and_alpha_every_iteration():
    rng = np.random.default_rng(53)
    for trial, (m, v) in enumerate([(1.5, 0.0), (2.0, 1.0), (3.0, 0.5)]):
        x = rng.normal(size=(25, 3))
        run = pfcm(x, 4, m=m, v=v, seed=trial)
        assert run.iterations
        # the start, whose proportions are fitted from u**m as the run fits
        # them, then the state after update t: the same call with
        # max_iter=t, whose updates are the run's first t
        u0 = _oracles.fuzzy_start(x, 4, m, trial)
        states = [(u0, compute_alpha(u0 ** m))]
        for t in range(1, run.iterations + 1):
            part = pfcm(x, 4, m=m, v=v, seed=trial, max_iter=t)
            assert part.delta == run.delta[:t]
            states.append((part.memberships, part.alpha))
        for u, alpha in states:
            assert np.abs(u.sum(axis=1) - 1.0).max() <= 1e-9
            assert abs(float(alpha.sum()) - 1.0) <= 1e-12
            assert (alpha > 0.0).all()
            assert (u >= 0.0).all()


def test_objective_trace_non_increasing():
    rng = np.random.default_rng(59)
    for seed in range(3):
        x = rng.normal(size=(40, 3))
        for v in (0.0, 0.5, 2.0):
            for m in (1.5, 2.0, 3.0):
                part = pfcm(x, 3, m=m, v=v, seed=seed)
                diffs = np.diff(part.trace)
                assert (diffs <= 1e-9).all(), (seed, v, m, part.trace)
                assert len(part.trace) == part.iterations + 1


def test_trace_final_entry_matches_returned_state():
    rng = np.random.default_rng(61)
    x = rng.normal(size=(20, 2))
    part = pfcm(x, 2, seed=3)
    j = pfcm_objective(
        part.memberships ** 2.0, sq_distances(x, part.centroids), part.alpha, 1.0
    )
    assert part.trace[-1] == pytest.approx(j, rel=1e-12)


def test_column_permutation_equivariance():
    rng = np.random.default_rng(67)
    x = rng.normal(size=(18, 2))
    u0 = rng.random((18, 3))
    perm = [2, 0, 1]
    base = pfcm(x, 3, eps=1e-12, max_iter=5, seed=0, u_init=u0)
    permuted = pfcm(x, 3, eps=1e-12, max_iter=5, seed=0, u_init=u0[:, perm])
    assert np.allclose(permuted.memberships, base.memberships[:, perm], atol=1e-9)
    assert np.allclose(permuted.alpha, base.alpha[perm], atol=1e-9)


def test_u_init_rows_renormalized():
    rng = np.random.default_rng(71)
    x = rng.normal(size=(10, 2))
    u0 = rng.random((10, 2))
    a = pfcm(x, 2, seed=0, u_init=u0)
    b = pfcm(x, 2, seed=0, u_init=u0 * 2.0)
    assert np.array_equal(a.memberships, b.memberships)
    # a zero cell is a start too, in a row with mass
    u0[3, 1] = 0.0
    a = pfcm(x, 2, seed=0, u_init=u0)
    b = pfcm(x, 2, seed=0, u_init=u0 * 2.0)
    assert np.array_equal(a.memberships, b.memberships)


def test_u_init_shape_checked():
    x = np.zeros((4, 2))
    with pytest.raises(ValueError, match="shape"):
        pfcm(x, 2, u_init=np.full((3, 2), 0.5))


def test_c_out_of_range():
    x = np.zeros((3, 2))
    with pytest.raises(ValueError):
        pfcm(x, 4)


def test_config_validation():
    x = np.zeros((3, 2))
    with pytest.raises(ValueError):
        pfcm(x, 0)
    with pytest.raises(ValueError):
        pfcm(x, 2, m=1.0)
    with pytest.raises(ValueError):
        pfcm(x, 2, v=-0.1)
    with pytest.raises(ValueError):
        pfcm(x, 2, eps=0.0)
    with pytest.raises(ValueError):
        pfcm(x, 2, max_iter=0)


@pytest.mark.parametrize("alg", ["kmeans", "rough_kmeans", "fcm", "pfcm"])
def test_overflowing_data_raises_numerical_error(alg):
    # every squared distance between these rows overflows; the message names the run
    x = np.array([[1e200], [-1e200], [0.0]])
    with pytest.raises(NumericalError, match=r"non-finite.*seed=0$"):
        run_algorithm(alg, x, 2, seed=0)


def test_deterministic_per_seed():
    rng = np.random.default_rng(73)
    x = rng.normal(size=(22, 3))
    a = pfcm(x, 3, seed=11)
    b = pfcm(x, 3, seed=11)
    assert np.array_equal(a.memberships, b.memberships)
    assert a.trace == b.trace


@st.composite
def fuzzy_cases(draw):
    """Small fuzzy runs, some with duplicate rows or every row equal."""
    d = draw(st.integers(1, 3))
    n_distinct = draw(st.integers(1, 5))
    base = draw(
        st.lists(
            st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=d, max_size=d),
            min_size=n_distinct,
            max_size=n_distinct,
        )
    )
    rows = draw(st.lists(st.integers(0, n_distinct - 1), min_size=2, max_size=12))
    x = np.array([base[i] for i in rows])
    c = draw(st.integers(1, min(4, x.shape[0])))
    seed = draw(st.integers(0, 2**16))
    u_init = (
        np.random.default_rng(seed + 1).random((x.shape[0], c))
        if draw(st.booleans())
        else None
    )
    params = dict(
        m=draw(st.sampled_from([1.5, 2.0, 3.0])),
        v=draw(st.sampled_from([0.0, 0.5, 2.0])),
        eps=draw(st.sampled_from([1e-9, 1e-5, 1e-2])),
        max_iter=draw(st.integers(1, 30)),
        seed=seed,
    )
    return x, c, params, u_init


def _replayed_run(run, x, c, max_iter, **kwargs):
    """The run's result or its NumericalError text, and the state after each
    update t: the same call's result with max_iter=t, replayed until one
    stops by tolerance or raises (that one raises the run's text)."""
    try:
        part = run(x, c, max_iter=max_iter, **kwargs)
    except NumericalError as exc:
        part = str(exc)
    states = []
    for t in range(1, max_iter + 1):
        try:
            states.append(run(x, c, max_iter=t, **kwargs))
        except NumericalError as exc:
            assert str(exc) == part
            break
        if states[-1].converged:
            break
    return part, states


def _oracle_run(*args):
    states = []
    try:
        part = _oracles.pfcm(*args, on_iteration=lambda u, w, alpha: states.append((u, w, alpha)))
    except NumericalError as exc:
        return str(exc), states
    return part, states


@settings(max_examples=120, deadline=None)
@given(case=fuzzy_cases(), plain=st.booleans())
def test_matches_parent_loop_oracle(case, plain):
    x, c, params, u_init = case
    v = 0.0 if plain else params["v"]
    kwargs = {key: value for key, value in params.items() if not (plain and key == "v")}
    got, got_states = _replayed_run(fcm if plain else pfcm, x, c, u_init=u_init, **kwargs)
    want, want_states = _oracle_run(
        x, c, params["m"], v, params["eps"], params["max_iter"], params["seed"], u_init
    )
    replayed = len(want_states)
    if isinstance(want, str):
        assert got == want
        # the last U of a run that raised is the one its own fit raised on,
        # so its replay raised the run's text instead of returning a state
        replayed = max(replayed - 1, 0)
    else:
        assert np.array_equal(got.memberships, want.memberships)
        assert np.array_equal(got.centroids, want.centroids)
        if plain:
            assert got.alpha is None
        else:
            assert np.array_equal(got.alpha, want.alpha)
        assert got.trace == want.trace
        assert got.iterations == want.iterations
        assert got.converged == want.converged
        assert pickle.dumps(got_states[-1]) == pickle.dumps(got)
    # the oracle reports U after update t with the W and alpha fitted to U
    # after t - 1 updates, which a replay gives as the state before; fcm
    # fits alpha too but drops it, so its alpha is fitted from u**m as the
    # run fits it
    assert len(got_states) == replayed
    for t, (u, w, alpha) in enumerate(want_states, 1):
        if t <= replayed:
            assert np.array_equal(got_states[t - 1].memberships, u)
        if t > 1:
            before = got_states[t - 2]
            assert np.array_equal(before.centroids, w)
            fitted = compute_alpha(before.memberships ** params["m"]) if plain else before.alpha
            assert np.array_equal(fitted, alpha)


def test_one_distance_kernel_call_per_state(monkeypatch):
    binds = []
    calls = []

    class Counted(pfclust.fuzzy.SqDistances):
        def __init__(self, x):
            binds.append(None)
            super().__init__(x)

        def __call__(self, w):
            calls.append(None)
            return super().__call__(w)

    monkeypatch.setattr(pfclust.fuzzy, "SqDistances", Counted)
    x = np.random.default_rng(79).normal(size=(30, 3))
    part = pfcm(x, 3, v=0.5, seed=2)
    assert part.iterations > 1
    # the data is bound once; the kernel is applied once for the start,
    # then once per fitted state
    assert len(binds) == 1
    assert len(calls) == part.iterations + 2


@pytest.mark.parametrize("run", [fcm, pfcm])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_default_start_recovers_separated_bumps(run, seed):
    # on this input a random membership start sends every centroid to the
    # centre of gravity, so each row ends with memberships of about 1/7
    centres = np.random.default_rng(0).normal(0.0, 3.0, size=(7, 38))
    matrix, labels = generate_synthetic([(c, 1.0, 40) for c in centres], seed=0)
    part = run(z_score(matrix), 7, seed=seed)
    hard = part.assignments
    per_bump = [set(hard[labels == b].tolist()) for b in range(7)]
    assert all(len(found) == 1 for found in per_bump)
    assert len(set.union(*per_bump)) == 7
