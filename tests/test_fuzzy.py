import math

import numpy as np
import pytest

from pfclust import (
    FuzzyConfig,
    NumericalError,
    compute_alpha,
    compute_centroids,
    fcm,
    pfcm,
    pfcm_objective,
    update_memberships,
)

from _oracles import objective


def test_compute_alpha_uniform():
    u = np.full((6, 3), 1.0 / 3.0)
    alpha = compute_alpha(u, 2.0)
    assert np.allclose(alpha, 1.0 / 3.0, atol=1e-12)
    assert float(alpha.sum()) == 1.0


def test_compute_alpha_single_cluster():
    alpha = compute_alpha(np.ones((4, 1)), 2.0)
    assert alpha.tolist() == [1.0]


def test_compute_alpha_crisp_counts():
    # crisp memberships: alpha reduces to cluster size fractions
    u = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    alpha = compute_alpha(u, 2.0)
    assert alpha[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert alpha[1] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert float(alpha.sum()) == 1.0


def test_compute_alpha_zero_mass():
    with pytest.raises(ValueError, match="zero total mass"):
        compute_alpha(np.zeros((3, 2)), 2.0)


def test_compute_alpha_floor_keeps_positive():
    u = np.array([[1.0, 0.0], [1.0, 0.0]])
    alpha = compute_alpha(u, 2.0)
    assert (alpha > 0.0).all()
    assert float(alpha.sum()) == 1.0


def test_compute_centroids_crisp():
    u = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    x = np.array([[0.0], [1.0], [10.0], [11.0]])
    w = compute_centroids(u, 2.0, x)
    assert w.tolist() == [[0.5], [10.5]]


def test_compute_centroids_weighted():
    u = np.array([[0.2], [0.8]])
    x = np.array([[1.0], [0.0]])
    w = compute_centroids(u, 2.0, x)
    # 0.2^2 * 1 / (0.2^2 + 0.8^2) = 0.04 / 0.68
    assert w[0, 0] == pytest.approx(0.04 / 0.68, abs=1e-15)


def test_compute_centroids_zero_mass_cluster():
    u = np.array([[1.0, 0.0], [1.0, 0.0]])
    x = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError, match="cluster 1 has zero membership mass"):
        compute_centroids(u, 2.0, x)


def test_update_equidistant_splits_evenly():
    x = np.array([[0.0, 0.0]])
    w = np.array([[1.0, 0.0], [-1.0, 0.0]])
    u = update_memberships(x, w, np.array([0.5, 0.5]), 2.0, 0.0)
    assert np.allclose(u, 0.5, atol=1e-15)


def test_update_inverse_square_weighting():
    # v=0, m=2: memberships proportional to 1/d^2, here d^2 = (1, 4)
    x = np.array([[0.0]])
    w = np.array([[1.0], [-2.0]])
    u = update_memberships(x, w, np.array([0.5, 0.5]), 2.0, 0.0)
    assert u[0, 0] == pytest.approx(0.8, abs=1e-15)
    assert u[0, 1] == pytest.approx(0.2, abs=1e-15)


def test_update_penalty_favors_big_cluster():
    # equidistant gene, unbalanced proportions: the log penalty shifts
    # membership toward the larger cluster
    x = np.array([[0.0]])
    w = np.array([[1.0], [-1.0]])
    alpha = np.array([0.8, 0.2])
    u = update_memberships(x, w, alpha, 2.0, 1.0)
    d1 = 1.0 - math.log(0.8)
    d2 = 1.0 - math.log(0.2)
    assert u[0, 0] == pytest.approx(d2 / (d1 + d2), abs=1e-15)
    assert u[0, 1] == pytest.approx(d1 / (d1 + d2), abs=1e-15)
    assert u[0, 0] > u[0, 1]


def test_update_gene_on_centroid_goes_crisp():
    x = np.array([[0.0], [5.0]])
    w = np.array([[0.0], [5.0]])
    u = update_memberships(x, w, np.array([0.5, 0.5]), 2.0, 0.0)
    assert u.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_update_tie_on_coincident_centroids_splits():
    x = np.array([[0.0]])
    w = np.array([[0.0], [0.0]])
    u = update_memberships(x, w, np.array([0.5, 0.5]), 2.0, 0.0)
    assert u.tolist() == [[0.5, 0.5]]


def test_update_fuzzier_m_flattens_memberships():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(12, 3))
    w = rng.normal(size=(3, 3))
    alpha = np.array([0.5, 0.3, 0.2])
    dev = {}
    for m in (2.0, 12.0):
        u = update_memberships(x, w, alpha, m, 1.0)
        dev[m] = float(np.abs(u - 1.0 / 3.0).max())
    assert dev[12.0] < dev[2.0]


def test_objective_hand_value():
    u = np.array([[1.0, 0.0], [0.0, 1.0]])
    w = np.array([[0.0], [3.0]])
    x = np.array([[1.0], [3.0]])
    alpha = np.array([0.5, 0.5])
    # scatter = 1/2 * (1*1 + 0) = 0.5; penalty = -1/2 * v * (ln .5 + ln .5)
    got = pfcm_objective(u, w, alpha, x, 2.0, 2.0)
    assert got == pytest.approx(0.5 + math.log(2.0) * 2.0, abs=1e-12)
    assert pfcm_objective(u, w, alpha, x, 2.0, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert pfcm_objective(u, w, None, x, 2.0, 2.0) == pytest.approx(0.5, abs=1e-15)


def test_objective_matches_loop_oracle():
    rng = np.random.default_rng(37)
    x = rng.normal(size=(9, 2))
    u = rng.random((9, 3))
    u /= u.sum(axis=1, keepdims=True)
    w = rng.normal(size=(3, 2))
    alpha = compute_alpha(u, 2.0)
    for v in (0.0, 0.7, 2.0):
        got = pfcm_objective(u, w, alpha, x, 2.0, v)
        want = objective(u, w, x, 2.0, v, alpha=alpha)
        assert got == pytest.approx(want, rel=1e-12)


def test_pfcm_single_cluster_trivial():
    rng = np.random.default_rng(41)
    x = rng.normal(size=(5, 2))
    part = pfcm(x, FuzzyConfig(c=1, seed=0))
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
    part = pfcm(x, FuzzyConfig(c=2, seed=1))
    assert part.converged
    top = part.memberships.max(axis=1)
    assert (top > 0.99).all()
    labels = part.hard_assignments()
    assert len(set(labels[:15].tolist())) == 1
    assert len(set(labels[15:].tolist())) == 1
    assert labels[0] != labels[15]
    assert np.allclose(np.sort(part.alpha), [0.5, 0.5], atol=1e-3)


def test_fcm_is_pfcm_at_zero_penalty():
    rng = np.random.default_rng(47)
    x = rng.normal(size=(30, 4))
    a = pfcm(x, FuzzyConfig(c=3, v=0.0, seed=5))
    b = fcm(x, FuzzyConfig(c=3, v=7.5, seed=5))
    assert np.array_equal(a.memberships, b.memberships)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.objective_trace == b.objective_trace
    assert b.alpha is None
    assert a.alpha is not None


def test_row_sums_and_alpha_every_iteration():
    rng = np.random.default_rng(53)
    for trial, (m, v) in enumerate([(1.5, 0.0), (2.0, 1.0), (3.0, 0.5)]):
        x = rng.normal(size=(25, 3))
        states = []
        pfcm(
            x,
            FuzzyConfig(c=4, m=m, v=v, seed=trial),
            on_iteration=lambda u, w, alpha: states.append((u, alpha)),
        )
        assert states
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
                part = pfcm(x, FuzzyConfig(c=3, m=m, v=v, seed=seed))
                diffs = np.diff(part.objective_trace)
                assert (diffs <= 1e-9).all(), (seed, v, m, part.objective_trace)
                assert len(part.objective_trace) == part.iterations + 1


def test_trace_final_entry_matches_returned_state():
    rng = np.random.default_rng(61)
    x = rng.normal(size=(20, 2))
    part = pfcm(x, FuzzyConfig(c=2, seed=3))
    j = pfcm_objective(
        part.memberships, part.centroids, part.alpha, x, 2.0, 1.0
    )
    assert part.objective_trace[-1] == pytest.approx(j, rel=1e-12)


def test_column_permutation_equivariance():
    rng = np.random.default_rng(67)
    x = rng.normal(size=(18, 2))
    u0 = rng.random((18, 3))
    perm = [2, 0, 1]
    cfg = FuzzyConfig(c=3, eps=1e-12, max_iter=5, seed=0)
    base = pfcm(x, cfg, u_init=u0)
    permuted = pfcm(x, cfg, u_init=u0[:, perm])
    assert np.allclose(permuted.memberships, base.memberships[:, perm], atol=1e-9)
    assert np.allclose(permuted.alpha, base.alpha[perm], atol=1e-9)


def test_u_init_rows_renormalized():
    rng = np.random.default_rng(71)
    x = rng.normal(size=(10, 2))
    u0 = rng.random((10, 2))
    cfg = FuzzyConfig(c=2, seed=0)
    a = pfcm(x, cfg, u_init=u0)
    b = pfcm(x, cfg, u_init=u0 * 2.0)
    assert np.array_equal(a.memberships, b.memberships)


def test_u_init_shape_checked():
    x = np.zeros((4, 2))
    with pytest.raises(ValueError, match="shape"):
        pfcm(x, FuzzyConfig(c=2), u_init=np.full((3, 2), 0.5))


def test_c_out_of_range():
    x = np.zeros((3, 2))
    with pytest.raises(ValueError):
        pfcm(x, FuzzyConfig(c=4))


def test_config_validation():
    with pytest.raises(ValueError):
        FuzzyConfig(c=0)
    with pytest.raises(ValueError):
        FuzzyConfig(c=2, m=1.0)
    with pytest.raises(ValueError):
        FuzzyConfig(c=2, v=-0.1)
    with pytest.raises(ValueError):
        FuzzyConfig(c=2, eps=0.0)
    with pytest.raises(ValueError):
        FuzzyConfig(c=2, max_iter=0)


def test_overflowing_data_raises_numerical_error():
    x = np.array([[1e200], [-1e200], [0.0]])
    with pytest.raises(NumericalError, match="non-finite"):
        pfcm(x, FuzzyConfig(c=2, seed=0))


def test_deterministic_per_seed():
    rng = np.random.default_rng(73)
    x = rng.normal(size=(22, 3))
    a = pfcm(x, FuzzyConfig(c=3, seed=11))
    b = pfcm(x, FuzzyConfig(c=3, seed=11))
    assert np.array_equal(a.memberships, b.memberships)
    assert a.objective_trace == b.objective_trace
