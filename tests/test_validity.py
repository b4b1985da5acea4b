import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfclust import (
    DEFAULTS,
    FuzzyPartition,
    HardPartition,
    RoughPartition,
    ValidityReport,
    evaluate,
    fcm,
    kmeans,
    mae,
    parse_matrix,
    rmse,
    rough_kmeans,
    run_algorithm,
    unified_memberships,
    xie_beni,
)
from pfclust.validity import score


def _hard(assignments, centroids):
    a = np.asarray(assignments)
    w = np.asarray(centroids, dtype=float)
    return HardPartition(
        assignments=a, centroids=w, iterations=1, trace=(0.0,)
    )


def test_unified_hard_one_hot():
    p = _hard([0, 1, 1], [[0.0], [1.0]])
    u = unified_memberships(p)
    assert u.tolist() == [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]


def test_unified_fuzzy_is_a_copy():
    mem = np.array([[0.3, 0.7], [0.6, 0.4]])
    p = FuzzyPartition(
        memberships=mem,
        centroids=np.zeros((2, 1)),
        alpha=None,
        trace=(0.0,),
        iterations=1,
        stop_reason="tolerance",
    )
    u = unified_memberships(p)
    assert np.array_equal(u, mem)
    u[0, 0] = 99.0
    assert mem[0, 0] == 0.3


def test_unified_rough_splits_boundary():
    p = RoughPartition(
        member=np.array([[True, False], [False, True], [True, True]]),
        centroids=np.zeros((2, 1)),
        iterations=1,
    )
    u = unified_memberships(p)
    assert u.tolist() == [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]


def test_four_point_fixture_exact(four_points):
    u = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    w = np.array([[0.5], [10.5]])
    assert rmse(four_points, u, w) == pytest.approx(0.5, abs=1e-12)
    assert mae(four_points, u, w) == pytest.approx(0.5, abs=1e-12)
    assert xie_beni(four_points, u, w) == pytest.approx(0.0025, abs=1e-12)


def test_perfect_fit_scores_zero():
    x = np.array([[0.0, 0.0], [4.0, 4.0]])
    u = np.eye(2)
    w = x.copy()
    assert rmse(x, u, w) == 0.0
    assert mae(x, u, w) == 0.0
    assert xie_beni(x, u, w) == 0.0


def test_single_cluster_rmse_mae():
    x = np.array([[0.0], [2.0]])
    u = np.ones((2, 1))
    w = np.array([[1.0]])
    assert rmse(x, u, w) == pytest.approx(1.0, abs=1e-15)
    assert mae(x, u, w) == pytest.approx(1.0, abs=1e-15)


def test_mae_uniform_memberships():
    x = np.array([[0.0]])
    u = np.array([[0.5, 0.5]])
    w = np.array([[1.0], [-1.0]])
    # u^2 weighting: 0.25 * 1 + 0.25 * 1
    assert mae(x, u, w) == pytest.approx(0.5, abs=1e-15)


def test_fuzzifier_exponent_applied():
    x = np.array([[0.0]])
    u = np.array([[0.5, 0.5]])
    w = np.array([[1.0], [-1.0]])
    assert mae(x, u, w, m=1.0) == pytest.approx(1.0, abs=1e-15)
    assert rmse(x, u, w, m=1.0) == pytest.approx(1.0, abs=1e-15)
    assert rmse(x, u, w, m=3.0) == pytest.approx(0.5, abs=1e-15)


def test_xie_beni_requires_two_centroids():
    x = np.zeros((2, 1))
    with pytest.raises(ValueError, match="2 centroids"):
        xie_beni(x, np.ones((2, 1)), np.zeros((1, 1)))


def test_xie_beni_coincident_centroids_infinite():
    x = np.array([[0.0], [1.0]])
    u = np.full((2, 2), 0.5)
    w = np.array([[0.5], [0.5]])
    assert xie_beni(x, u, w) == math.inf


def test_xie_beni_always_squares_memberships():
    # memberships enter squared even when the run used another fuzzifier,
    # so only the u values matter here
    x = np.array([[0.0], [4.0]])
    u = np.array([[0.9, 0.1], [0.1, 0.9]])
    w = np.array([[1.0], [3.0]])
    scatter = (
        0.81 * 1.0 + 0.01 * 9.0 + 0.01 * 9.0 + 0.81 * 1.0
    )
    assert xie_beni(x, u, w) == pytest.approx(scatter / (2 * 4.0), rel=1e-12)


def test_cluster_label_permutation_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(10, 3))
    u = rng.random((10, 3))
    u /= u.sum(axis=1, keepdims=True)
    w = rng.normal(size=(3, 3))
    perm = [2, 0, 1]
    for fn in (rmse, mae):
        assert fn(x, u, w) == pytest.approx(fn(x, u[:, perm], w[perm]), rel=1e-12)
    assert xie_beni(x, u, w) == pytest.approx(
        xie_beni(x, u[:, perm], w[perm]), rel=1e-12
    )


def test_gene_order_permutation_invariance():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(8, 2))
    u = rng.random((8, 2))
    u /= u.sum(axis=1, keepdims=True)
    w = rng.normal(size=(2, 2))
    order = rng.permutation(8)
    for fn in (rmse, mae):
        assert fn(x, u, w) == pytest.approx(fn(x[order], u[order], w), rel=1e-12)
    assert xie_beni(x, u, w) == pytest.approx(
        xie_beni(x[order], u[order], w), rel=1e-12
    )


def test_rmse_rotation_invariant():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(12, 2))
    u = rng.random((12, 2))
    u /= u.sum(axis=1, keepdims=True)
    w = rng.normal(size=(2, 2))
    theta = 0.7
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    assert rmse(x @ rot.T, u, w @ rot.T) == pytest.approx(rmse(x, u, w), rel=1e-9)


def test_mae_coordinate_permutation_invariant():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(12, 3))
    u = rng.random((12, 2))
    u /= u.sum(axis=1, keepdims=True)
    w = rng.normal(size=(2, 3))
    cols = [2, 0, 1]
    assert mae(x[:, cols], u, w[:, cols]) == pytest.approx(mae(x, u, w), rel=1e-12)


def test_shape_mismatch_rejected():
    x = np.zeros((4, 2))
    with pytest.raises(ValueError, match="shapes"):
        rmse(x, np.ones((3, 2)) / 2, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="shapes"):
        mae(x, np.ones((4, 2)) / 2, np.zeros((2, 3)))


def test_xie_beni_picks_true_cluster_count():
    rng = np.random.default_rng(11)
    centers = np.array([[0.0, 0.0], [12.0, 0.0], [0.0, 12.0]])
    x = np.vstack([rng.normal(c, 0.5, size=(25, 2)) for c in centers])
    scores = {}
    for k in range(2, 6):
        part = fcm(x, k, seed=1)
        scores[k] = xie_beni(x, part.memberships, part.centroids)
    assert min(scores, key=scores.get) == 3, scores


def test_evaluate_infers_algorithm():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(12, 2))
    assert evaluate(x, kmeans(x, 2)).algorithm == "kmeans"
    assert evaluate(x, rough_kmeans(x, 2)).algorithm == "rough_kmeans"
    from pfclust import pfcm

    assert evaluate(x, pfcm(x, 2, seed=0)).algorithm == "pfcm"
    assert evaluate(x, fcm(x, 2, seed=0)).algorithm == "fcm"
    assert evaluate(x, kmeans(x, 2), algorithm="rough_kmeans").algorithm == "rough_kmeans"


def test_evaluate_default_m_follows_the_partition_kind(bundled_path):
    # the grid and validate score hard and rough runs at m = 1 and fuzzy
    # ones at the default fuzzifier; evaluate without m does the same
    m = parse_matrix(bundled_path.read_text(encoding="utf-8"), "tsv")
    rough = run_algorithm("rough_kmeans", m, 5, seed=0)
    assert evaluate(m, rough).rmse == pytest.approx(1.4515, abs=5e-5)
    assert evaluate(m, rough) == evaluate(m, rough, m=1.0)
    fuzzy = run_algorithm("fcm", m, 5, seed=0)
    assert evaluate(m, fuzzy) == evaluate(m, fuzzy, m=DEFAULTS["m"])


def test_evaluate_single_cluster_reports_infinite_xb():
    x = np.array([[0.0], [2.0]])
    rep = evaluate(x, kmeans(x, 1), m=1.0)
    assert rep.xie_beni == math.inf
    assert rep.rmse == pytest.approx(1.0, abs=1e-15)
    assert rep.k == 1
    assert rep.n_genes == 2
    assert rep.n_samples == 1


def test_report_rejects_unknown_tag():
    with pytest.raises(ValueError, match="unknown algorithm"):
        ValidityReport(
            rmse=0.0,
            mae=0.0,
            xie_beni=0.0,
            n_genes=1,
            n_samples=1,
            k=1,
            algorithm="other",
        )


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 30),
    k=st.integers(1, 6),
    d=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    coincide=st.booleans(),
    order=st.sampled_from("CF"),
)
def test_score_is_the_three_public_indices_bit_for_bit(n, k, d, seed, m, coincide, order):
    # score binds x once and shares one d2 between rmse and Xie-Beni; each
    # index must still equal its public function exactly
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-2, 2, d)
    # some centroids on data rows, and with coincide two of them equal
    w = np.where(rng.random((k, 1)) < 0.3, x[rng.integers(n, size=k)], rng.standard_normal((k, d)))
    if coincide and k > 1:
        w[-1] = w[0]
    u = rng.random((n, k)) ** 3 + 1e-3
    u = np.array(u / u.sum(axis=1, keepdims=True), order=order)
    rep = score(x, u, w, m, "fcm")
    assert rep.rmse == rmse(x, u, w, m)
    assert rep.mae == mae(x, u, w, m)
    if k == 1:
        assert rep.xie_beni == math.inf
        with pytest.raises(ValueError, match="at least 2"):
            xie_beni(x, u, w)
    else:
        assert rep.xie_beni == xie_beni(x, u, w)
        assert rep.xie_beni == math.inf or not coincide
    assert (rep.n_genes, rep.n_samples, rep.k) == (n, d, k)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("alg", ["kmeans", "rough_kmeans", "fcm", "pfcm"])
def test_evaluate_is_score_on_the_partition_memberships(alg, seed):
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.normal(c, 0.5, size=(20, 3)) for c in (0.0, 3.0, 6.0)])
    p = run_algorithm(alg, x, 3, seed=seed)
    m = DEFAULTS["m"] if isinstance(p, FuzzyPartition) else 1.0
    assert evaluate(x, p) == score(x, p.memberships, p.centroids, m, alg)
    assert evaluate(x, p, m=1.5) == score(x, p.memberships, p.centroids, 1.5, alg)


def test_extreme_centroids_score_without_float_warnings():
    # centring these centroids, and recomputing their separation exactly,
    # overflows; the kernel silences its float warnings, and the pyproject
    # filter would turn any that escaped into errors
    x = np.array([[0.5]])
    w = np.array([[1.7e308], [-1.7e308], [-1.7e308]])
    u = np.full((1, 3), 1 / 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert xie_beni(x, u, w) == math.inf
        assert rmse(x, u, w) == math.inf
        rep = score(x, u, w, 2.0, "fcm")
    assert (rep.rmse, rep.xie_beni) == (math.inf, math.inf)
    assert math.isfinite(rep.mae)
