import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfclust import kmeans, parse_matrix

import _oracles
from _oracles import enumerate_kmeans_sse, sq_distances


def test_four_point_fixture(four_points):
    part = kmeans(four_points, 2, seed=3)
    assert sorted(part.centroids.ravel().tolist()) == [0.5, 10.5]
    assert part.sse == pytest.approx(1.0, abs=1e-12)
    assert sorted(np.bincount(part.assignments).tolist()) == [2, 2]


def test_k_equals_n_zero_sse():
    rng = np.random.default_rng(5)
    x = rng.random((6, 3))
    part = kmeans(x, 6, seed=0)
    assert part.sse == pytest.approx(0.0, abs=1e-18)
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
        diffs = np.diff(part.sse_trace)
        assert (diffs <= 1e-9).all(), (trial, part.sse_trace)


def test_sse_matches_recomputation():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(30, 3))
    part = kmeans(x, 4, seed=2)
    recomputed = sum(
        float(((x[i] - part.centroids[part.assignments[i]]) ** 2).sum())
        for i in range(30)
    )
    assert part.sse == pytest.approx(recomputed, rel=1e-9)


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
    assert (np.diff(part.sse_trace) <= 1e-9).all()


def test_matches_exhaustive_optimum_best_of_ten():
    rng = np.random.default_rng(19)
    for n, k, d in [(4, 2, 1), (6, 2, 2), (7, 3, 2), (8, 3, 1), (8, 2, 2)]:
        x = rng.normal(size=(n, d))
        opt = enumerate_kmeans_sse(x, k)
        best = min(kmeans(x, k, seed=s).sse for s in range(10))
        assert best <= opt + 1e-9, (n, k, best, opt)


def test_deterministic_per_seed():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(25, 3))
    a = kmeans(x, 3, seed=9)
    b = kmeans(x, 3, seed=9)
    assert np.array_equal(a.assignments, b.assignments)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.sse_trace == b.sse_trace


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
    assert part.sse == pytest.approx(0.0, abs=1e-18)


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
    assert part.sse == pytest.approx(want, rel=1e-12)
    assert part.sse_trace[-1] == part.sse


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 14),
    k=st.integers(1, 5),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    lattice=st.booleans(),
    n_dup=st.integers(0, 4),
    n_shared=st.integers(0, 3),
    eps=st.sampled_from([1e-5, 1e-2, 1.0]),
    max_iter=st.integers(1, 25),
)
def test_matches_loop_oracle_with_stability_stop(
    n, k, d, seed, lattice, n_dup, n_shared, eps, max_iter
):
    # the oracle also stops on a repeated assignment; the package relies on
    # the movement test alone, so equal results show that stop never decides
    k = min(k, n)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    if lattice:
        # small integers give distance ties
        x = np.round(2.0 * x)
    # duplicate rows, and init centroids that copy genes (and each other),
    # which leaves clusters empty for the repair
    x[rng.integers(n, size=n_dup)] = x[rng.integers(n, size=n_dup)]
    init = rng.standard_normal((k, d))
    shared = min(n_shared, k)
    init[:shared] = x[rng.integers(n, size=shared)]
    part = kmeans(x, k, max_iter=max_iter, eps=eps, init_centroids=init)
    assign, w, iterations, converged, trace = _oracles.kmeans(
        x, k, init, max_iter=max_iter, eps=eps
    )
    assert np.array_equal(part.assignments, assign)
    assert np.array_equal(part.centroids, w)
    assert part.iterations == iterations
    assert part.converged == converged
    assert part.sse_trace == trace
