import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfclust import kmeans, normalize, parse_matrix, rough_kmeans
from pfclust._util import initial_centroids

import _oracles


def _check_structure(part):
    n = max(max(up, default=-1) for up in part.upper) + 1
    counts = np.zeros(n, dtype=int)
    for j in range(part.k):
        assert part.lower[j] <= part.upper[j]
        for i in part.upper[j]:
            counts[i] += 1
    in_lower = set().union(*part.lower) if part.lower else set()
    for i in range(n):
        assert counts[i] >= 1, f"gene {i} in no upper set"
        if i in in_lower:
            assert counts[i] == 1
        if counts[i] == 1:
            assert i in in_lower


def test_well_separated_no_boundary(four_points):
    init = np.array([[0.0], [10.0]])
    part = rough_kmeans(four_points, 2, zeta=1.0 + 1e-9, init_centroids=init)
    for j in range(2):
        assert part.boundary(j) == frozenset()
        assert part.lower[j] == part.upper[j]
    groups = sorted(sorted(low) for low in part.lower)
    assert groups == [[0, 1], [2, 3]]


def test_midpoint_gene_in_both_uppers():
    x = np.array([[0.0], [10.0], [5.0]])
    init = np.array([[0.0], [10.0]])
    part = rough_kmeans(x, 2, zeta=1.3, init_centroids=init, max_iter=1)
    assert 2 in part.upper[0] and 2 in part.upper[1]
    assert 2 not in part.lower[0] and 2 not in part.lower[1]
    assert 0 in part.lower[0]
    assert 1 in part.lower[1]


def test_k_one_everything_lower():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 2))
    part = rough_kmeans(x, 1, seed=0)
    assert part.lower[0] == part.upper[0] == frozenset(range(8))
    assert np.allclose(part.centroids[0], x.mean(axis=0), atol=1e-12)


def test_structure_invariants_every_iteration():
    rng = np.random.default_rng(5)
    for trial in range(30):
        n = int(rng.integers(4, 30))
        k = int(rng.integers(2, min(5, n) + 1))
        x = rng.normal(size=(n, int(rng.integers(1, 4))))
        zeta = float(rng.uniform(1.0, 2.0))
        snapshots = []
        part = rough_kmeans(
            x, k, zeta=zeta, seed=trial, on_iteration=snapshots.append
        )
        assert snapshots, "no iterations ran"
        for snap in snapshots:
            _check_structure(snap)
        _check_structure(part)


def test_tight_zeta_reduces_to_kmeans():
    # two clean bumps, one init row in each: zeta=1 admits only exact ties
    # so every upper set is a singleton-membership set and the centroid
    # update degenerates to the plain mean
    rng = np.random.default_rng(7)
    x = np.vstack(
        [rng.normal(0.0, 0.5, size=(10, 2)), rng.normal(8.0, 0.5, size=(10, 2))]
    )
    init = np.array([[0.1, -0.2], [7.9, 8.2]])
    rough = rough_kmeans(x, 2, zeta=1.0, w_lower=1.0, init_centroids=init)
    hard = kmeans(x, 2, init_centroids=init)
    assert np.allclose(rough.centroids, hard.centroids, atol=1e-12)
    for j in range(2):
        assert rough.lower[j] == frozenset(np.flatnonzero(hard.assignments == j).tolist())


def test_gene_on_centroid_pinned_to_one_cluster():
    x = np.array([[0.0], [10.0]])
    init = np.array([[0.0], [10.0]])
    part = rough_kmeans(x, 2, zeta=100.0, init_centroids=init, max_iter=1)
    assert part.lower == (frozenset({0}), frozenset({1}))


def test_huge_zeta_everything_boundary():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(10, 2))
    part = rough_kmeans(x, 3, zeta=1e6, seed=1, max_iter=4)
    for j in range(3):
        assert part.upper[j] == frozenset(range(10))
        assert part.lower[j] == frozenset()


def test_parameter_validation():
    x = np.zeros((4, 2))
    with pytest.raises(ValueError):
        rough_kmeans(x, 2, zeta=0.9)
    with pytest.raises(ValueError):
        rough_kmeans(x, 2, w_lower=0.0)
    with pytest.raises(ValueError):
        rough_kmeans(x, 2, w_lower=1.5)
    with pytest.raises(ValueError):
        rough_kmeans(x, 0)
    with pytest.raises(ValueError):
        rough_kmeans(x, 5)


def test_weighted_centroid_update():
    # one iteration from hand-placed centroids: cluster 0 has lower {0,1}
    # and boundary {2}; expected centroid mixes the two means
    x = np.array([[0.0], [1.0], [4.9], [9.0], [10.0]])
    init = np.array([[0.5], [9.5]])
    part = rough_kmeans(x, 2, zeta=1.2, w_lower=0.7, init_centroids=init, max_iter=1)
    # distances for gene 2: 4.4 vs 4.6 -> both uppers (4.6 <= 1.2*4.4)
    assert part.boundary(0) == frozenset({2})
    assert part.boundary(1) == frozenset({2})
    expect0 = 0.7 * 0.5 + 0.3 * 4.9
    expect1 = 0.7 * 9.5 + 0.3 * 4.9
    assert part.centroids[0, 0] == pytest.approx(expect0, abs=1e-12)
    assert part.centroids[1, 0] == pytest.approx(expect1, abs=1e-12)


def test_deterministic_per_seed():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(20, 3))
    a = rough_kmeans(x, 3, seed=4)
    b = rough_kmeans(x, 3, seed=4)
    assert a.lower == b.lower
    assert a.upper == b.upper
    assert np.array_equal(a.centroids, b.centroids)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 14),
    k=st.integers(1, 5),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    lattice=st.booleans(),
    n_dup=st.integers(0, 4),
    n_shared=st.integers(0, 3),
    zeta=st.sampled_from([1.0, 1.05, 1.3, 2.0, 1e6]),
    w_lower=st.sampled_from([0.5, 0.7, 1.0]),
    max_iter=st.integers(1, 25),
)
def test_matches_set_based_oracle(
    n, k, d, seed, lattice, n_dup, n_shared, zeta, w_lower, max_iter
):
    k = min(k, n)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    if lattice:
        # small integers give ties in distance and in the ratio test
        x = np.round(2.0 * x)
    # duplicate rows, and init centroids that are exact copies of genes
    x[rng.integers(n, size=n_dup)] = x[rng.integers(n, size=n_dup)]
    init = rng.standard_normal((k, d))
    shared = min(n_shared, k)
    init[:shared] = x[rng.integers(n, size=shared)]
    part = rough_kmeans(
        x, k, zeta=zeta, w_lower=w_lower, max_iter=max_iter, init_centroids=init
    )
    lower, upper, w, iterations, converged = _oracles.rough_kmeans(
        x, k, init, zeta=zeta, w_lower=w_lower, max_iter=max_iter
    )
    assert np.array_equal(part.centroids, w)
    if part.stop_reason == "cycle":
        # the oracle has no cycle test, so it runs every round
        assert iterations == max_iter and not converged
        assert part.iterations < max_iter
    else:
        assert part.iterations == iterations
    assert part.converged == converged
    assert part.lower == lower
    assert part.upper == upper


@pytest.mark.parametrize("max_iter", range(6, 13))
def test_cycle_stop_returns_the_max_iter_state(bundled_path, max_iter):
    # this run's round-6 centroids equal its round-4 ones, so it stops
    # after round 6 and must return the round of the period-2 cycle that
    # max_iter falls on
    m = parse_matrix(bundled_path.read_text(encoding="utf-8"), "tsv")
    x = normalize(m, "z_score").values
    part = rough_kmeans(x, 5, seed=27, max_iter=max_iter)
    lower, upper, w, iterations, converged = _oracles.rough_kmeans(
        x, 5, initial_centroids(x, 5, 27, False), max_iter=max_iter
    )
    assert iterations == max_iter and not converged
    assert part.iterations == 6
    assert part.stop_reason == ("max_iter" if max_iter == 6 else "cycle")
    assert not part.converged
    assert np.array_equal(part.centroids, w)
    assert part.lower == lower
    assert part.upper == upper
