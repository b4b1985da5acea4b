import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pfclust._util import sq_distances
from pfclust.validity import mae

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
