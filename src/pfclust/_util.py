"""Internal numeric helpers shared by the clustering modules."""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .matrix import ExpressionMatrix


@contextmanager
def opened(target, mode: str = "w"):
    """Yield `target` itself if it is an open handle, else open it as a path.

    Paths are opened as UTF-8 text without newline translation (or in
    binary when `mode` has "b"), so written bytes do not depend on the
    platform.
    """
    if not isinstance(target, (str, Path)):
        yield target
        return
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    with open(target, mode, **text) as handle:
        yield handle


def as_values(data) -> np.ndarray:
    """Return a float64 2-D view of a matrix object or array-like."""
    if isinstance(data, ExpressionMatrix):
        return data.values
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
    return arr


def sq_distances(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape (n_rows_x, n_rows_w)."""
    diff = x[:, None, :] - w[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def sample_rows(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k distinct rows chosen uniformly without replacement."""
    idx = rng.choice(x.shape[0], size=k, replace=False)
    return x[idx].copy()


def farthest_point_rows(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy farthest-point row selection; the first row is drawn uniformly."""
    n = x.shape[0]
    chosen = [int(rng.integers(n))]
    # nearest-chosen squared distance per row, updated incrementally
    nearest = sq_distances(x, x[chosen])[:, 0]
    while len(chosen) < k:
        nxt = int(np.argmax(nearest))
        chosen.append(nxt)
        nearest = np.minimum(nearest, sq_distances(x, x[[nxt]])[:, 0])
    return x[chosen].copy()


def initial_centroids(
    x: np.ndarray, k: int, rng: np.random.Generator, farthest: bool
) -> np.ndarray:
    if farthest:
        return farthest_point_rows(x, k, rng)
    return sample_rows(x, k, rng)
