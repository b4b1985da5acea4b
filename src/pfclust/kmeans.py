"""K-means over gene rows with seeded initialization and empty-cluster repair."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._util import DEFAULTS, as_values, check_params, initial_centroids, sq_distances

__all__ = ["HardPartition", "kmeans"]


@dataclass(frozen=True)
class HardPartition:
    """Result of a hard clustering run.

    Attributes
    ----------
    assignments : ndarray of int, shape (n_genes,)
        Cluster index per gene, each in [0, k).
    centroids : ndarray, shape (k, n_samples)
        Per-cluster mean vectors.
    sse : float
        Sum of squared distances from every gene to its assigned centroid.
    iterations : int
        Number of assign/update rounds performed.
    sse_trace : tuple of float
        SSE after each round's centroid update; non-increasing.
    converged : bool
        Whether the stop test fired within max_iter rounds.
    """

    assignments: np.ndarray
    centroids: np.ndarray
    sse: float
    iterations: int
    sse_trace: tuple[float, ...]
    converged: bool = False

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


def _repair_empty(assign: np.ndarray, dists: np.ndarray, k: int) -> None:
    """Move the farthest point of a multi-member cluster into each empty one."""
    counts = np.bincount(assign, minlength=k)
    for j in np.flatnonzero(counts == 0):
        movable = counts[assign] >= 2
        own = dists[np.arange(assign.size), assign]
        own = np.where(movable, own, -np.inf)
        p = int(np.argmax(own))
        counts[assign[p]] -= 1
        assign[p] = j
        counts[j] += 1


def kmeans(
    m,
    k: int,
    seed: int = 0,
    max_iter: int = DEFAULTS["max_iter"],
    eps: float = DEFAULTS["eps"],
    farthest_init: bool = False,
    init_centroids: Optional[np.ndarray] = None,
    on_iteration: Optional[Callable[[np.ndarray, np.ndarray], None]] = None,
) -> HardPartition:
    """Cluster gene rows into k groups minimizing the sum of squared distances.

    Alternates nearest-centroid assignment with centroid mean updates until
    no centroid moves by eps or more, or max_iter rounds have run. A
    repeated assignment gives bit-equal centroids, so it stops the run in
    the round it repeats. A cluster left empty by an assignment step is
    repaired by moving in the point farthest from its own centroid, so
    every returned cluster is non-empty. Deterministic for a given seed.

    Parameters
    ----------
    m : ExpressionMatrix or array-like, shape (n_genes, n_samples)
    k : int
        Cluster count, 1 <= k <= n_genes.
    seed : int
        Seeds the row sample used for the initial centroids.
    farthest_init : bool
        Use greedy farthest-point initialization instead of a uniform
        row sample.
    init_centroids : ndarray, optional
        Explicit (k, n_samples) starting centroids; overrides seeding.
    on_iteration : callable, optional
        Called with (assignments, centroids) after each round.

    Returns
    -------
    HardPartition
    """
    x = as_values(m)
    check_params(max_iter=max_iter, eps=eps)
    w = initial_centroids(x, k, seed, farthest_init, init_centroids)

    trace: list[float] = []
    iterations = 0
    converged = False
    for _ in range(max_iter):
        dists = sq_distances(x, w)
        assign = np.argmin(dists, axis=1)
        _repair_empty(assign, dists, k)
        w_new = np.empty_like(w)
        for j in range(k):
            w_new[j] = x[assign == j].mean(axis=0)
        movement = float(np.sqrt(((w_new - w) ** 2).sum(axis=1)).max())
        w = w_new
        resid = x - w[assign]
        sse = float(np.einsum("ij,ij->i", resid, resid).sum())
        trace.append(sse)
        iterations += 1
        if on_iteration is not None:
            on_iteration(assign.copy(), w.copy())
        if movement < eps:
            converged = True
            break

    return HardPartition(
        assignments=assign,
        centroids=w,
        sse=trace[-1],
        iterations=iterations,
        sse_trace=tuple(trace),
        converged=converged,
    )
