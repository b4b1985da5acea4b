"""K-means over gene rows with seeded initialization and empty-cluster repair."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._util import DEFAULTS, NumericalError, SqDistances, Stopped, as_values, check_params
from ._util import initial_centroids, iterate, weighted_means

__all__ = ["HardPartition", "kmeans"]

# the residual bytes a round holds at a time while it sums its SSE
_BLOCK = 1 << 18


@dataclass(frozen=True)
class HardPartition(Stopped):
    """Result of a hard clustering run.

    Attributes
    ----------
    assignments : ndarray of int, shape (n_genes,)
        Cluster index per gene, each in [0, k).
    centroids : ndarray, shape (k, n_samples)
        Per-cluster mean vectors.
    iterations : int
        Number of assign/update rounds performed.
    trace : tuple of float
        SSE after each round's centroid update, so iterations entries;
        non-increasing up to rounding. The SSE is the sum of squared
        distances from every gene to its assigned centroid; trace[-1] is
        the returned state's, except after a cycle, where it is the last
        round run's.
    stop_reason, delta
        As ``Stopped`` defines them; delta is each round's largest centroid move.

    record() gives iterations, stop_reason, converged, trace and delta.
    """

    assignments: np.ndarray
    centroids: np.ndarray
    iterations: int
    trace: tuple[float, ...]
    stop_reason: str = "max_iter"
    delta: tuple[float, ...] = ()

    @property
    def memberships(self) -> np.ndarray:
        """One-hot rows: 1 for each gene's cluster, stored cluster-major."""
        return (np.arange(self.k)[:, None] == self.assignments).T.astype(np.float64)


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
    x,
    k: int,
    *,
    seed: int = 0,
    max_iter: int = DEFAULTS["max_iter"],
    eps: float = DEFAULTS["eps"],
    farthest_init: bool = False,
    init_centroids: Optional[np.ndarray] = None,
    on_iteration: Optional[Callable[[np.ndarray, np.ndarray], None]] = None,
) -> HardPartition:
    """Cluster gene rows into k groups minimizing the sum of squared distances.

    Alternates nearest-centroid assignment with mean updates (``weighted_means``
    of the one-hot rows) until no centroid moves by eps or more, or max_iter
    rounds have run. A repeated assignment gives bit-equal centroids, so it
    stops the run in the round it repeats. A cluster left empty by an
    assignment step is repaired by moving in the point farthest from its own
    centroid, so every returned cluster is non-empty; the repair can make
    the assignments alternate, and centroids that repeat an earlier round's
    stop the run with "cycle" (``iterate``). Deterministic for a given seed.
    A non-finite SSE (squared distances overflowed) raises NumericalError.

    Parameters
    ----------
    x : ExpressionMatrix or array-like, shape (n_genes, n_samples)
    k : int
        Cluster count, 1 <= k <= n_genes; k and seed follow ``count``'s rule.
        Every parameter after k is keyword-only.
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
    x = as_values(x)
    check_params(max_iter=max_iter, eps=eps)
    w = initial_centroids(x, k, seed, farthest_init, init_centroids)
    k = w.shape[0]
    distances = SqDistances(x)
    # the residuals x - w[assign] of a block of rows, in one buffer per run,
    # and each row's squared residual, summed whole so the SSE's order is the
    # one a whole-matrix residual gives
    n, d = x.shape
    rows = min(n, max(1, _BLOCK // (8 * d)))
    resid, sq = np.empty((rows, d)), np.empty(n)
    trace: list[float] = []

    def step(state, t):
        # one round, from the last round's (assignments, centroids)
        w = state[1]
        dists = distances(w)
        assign = np.argmin(dists, axis=1)
        _repair_empty(assign, dists, k)
        w_new, _ = weighted_means((np.arange(k)[:, None] == assign).T, x)
        for a in range(0, n, rows):
            b = min(a + rows, n)
            r = resid[:b - a]
            np.take(w_new, assign[a:b], axis=0, out=r)
            np.subtract(x[a:b], r, out=r)
            np.einsum("ij,ij->i", r, r, out=sq[a:b])
        sse = float(sq.sum())
        if not np.isfinite(sse):
            raise NumericalError(f"sse became non-finite at iteration {t} "
                                 f"(sse={sse!r}); k={k} seed={seed}")
        trace.append(sse)
        if on_iteration is not None:
            on_iteration(assign.copy(), w_new.copy())
        return (assign, w_new), w_new, float(np.sqrt(((w_new - w) ** 2).sum(axis=1)).max())

    (assign, w), iterations, stop_reason, delta = iterate(step, (None, w), int(max_iter), eps)
    return HardPartition(assign, w, iterations, tuple(trace), stop_reason, delta)
