"""Rough k-means: clusters with lower and upper approximations.

A gene always joins the upper set of its nearest centroid, and also the
upper set of any other cluster whose distance is within a ratio threshold
zeta of the nearest distance. A partition is one boolean (n_genes, k)
upper-set matrix. Genes claimed by exactly one upper set form that
cluster's lower set; the rest sit in boundary regions. Centroids are
weighted combinations of lower and boundary means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._util import DEFAULTS, as_values, check_params, initial_centroids, sq_distances

__all__ = ["RoughPartition", "rough_kmeans"]


@dataclass(frozen=True)
class RoughPartition:
    """Upper-set memberships per cluster plus the final centroids.

    member is a boolean (n_genes, k) matrix: member[i, j] says gene i is
    in cluster j's upper set. Every gene is in at least one upper set. A
    gene in exactly one upper set (the lone mask) is in that cluster's
    lower set; a gene in two or more is in no lower set and sits in the
    boundary of each. lower, upper and boundary(j) give the same
    structure as frozensets of gene indices. converged tells whether the
    stop test fired within max_iter rounds.
    """

    member: np.ndarray
    centroids: np.ndarray
    iterations: int
    converged: bool = False

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def lone(self) -> np.ndarray:
        """Per-gene mask: in exactly one upper set, hence in its lower set."""
        return _lone(self.member)

    @property
    def upper(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(np.flatnonzero(col).tolist()) for col in self.member.T)

    @property
    def lower(self) -> tuple[frozenset[int], ...]:
        lone = self.lone
        return tuple(frozenset(np.flatnonzero(col & lone).tolist()) for col in self.member.T)

    def boundary(self, j: int) -> frozenset[int]:
        """Genes in cluster j's upper set but not its lower set."""
        return frozenset(np.flatnonzero(self.member[:, j] & ~self.lone).tolist())


def _lone(member: np.ndarray) -> np.ndarray:
    return member.sum(axis=1) == 1


def _memberships(x: np.ndarray, w: np.ndarray, zeta: float) -> np.ndarray:
    """Boolean (n, k) upper-set membership under the distance-ratio test."""
    d = np.sqrt(sq_distances(x, w))
    d_near = d.min(axis=1)[:, None]
    # exact coincidence with a centroid pins the gene to its nearest cluster only
    member = (d <= zeta * d_near) & (d_near > 0.0)
    member[np.arange(d.shape[0]), np.argmin(d, axis=1)] = True
    return member


def rough_kmeans(
    m,
    k: int,
    zeta: float = DEFAULTS["zeta"],
    w_lower: float = DEFAULTS["w_lower"],
    seed: int = 0,
    max_iter: int = DEFAULTS["max_iter"],
    eps: float = DEFAULTS["eps"],
    farthest_init: bool = False,
    init_centroids: Optional[np.ndarray] = None,
    on_iteration: Optional[Callable[[RoughPartition], None]] = None,
) -> RoughPartition:
    """Cluster gene rows into k rough clusters.

    Parameters
    ----------
    m : ExpressionMatrix or array-like, shape (n_genes, n_samples)
    k : int
        Cluster count, 1 <= k <= n_genes.
    zeta : float
        Ratio threshold >= 1; a gene joins every upper set whose centroid
        distance is within zeta times its nearest centroid distance.
    w_lower : float
        Weight in (0, 1] of the lower-set mean in the centroid update; the
        boundary mean gets 1 - w_lower. A cluster with an empty boundary
        uses its lower mean alone, one with an empty lower set uses its
        upper mean, and one with an empty upper set keeps its previous
        centroid.
    seed : int
        Seeds the row sample used for the initial centroids.
    on_iteration : callable, optional
        Called with the in-progress RoughPartition after each round.

    Returns
    -------
    RoughPartition
    """
    x = as_values(m)
    check_params(zeta=zeta, w_lower=w_lower, max_iter=max_iter, eps=eps)
    w = initial_centroids(x, k, seed, farthest_init, init_centroids)

    iterations = 0
    converged = False
    for _ in range(max_iter):
        member = _memberships(x, w, zeta)
        lone = _lone(member)
        w_new = np.empty_like(w)
        for j in range(k):
            # masks keep rows in gene order, which fixes each mean's summation order
            low = x[member[:, j] & lone]
            bound = x[member[:, j] & ~lone]
            if len(low) and len(bound):
                w_new[j] = w_lower * low.mean(axis=0) + (1.0 - w_lower) * bound.mean(axis=0)
            elif len(low):
                w_new[j] = low.mean(axis=0)
            elif len(bound):
                w_new[j] = bound.mean(axis=0)
            else:
                w_new[j] = w[j]
        movement = float(np.sqrt(((w_new - w) ** 2).sum(axis=1)).max())
        w = w_new
        iterations += 1
        if on_iteration is not None:
            on_iteration(RoughPartition(member, w.copy(), iterations))
        # a repeated upper-set matrix gives bit-equal centroids, so it stops here too
        if movement < eps:
            converged = True
            break

    return RoughPartition(member, w, iterations, converged)
