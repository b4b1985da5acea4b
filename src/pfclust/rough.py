"""Rough k-means: clusters with lower and upper approximations.

A gene always joins the upper set of its nearest centroid, and also the
upper set of any other cluster whose distance is within a ratio threshold
zeta of the nearest distance. A partition is one boolean (n_genes, k)
upper-set matrix. Genes claimed by exactly one upper set form that
cluster's lower set; the rest sit in boundary regions. Centroids are
weighted combinations of lower and boundary means. Rough k-means need
not converge: its centroids can cycle (see ``iterate``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._util import DEFAULTS, NumericalError, SqDistances, Stopped, as_values, check_params
from ._util import initial_centroids, iterate, weighted_means

__all__ = ["RoughPartition", "rough_kmeans"]


@dataclass(frozen=True)
class RoughPartition(Stopped):
    """Upper-set memberships per cluster plus the final centroids.

    member is a boolean (n_genes, k) matrix: member[i, j] says gene i is
    in cluster j's upper set. Every gene is in at least one upper set. A
    gene in exactly one upper set (the lone mask) is in that cluster's
    lower set; a gene in two or more is in no lower set and sits in the
    boundary of each. lower, upper and boundary(j) give the same
    structure as frozensets of gene indices. iterations, stop_reason and
    delta, each round's largest centroid move, are as ``Stopped`` defines
    them.
    """

    member: np.ndarray
    centroids: np.ndarray
    iterations: int
    stop_reason: str = "max_iter"
    delta: tuple[float, ...] = ()
    # not a field: rough k-means has no objective to trace
    trace = ()

    @property
    def assignments(self) -> np.ndarray:
        """Each gene's lowest-index upper cluster."""
        return np.argmax(self.member, axis=1)

    @property
    def memberships(self) -> np.ndarray:
        """Each gene's unit mass split equally over its upper sets."""
        return self.member / self.member.sum(axis=1, keepdims=True)

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


def rough_kmeans(
    x,
    k: int,
    *,
    zeta: float = DEFAULTS["zeta"],
    w_lower: float = DEFAULTS["w_lower"],
    seed: int = 0,
    max_iter: int = DEFAULTS["max_iter"],
    eps: float = DEFAULTS["eps"],
    farthest_init: bool = False,
    init_centroids: Optional[np.ndarray] = None,
) -> RoughPartition:
    """Cluster gene rows into k rough clusters.

    Alternates upper-set membership by the zeta distance ratio with centroid
    updates until no centroid moves by eps or more (a round's delta is its
    largest Euclidean centroid move), or max_iter rounds have run; centroids
    that repeat an earlier round's stop the run with "cycle" (``iterate``).
    Deterministic for a given seed. A non-finite nearest distance raises
    NumericalError.

    Parameters
    ----------
    x : ExpressionMatrix or array-like, shape (n_genes, n_samples)
    k : int
        Cluster count, 1 <= k <= n_genes; k and seed follow ``count``'s rule.
        Every parameter after k is keyword-only.
    zeta : float
        Ratio threshold >= 1; a gene joins every upper set whose centroid
        distance is within zeta times its nearest centroid distance.
    w_lower : float
        Weight in (0, 1] of the lower-set mean in the centroid update; the
        boundary mean gets 1 - w_lower, both by ``weighted_means`` of the set
        indicators. A cluster with an empty boundary uses its lower mean
        alone, one with an empty lower set its upper mean, and one with an
        empty upper set keeps its previous centroid.
    seed : int
        Seeds the row sample used for the initial centroids.
    max_iter : int
        Round cap, an integer >= 1.
    eps : float
        Convergence tolerance > 0 on a round's largest centroid move.
    farthest_init : bool
        Use greedy farthest-point initialization, not a uniform row sample.
    init_centroids : ndarray, optional
        Explicit finite (k, n_samples) starting centroids; overrides seeding.
        A start of another shape, or with a NaN or infinite cell, raises
        ValueError.

    Returns
    -------
    RoughPartition
        Read progress from delta, round t's state from max_iter=t.
    """
    x = as_values(x)
    check_params(zeta=zeta, w_lower=w_lower, max_iter=max_iter, eps=eps)
    w = initial_centroids(x, k, seed, farthest_init, init_centroids)
    k = w.shape[0]
    distances = SqDistances(x)

    def step(state, t):
        # one round, from the last round's (member, centroids)
        w = state[1]
        d = np.sqrt(distances(w))
        d_near = d.min(axis=1)[:, None]
        if not np.isfinite(d_near).all():
            raise NumericalError(f"a nearest distance became non-finite at iteration "
                                 f"{t}; k={k} zeta={zeta} w_lower={w_lower} seed={seed}")
        # exact coincidence with a centroid pins the gene to its nearest cluster only
        member = (d <= zeta * d_near) & (d_near > 0.0)
        member[np.arange(d.shape[0]), np.argmin(d, axis=1)] = True
        lone = _lone(member)[:, None]
        low, n_low = weighted_means(member & lone, x)
        bound, n_bound = weighted_means(member & ~lone, x)
        has_low, has_bound = n_low[:, None] > 0, n_bound[:, None] > 0
        w_new = np.select([has_low & has_bound, has_low, has_bound],
                          [w_lower * low + (1.0 - w_lower) * bound, low, bound], w)
        return (member, w_new), w_new, float(np.sqrt(((w_new - w) ** 2).sum(axis=1)).max())

    (member, w), iterations, stop_reason, delta = iterate(step, (None, w), int(max_iter), eps)
    return RoughPartition(member, w, iterations, stop_reason, delta)
