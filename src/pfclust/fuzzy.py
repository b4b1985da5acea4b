"""Fuzzy c-means and its penalized variant.

Both algorithms minimize a weighted within-cluster scatter. The penalized
variant adds a term steering cluster proportions: with memberships U,
centroids W, proportions alpha and penalty weight v >= 0 the objective is

    J = 1/2 sum_ij u_ij^m d_ij^2  -  1/2 v sum_ij u_ij^m ln(alpha_j)

where d_ij is the Euclidean distance from gene i to centroid j. At v = 0
the penalty vanishes and the objective is the classic fuzzy c-means one;
fcm() runs the identical code path with v forced to 0, so the two produce
bitwise-equal trajectories from equal seeds.

One iteration updates, in order: alpha from U, W from U, then U from
(W, alpha) via

    u_ij = [ sum_l (D_ij / D_il)^(1/(m-1)) ]^(-1),
    D_ij = d_ij^2 - v ln(alpha_j)

and stops when the elementwise max change of U falls to eps or below.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from ._util import DEFAULTS, as_values, check_params, sq_distances

__all__ = [
    "ALPHA_FLOOR",
    "FuzzyConfig",
    "FuzzyPartition",
    "NumericalError",
    "compute_alpha",
    "compute_centroids",
    "update_memberships",
    "pfcm_objective",
    "pfcm",
    "fcm",
]

ALPHA_FLOOR = 1e-12

_SINGULARITY_TOL = 1e-12


class NumericalError(RuntimeError):
    """The iteration met a non-finite objective or a cluster with zero mass."""


@dataclass(frozen=True)
class FuzzyConfig:
    """Settings for a fuzzy clustering run.

    Attributes
    ----------
    c : int
        Cluster count.
    m : float
        Fuzzifier, strictly greater than 1. Values near 1 give nearly
        crisp memberships, large values push every membership toward 1/c.
    v : float
        Penalty weight >= 0. Zero recovers plain fuzzy c-means.
    eps : float
        Convergence tolerance on the max membership change.
    max_iter : int
        Iteration cap.
    seed : int
        Seeds the random initial membership matrix.
    """

    c: int
    m: float = DEFAULTS["m"]
    v: float = DEFAULTS["v"]
    eps: float = DEFAULTS["eps"]
    max_iter: int = DEFAULTS["max_iter"]
    seed: int = 0

    def __post_init__(self):
        if self.c < 1:
            raise ValueError(f"c must be >= 1, got {self.c}")
        check_params(m=self.m, v=self.v, eps=self.eps, max_iter=self.max_iter)


@dataclass(frozen=True)
class FuzzyPartition:
    """Result of a fuzzy clustering run.

    Attributes
    ----------
    memberships : ndarray, shape (n_genes, c)
        Row-stochastic membership matrix U.
    centroids : ndarray, shape (c, n_samples)
        Final centroids, recomputed from the final memberships.
    alpha : ndarray or None
        Cluster proportions (None for plain fuzzy c-means).
    objective_trace : tuple of float
        J per iteration plus a final entry for the returned state;
        non-increasing.
    iterations : int
        Number of membership updates performed.
    converged : bool
        Whether the max membership change reached eps within max_iter.
    """

    memberships: np.ndarray
    centroids: np.ndarray
    alpha: Optional[np.ndarray]
    objective_trace: tuple[float, ...]
    iterations: int
    converged: bool

    @property
    def c(self) -> int:
        return self.centroids.shape[0]

    def hard_assignments(self) -> np.ndarray:
        """Index of each gene's largest membership."""
        return np.argmax(self.memberships, axis=1)


def compute_alpha(u: np.ndarray, m: float) -> np.ndarray:
    """Cluster proportions from a membership matrix.

    alpha_j is cluster j's share of the total fuzzified membership mass

        alpha_j = sum_i u_ij^m / sum_l sum_i u_il^m

    with components below ALPHA_FLOOR clamped up, the vector renormalized,
    and the last component fixed by subtraction so the sum is exactly 1.
    """
    mass = (u ** m).sum(axis=0)
    total = mass.sum()
    if not total > 0.0:
        raise ValueError("membership matrix has zero total mass")
    alpha = mass / total
    if alpha.shape[0] == 1:
        return np.ones(1)
    clamped = np.maximum(alpha, ALPHA_FLOOR)
    alpha = clamped / clamped.sum()
    alpha[-1] = 1.0 - alpha[:-1].sum()
    return alpha


def compute_centroids(u: np.ndarray, m: float, x) -> np.ndarray:
    """Membership-weighted centroids.

        w_j = sum_i u_ij^m x_i / sum_i u_ij^m

    Each centroid is a convex combination of the data rows. A cluster
    whose fuzzified membership column sums to zero has no defined
    centroid and raises.
    """
    xv = as_values(x)
    um = u ** m
    mass = um.sum(axis=0)
    dead = np.flatnonzero(mass <= 0.0)
    if dead.size:
        raise ValueError(f"cluster {int(dead[0])} has zero membership mass")
    return (um.T @ xv) / mass[:, None]


def update_memberships(
    x, w: np.ndarray, alpha: np.ndarray, m: float, v: float
) -> np.ndarray:
    """One membership update from centroids and proportions.

    Uses D_ij = d_ij^2 - v ln(alpha_j). Rows where some D_ij is within
    1e-12 of zero (possible only at v = 0, on a gene coinciding with a
    centroid) assign full membership to the nearest cluster, split
    equally over exact ties.
    """
    xv = as_values(x)
    d2 = sq_distances(xv, w)
    big_d = d2 - v * np.log(alpha)[None, :]
    u = np.empty_like(big_d)
    singular = (big_d <= _SINGULARITY_TOL).any(axis=1)
    if singular.any():
        rows = big_d[singular]
        winners = rows <= _SINGULARITY_TOL
        u[singular] = winners / winners.sum(axis=1, keepdims=True)
    regular = ~singular
    if regular.any():
        rows = big_d[regular]
        # dividing by the row minimum keeps the powers in (0, 1]
        scaled = rows / rows.min(axis=1, keepdims=True)
        weights = scaled ** (-1.0 / (m - 1.0))
        u[regular] = weights / weights.sum(axis=1, keepdims=True)
    return u


def pfcm_objective(u: np.ndarray, w: np.ndarray, alpha: Optional[np.ndarray], x, m: float, v: float) -> float:
    """Objective value at a given (U, W, alpha) state.

    J = 1/2 sum u^m d^2 - 1/2 v sum u^m ln(alpha); the penalty term is
    dropped when v is 0 or alpha is None.
    """
    xv = as_values(x)
    um = u ** m
    scatter = 0.5 * float((um * sq_distances(xv, w)).sum())
    if alpha is None or v == 0.0:
        penalty = 0.0
    else:
        penalty = 0.5 * v * float((um * np.log(alpha)[None, :]).sum())
    return scatter - penalty


def _run(
    m_x,
    cfg: FuzzyConfig,
    v: float,
    u_init: Optional[np.ndarray],
    on_iteration: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], None]],
) -> FuzzyPartition:
    x = as_values(m_x)
    n = x.shape[0]
    c = cfg.c
    if not 1 <= c <= n:
        raise ValueError(f"c must be in [1, {n}], got {c}")

    if u_init is not None:
        u = np.array(u_init, dtype=np.float64)
        if u.shape != (n, c):
            raise ValueError(f"u_init must have shape {(n, c)}, got {u.shape}")
    else:
        rng = np.random.default_rng(cfg.seed)
        u = rng.random((n, c))
    u = u / u.sum(axis=1, keepdims=True)

    trace: list[float] = []
    iterations = 0
    converged = False
    try:
        for t in range(cfg.max_iter):
            alpha = compute_alpha(u, cfg.m)
            w = compute_centroids(u, cfg.m, x)
            j_val = pfcm_objective(u, w, alpha, x, cfg.m, v)
            if not np.isfinite(j_val):
                raise NumericalError(
                    f"objective became non-finite at iteration {t} (J={j_val!r}); "
                    f"c={c} m={cfg.m} v={v} seed={cfg.seed}"
                )
            trace.append(j_val)
            u_new = update_memberships(x, w, alpha, cfg.m, v)
            delta = float(np.abs(u_new - u).max())
            u = u_new
            iterations = t + 1
            if on_iteration is not None:
                on_iteration(u.copy(), w.copy(), alpha.copy())
            if delta <= cfg.eps:
                converged = True
                break

        # recompute the returned state from the final memberships so the
        # (U, W, alpha) triple is mutually consistent
        alpha = compute_alpha(u, cfg.m)
        w = compute_centroids(u, cfg.m, x)
        trace.append(pfcm_objective(u, w, alpha, x, cfg.m, v))
    except ValueError as exc:
        # u**m underflowing to zero mass is a numerical failure of the run
        raise NumericalError(
            f"{exc} at iteration {iterations}; c={c} m={cfg.m} v={v} seed={cfg.seed}"
        ) from exc

    return FuzzyPartition(
        memberships=u,
        centroids=w,
        alpha=alpha,
        objective_trace=tuple(trace),
        iterations=iterations,
        converged=converged,
    )


def pfcm(
    m_x,
    cfg: FuzzyConfig,
    u_init: Optional[np.ndarray] = None,
    on_iteration: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], None]] = None,
) -> FuzzyPartition:
    """Penalized fuzzy c-means.

    Iterates alpha/centroid/membership updates from a seeded random
    membership matrix (or u_init) until the max membership change is at
    most cfg.eps or cfg.max_iter is hit. Deterministic given cfg.seed.

    Parameters
    ----------
    m_x : ExpressionMatrix or array-like, shape (n_genes, n_samples)
    cfg : FuzzyConfig
    u_init : ndarray, optional
        Explicit (n_genes, c) starting memberships; rows are renormalized.
    on_iteration : callable, optional
        Called with (U, W, alpha) after each membership update.

    Returns
    -------
    FuzzyPartition
        With alpha set and objective_trace of the penalized objective.
    """
    return _run(m_x, cfg, cfg.v, u_init, on_iteration)


def fcm(
    m_x,
    cfg: FuzzyConfig,
    u_init: Optional[np.ndarray] = None,
    on_iteration: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], None]] = None,
) -> FuzzyPartition:
    """Plain fuzzy c-means: the same iteration with the penalty weight at 0.

    cfg.v is ignored and the result carries alpha=None.
    """
    return replace(_run(m_x, cfg, 0.0, u_init, on_iteration), alpha=None)
