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

and stops when the elementwise max change of U falls below eps.

Each state of U is fitted once: u**m and the squared distances d^2 are
computed once and passed to the step functions, which take those arrays.
A run binds its data to the distance kernel once, at its start. The (n, c)
arrays are cluster-major, as the kernel returns d^2, and each sum over them
has one order whatever their layout: sums over genes read the cluster-major
copy, and a gene's sum over clusters adds them in index order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from ._util import DEFAULTS, NumericalError, SqDistances, Stopped, as_values, check_params
from ._util import count, initial_centroids, iterate, total, weighted_means

__all__ = [
    "ALPHA_FLOOR",
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


@dataclass(frozen=True)
class FuzzyPartition(Stopped):
    """Result of a fuzzy clustering run.

    Attributes
    ----------
    memberships : ndarray, shape (n_genes, k)
        Row-stochastic membership matrix U.
    centroids : ndarray, shape (k, n_samples)
        Final centroids, recomputed from the final memberships.
    alpha : ndarray or None
        Cluster proportions (None for plain fuzzy c-means).
    trace : tuple of float
        J of the initial state and of each fitted state after a
        membership update, so iterations + 1 entries; non-increasing.
    iterations : int
        Number of membership updates performed.
    stop_reason, delta
        As ``Stopped`` defines them; delta is each update's max |Δu|.

    record() gives iterations, stop_reason, converged, trace, delta and,
    for pfcm, alpha.
    """

    memberships: np.ndarray
    centroids: np.ndarray
    alpha: Optional[np.ndarray]
    trace: tuple[float, ...]
    iterations: int
    stop_reason: str
    delta: tuple[float, ...] = ()

    @property
    def assignments(self) -> np.ndarray:
        """Index of each gene's largest membership."""
        return np.argmax(self.memberships, axis=1)

    def record(self) -> dict:
        record = super().record()
        if self.alpha is not None:
            record["alpha"] = self.alpha.tolist()
        return record


def compute_alpha(um: np.ndarray) -> np.ndarray:
    """Cluster proportions from the fuzzified memberships um = U**m.

    alpha_j is cluster j's share of the total fuzzified membership mass

        alpha_j = sum_i u_ij^m / sum_l sum_i u_il^m

    with components below ALPHA_FLOOR clamped up, the vector renormalized,
    and the last component fixed by subtraction so the sum is exactly 1.
    """
    mass = np.asfortranarray(um).sum(axis=0)
    whole = mass.sum()
    if not whole > 0.0:
        raise ValueError("membership matrix has zero total mass")
    alpha = mass / whole
    if alpha.shape[0] == 1:
        return np.ones(1)
    clamped = np.maximum(alpha, ALPHA_FLOOR)
    alpha = clamped / clamped.sum()
    alpha[-1] = 1.0 - alpha[:-1].sum()
    return alpha


def compute_centroids(um: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Centroids weighted by the fuzzified memberships um = U**m.

        w_j = sum_i u_ij^m x_i / sum_i u_ij^m

    Each is a convex combination of the data rows, by ``_util.weighted_means``
    as in all four algorithms; a column of zero fuzzified mass raises.
    """
    w, mass = weighted_means(um, x)
    dead = np.flatnonzero(mass <= 0.0)
    if dead.size:
        raise ValueError(f"cluster {int(dead[0])} has zero membership mass")
    return w


def update_memberships(d2: np.ndarray, alpha: np.ndarray, m: float, v: float) -> np.ndarray:
    """One membership update from squared distances d2 and proportions.

    Uses D_ij = d2_ij - v ln(alpha_j). Rows where some D_ij is within
    1e-12 of zero (possible only at v = 0, on a gene coinciding with a
    centroid) assign full membership to the nearest cluster, split
    equally over exact ties.

    The formula runs on every row, each row on its own, and the singular
    rows are then overwritten; on those rows it divides by a zero or
    tiny minimum, which is why its floating-point warnings are silenced.
    """
    big_d = np.asfortranarray(d2 - v * np.log(alpha)[None, :])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # dividing by the row minimum keeps the powers in (0, 1]
        scaled = big_d / big_d.min(axis=1, keepdims=True)
        u = scaled ** (-1.0 / (m - 1.0))
        u /= u.sum(axis=1, keepdims=True)
    winners = big_d <= _SINGULARITY_TOL
    singular = winners.any(axis=1)
    if singular.any():
        winners = winners[singular]
        u[singular] = winners / winners.sum(axis=1, keepdims=True)
    return u


def pfcm_objective(um: np.ndarray, d2: np.ndarray, alpha: Optional[np.ndarray], v: float) -> float:
    """Objective value from um = U**m, the squared distances d2 and alpha.

    J = 1/2 sum u^m d^2 - 1/2 v sum u^m ln(alpha); the penalty term is
    dropped when v is 0 or alpha is None.
    """
    scatter = 0.5 * total(um * d2)
    if alpha is None or v == 0.0:
        penalty = 0.0
    else:
        penalty = 0.5 * v * total(um * np.log(alpha)[None, :])
    return scatter - penalty


def _run(x, c, m, v, seed, max_iter, eps, u_init, on_iteration) -> FuzzyPartition:
    """The one fuzzy loop behind pfcm and fcm; fcm runs it at v = 0.

    Checks m, v, eps and max_iter by ``check_params`` and c by ``count``,
    as kmeans and rough_kmeans check theirs, and runs max_iter as an int.
    """
    x = as_values(x)
    n = x.shape[0]
    check_params(m=m, v=v, eps=eps, max_iter=max_iter)
    c = count(c, "c", 1, n)

    distances = SqDistances(x)

    def start():
        # U before the first update; the driver alone holds it, so round 1 frees it
        if u_init is not None:
            u = np.array(u_init, dtype=np.float64, order="F")
            if u.shape != (n, c):
                raise ValueError(f"u_init must have shape {(n, c)}, got {u.shape}")
            return u / u.sum(axis=1, keepdims=True)
        # the start the crisp algorithms use: seeded rows as centroids, then
        # one membership update at v = 0, so U does not depend on v
        d2 = distances(initial_centroids(x, c, seed, False))
        if not np.isfinite(d2).all():
            raise NumericalError(
                f"squared distances to the starting centroids are non-finite; "
                f"c={c} m={m} v={v} seed={seed}"
            )
        return update_memberships(d2, np.full(c, 1.0 / c), m, 0.0)

    trace: list[float] = []

    def fit(u, t):
        # alpha, W and d^2 of U after t updates, and its J appended to the trace
        try:
            um = u ** m
            alpha = compute_alpha(um)
            w = compute_centroids(um, x)
        except ValueError as exc:
            # u**m underflowing to zero mass is a numerical failure of the run
            raise NumericalError(f"{exc} at iteration {t}; c={c} m={m} v={v} seed={seed}") from exc
        d2 = distances(w)
        j_val = pfcm_objective(um, d2, alpha, v)
        if not np.isfinite(j_val):
            raise NumericalError(
                f"objective became non-finite at iteration {t} (J={j_val!r}); "
                f"c={c} m={m} v={v} seed={seed}"
            )
        trace.append(j_val)
        return alpha, w, d2

    def step(u, t):
        # fit U, the state after t - 1 updates, then update it; the fit's
        # arrays are freed before the next round's fit
        alpha, w, d2 = fit(u, t - 1)
        u_new = update_memberships(d2, alpha, m, v)
        delta = float(np.abs(u_new - u).max())
        if on_iteration is not None:
            on_iteration(u_new.copy(), w.copy(), alpha.copy())
        return u_new, None, delta

    u, iterations, stop_reason, delta = iterate(step, start(), int(max_iter), eps)
    alpha, w, _ = fit(u, iterations)
    return FuzzyPartition(u, w, alpha, tuple(trace), iterations, stop_reason, delta)


def pfcm(
    x,
    c: int,
    *,
    m: float = DEFAULTS["m"],
    v: float = DEFAULTS["v"],
    seed: int = 0,
    max_iter: int = DEFAULTS["max_iter"],
    eps: float = DEFAULTS["eps"],
    u_init: Optional[np.ndarray] = None,
    on_iteration: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], None]] = None,
) -> FuzzyPartition:
    """Penalized fuzzy c-means.

    Starts from one membership update at v = 0 from c seeded data rows
    (``initial_centroids``, the start of kmeans and rough_kmeans), or
    from u_init, then iterates alpha/centroid/membership updates until
    the max membership change is below eps or max_iter is hit.
    Deterministic given seed. Takes its parameters as kmeans and
    rough_kmeans take theirs, with the defaults of DEFAULTS.

    Parameters
    ----------
    x : ExpressionMatrix or array-like, shape (n_genes, n_samples)
    c : int
        Cluster count, 1 <= c <= n_genes; c and seed follow ``count``'s rule.
        Every parameter after c is keyword-only.
    m : float
        Fuzzifier, strictly greater than 1. Values near 1 give nearly
        crisp memberships, large values push every membership toward 1/c.
    v : float
        Penalty weight >= 0. Zero recovers plain fuzzy c-means.
    seed : int
        Picks the c distinct data rows the run starts from, as
        ``initial_centroids`` does for kmeans and rough_kmeans.
    max_iter : int
        Iteration cap; an integral float such as 50.0 runs as its int.
    eps : float
        Convergence tolerance on the max membership change.
    u_init : ndarray, optional
        Explicit (n_genes, c) starting memberships, any start at all (a
        random matrix included); rows are renormalized.
    on_iteration : callable, optional
        Called with (U, W, alpha) after each membership update.

    Returns
    -------
    FuzzyPartition
        With alpha set and trace of the penalized objective.
    """
    return _run(x, c, m, v, seed, max_iter, eps, u_init, on_iteration)


def fcm(
    x,
    c: int,
    *,
    m: float = DEFAULTS["m"],
    seed: int = 0,
    max_iter: int = DEFAULTS["max_iter"],
    eps: float = DEFAULTS["eps"],
    u_init: Optional[np.ndarray] = None,
    on_iteration: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], None]] = None,
) -> FuzzyPartition:
    """Plain fuzzy c-means: pfcm's iteration with the penalty weight at 0.

    Takes pfcm's parameters but v; the result carries alpha=None.
    """
    return replace(_run(x, c, m, 0.0, seed, max_iter, eps, u_init, on_iteration), alpha=None)
