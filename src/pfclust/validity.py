"""Cluster validity measures: RMSE, MAE and the Xie-Beni index.

All three are computed from a membership matrix, the memberships every
partition carries (one-hot rows for hard assignments, equal splits over
upper sets for rough boundary genes).

RMSE and MAE are membership-weighted reconstruction residuals normalized
by the cell count n_genes * n_samples:

    rmse = sqrt( sum_ij u_ij^m ||x_i - w_j||^2  / (n_g n_s) )
    mae  =       sum_ij u_ij^m ||x_i - w_j||_1  / (n_g n_s)

The Xie-Beni index always squares the memberships, whatever fuzzifier the
algorithm ran with, so scores stay comparable across algorithms:

    xb = sum_ij u_ij^2 ||x_i - w_j||^2 / ( n_g * min_{j != l} ||w_j - w_l||^2 )

Lower is better for all three.

score() binds x to the distance kernel once: RMSE and Xie-Beni come from one
d², through the helper rmse and xie_beni also use. MAE takes its own
sample-major copy of x.T, so one score copies x twice: the bind and MAE's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._util import DEFAULTS, as_values, sq_distances, total
from .fuzzy import FuzzyPartition
from .kmeans import HardPartition
from .rough import RoughPartition

__all__ = [
    "ALGORITHMS",
    "ValidityReport",
    "default_m",
    "unified_memberships",
    "rmse",
    "mae",
    "xie_beni",
    "score",
    "evaluate",
]

ALGORITHMS = ("kmeans", "rough_kmeans", "fcm", "pfcm")

_SEPARATION_TOL = 1e-12

Partition = Union[HardPartition, RoughPartition, FuzzyPartition]


@dataclass(frozen=True)
class ValidityReport:
    """The three validity measures plus the run shape they describe."""

    rmse: float
    mae: float
    xie_beni: float
    n_genes: int
    n_samples: int
    k: int
    algorithm: str

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm tag {self.algorithm!r}; expected one of {ALGORITHMS}"
            )


def default_m(fuzzy: bool) -> float:
    """The grid's fuzzifier: the default m for fuzzy partitions, 1 for hard and rough ones."""
    return DEFAULTS["m"] if fuzzy else 1.0


def unified_memberships(p: Partition) -> np.ndarray:
    """A copy of the partition's (n_genes, k) row-stochastic memberships."""
    return p.memberships.copy()


def _values(x, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    xv = as_values(x)
    if u.shape[0] != xv.shape[0] or u.shape[1] != w.shape[0] or w.shape[1] != xv.shape[1]:
        raise ValueError(
            f"inconsistent shapes: data {xv.shape}, memberships {u.shape}, "
            f"centroids {w.shape}"
        )
    return xv


def _indices(xv: np.ndarray, u: np.ndarray, w: np.ndarray, m: float | None = None,
             xb: bool = False) -> tuple[float, float]:
    """(RMSE at fuzzifier m, Xie-Beni) from one bind of xv and one d²: the one
    place score, rmse and xie_beni compute them. m None skips RMSE and xb False
    skips Xie-Beni (nan); Xie-Beni is inf for one centroid or two that coincide."""
    d2 = sq_distances(xv, w)
    r = math.nan if m is None else math.sqrt(total((u ** m) * d2) / xv.size)
    if not xb:
        return r, math.nan
    sep = sq_distances(w, w)
    np.fill_diagonal(sep, np.inf)
    min_sep = float(sep.min())
    if len(w) < 2 or min_sep <= _SEPARATION_TOL:
        return r, math.inf
    return r, total((u ** 2) * d2) / (xv.shape[0] * min_sep)


def rmse(x, u: np.ndarray, w: np.ndarray, m: float = 2.0) -> float:
    """Root of the mean membership-weighted squared residual per cell."""
    return _indices(_values(x, u, w), u, w, m=m)[0]


def mae(x, u: np.ndarray, w: np.ndarray, m: float = 2.0) -> float:
    """Mean membership-weighted L1 residual per cell."""
    xv = _values(x, u, w)
    # sample-major, one cluster at a time through one reused buffer: each L1
    # sum reduces contiguous rows of x.T, and no (n, k, d) array is built
    xt = np.ascontiguousarray(xv.T)
    l1 = np.empty((w.shape[0], xv.shape[0]))
    diff = np.empty_like(xt)
    for j in range(w.shape[0]):
        np.subtract(xt, w[j][:, None], out=diff)
        np.abs(diff, out=diff)
        diff.sum(axis=0, out=l1[j])
    return total((u ** m) * l1.T) / xv.size


def xie_beni(x, u: np.ndarray, w: np.ndarray) -> float:
    """Compactness over separation; infinity when centroids coincide.

    Requires at least two centroids; the separation term is the minimum
    squared distance between any two of them.
    """
    xv = _values(x, u, w)
    if w.shape[0] < 2:
        raise ValueError("the separation term needs at least 2 centroids")
    return _indices(xv, u, w, xb=True)[1]


def score(x, u: np.ndarray, w: np.ndarray, m: float, algorithm: str) -> ValidityReport:
    """Score memberships u and centroids w of x as a ValidityReport.

    The fuzzifier m weights the rmse/mae residuals; rmse and Xie-Beni share one
    d². Xie-Beni is infinity for a single cluster or coincident centroids.
    """
    xv = _values(x, u, w)
    r, xb = _indices(xv, u, w, m, xb=True)
    return ValidityReport(
        rmse=r,
        mae=mae(xv, u, w, m),
        xie_beni=xb,
        n_genes=xv.shape[0],
        n_samples=xv.shape[1],
        k=w.shape[0],
        algorithm=algorithm,
    )


def evaluate(x, p: Partition, m: float | None = None,
             algorithm: str | None = None) -> ValidityReport:
    """Score a partition of x: score() on its memberships, at default_m unless m is given."""
    m = default_m(isinstance(p, FuzzyPartition)) if m is None else m
    if algorithm is None:
        algorithm = {
            HardPartition: "kmeans",
            RoughPartition: "rough_kmeans",
            FuzzyPartition: "fcm" if getattr(p, "alpha", None) is None else "pfcm",
        }[type(p)]
    return score(x, p.memberships, p.centroids, m, algorithm)
