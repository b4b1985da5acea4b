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


def _check_shapes(x: np.ndarray, u: np.ndarray, w: np.ndarray) -> None:
    if u.shape[0] != x.shape[0] or u.shape[1] != w.shape[0] or w.shape[1] != x.shape[1]:
        raise ValueError(
            f"inconsistent shapes: data {x.shape}, memberships {u.shape}, "
            f"centroids {w.shape}"
        )


def rmse(x, u: np.ndarray, w: np.ndarray, m: float = 2.0) -> float:
    """Root of the mean membership-weighted squared residual per cell."""
    xv = as_values(x)
    _check_shapes(xv, u, w)
    sse = total((u ** m) * sq_distances(xv, w))
    return math.sqrt(sse / (xv.shape[0] * xv.shape[1]))


def mae(x, u: np.ndarray, w: np.ndarray, m: float = 2.0) -> float:
    """Mean membership-weighted L1 residual per cell."""
    xv = as_values(x)
    _check_shapes(xv, u, w)
    # one cluster at a time through one reused buffer, so no (n, k, d)
    # array is built and no fresh (n, d) array is paged in per cluster
    l1 = np.empty((w.shape[0], xv.shape[0]))
    diff = np.empty_like(xv)
    for j in range(w.shape[0]):
        np.subtract(xv, w[j], out=diff)
        np.abs(diff, out=diff)
        diff.sum(axis=1, out=l1[j])
    return total((u ** m) * l1.T) / (xv.shape[0] * xv.shape[1])


def xie_beni(x, u: np.ndarray, w: np.ndarray) -> float:
    """Compactness over separation; infinity when centroids coincide.

    Requires at least two centroids; the separation term is the minimum
    squared distance between any two of them.
    """
    xv = as_values(x)
    _check_shapes(xv, u, w)
    k = w.shape[0]
    if k < 2:
        raise ValueError("the separation term needs at least 2 centroids")
    sep = sq_distances(w, w)
    np.fill_diagonal(sep, np.inf)
    min_sep = float(sep.min())
    if min_sep <= _SEPARATION_TOL:
        return math.inf
    scatter = total((u ** 2) * sq_distances(xv, w))
    return scatter / (xv.shape[0] * min_sep)


def score(x, u: np.ndarray, w: np.ndarray, m: float, algorithm: str) -> ValidityReport:
    """Score memberships u and centroids w of x as a ValidityReport.

    The fuzzifier m weights the rmse/mae residuals. With a single cluster
    the Xie-Beni index is undefined and reported as infinity.
    """
    xv = as_values(x)
    xb = math.inf if w.shape[0] < 2 else xie_beni(xv, u, w)
    return ValidityReport(
        rmse=rmse(xv, u, w, m),
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
    return score(x, unified_memberships(p), p.centroids, m, algorithm)
