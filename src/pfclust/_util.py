"""Internal numeric helpers shared by the clustering modules."""

from __future__ import annotations

import math
import numbers
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

import numpy as np

from .matrix import ExpressionMatrix

# the six run parameters: default, the condition a value must meet, and the
# rule errors name. Each condition is written as what must hold, so NaN
# fails every one of them.
PARAMETERS = {
    "m": (2.0, lambda v: v > 1.0, "must be strictly greater than 1"),
    "v": (1.0, lambda v: v >= 0.0, "must be >= 0"),
    "zeta": (1.3, lambda v: v >= 1.0, "must be >= 1"),
    "w_lower": (0.7, lambda v: 0.0 < v <= 1.0, "must be in (0, 1]"),
    "eps": (1e-5, lambda v: v > 0.0, "must be positive"),
    "max_iter": (300, lambda v: 1 <= v < math.inf, "must be >= 1"),
}

DEFAULTS = {name: default for name, (default, _, _) in PARAMETERS.items()}


def check_params(flags: bool = False, **values) -> None:
    """Raise ValueError for the first value, in the order given, that breaks its rule.

    With flags the error names the parameter as its command-line flag
    (``--w-lower``). Values that are not real numbers (bools included)
    are rejected too.
    """
    for name, value in values.items():
        _, holds, rule = PARAMETERS[name]
        label = "--" + name.replace("_", "-") if flags else name
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{label} must be a number, got {value!r}")
        if not holds(value):
            raise ValueError(f"{label} {rule}, got {value}")


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


# entries below this fraction of ||x_i - mu||^2 + ||w_j - mu||^2 are
# recomputed from the row difference: far above it the GEMM expansion's
# rounding error (about d * 1e-16 of that sum) is negligible, while below it
# cancellation could hide a coincidence or fake one
_RECOMPUTE_FRAC = 1e-6


def sq_distances(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape (n_rows_x, n_rows_w).

    Uses the expansion ||a||^2 - 2 a.b + ||b||^2 on rows centred by the
    column mean mu of x, so one matrix product does the work and no
    (n, k, d) array is built. Results are clamped at 0, and every entry
    small next to ||x_i - mu||^2 + ||w_j - mu||^2 is recomputed exactly
    from x_i - w_j, so a row equal to a centroid gets exactly 0. Entries
    the expansion leaves inf or nan by overflow are recomputed the same
    way, which is why its floating-point warnings are silenced.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mu = x.mean(axis=0)
        xc = x - mu
        wc = w - mu
        xn = np.einsum("ij,ij->i", xc, xc)
        wn = np.einsum("ij,ij->i", wc, wc)
        d2 = xc @ wc.T
        d2 *= -2.0
        d2 += xn[:, None]
        d2 += wn[None, :]
        np.maximum(d2, 0.0, out=d2)
        rows, cols = np.nonzero(~(d2 > _RECOMPUTE_FRAC * (xn[:, None] + wn[None, :])))
    if rows.size:
        diff = x[rows] - w[cols]
        d2[rows, cols] = np.einsum("ij,ij->i", diff, diff)
    return d2


def farthest_point_rows(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy farthest-point row selection; the first row is drawn uniformly."""
    chosen = [int(rng.integers(x.shape[0]))]
    # nearest-chosen squared distance per row, from exact row differences
    nearest = np.full(x.shape[0], np.inf)
    diff = np.empty_like(x)
    for _ in range(k - 1):
        np.subtract(x, x[chosen[-1]], out=diff)
        np.minimum(nearest, np.einsum("ij,ij->i", diff, diff), out=nearest)
        chosen.append(int(np.argmax(nearest)))
    return x[chosen].copy()


def initial_centroids(
    x: np.ndarray, k: int, seed: int, farthest: bool, init: Optional[np.ndarray] = None
) -> np.ndarray:
    """Starting centroids for k clusters, 1 <= k <= n_rows.

    `init`, when given, is copied after its (k, n_cols) shape is checked;
    otherwise k distinct rows are picked by a seeded uniform sample or by
    greedy farthest-point selection.
    """
    n, d = x.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if init is not None:
        w = np.array(init, dtype=np.float64)
        if w.shape != (k, d):
            raise ValueError(f"init_centroids must have shape {(k, d)}, got {w.shape}")
        return w
    rng = np.random.default_rng(seed)
    if farthest:
        return farthest_point_rows(x, k, rng)
    return x[rng.choice(n, size=k, replace=False)]
