"""Internal numeric helpers and name tables shared by the package's modules."""

from __future__ import annotations

import csv
import math
import numbers
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional

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
    "max_iter": (300, lambda v: 1 <= v < math.inf and v % 1 == 0, "must be an integer >= 1"),
}

DEFAULTS = {name: default for name, (default, _, _) in PARAMETERS.items()}

# The name tables the CLI's parser and flag checks read, kept here so that a
# process builds its parser without importing the modules that use them
# (validity and harness re-export theirs).
ALGORITHMS = ("kmeans", "rough_kmeans", "fcm", "pfcm")

# the DEFAULTS keys each algorithm reads; every other key is ignored
PARAMS = {
    "kmeans": ("eps", "max_iter"),
    "rough_kmeans": ("zeta", "w_lower", "eps", "max_iter"),
    "fcm": ("m", "eps", "max_iter"),
    "pfcm": ("m", "v", "eps", "max_iter"),
}

NORMALIZATIONS = ("none", "mean_relative", "z_score")

SUBSET_POLICIES = ("first_n", "variance_top_n", "seeded_random")

# the preset (size, k) cells at full size, a 7129-gene matrix like Golub's
PRESET_PAIRS = ((7129, 7), (5000, 5), (3000, 3), (1000, 7))

# ExperimentGrid's defaults for the fields grid's flags set
GRID_DEFAULTS = {"algorithms": ALGORITHMS, "normalization": "z_score",
                 "subset_policy": "variance_top_n", "seeds": (0,)}


def default_m(fuzzy: bool) -> float:
    """The grid's fuzzifier: the default m for fuzzy partitions, 1 for hard and rough ones."""
    return DEFAULTS["m"] if fuzzy else 1.0


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


def count(value, name: str, low: int, high: Optional[int] = None) -> int:
    """The one count rule: value as an int, if it is an integer in [low, high].

    2.0 passes; a bool, string, fraction, NaN or inf does not. Errors name `name`.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value % 1 != 0:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= (math.inf if high is None else high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be {bound}, got {int(value)}")
    return int(value)


def canonical(name, choices: tuple[str, ...], what: str) -> str:
    """The one name rule: the entry of `choices` that `name` spells.

    Any case, "-" for "_", and "zscore" for z_score; anything else is a
    ValueError naming `what` and listing the choices.
    """
    flat = name.replace("-", "_").lower() if isinstance(name, str) else name
    flat = "z_score" if flat == "zscore" else flat
    if flat not in choices:
        expected = ", ".join(c.replace("_", "-") for c in choices)
        raise ValueError(f"unknown {what} {name!r}; expected one of {expected}")
    return flat


def parse_cells(rows, dtype=np.float64) -> Optional[np.ndarray]:
    """The one cell rule: strings (or nested lists of them) as one array in one
    numpy pass, each cell read as float() reads it (int() for an integer
    dtype); None if a cell is refused or overflows the dtype."""
    try:
        return np.array(rows, dtype=dtype)
    except (ValueError, OverflowError):
        return None


def bad_cell(cells) -> Optional[tuple[int, str]]:
    """A failure walk's step: the first of `cells` that the cell rule refuses or
    reads as NaN or infinite, as (its index, "non-numeric value 'x'" or
    "non-finite value 'inf'"); None if every cell is a finite number."""
    for j, cell in enumerate(cells):
        value = parse_cells(cell)
        if value is None or not np.isfinite(value):
            return j, f"{'non-numeric' if value is None else 'non-finite'} value {cell!r}"
    return None


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# cells a part holds at least: two parts of 20000 cells parse no faster than one process
PART_CELLS = 100_000
# whether a child can be forked and moved to a CPU, and this process's CPU read
_SPREADS = (all(hasattr(os, f) for f in ("fork", "sched_getaffinity", "sched_setaffinity"))
            and os.path.exists("/proc/self/stat"))


def in_parts(part: Callable[[int, int], bytes], n_items: int, most: int) -> Optional[list]:
    """[part(i, n) for i in range(n)], where n = min(usable CPUs, n_items, most),
    or one where a process cannot fork or move to a CPU; part i of n does its
    share of n_items. The first runs here, each other one in a forked child
    that moves to a usable CPU other than this process's (a child stays on
    its parent's CPU, where two parts run slower than one) and sends its
    bytes through a pipe. None, once every child is reaped, if a part raises
    or a child fails: the caller then does the work in process."""
    n = max(1, min(usable_cpus(), n_items, most)) if _SPREADS else 1
    children, ok = [], False
    try:
        if n > 1:
            with open("/proc/self/stat", "rb") as stat:  # field 39: the CPU this runs on
                here = int(stat.read().rsplit(b")", 1)[1].split()[36])
            cpus = [c for c in sorted(os.sched_getaffinity(0)) if c != here] or [here]
        for i in range(1, n):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child leaves by os._exit, never into the caller's code
                try:
                    os.sched_setaffinity(0, [cpus[(i - 1) % len(cpus)]])
                    with open(w, "wb") as pipe:
                        pipe.write(part(i, n))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            children.append((pid, open(r, "rb")))
        parts = [part(0, n)] + [pipe.read() for _, pipe in children]
        ok = True
    except Exception:
        pass  # the caller does the work again in process, which names any fault
    finally:
        for pid, pipe in children:
            pipe.close()
            if not ok:  # no part is needed now: SIGKILL the children still at work
                os.kill(pid, 9)
            ok = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0 and ok
    return parts if ok else None


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


def write_csv(dest, header, rows) -> None:
    """Write a header row and data rows as CSV with "\\n" line ends."""
    with opened(dest) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


class NumericalError(RuntimeError):
    """The iteration met a non-finite distance or objective, or a cluster with zero mass."""


class Stopped:
    """Base of the partitions: k, and converged derived from stop_reason.

    Every partition also has assignments, one cluster in [0, k) per gene,
    and memberships, an (n_genes, k) row-stochastic matrix, with the one
    label rule assignments == argmax(memberships), lowest index on ties.
    stop_reason is "tolerance" (the stop test fired), "cycle" (rough
    k-means only: the centroids repeated) or "max_iter".
    """

    stop_reason: str
    centroids: np.ndarray

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tolerance"


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


class SqDistances:
    """The distance kernel bound to one data matrix x.

    Calling it with centroids w gives the squared Euclidean distances,
    shape (n_rows_x, n_rows_w), stored cluster-major: the transpose of a
    C-contiguous (n_rows_w, n_rows_x) array, so each cluster's distances
    are contiguous and a per-row min, sum or any over the clusters reads
    contiguous memory. It uses the expansion
    ||a||^2 - 2 a.b + ||b||^2 on rows centred by the column mean mu of x,
    so one matrix product does the work and no (n, k, d) array is built.
    Every entry not above a small fraction of ||x_i - mu||^2 + ||w_j - mu||^2
    is recomputed exactly from x_i - w_j, so a row equal to a centroid gets
    exactly 0. Negative and nan entries fail the same test and are
    recomputed the same way (so no clamp at 0 is needed), as are inf ones
    where a norm overflowed, which is why its floating-point warnings are
    silenced.

    What depends on x alone is computed once, when x is bound: mu, the
    centred rows xc = x - mu and their squared norms xn. A call does only
    the work that depends on w: it scales the small w operand by -2 (exact),
    not the product, and looks for entries to recompute only if there are
    any. x and w are read row-major whatever their layout (an F-ordered one
    is copied), so equal values give bit-equal distances. An iterative run
    binds its data once and applies the kernel to each round's centroids.
    """

    def __init__(self, x: np.ndarray):
        x = self.x = np.ascontiguousarray(x)
        with np.errstate(over="ignore", invalid="ignore"):
            self.mu = x.mean(axis=0)
            self.xc = x - self.mu
            self.xn = np.einsum("ij,ij->i", self.xc, self.xc)

    def __call__(self, w: np.ndarray) -> np.ndarray:
        x, xn = self.x, self.xn
        with np.errstate(over="ignore", invalid="ignore"):
            wc = np.ascontiguousarray(w - self.mu)
            wn = np.einsum("ij,ij->i", wc, wc)
            d2 = (-2.0 * wc) @ self.xc.T
            d2 += xn[None, :]
            d2 += wn[:, None]
            keep = d2 > _RECOMPUTE_FRAC * (xn[None, :] + wn[:, None])
            if not keep.all():
                cols, rows = np.nonzero(~keep)
                diff = x[rows] - w[cols]
                d2[cols, rows] = np.einsum("ij,ij->i", diff, diff)
        return d2.T


def sq_distances(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape (n_rows_x, n_rows_w): SqDistances(x)(w)."""
    return SqDistances(x)(w)


def weighted_means(g: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one centroid rule: ((g.T @ x) / mass, mass) for (n, k) row weights g
    built cluster-major: one-hot rows (kmeans), lower or boundary indicators
    (rough) or u**m (fuzzy). Mass is summed cluster-major; zero mass gives a zero row."""
    g = np.asfortranarray(g, dtype=np.float64)
    mass, sums = g.sum(axis=0), g.T @ x
    return np.divide(sums, mass[:, None], out=np.zeros_like(sums), where=mass[:, None] != 0), mass


def total(a: np.ndarray) -> float:
    """The sum of an (n, k) array, read cluster-major whatever its layout."""
    return float(np.asfortranarray(a).sum())


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
    greedy farthest-point selection. The seed must be >= 0 either way; all
    four algorithms start here, so this is where the API checks k and the
    seed, by ``count``; callers take k as an int from the result's rows.
    """
    n, d = x.shape
    k = count(k, "k", 1, n)
    seed = count(seed, "seed", 0)
    if init is not None:
        w = np.array(init, dtype=np.float64)
        if w.shape != (k, d):
            raise ValueError(f"init_centroids must have shape {(k, d)}, got {w.shape}")
        return w
    rng = np.random.default_rng(seed)
    if farthest:
        return farthest_point_rows(x, k, rng)
    return x[rng.choice(n, size=k, replace=False)]
