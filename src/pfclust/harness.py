"""Comparative experiment harness.

Runs any subset of {kmeans, rough_kmeans, fcm, pfcm} over a grid of
(gene-subset size, cluster count) cells, scoring each run with the
validity measures and emitting deterministic CSV/JSON reports. Also
provides the synthetic-data generator used by the property tests.

Reports never embed wall-clock times; runtimes are kept on the in-memory
rows and written only by the separate timings writer, so repeated runs of
the same grid produce byte-identical report files.

A grid runs its runs in parts, the first in the calling process and each
other one in a forked process (see run_grid). A part builds each normalized
gene subset its runs use before the first of them and drops it after the
last, so nothing is held up front. A row's runtime covers its algorithm run
and scoring only: building the subset is in no row.
"""

from __future__ import annotations

import pickle
import time
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from itertools import groupby, product
from pathlib import Path
from typing import IO, Callable, Optional, Sequence, Union

import numpy as np

from . import _util
from ._util import (
    ALGORITHMS, DEFAULTS, GRID_DEFAULTS, NORMALIZATIONS, PARAMS, PRESET_PAIRS, SUBSET_POLICIES,
    as_values, canonical, check_params, count, write_csv,
)
# kmeans, rough_kmeans, fcm and pfcm: run_algorithm calls them by these names
from .fuzzy import FuzzyPartition, fcm, pfcm
from .kmeans import HardPartition, kmeans
from .matrix import ExpressionMatrix
from .normalize import normalize
from .rough import RoughPartition, rough_kmeans
from .validity import ValidityReport, evaluate

__all__ = [
    "DEFAULTS",
    "NORMALIZATIONS",
    "PARAMS",
    "SUBSET_POLICIES",
    "ExperimentGrid",
    "CellResult",
    "ExperimentResult",
    "subset_genes",
    "PRESET_PAIRS",
    "preset_pairs",
    "run_algorithm",
    "run_grid",
    "generate_synthetic",
]

def subset_genes(
    m: ExpressionMatrix, size: int, policy: str = "variance_top_n", seed: int = 0
) -> ExpressionMatrix:
    """Select `size` genes from a matrix under a named policy.

    first_n keeps the first rows in file order; variance_top_n ranks by
    sample variance descending, breaking ties by gene id ascending;
    seeded_random draws rows without replacement and keeps file order.
    All three are deterministic for a given seed. `policy` follows
    ``canonical``'s name rule; size, and the seed under seeded_random,
    follow ``count``'s.
    """
    policy = canonical(policy, SUBSET_POLICIES, "subset policy")
    size = count(size, "subset size", 1, m.n_genes)
    if size == m.n_genes:
        return m
    if policy == "first_n":
        idx = np.arange(size)
    elif policy == "variance_top_n":
        # object ids compare as Python strs do; a numpy str array ignores trailing NULs
        order = np.lexsort((np.asarray(m.gene_ids, dtype=object), -m.row_sample_vars()))
        idx = np.sort(order[:size])
    else:
        rng = np.random.default_rng(count(seed, "seed", 0))
        idx = np.sort(rng.choice(m.n_genes, size=size, replace=False))
    return m.take_genes(idx)


def preset_pairs(n_genes: int) -> tuple[tuple[int, int], ...]:
    """The four preset (size, k) cells, scaled to the matrix at hand.

    At 7129 genes the cells are exactly (7129,7), (5000,5), (3000,3),
    (1000,7); on smaller matrices each size is scaled proportionally
    (never below 1) and k is capped at the scaled size. Duplicate cells
    after scaling are dropped, keeping first occurrence.
    """
    n_genes = count(n_genes, "n_genes", 1)
    scale = n_genes / PRESET_PAIRS[0][0]
    pairs: list[tuple[int, int]] = []
    for size, k in PRESET_PAIRS:
        s = max(1, round(size * scale))
        s = min(s, n_genes)
        cell = (s, min(k, s))
        if cell not in pairs:
            pairs.append(cell)
    return tuple(pairs)


def _items(value, name: str) -> tuple:
    """The items of a list-like value; a string or a number is not one."""
    if isinstance(value, str) or not isinstance(value, Iterable):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return tuple(value)


def _pair(pair) -> tuple[int, int]:
    """A (size, k) cell from a two-item list-like."""
    items = tuple(pair) if isinstance(pair, Iterable) and not isinstance(pair, str) else ()
    if len(items) != 2:
        raise ValueError(f"pairs must hold [size, k] pairs, got {pair!r}")
    return count(items[0], "subset size", 1), count(items[1], "k", 1)


@dataclass(frozen=True)
class ExperimentGrid:
    """Declarative description of a comparative experiment, stored canonical.

    Cells are the cross product subset_sizes x ks or, instead, exactly
    the (size, k) `pairs`; a grid without cells is an error. List fields
    must be lists and pairs two items. Sizes, ks, pair entries and seeds
    follow ``count``'s rule (40.0 passes; a bool, string or fraction does
    not), sizes and ks >= 1 and seeds >= 0. Names, the `overrides` keys
    included, follow ``canonical``'s one rule. The grid keeps sizes, ks,
    pairs and seeds distinct and ascending, algorithms distinct in
    ALGORITHMS order and names canonical, so asdict(grid),
    report.json's `grid`, is exactly what runs() runs. `overrides` maps
    an algorithm, once, to parameter overrides, e.g. {"pfcm": {"v": 0.5}};
    the keys must be ones PARAMS lists for that algorithm, and the values
    must meet the same range rules as the algorithm's own arguments.
    """

    subset_sizes: tuple[int, ...] = ()
    ks: tuple[int, ...] = ()
    pairs: Optional[tuple[tuple[int, int], ...]] = None
    algorithms: tuple[str, ...] = GRID_DEFAULTS["algorithms"]
    normalization: str = GRID_DEFAULTS["normalization"]
    subset_policy: str = GRID_DEFAULTS["subset_policy"]
    seeds: tuple[int, ...] = GRID_DEFAULTS["seeds"]
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        for name, what, low in (("subset_sizes", "subset size", 1), ("ks", "k", 1),
                                ("seeds", "seed", 0)):
            values = _items(getattr(self, name), name)
            put(name, tuple(sorted({count(n, what, low) for n in values})))
        if self.pairs is not None:
            if self.subset_sizes or self.ks:
                raise ValueError("pairs cannot be combined with subset_sizes/ks")
            put("pairs", tuple(sorted({_pair(p) for p in _items(self.pairs, "pairs")})))
        if not self.cells():
            raise ValueError("provide subset_sizes and ks, or at least one pair")
        named = {canonical(a, ALGORITHMS, "algorithm")
                 for a in _items(self.algorithms, "algorithms")}
        put("algorithms", tuple(a for a in ALGORITHMS if a in named))
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        put("normalization", canonical(self.normalization, NORMALIZATIONS, "normalization"))
        put("subset_policy", canonical(self.subset_policy, SUBSET_POLICIES, "subset policy"))
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if not isinstance(self.overrides, dict) or not all(
            isinstance(params, dict) for params in self.overrides.values()
        ):
            raise TypeError("overrides must map algorithm names to parameter objects")
        overrides: dict = {}
        for given, params in self.overrides.items():
            try:
                a = canonical(given, ALGORITHMS, "algorithm")
            except ValueError as exc:
                raise ValueError(f"override for {exc}") from None
            if a in overrides:
                raise ValueError(f"overrides name {a} twice")
            for key in params:
                if key not in PARAMS[a]:
                    raise ValueError(
                        f"unknown override key {key!r} for {a}; "
                        f"expected one of {', '.join(PARAMS[a])}"
                    )
            check_params(**params)
            overrides[a] = params
        put("overrides", overrides)

    def cells(self) -> tuple[tuple[int, int], ...]:
        """All (size, k) cells, distinct and ascending."""
        return self.pairs if self.pairs is not None else tuple(product(self.subset_sizes, self.ks))

    def runs(self) -> tuple[tuple[int, int, str, int], ...]:
        """Every (size, k, algorithm, seed), distinct: by cell, algorithm, seed."""
        runs = product(self.cells(), self.algorithms, self.seeds)
        return tuple((*cell, a, seed) for cell, a, seed in runs)

    def config_for(self, algorithm: str) -> dict:
        return {**DEFAULTS, **self.overrides.get(algorithm, {})}


# the record of a run that failed: no iterations, stop reason, trace or deltas
_NO_RUN = {"iterations": None, "stop_reason": None, "converged": None, "trace": (),
           "delta": ()}


@dataclass(frozen=True)
class CellResult:
    """One algorithm run on one grid cell with one seed.

    run is the partition's record (``Stopped.record``), or _NO_RUN's
    null record where the run failed; iterations and converged read it.
    """

    size: int
    k: int
    algorithm: str
    seed: int
    report: Optional[ValidityReport]
    run: dict
    config: dict
    runtime: float
    error: Optional[str] = None

    @property
    def iterations(self) -> Optional[int]:
        return self.run["iterations"]

    @property
    def converged(self) -> Optional[bool]:
        return self.run["converged"]


@dataclass(frozen=True)
class ExperimentResult:
    """All cell results in deterministic (size, k, algorithm, seed) order."""

    grid: ExperimentGrid
    n_genes: int
    n_samples: int
    rows: tuple[CellResult, ...]

    def write_report_csv(self, dest: Union[str, Path, IO[str]]) -> None:
        write_csv(dest, [name for name, _ in _REPORT_COLUMNS],
                  [[cell(r) for _, cell in _REPORT_COLUMNS] for r in self.rows])

    def write_summary_csv(self, dest: Union[str, Path, IO[str]]) -> None:
        stats = [f"{attr}_{stat}" for attr in _SCORES for stat in ("mean", "sd", "best")]
        write_csv(dest, ["size", "k", "algorithm", "n_runs", "n_errors", *stats],
                  _summarize(self.rows))

    def write_report_json(self, dest: Union[str, Path, IO[str]]) -> None:
        doc = {
            "grid": asdict(self.grid),
            "matrix": {"n_genes": self.n_genes, "n_samples": self.n_samples},
            "rows": [_json_row(r) for r in self.rows],
        }
        # imported on first use, as the CLI's handlers import theirs, so that
        # a process that imports the harness only to build data loads no serialize
        from .serialize import write_metadata_json

        write_metadata_json(doc, dest)

    def write_timings_csv(self, dest: Union[str, Path, IO[str]]) -> None:
        """Wall-clock seconds per row; the one output that is not reproducible.

        A row's seconds cover its algorithm run and scoring, not building
        the subset it shares with the other runs of its cell.
        """
        rows = [
            [str(r.size), str(r.k), r.algorithm, str(r.seed), repr(float(r.runtime))]
            for r in self.rows
        ]
        write_csv(dest, ["size", "k", "algorithm", "seed", "runtime_s"], rows)


def _fmt(x: Optional[float]) -> str:
    return "" if x is None else repr(float(x))


def _scored(attr: str, fmt: Callable[[object], str] = str) -> Callable[[CellResult], str]:
    """A column's cell: the row's validity report's `attr`, or "" where the run failed."""
    return lambda r: "" if r.report is None else fmt(getattr(r.report, attr))


def _param(key: str) -> Callable[[CellResult], str]:
    """A column's cell: the run's `key` parameter, or "" where its algorithm does not read it."""
    return lambda r: _fmt(r.config[key]) if key in PARAMS[r.algorithm] else ""


# the validity scores of a row; summary.csv gives the mean, sd and best of each
_SCORES = ("rmse", "mae", "xie_beni")

# report.csv's columns in order: (header, the cell of a row)
_REPORT_COLUMNS = (
    ("size", lambda r: str(r.size)),
    ("k", lambda r: str(r.k)),
    ("algorithm", lambda r: r.algorithm),
    ("seed", lambda r: str(r.seed)),
    ("n_genes", _scored("n_genes")),
    ("n_samples", _scored("n_samples")),
    ("normalization", lambda r: r.config["normalization"]),
    ("subset_policy", lambda r: r.config["subset_policy"]),
    *((key, _param(key)) for key in ("m", "v", "zeta", "w_lower")),
    ("iterations", lambda r: "" if r.iterations is None else str(r.iterations)),
    ("converged", lambda r: "" if r.converged is None else ("true" if r.converged else "false")),
    *((attr, _scored(attr, _fmt)) for attr in _SCORES),
    ("error", lambda r: "" if r.error is None else r.error.replace("\n", " ")),
)


def _json_row(r: CellResult) -> dict:
    return {
        "size": r.size,
        "k": r.k,
        "algorithm": r.algorithm,
        "seed": r.seed,
        "config": r.config,
        **r.run,
        "error": r.error,
        "validity": None if r.report is None else {
            key: value for key, value in asdict(r.report).items() if key != "algorithm"
        },
    }


def _stats(values: list[float]) -> tuple[str, str, str]:
    if not values:
        return "", "", ""
    arr = np.asarray(values)
    if np.isinf(arr).any():
        # the spread of infinite scores is infinite, not inf - inf
        mean = sd = np.inf
    else:
        mean = float(arr.mean())
        sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return _fmt(mean), _fmt(sd), _fmt(float(arr.min()))


def _summarize(rows: Sequence[CellResult]) -> list[list[str]]:
    """One line per (size, k, algorithm) group, in the order of the rows."""
    groups: dict[tuple[int, int, str], list[CellResult]] = {}
    for r in rows:
        groups.setdefault((r.size, r.k, r.algorithm), []).append(r)
    out = []
    for (size, k, algorithm), members in groups.items():
        ok = [r.report for r in members if r.report is not None]
        line = [str(size), str(k), algorithm, str(len(members)), str(len(members) - len(ok))]
        for attr in _SCORES:
            line.extend(_stats([getattr(rep, attr) for rep in ok]))
        out.append(line)
    return out


def run_algorithm(
    name: str, x, k: int, seed: int = 0, farthest_init: bool = False, **params
) -> Union[HardPartition, RoughPartition, FuzzyPartition]:
    """Run one of the four algorithms on `x` with k clusters.

    `name` follows ``canonical``'s name rule; k follows ``count``'s and is
    checked against the rows here, for all four alike. `params` may hold
    any DEFAULTS key; the algorithm reads and checks the keys PARAMS[name]
    lists, falling back to DEFAULTS, and ignores the rest. All four take
    one call shape, ``alg(x, k, seed=seed, **params)``, and are reached by
    one call to the function this module holds under `name`.
    All four start from the seeded rows `initial_centroids` picks; fcm
    and pfcm take their starting memberships from one v = 0 update at
    those rows (call `pfcm`/`fcm` with `u_init` for any other start, a
    random one included). farthest_init applies to kmeans and
    rough_kmeans only, and is a ValueError for fcm and pfcm. Returns the
    algorithm's own partition, whose record() (``Stopped``) is the run's.
    """
    name = canonical(name, ALGORITHMS, "algorithm")
    unknown = set(params) - set(DEFAULTS)
    if unknown:
        raise TypeError(f"unknown parameter(s) {', '.join(sorted(unknown))}")
    if farthest_init and name in ("fcm", "pfcm"):
        raise ValueError(f"farthest_init applies to kmeans and rough_kmeans, not {name}")
    p = {key: params.get(key, DEFAULTS[key]) for key in PARAMS[name]}
    if farthest_init:
        p["farthest_init"] = True
    k = count(k, "k", 1, as_values(x).shape[0])
    # the module's own name, looked up at each call: a tracer that swaps
    # the names for wrappers then sees every run
    run = globals()[name]
    return run(x, k, seed=seed, **p)


def _subset(
    m: ExpressionMatrix, grid: ExperimentGrid, size: int, seed: int
) -> Union[ExpressionMatrix, Exception]:
    """The grid's normalized subset of `size` genes, or the exception building it raised."""
    try:
        sub = subset_genes(m, size, grid.subset_policy, seed)
        if grid.normalization != "none":
            sub = normalize(sub, grid.normalization, drop_degenerate=True)
        return sub
    except Exception as exc:
        return exc


def _run_cell(
    sub, grid: ExperimentGrid, size: int, k: int, algorithm: str, seed: int,
) -> CellResult:
    """Run and score one algorithm on its cell's subset, or report what failed.

    sub is what the cell's ``_subset`` returned; a failed build's exception
    is formatted into the row, never raised.
    """
    cfg = grid.config_for(algorithm)
    echo = {**cfg, "normalization": grid.normalization, "subset_policy": grid.subset_policy}
    start = time.perf_counter()
    part = report = None
    failure = sub if isinstance(sub, Exception) else None
    if failure is None:
        try:
            part = run_algorithm(algorithm, sub, k, seed=seed, **cfg)
            fuzzifier = cfg["m"] if "m" in PARAMS[algorithm] else None
            report = evaluate(sub, part, fuzzifier, algorithm)
        except Exception as exc:
            part, failure = None, exc
    return CellResult(
        size=size, k=k, algorithm=algorithm, seed=seed, report=report,
        run=dict(_NO_RUN) if part is None else part.record(), config=echo,
        runtime=time.perf_counter() - start,
        error=None if failure is None else f"{type(failure).__name__}: {failure}",
    )


def run_grid(m: ExpressionMatrix, grid: ExperimentGrid, workers: int = 1) -> ExperimentResult:
    """Execute every grid cell and collect rows in deterministic order.

    Rows are in grid.runs() order. Per-run failures are captured in
    their row's error field rather than raised; a subset that cannot be
    built fails every run that uses it. The ordering and all report
    content are independent of `workers`, a ``count`` >= 1.

    The runs of one (cell, algorithm) pair are a group. Part i of
    min(workers, groups, usable CPUs) parts runs groups[i::n], so the parts
    share the cells' sizes alike (``_util.in_parts``: the first part here,
    each other one in a forked process on another CPU). A part runs its runs
    in order, building a subset (keyed by its size and, under seeded_random
    only, the seed) before its key's first run there and dropping it after
    its last. If a part fails or its process dies, the whole grid runs
    again here, to the same rows.
    """
    workers = count(workers, "workers", 1)
    for size, _ in grid.cells():
        if size > m.n_genes:
            raise ValueError(f"subset size {size} exceeds the matrix gene count {m.n_genes}")
    runs = grid.runs()
    groups = [list(g) for _, g in groupby(range(len(runs)), key=lambda j: runs[j][:3])]
    # subset_genes reads the seed under seeded_random only
    seeded = grid.subset_policy == "seeded_random"

    def part(i: int, n: int) -> bytes:
        mine = [j for g in groups[i::n] for j in g]
        keys = [(runs[j][0], runs[j][3] if seeded else 0) for j in mine]
        last = {key: at for at, key in enumerate(keys)}
        built, rows = {}, []
        for at, (j, key) in enumerate(zip(mine, keys)):
            if key not in built:
                built[key] = _subset(m, grid, *key)
            rows.append((j, _run_cell(built[key], grid, *runs[j])))
            if last[key] == at:
                del built[key]
        return pickle.dumps(rows)

    parts = _util.in_parts(part, len(groups), workers) or [part(0, 1)]
    rows = dict(row for data in parts for row in pickle.loads(data))
    return ExperimentResult(grid, m.n_genes, m.n_samples, tuple(rows[j] for j in range(len(runs))))


def generate_synthetic(
    clusters: Sequence[tuple], noise_genes: int = 0, seed: int = 0
) -> tuple[ExpressionMatrix, np.ndarray]:
    """Synthetic matrix of Gaussian bump rows plus uniform noise rows.

    Parameters
    ----------
    clusters : sequence of (center, spread, count)
        Each bump contributes `count` rows drawn from an isotropic
        Gaussian at `center` with standard deviation `spread` (zero
        spread gives exact copies of the center). All centers must share
        one dimension.
    noise_genes : int
        Rows drawn uniformly from the bounding box of the centers padded
        by three times the largest spread (or by 1.0 per degenerate
        dimension).
    seed : int
        Drives all draws; output is deterministic per seed.

    Returns
    -------
    (ExpressionMatrix, ndarray)
        The matrix and a ground-truth label per row: the bump index, or
        -1 for noise rows.
    """
    if not clusters:
        raise ValueError("at least one cluster is required")
    centers = [np.asarray(c, dtype=np.float64).ravel() for c, _, _ in clusters]
    dim = centers[0].size
    if any(c.size != dim for c in centers):
        raise ValueError("all cluster centers must have the same dimension")
    sizes = []
    for _, spread, rows in clusters:
        if spread < 0:
            raise ValueError(f"spread must be >= 0, got {spread}")
        sizes.append(count(rows, "count", 1))
    noise_genes = count(noise_genes, "noise_genes", 0)

    rng = np.random.default_rng(count(seed, "seed", 0))
    blocks = []
    labels = []
    for idx, ((_, spread, _), size) in enumerate(zip(clusters, sizes)):
        blocks.append(centers[idx][None, :] + float(spread) * rng.standard_normal((size, dim)))
        labels.extend([idx] * size)
    if noise_genes:
        stack = np.vstack(centers)
        pad = 3.0 * max(float(s) for _, s, _ in clusters)
        lo = stack.min(axis=0) - pad
        hi = stack.max(axis=0) + pad
        flat = hi <= lo
        lo[flat] -= 1.0
        hi[flat] += 1.0
        blocks.append(rng.uniform(lo, hi, size=(noise_genes, dim)))
        labels.extend([-1] * noise_genes)
    values = np.vstack(blocks)
    n = values.shape[0]
    gene_ids = tuple(f"g{i:05d}" for i in range(n))
    sample_ids = tuple(f"s{j:02d}" for j in range(dim))
    return ExpressionMatrix(gene_ids, sample_ids, values), np.asarray(labels)
