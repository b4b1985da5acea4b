"""Comparative experiment harness.

Runs any subset of {kmeans, rough_kmeans, fcm, pfcm} over a grid of
(gene-subset size, cluster count) cells, scoring each run with the
validity measures and emitting deterministic CSV/JSON reports. Also
provides the synthetic-data generator used by the property tests.

Reports never embed wall-clock times; runtimes are kept on the in-memory
rows and written only by the separate timings writer, so repeated runs of
the same grid produce byte-identical report files.
"""

from __future__ import annotations

import csv
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import IO, Optional, Sequence, Union

import numpy as np

from ._util import DEFAULTS, check_params, opened
from .fuzzy import FuzzyConfig, FuzzyPartition, fcm, pfcm
from .kmeans import HardPartition, kmeans
from .matrix import ExpressionMatrix
from .normalize import normalize
from .rough import RoughPartition, rough_kmeans
from .serialize import _jsonable, write_metadata_json
from .validity import ALGORITHMS, ValidityReport, evaluate

__all__ = [
    "DEFAULTS",
    "NORMALIZATIONS",
    "PARAMS",
    "SUBSET_POLICIES",
    "ExperimentGrid",
    "CellResult",
    "ExperimentResult",
    "subset_genes",
    "preset_pairs",
    "run_algorithm",
    "run_grid",
    "generate_synthetic",
]

NORMALIZATIONS = ("none", "mean_relative", "z_score")

SUBSET_POLICIES = ("first_n", "variance_top_n", "seeded_random")

# the DEFAULTS keys each algorithm reads; every other key is ignored
PARAMS = {
    "kmeans": ("eps", "max_iter"),
    "rough_kmeans": ("zeta", "w_lower", "eps", "max_iter"),
    "fcm": ("m", "eps", "max_iter"),
    "pfcm": ("m", "v", "eps", "max_iter"),
}

_PAIR_BASE = ((7129, 7), (5000, 5), (3000, 3), (1000, 7))


def subset_genes(
    m: ExpressionMatrix, size: int, policy: str = "variance_top_n", seed: int = 0
) -> ExpressionMatrix:
    """Select `size` genes from a matrix under a named policy.

    first_n keeps the first rows in file order; variance_top_n ranks by
    sample variance descending, breaking ties by gene id ascending;
    seeded_random draws rows without replacement and keeps file order.
    All three are deterministic for a given seed.
    """
    if policy not in SUBSET_POLICIES:
        raise ValueError(f"unknown subset policy {policy!r}; expected one of {SUBSET_POLICIES}")
    if not 1 <= size <= m.n_genes:
        raise ValueError(f"subset size must be in [1, {m.n_genes}], got {size}")
    if size == m.n_genes:
        return m
    if policy == "first_n":
        idx = np.arange(size)
    elif policy == "variance_top_n":
        variances = m.row_sample_vars()
        order = sorted(range(m.n_genes), key=lambda i: (-variances[i], m.gene_ids[i]))
        idx = np.array(sorted(order[:size]))
    else:
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(m.n_genes, size=size, replace=False))
    return m.take_genes(idx)


def preset_pairs(n_genes: int) -> tuple[tuple[int, int], ...]:
    """The four preset (size, k) cells, scaled to the matrix at hand.

    At 7129 genes the cells are exactly (7129,7), (5000,5), (3000,3),
    (1000,7); on smaller matrices each size is scaled proportionally
    (never below 1) and k is capped at the scaled size. Duplicate cells
    after scaling are dropped, keeping first occurrence.
    """
    if n_genes < 1:
        raise ValueError(f"n_genes must be >= 1, got {n_genes}")
    scale = n_genes / _PAIR_BASE[0][0]
    pairs: list[tuple[int, int]] = []
    for size, k in _PAIR_BASE:
        s = max(1, round(size * scale))
        s = min(s, n_genes)
        cell = (s, min(k, s))
        if cell not in pairs:
            pairs.append(cell)
    return tuple(pairs)


@dataclass(frozen=True)
class ExperimentGrid:
    """Declarative description of a comparative experiment.

    Cells are either the cross product subset_sizes x ks or, when
    `pairs` is given, exactly those (size, k) cells. Every cell runs
    once per algorithm per seed. `overrides` maps an algorithm name to
    parameter overrides, e.g. {"pfcm": {"v": 0.5}}; the keys must be
    ones PARAMS lists for that algorithm, and the values must meet the
    same range rules as the algorithm's own arguments.
    """

    subset_sizes: tuple[int, ...] = ()
    ks: tuple[int, ...] = ()
    pairs: Optional[tuple[tuple[int, int], ...]] = None
    algorithms: tuple[str, ...] = ALGORITHMS
    normalization: str = "z_score"
    subset_policy: str = "variance_top_n"
    seeds: tuple[int, ...] = (0,)
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "subset_sizes", tuple(int(s) for s in self.subset_sizes))
        object.__setattr__(self, "ks", tuple(int(k) for k in self.ks))
        if self.pairs is not None:
            object.__setattr__(
                self, "pairs", tuple((int(s), int(k)) for s, k in self.pairs)
            )
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {a!r}; expected one of {ALGORITHMS}")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(
                f"unknown normalization {self.normalization!r}; expected one of {NORMALIZATIONS}"
            )
        if self.subset_policy not in SUBSET_POLICIES:
            raise ValueError(
                f"unknown subset policy {self.subset_policy!r}; "
                f"expected one of {SUBSET_POLICIES}"
            )
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if self.pairs is None and (not self.subset_sizes or not self.ks):
            raise ValueError("provide subset_sizes and ks, or explicit pairs")
        cells = self.pairs if self.pairs is not None else [
            (s, k) for s in self.subset_sizes for k in self.ks
        ]
        for s, k in cells:
            if s < 1:
                raise ValueError(f"subset size must be >= 1, got {s}")
            if k < 1:
                raise ValueError(f"k must be >= 1, got {k}")
        if not isinstance(self.overrides, dict) or not all(
            isinstance(params, dict) for params in self.overrides.values()
        ):
            raise TypeError("overrides must map algorithm names to parameter objects")
        for a, params in self.overrides.items():
            if a not in ALGORITHMS:
                raise ValueError(f"override for unknown algorithm {a!r}")
            for key in params:
                if key not in PARAMS[a]:
                    raise ValueError(
                        f"unknown override key {key!r} for {a}; "
                        f"expected one of {', '.join(PARAMS[a])}"
                    )
            check_params(**params)

    def cells(self) -> tuple[tuple[int, int], ...]:
        """All (size, k) cells in deterministic ascending order."""
        if self.pairs is not None:
            base = set(self.pairs)
        else:
            base = {(s, k) for s in self.subset_sizes for k in self.ks}
        return tuple(sorted(base))

    def config_for(self, algorithm: str) -> dict:
        cfg = dict(DEFAULTS)
        cfg.update(self.overrides.get(algorithm, {}))
        return cfg


@dataclass(frozen=True)
class CellResult:
    """One algorithm run on one grid cell with one seed."""

    size: int
    k: int
    algorithm: str
    seed: int
    report: Optional[ValidityReport]
    iterations: Optional[int]
    converged: Optional[bool]
    config: dict
    runtime: float
    trace: tuple[float, ...]
    error: Optional[str] = None


@dataclass(frozen=True)
class ExperimentResult:
    """All cell results in deterministic (size, k, algorithm, seed) order."""

    grid: ExperimentGrid
    n_genes: int
    n_samples: int
    rows: tuple[CellResult, ...]

    def write_report_csv(self, dest: Union[str, Path, IO[str]]) -> None:
        _write_csv(dest, _REPORT_COLUMNS, [_csv_row(r) for r in self.rows])

    def write_summary_csv(self, dest: Union[str, Path, IO[str]]) -> None:
        _write_csv(dest, _SUMMARY_COLUMNS, _summarize(self.rows))

    def write_report_json(self, dest: Union[str, Path, IO[str]]) -> None:
        doc = {
            "grid": asdict(self.grid),
            "matrix": {"n_genes": self.n_genes, "n_samples": self.n_samples},
            "rows": [_json_row(r) for r in self.rows],
        }
        write_metadata_json(doc, dest)

    def write_timings_csv(self, dest: Union[str, Path, IO[str]]) -> None:
        """Wall-clock seconds per row; the one output that is not reproducible."""
        rows = [
            [str(r.size), str(r.k), r.algorithm, str(r.seed), repr(float(r.runtime))]
            for r in self.rows
        ]
        _write_csv(dest, ["size", "k", "algorithm", "seed", "runtime_s"], rows)


_REPORT_COLUMNS = [
    "size", "k", "algorithm", "seed", "n_genes", "n_samples",
    "normalization", "subset_policy", "m", "v", "zeta", "w_lower",
    "iterations", "converged", "rmse", "mae", "xie_beni", "error",
]

_SUMMARY_COLUMNS = [
    "size", "k", "algorithm", "n_runs", "n_errors",
    "rmse_mean", "rmse_sd", "rmse_best",
    "mae_mean", "mae_sd", "mae_best",
    "xie_beni_mean", "xie_beni_sd", "xie_beni_best",
]


def _fmt(x: Optional[float]) -> str:
    if x is None:
        return ""
    x = _jsonable(float(x))
    return x if isinstance(x, str) else repr(x)


def _csv_row(r: CellResult) -> list[str]:
    cfg = r.config
    read = PARAMS[r.algorithm]
    return [
        str(r.size),
        str(r.k),
        r.algorithm,
        str(r.seed),
        "" if r.report is None else str(r.report.n_genes),
        "" if r.report is None else str(r.report.n_samples),
        cfg["normalization"],
        cfg["subset_policy"],
        *(_fmt(cfg[key]) if key in read else "" for key in ("m", "v", "zeta", "w_lower")),
        "" if r.iterations is None else str(r.iterations),
        "" if r.converged is None else ("true" if r.converged else "false"),
        "" if r.report is None else _fmt(r.report.rmse),
        "" if r.report is None else _fmt(r.report.mae),
        "" if r.report is None else _fmt(r.report.xie_beni),
        "" if r.error is None else r.error.replace("\n", " "),
    ]


def _json_row(r: CellResult) -> dict:
    row = {
        "size": r.size,
        "k": r.k,
        "algorithm": r.algorithm,
        "seed": r.seed,
        "config": r.config,
        "iterations": r.iterations,
        "converged": r.converged,
        "trace": r.trace,
        "error": r.error,
    }
    if r.report is None:
        row["validity"] = None
    else:
        row["validity"] = {
            "rmse": r.report.rmse,
            "mae": r.report.mae,
            "xie_beni": r.report.xie_beni,
            "n_genes": r.report.n_genes,
            "n_samples": r.report.n_samples,
            "k": r.report.k,
        }
    return row


def _write_csv(dest: Union[str, Path, IO[str]], header: Sequence[str], rows) -> None:
    with opened(dest) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _stats(values: list[float]) -> tuple[str, str, str]:
    if not values:
        return "", "", ""
    arr = np.asarray(values)
    with np.errstate(invalid="ignore"):
        mean = float(arr.mean())
        sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return _fmt(mean), _fmt(sd), _fmt(float(arr.min()))


def _summarize(rows: Sequence[CellResult]) -> list[list[str]]:
    groups: dict[tuple[int, int, str], list[CellResult]] = {}
    for r in rows:
        groups.setdefault((r.size, r.k, r.algorithm), []).append(r)
    out = []
    algo_order = {a: i for i, a in enumerate(ALGORITHMS)}
    for key in sorted(groups, key=lambda t: (t[0], t[1], algo_order[t[2]])):
        size, k, algorithm = key
        members = groups[key]
        ok = [r.report for r in members if r.report is not None]
        line = [str(size), str(k), algorithm, str(len(members)), str(len(members) - len(ok))]
        for attr in ("rmse", "mae", "xie_beni"):
            line.extend(_stats([getattr(rep, attr) for rep in ok]))
        out.append(line)
    return out


def run_algorithm(
    name: str, x, k: int, seed: int = 0, farthest_init: bool = False, **params
) -> Union[HardPartition, RoughPartition, FuzzyPartition]:
    """Run one of the four algorithms on `x` with k clusters.

    `params` may hold any DEFAULTS key; the algorithm reads the keys
    PARAMS[name] lists, falling back to DEFAULTS, and ignores the rest.
    farthest_init applies to kmeans and rough_kmeans only, and is a
    ValueError for fcm and pfcm, which start from a random membership
    matrix. Returns the algorithm's own partition, which carries
    `iterations` and `converged`.
    """
    if name not in PARAMS:
        raise ValueError(f"unknown algorithm {name!r}; expected one of {ALGORITHMS}")
    unknown = set(params) - set(DEFAULTS)
    if unknown:
        raise TypeError(f"unknown parameter(s) {', '.join(sorted(unknown))}")
    if farthest_init and name in ("fcm", "pfcm"):
        raise ValueError(f"farthest_init applies to kmeans and rough_kmeans, not {name}")
    p = {key: params.get(key, DEFAULTS[key]) for key in PARAMS[name]}
    # grid overrides read from JSON may give the cap as a float
    p["max_iter"] = int(p["max_iter"])
    if name == "kmeans":
        return kmeans(x, k, seed=seed, farthest_init=farthest_init, **p)
    if name == "rough_kmeans":
        return rough_kmeans(x, k, seed=seed, farthest_init=farthest_init, **p)
    cfg = FuzzyConfig(c=k, seed=seed, **p)
    return pfcm(x, cfg) if name == "pfcm" else fcm(x, cfg)


def _run_cell(
    m: ExpressionMatrix, grid: ExperimentGrid, size: int, k: int, algorithm: str, seed: int
) -> CellResult:
    cfg = grid.config_for(algorithm)
    echo = dict(cfg)
    echo["normalization"] = grid.normalization
    echo["subset_policy"] = grid.subset_policy
    start = time.perf_counter()
    try:
        sub = subset_genes(m, size, grid.subset_policy, seed)
        if grid.normalization != "none":
            sub = normalize(sub, grid.normalization, drop_degenerate=True)
        part = run_algorithm(algorithm, sub, k, seed=seed, **cfg)
        fuzzifier = cfg["m"] if "m" in PARAMS[algorithm] else 1.0
        report = evaluate(sub, part, m=fuzzifier, algorithm=algorithm)
        trace = getattr(part, "objective_trace", getattr(part, "sse_trace", ()))
        runtime = time.perf_counter() - start
        return CellResult(
            size=size, k=k, algorithm=algorithm, seed=seed, report=report,
            iterations=part.iterations, converged=part.converged, config=echo,
            runtime=runtime, trace=tuple(float(t) for t in trace),
        )
    except Exception as exc:
        runtime = time.perf_counter() - start
        return CellResult(
            size=size, k=k, algorithm=algorithm, seed=seed, report=None,
            iterations=None, converged=None, config=echo,
            runtime=runtime, trace=(), error=f"{type(exc).__name__}: {exc}",
        )


def run_grid(m: ExpressionMatrix, grid: ExperimentGrid, workers: int = 1) -> ExperimentResult:
    """Execute every grid cell and collect rows in deterministic order.

    Rows are ordered by (size, k, algorithm, seed) with algorithms in
    their canonical order. Per-run failures are captured in their row's
    error field rather than raised. With workers > 1 cells run on a
    thread pool; the ordering and all report content are independent of
    worker count.
    """
    for size, _ in grid.cells():
        if size > m.n_genes:
            raise ValueError(
                f"subset size {size} exceeds the matrix gene count {m.n_genes}"
            )
    algo_order = {a: i for i, a in enumerate(ALGORITHMS)}
    tasks = [
        (size, k, algorithm, seed)
        for size, k in grid.cells()
        for algorithm in sorted(grid.algorithms, key=algo_order.__getitem__)
        for seed in sorted(grid.seeds)
    ]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda t: _run_cell(m, grid, *t), tasks))
    else:
        rows = [_run_cell(m, grid, *t) for t in tasks]
    return ExperimentResult(
        grid=grid, n_genes=m.n_genes, n_samples=m.n_samples, rows=tuple(rows)
    )


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
    for _, spread, count in clusters:
        if spread < 0:
            raise ValueError(f"spread must be >= 0, got {spread}")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
    if noise_genes < 0:
        raise ValueError(f"noise_genes must be >= 0, got {noise_genes}")

    rng = np.random.default_rng(seed)
    blocks = []
    labels = []
    for idx, (center, spread, count) in enumerate(clusters):
        block = centers[idx][None, :] + float(spread) * rng.standard_normal((int(count), dim))
        blocks.append(block)
        labels.extend([idx] * int(count))
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
