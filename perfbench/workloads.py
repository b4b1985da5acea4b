"""The three benchmark workloads: seeded inputs, the CLI steps of one pass,
and the checks every pass's artefacts must satisfy.

Inputs are built only from the public ``generate_synthetic`` and
``write_tsv``. A shape's structure (bump centres and the rows drawn
around them) is one fixed draw, structure seed 0, which reproduces the
ROADMAP baseline's figures (pfcm ARI 0.477 on the Golub shape, a rough
grid cell that runs all 300 iterations). The workload seed adds a
per-gene baseline level to every row before the file is written, as
genes on a real array carry. Row z-scoring removes that baseline, and
row variance ignores it, so every seed poses the same clustering problem
in different input bytes. Independent draws instead move iteration counts by a factor of two
between seeds (kmeans on cluster_wide ran 18 to 54 iterations over five
draws), which would bury any code change under input noise.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pfclust import ExpressionMatrix, generate_synthetic, write_tsv

STRUCTURE_SEED = 0
CENTRE_SCALE = 3.0
BUMP_SPREAD = 1.0
BASELINE_RANGE = 10.0
FUZZY_ROW_SUM_TOL = 1e-9
RAW_INPUT = "raw.tsv"
OUT_DIR = "out"


@dataclass(frozen=True)
class Shape:
    bumps: int
    rows_per_bump: int
    noise_rows: int
    samples: int

    @property
    def genes(self) -> int:
        return self.bumps * self.rows_per_bump + self.noise_rows


SHAPES = {
    "golub": Shape(bumps=7, rows_per_bump=1000, noise_rows=129, samples=38),
    "wide": Shape(bumps=20, rows_per_bump=1000, noise_rows=0, samples=72),
}

# Small enough for the self-test; the preset grid still has four distinct
# cells at 129 genes, so the 32-row report check holds unchanged.
TOY_SHAPES = {
    "golub": Shape(bumps=7, rows_per_bump=17, noise_rows=10, samples=8),
    "wide": Shape(bumps=20, rows_per_bump=6, noise_rows=0, samples=9),
}

GRID_SEEDS = (0, 1)
GRID_CELLS = 4  # preset_pairs gives four (size, k) cells
GRID_ALGORITHMS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str
    k: int
    steps: tuple[tuple[str, ...], ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pipeline_golub",
            shape="golub",
            k=7,
            steps=(
                ("normalize", RAW_INPUT, "--method", "zscore", "-o", "out/z.tsv"),
                ("cluster", "out/z.tsv", "--alg", "pfcm", "--k", "7", "--out", "out/p"),
                ("validate", "out/z.tsv", "--partition", "out/p.partition.csv",
                 "--centroids", "out/p.centroids.csv", "-o", "out/validate.json"),
                ("heatmap", "out/z.tsv", "--partition", "out/p.partition.csv",
                 "-o", "out/heatmap.ppm"),
            ),
        ),
        Workload(
            name="grid_golub",
            shape="golub",
            k=7,
            steps=(
                ("grid", RAW_INPUT, "--preset", "--seeds", ",".join(map(str, GRID_SEEDS)),
                 "--workers", "2", "--out", "out/g"),
            ),
        ),
        Workload(
            name="cluster_wide",
            shape="wide",
            k=20,
            steps=(
                ("cluster", RAW_INPUT, "--alg", "kmeans", "--k", "20",
                 "--normalize", "zscore", "--out", "out/c"),
            ),
        ),
    )
}


@dataclass
class Inputs:
    matrix: ExpressionMatrix
    labels: np.ndarray
    raw_sha256: str


def build_inputs(shape: Shape, seed: int, workdir: Path) -> Inputs:
    """Write the seeded raw matrix to workdir/raw.tsv and return it with labels."""
    centres = np.random.default_rng(STRUCTURE_SEED).normal(
        0.0, CENTRE_SCALE, size=(shape.bumps, shape.samples)
    )
    base, labels = generate_synthetic(
        [(c, BUMP_SPREAD, shape.rows_per_bump) for c in centres],
        noise_genes=shape.noise_rows,
        seed=STRUCTURE_SEED,
    )
    baseline = np.random.default_rng(seed).uniform(
        -BASELINE_RANGE, BASELINE_RANGE, size=base.n_genes
    )
    matrix = base.with_values(base.values + baseline[:, None])
    path = workdir / RAW_INPUT
    write_tsv(matrix, path)
    return Inputs(matrix, labels, sha256(path))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artefact_hashes(out: Path) -> dict[str, str]:
    return {p.name: sha256(p) for p in sorted(out.iterdir()) if p.is_file()}


def adjusted_rand_index(truth: np.ndarray, found: np.ndarray) -> float:
    """Hubert-Arabie adjusted Rand index of two labelings."""
    _, t = np.unique(truth, return_inverse=True)
    _, f = np.unique(found, return_inverse=True)
    table = np.zeros((t.max() + 1, f.max() + 1))
    np.add.at(table, (t, f), 1.0)

    def pairs(v):
        return float((v * (v - 1.0) / 2.0).sum())

    n = truth.size
    total = n * (n - 1) / 2.0
    both, rows, cols = pairs(table), pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / total
    return (both - expected) / ((rows + cols) / 2.0 - expected)


@dataclass
class Check:
    step: str
    name: str
    ok: bool
    detail: str = ""


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return [row for row in csv.reader(handle) if row]


def _partition_checks(step, path, gene_ids, k):
    """Coverage and row-sum checks; returns (checks, hard assignments or None)."""
    try:
        rows = _read_csv(path)
        header, body = rows[0], rows[1:]
        ids = [r[0] for r in body]
        if header == ["gene_id", "cluster"]:
            hard = np.array([int(r[1]) for r in body])
            sums_ok, sums_detail = True, "hard"
        elif header == ["gene_id"] + [f"u{j}" for j in range(k)]:
            u = np.array([[float(v) for v in r[1:]] for r in body])
            worst = float(np.abs(u.sum(axis=1) - 1.0).max())
            sums_ok = bool(np.isfinite(u).all()) and worst <= FUZZY_ROW_SUM_TOL
            sums_detail = f"max |row sum - 1| = {worst:.3g}"
            hard = np.argmax(u, axis=1)
        else:
            raise ValueError(f"unexpected header {header[:3]}")
    except (OSError, ValueError, IndexError) as exc:
        return [Check(step, "partition_readable", False, str(exc))], None
    row_of = {gid: i for i, gid in enumerate(ids)}
    covered = len(ids) == len(gene_ids) == len(row_of) and row_of.keys() == set(gene_ids)
    checks = [
        Check(step, "partition_covers_genes_once", covered,
              f"{len(ids)} rows, {len(row_of)} distinct, {len(gene_ids)} genes"),
        Check(step, "partition_rows_sum_to_1", sums_ok, sums_detail),
    ]
    if not covered:
        return checks, None
    return checks, hard[[row_of[gid] for gid in gene_ids]]


def _centroid_check(step, path, k, d):
    try:
        rows = _read_csv(path)
        w = np.array([[float(v) for v in r] for r in rows[1:]])
        ok = len(rows[0]) == d and w.shape == (k, d) and bool(np.isfinite(w).all())
        detail = f"shape {w.shape}, expected {(k, d)}"
    except (OSError, ValueError, IndexError) as exc:
        ok, detail = False, str(exc)
    return Check(step, "centroids_k_by_d_finite", ok, detail)


def _validate_check(step, path):
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        ok = all(
            isinstance(doc[key], float) and math.isfinite(doc[key]) for key in ("rmse", "mae")
        )
        detail = f"rmse={doc['rmse']!r} mae={doc['mae']!r}"
    except (OSError, ValueError, KeyError) as exc:
        ok, detail = False, str(exc)
    return Check(step, "validate_rmse_mae_finite", ok, detail)


def _tsv_check(step, path, n, d):
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
        ok = len(lines) == n + 1 and len(lines[0].split("\t")) == d
        detail = f"{len(lines) - 1} rows"
    except OSError as exc:
        ok, detail = False, str(exc)
    return Check(step, "normalized_tsv_shape", ok, detail)


def _ppm_check(step, path, n, d):
    try:
        data = path.read_bytes()
        header = f"P6\n{d} {n}\n255\n".encode("ascii")
        ok = data.startswith(header) and len(data) == len(header) + 3 * n * d
        detail = f"{len(data)} bytes"
    except OSError as exc:
        ok, detail = False, str(exc)
    return Check(step, "heatmap_ppm_size", ok, detail)


def check_pass(workload: Workload, inputs: Inputs, workdir: Path):
    """Check one pass's artefacts.

    Returns (checks, grid_row_errors, ari). grid_row_errors has one entry
    per grid report row, the row's error text ('' when it ran); ari is
    None for workloads that write no partition or when the partition
    failed its coverage check.
    """
    out = workdir / OUT_DIR
    m, k = inputs.matrix, workload.k
    n, d = m.n_genes, m.n_samples
    checks: list[Check] = []
    grid_errors: list[str] = []
    hard = None
    if workload.name == "pipeline_golub":
        checks.append(_tsv_check("normalize", out / "z.tsv", n, d))
        part_checks, hard = _partition_checks("cluster", out / "p.partition.csv", m.gene_ids, k)
        checks += part_checks
        checks.append(_centroid_check("cluster", out / "p.centroids.csv", k, d))
        checks.append(_validate_check("validate", out / "validate.json"))
        checks.append(_ppm_check("heatmap", out / "heatmap.ppm", n, d))
    elif workload.name == "cluster_wide":
        part_checks, hard = _partition_checks("cluster", out / "c.partition.csv", m.gene_ids, k)
        checks += part_checks
        checks.append(_centroid_check("cluster", out / "c.centroids.csv", k, d))
    else:
        expected = GRID_CELLS * GRID_ALGORITHMS * len(GRID_SEEDS)
        try:
            with open(out / "g.report.csv", newline="", encoding="utf-8") as handle:
                grid_errors = [row["error"] for row in csv.DictReader(handle)]
            ok, detail = len(grid_errors) == expected, f"{len(grid_errors)} rows, expected {expected}"
        except (OSError, KeyError) as exc:
            ok, detail = False, str(exc)
        checks.append(Check("grid", "grid_report_rows", ok, detail))
    ari = None
    if hard is not None:
        keep = inputs.labels >= 0
        ari = adjusted_rand_index(inputs.labels[keep], hard[keep])
    return checks, grid_errors, ari
