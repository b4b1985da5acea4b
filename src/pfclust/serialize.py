"""CSV/JSON serialization of clustering results.

Three partition layouts share one reader, distinguished by header:

* hard:  ``gene_id,cluster`` with one row per gene
* rough: ``gene_id,cluster,membership_kind`` with one row per gene per
  upper-set membership; kind is ``lower`` or ``boundary``
* fuzzy: ``gene_id,u0,...,u{c-1}`` with one row per gene

A hard file is read as a rough file whose genes each sit in one lower set;
a cluster index must be in [0, n_genes). Centroids are a separate CSV whose
header holds the sample ids and whose k data rows hold one centroid each.
Floats are written with repr so values round-trip exactly. One cell rule
reads every number (``_util.parse_cells``, as ``float()``/``int()`` do): a
file's cells convert in one numpy pass, and are walked only to name the
first bad gene or cell when that pass or its range test fails.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence, Union

import numpy as np

from ._util import bad_cell, opened, parse_cells, write_csv
from .fuzzy import FuzzyPartition
from .kmeans import HardPartition
from .rough import RoughPartition

__all__ = [
    "PartitionFile",
    "write_partition_csv",
    "write_centroids_csv",
    "write_metadata_json",
    "read_partition_csv",
    "read_centroids_csv",
]


@dataclass(frozen=True)
class PartitionFile:
    """A partition read back from CSV, with the k, assignments and memberships every partition has.

    memberships holds row-stochastic rows (one-hot for hard files, equal
    boundary splits for rough files). assignments holds one representative
    cluster per gene: the stored cluster for hard rows, the largest
    membership for fuzzy rows, and for a rough boundary gene its
    lowest-index upper cluster.
    """

    kind: str
    gene_ids: tuple[str, ...]
    memberships: np.ndarray
    assignments: np.ndarray

    @property
    def k(self) -> int:
        return self.memberships.shape[1]

    def padded_memberships(self, k: int) -> np.ndarray:
        """Memberships widened with zero columns up to k clusters."""
        if k < self.k:
            raise ValueError(
                f"partition references cluster {self.k - 1} but only {k} centroids given")
        return self._widened(k)

    def _widened(self, k: int) -> np.ndarray:
        return np.pad(self.memberships, ((0, 0), (0, k - self.k)))


class _SetsFile(PartitionFile):
    """A hard or rough file, kept as its (gene, cluster) rows.

    Its memberships are built only when asked for, k columns wide, so a
    cluster index near the gene count makes no n x n array before
    padded_memberships has checked it against k. A gene's row holds
    1 / (its upper-set size) in each of its clusters, and its assignment is
    its lowest cluster.
    """

    def __init__(self, kind: str, gene_ids: tuple[str, ...], g: np.ndarray, c: np.ndarray):
        assignments = np.full(len(gene_ids), c.max(), dtype=np.intp)
        np.minimum.at(assignments, g, c)
        for name, value in (("kind", kind), ("gene_ids", gene_ids),
                            ("assignments", assignments), ("_rows", (g, c))):
            object.__setattr__(self, name, value)

    @property
    def k(self) -> int:
        return int(self._rows[1].max()) + 1

    @property
    def memberships(self) -> np.ndarray:
        return self._widened(self.k)

    def _widened(self, k: int) -> np.ndarray:
        g, c = self._rows
        u = np.zeros((len(self.gene_ids), k))
        u[g, c] = 1.0 / np.bincount(g)[g]
        return u


def write_partition_csv(
    part: Union[HardPartition, RoughPartition, FuzzyPartition],
    gene_ids: Sequence[str],
    dest: Union[str, Path, IO[str]],
) -> None:
    """Write any partition kind in its CSV layout, rows in gene order."""
    genes = range(len(gene_ids))  # row i holds gene i, except in a rough file
    if isinstance(part, HardPartition):
        header = ["gene_id", "cluster"]
        cells = part.assignments[:, None].tolist()
    elif isinstance(part, RoughPartition):
        header = ["gene_id", "cluster", "membership_kind"]
        # nonzero walks the matrix row-major: gene order, then cluster order
        rows, clusters = np.nonzero(part.member)
        kinds = np.where(part.lone[rows], "lower", "boundary")
        genes = rows.tolist()
        cells = zip(clusters.tolist(), kinds.tolist())
    elif isinstance(part, FuzzyPartition):
        header = ["gene_id"] + [f"u{j}" for j in range(part.k)]
        cells = [[repr(v) for v in row] for row in part.memberships.tolist()]
    else:
        raise TypeError(f"unsupported partition type {type(part).__name__}")
    if len(gene_ids) != part.assignments.size:
        raise ValueError("gene id count does not match the partition")
    write_csv(dest, header, ([gene_ids[i], *c] for i, c in zip(genes, cells)))


def write_centroids_csv(
    centroids: np.ndarray, sample_ids: Sequence[str], dest: Union[str, Path, IO[str]]
) -> None:
    centroids = np.asarray(centroids, dtype=np.float64)
    if centroids.shape[1] != len(sample_ids):
        raise ValueError(
            f"centroids have {centroids.shape[1]} columns but {len(sample_ids)} "
            f"sample ids were given"
        )
    write_csv(dest, list(sample_ids), (map(repr, row) for row in centroids.tolist()))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    return obj


def write_metadata_json(meta: dict, dest: Union[str, Path, IO[str]]) -> None:
    """Stable JSON document: sorted keys, non-finite numbers as strings."""
    text = json.dumps(_jsonable(meta), sort_keys=True, indent=2, allow_nan=False) + "\n"
    with opened(dest) as handle:
        handle.write(text)


def _read_rows(source: Union[str, Path, IO[str]]) -> list[list[str]]:
    with opened(source, "r") as handle:
        return [row for row in csv.reader(handle) if row]


def read_partition_csv(source: Union[str, Path, IO[str]]) -> PartitionFile:
    """Read any of the three partition layouts, sniffing by header.

    Of several faults the first found is reported: field counts, then the
    id and kind columns (a duplicate gene in a hard or fuzzy file; in a rough
    file an unknown kind or a lower row beside other rows of its gene), then
    numbers, then a repeated (gene, cluster) row.
    """
    rows = _read_rows(source)
    if not rows:
        raise ValueError("empty partition file")
    header, body = rows[0], rows[1:]
    if not body:
        raise ValueError("partition file has no data rows")
    rough = header == ["gene_id", "cluster", "membership_kind"]
    fuzzy = len(header) > 1 and header == ["gene_id"] + [f"u{j}" for j in range(len(header) - 1)]
    if not (rough or fuzzy or header == ["gene_id", "cluster"]):
        raise ValueError(f"unrecognized partition header {header!r}")
    bad = next((row for row in body if len(row) != len(header)), None)
    if bad is not None:
        raise ValueError(f"expected {len(header)} fields per row, found {len(bad)}: {bad!r}")
    # genes numbered in file order; only a rough file may repeat one
    index: dict[str, int] = {}
    genes = np.array([index.setdefault(row[0], len(index)) for row in body], dtype=np.intp)
    if not rough and len(index) != len(body):
        raise ValueError("duplicate gene id in partition file")
    if fuzzy:
        return _fuzzy_from_rows(body, tuple(index))
    return _sets_from_rows(body, tuple(index), genes, rough)


def _sets_from_rows(
    body: list[list[str]], ids: tuple[str, ...], g: np.ndarray, rough: bool
) -> PartitionFile:
    """Upper sets from rough rows, or from hard ones: a hard file is a rough file
    whose genes each sit in one lower set. A cluster index must be in [0, n_genes)."""
    kinds = [row[2] for row in body] if rough else ["lower"] * len(body)
    bad = next((kind for kind in kinds if kind not in ("lower", "boundary")), None)
    if bad is not None:
        raise ValueError(f"membership_kind must be lower or boundary, got {bad!r}")
    # a lower row must be its gene's only row; genes are numbered in file
    # order, so the smallest offending number is the first such gene
    mixed = (np.array(kinds) == "lower") & (np.bincount(g)[g] > 1)
    if mixed.any():
        raise ValueError(f"gene {ids[g[mixed].min()]!r} mixes lower membership with other rows")
    n = len(ids)
    c = parse_cells([row[1] for row in body], np.intp)
    if c is None or not ((c >= 0) & (c < n)).all():
        # name the first bad cell; int() reads as parse_cells does, past intp too
        for gene, cell, *_ in body:
            try:
                j = int(cell)
            except ValueError:
                raise ValueError(
                    f"gene {gene!r}: cluster index must be an integer, got {cell!r}"
                ) from None
            if not 0 <= j < n:
                high = f"gene {gene!r}: cluster index {j} is not below the gene count {n}"
                raise ValueError("negative cluster index" if j < 0 else high)
    if np.unique(g * n + c).size != g.size:
        raise ValueError("duplicate (gene id, cluster) row in partition file")
    return _SetsFile("rough" if rough else "hard", ids, g, c)


def _probability_rows(u: np.ndarray) -> np.ndarray:
    """Which rows of u are in [0, 1] and sum (by numpy) to 1 within 1e-9; NaN fails."""
    with np.errstate(invalid="ignore", over="ignore"):  # only rows outside [0, 1] warn
        return ((u >= 0.0) & (u <= 1.0)).all(axis=1) & (np.abs(u.sum(axis=1) - 1.0) <= 1e-9)


def _fuzzy_from_rows(body: list[list[str]], gene_ids: tuple[str, ...]) -> PartitionFile:
    u = parse_cells([row[1:] for row in body])
    if u is None or not _probability_rows(u).all():
        # name the first bad gene; a row that is not numbers is not probabilities
        for gid, *cells in body:
            row = parse_cells([cells])
            if row is None or not _probability_rows(row)[0]:
                raise ValueError(f"gene {gid!r}: memberships must be in [0, 1] and sum to 1, "
                                 f"got {', '.join(cells)}")
    return PartitionFile("fuzzy", gene_ids, u, np.argmax(u, axis=1))


def read_centroids_csv(source: Union[str, Path, IO[str]]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Returns (centroids, sample_ids); every cell must be a finite number."""
    rows = _read_rows(source)
    if len(rows) < 2:
        raise ValueError("centroid file needs a header plus at least one row")
    sample_ids, body = tuple(rows[0]), rows[1:]
    bad = next((row for row in body if len(row) != len(sample_ids)), None)
    if bad is not None:
        raise ValueError(f"expected {len(sample_ids)} fields per centroid row, found {len(bad)}")
    centroids = parse_cells(body)
    if centroids is None or not np.isfinite(centroids).all():
        i, (j, what) = next((i, fault) for i, fault in enumerate(map(bad_cell, body)) if fault)
        raise ValueError(f"{what} for centroid {i}, sample {sample_ids[j]!r}")
    return centroids, sample_ids
