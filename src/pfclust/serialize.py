"""CSV/JSON serialization of clustering results.

Three partition layouts share one reader, distinguished by header:

* hard:  ``gene_id,cluster`` with one row per gene
* rough: ``gene_id,cluster,membership_kind`` with one row per gene per
  upper-set membership; kind is ``lower`` or ``boundary``
* fuzzy: ``gene_id,u0,...,u{c-1}`` with one row per gene

Centroids are a separate CSV whose header holds the sample ids and whose
k data rows hold one centroid each. Floats are written with repr so
values round-trip exactly.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence, Union

import numpy as np

from ._util import opened, write_csv
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
                f"partition references cluster {self.k - 1} but only {k} centroids given"
            )
        if k == self.k:
            return self.memberships.copy()
        out = np.zeros((self.memberships.shape[0], k))
        out[:, : self.k] = self.memberships
        return out


def write_partition_csv(
    part: Union[HardPartition, RoughPartition, FuzzyPartition],
    gene_ids: Sequence[str],
    dest: Union[str, Path, IO[str]],
) -> None:
    """Write any partition kind in its CSV layout, rows in gene order."""
    if isinstance(part, HardPartition):
        header = ["gene_id", "cluster"]
        n = part.assignments.size
        genes = range(n)
        cells = part.assignments[:, None].tolist()
    elif isinstance(part, RoughPartition):
        header = ["gene_id", "cluster", "membership_kind"]
        n = part.member.shape[0]
        # nonzero walks the matrix row-major: gene order, then cluster order
        rows, clusters = np.nonzero(part.member)
        kinds = np.where(part.lone[rows], "lower", "boundary")
        genes = rows.tolist()
        cells = zip(clusters.tolist(), kinds.tolist())
    elif isinstance(part, FuzzyPartition):
        header = ["gene_id"] + [f"u{j}" for j in range(part.k)]
        n = part.memberships.shape[0]
        genes = range(n)
        cells = [[repr(v) for v in row] for row in part.memberships.tolist()]
    else:
        raise TypeError(f"unsupported partition type {type(part).__name__}")
    if len(gene_ids) != n:
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
    """Read any of the three partition layouts, sniffing by header."""
    rows = _read_rows(source)
    if not rows:
        raise ValueError("empty partition file")
    header = rows[0]
    body = rows[1:]
    if not body:
        raise ValueError("partition file has no data rows")
    if header == ["gene_id", "cluster"]:
        return _hard_from_rows(body)
    if header == ["gene_id", "cluster", "membership_kind"]:
        return _rough_from_rows(body)
    if header[0] == "gene_id" and len(header) > 1 and all(
        h == f"u{j}" for j, h in enumerate(header[1:])
    ):
        return _fuzzy_from_rows(body, len(header) - 1)
    raise ValueError(f"unrecognized partition header {header!r}")


def _cluster_index(gid: str, cell: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise ValueError(f"gene {gid!r}: cluster index must be an integer, got {cell!r}") from None


def _hard_from_rows(body: list[list[str]]) -> PartitionFile:
    gene_ids = []
    assigns = []
    for row in body:
        if len(row) != 2:
            raise ValueError(f"expected 2 fields per row, found {len(row)}: {row!r}")
        gene_ids.append(row[0])
        assigns.append(_cluster_index(row[0], row[1]))
    if len(set(gene_ids)) != len(gene_ids):
        raise ValueError("duplicate gene id in partition file")
    if min(assigns) < 0:
        raise ValueError("negative cluster index")
    k = max(assigns) + 1
    a = np.asarray(assigns, dtype=np.intp)
    u = np.zeros((len(gene_ids), k))
    u[np.arange(len(gene_ids)), a] = 1.0
    return PartitionFile("hard", tuple(gene_ids), u, a)


def _rough_from_rows(body: list[list[str]]) -> PartitionFile:
    index: dict[str, int] = {}
    genes, clusters, lower = [], [], []
    for row in body:
        if len(row) != 3:
            raise ValueError(f"expected 3 fields per row, found {len(row)}: {row!r}")
        gid, cluster_s, kind = row
        if kind not in ("lower", "boundary"):
            raise ValueError(f"membership_kind must be lower or boundary, got {kind!r}")
        genes.append(index.setdefault(gid, len(index)))
        clusters.append(_cluster_index(gid, cluster_s))
        lower.append(kind == "lower")
    g = np.asarray(genes, dtype=np.intp)
    c = np.asarray(clusters, dtype=np.intp)
    if c.min() < 0:
        raise ValueError("negative cluster index")
    # a lower row must be its gene's only row; genes are numbered in file
    # order, so the smallest offending number is the first such gene
    mixed = np.asarray(lower) & (np.bincount(g)[g] > 1)
    if mixed.any():
        gid = list(index)[g[mixed].min()]
        raise ValueError(f"gene {gid!r} mixes lower membership with other rows")
    member = np.zeros((len(index), c.max() + 1), dtype=bool)
    member[g, c] = True
    if np.count_nonzero(member) != g.size:
        raise ValueError("duplicate (gene id, cluster) row in partition file")
    u = member / member.sum(axis=1, keepdims=True)
    return PartitionFile("rough", tuple(index), u, np.argmax(member, axis=1))


def _fuzzy_from_rows(body: list[list[str]], c: int) -> PartitionFile:
    gene_ids = []
    values = []
    for row in body:
        if len(row) != c + 1:
            raise ValueError(f"expected {c + 1} fields per row, found {len(row)}: {row!r}")
        try:
            row_u = [float(v) for v in row[1:]]
        except ValueError:
            row_u = [math.nan]
        # NaN, as for a cell that is not a number, fails the range test;
        # 1e-9 is the acceptance row-sum tolerance
        if not (all(0.0 <= v <= 1.0 for v in row_u) and abs(math.fsum(row_u) - 1.0) <= 1e-9):
            raise ValueError(
                f"gene {row[0]!r}: memberships must be in [0, 1] and sum to 1, "
                f"got {', '.join(row[1:])}"
            )
        gene_ids.append(row[0])
        values.append(row_u)
    if len(set(gene_ids)) != len(gene_ids):
        raise ValueError("duplicate gene id in partition file")
    u = np.asarray(values)
    return PartitionFile("fuzzy", tuple(gene_ids), u, np.argmax(u, axis=1))


def read_centroids_csv(source: Union[str, Path, IO[str]]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Returns (centroids, sample_ids)."""
    rows = _read_rows(source)
    if len(rows) < 2:
        raise ValueError("centroid file needs a header plus at least one row")
    sample_ids = tuple(rows[0])
    centroids = np.empty((len(rows) - 1, len(sample_ids)))
    for i, row in enumerate(rows[1:]):
        if len(row) != len(sample_ids):
            raise ValueError(
                f"expected {len(sample_ids)} fields per centroid row, found {len(row)}"
            )
        for j, cell in enumerate(row):
            try:
                centroids[i, j] = float(cell)
                kind = "" if np.isfinite(centroids[i, j]) else "non-finite"
            except ValueError:
                kind = "non-numeric"
            if kind:
                raise ValueError(
                    f"{kind} value {cell!r} for centroid {i}, sample {sample_ids[j]!r}"
                )
    return centroids, sample_ids
