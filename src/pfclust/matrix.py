"""Dense expression-matrix data model shared by every clustering stage."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = ["ExpressionMatrix"]


def _check_unique(ids: Sequence[str], kind: str) -> None:
    seen: dict[str, int] = {}
    for pos, name in enumerate(ids):
        if name in seen:
            raise ValueError(
                f"duplicate {kind} id {name!r} at positions {seen[name]} and {pos}"
            )
        seen[name] = pos


class _Taken(NamedTuple):
    """An array handed to ExpressionMatrix to keep as its values, uncopied."""

    array: np.ndarray


@dataclass(frozen=True)
class ExpressionMatrix:
    """A genes-by-samples matrix of finite expression values.

    Rows are genes and columns are samples. The value array is copied on
    construction, coerced to float64 and marked read-only, so one matrix can
    be shared between concurrent clustering runs without defensive copies.
    An array the package has just built for a matrix, and holds no other
    reference to, becomes its values without that copy (``_taking``).

    Attributes
    ----------
    gene_ids : tuple of str
        Unique row identifiers, one per gene.
    sample_ids : tuple of str
        Unique column identifiers, one per sample.
    values : numpy.ndarray
        Read-only float64 array of shape (n_genes, n_samples). Every entry
        is finite; ingestion rejects NaN and infinities outright.
    """

    gene_ids: tuple[str, ...]
    sample_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "gene_ids", tuple(self.gene_ids))
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        values = self.values
        if isinstance(values, _Taken):
            values = values.array
        else:
            values = np.array(values, dtype=np.float64, copy=True)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got a {values.ndim}-D array")
        n_genes, n_samples = values.shape
        if n_genes < 1 or n_samples < 1:
            raise ValueError(f"matrix must be at least 1x1, got {n_genes}x{n_samples}")
        if len(self.gene_ids) != n_genes:
            raise ValueError(f"{len(self.gene_ids)} gene ids for {n_genes} rows")
        if len(self.sample_ids) != n_samples:
            raise ValueError(f"{len(self.sample_ids)} sample ids for {n_samples} columns")
        _check_unique(self.gene_ids, "gene")
        _check_unique(self.sample_ids, "sample")
        if not np.isfinite(values).all():
            i, j = np.argwhere(~np.isfinite(values))[0]
            raise ValueError(
                f"non-finite value for gene {self.gene_ids[i]!r}, "
                f"sample {self.sample_ids[j]!r}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def _taking(cls, gene_ids: Sequence[str], sample_ids: Sequence[str],
                values: np.ndarray) -> "ExpressionMatrix":
        """A matrix whose values are `values` itself, a float64 array that the
        caller built for it and keeps no other reference to: the matrix
        checks it and marks it read-only, and copies nothing."""
        return cls(tuple(gene_ids), tuple(sample_ids), _Taken(values))

    @property
    def n_genes(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]

    def row_means(self) -> np.ndarray:
        """Per-gene mean across samples."""
        return self.values.mean(axis=1)

    def row_sample_stds(self) -> np.ndarray:
        """Per-gene standard deviation with the n-1 denominator (0.0 if n_samples == 1)."""
        if self.n_samples < 2:
            return np.zeros(self.n_genes)
        return self.values.std(axis=1, ddof=1)

    def row_sample_vars(self) -> np.ndarray:
        """Per-gene variance with the n-1 denominator (0.0 if n_samples == 1)."""
        if self.n_samples < 2:
            return np.zeros(self.n_genes)
        return self.values.var(axis=1, ddof=1)

    def take_genes(self, indices: Sequence[int]) -> "ExpressionMatrix":
        """New matrix containing the given rows, in the given order."""
        idx = list(indices)
        return ExpressionMatrix._taking([self.gene_ids[i] for i in idx], self.sample_ids,
                                        self.values[idx])

    def with_values(self, values: np.ndarray) -> "ExpressionMatrix":
        """New matrix with the same identifiers and replaced values."""
        return ExpressionMatrix(self.gene_ids, self.sample_ids, values)
