"""Row-wise normalization of expression matrices.

Two transforms, both relative to the per-gene statistics across samples:

* mean-relative: ``(x - mean) / mean``
* z-score:      ``(x - mean) / std`` with the sample standard deviation
  (n_samples - 1 denominator)

A gene whose divisor is within ``DEGENERATE_TOL`` of zero cannot be
normalized. By default that is an error naming every such gene; with
``drop_degenerate=True`` those rows are removed instead.
"""

from __future__ import annotations

import numpy as np

from ._util import NORMALIZATIONS, canonical
from .matrix import ExpressionMatrix

__all__ = [
    "DegenerateRowsError",
    "DEGENERATE_TOL",
    "METHODS",
    "normalize",
    "mean_relative",
    "z_score",
]

DEGENERATE_TOL = 1e-12

METHODS = NORMALIZATIONS[1:]  # all but "none"


class DegenerateRowsError(ValueError):
    """Raised when normalization would divide by (nearly) zero for some genes."""

    def __init__(self, method: str, gene_ids: tuple[str, ...]):
        self.method = method
        self.gene_ids = gene_ids
        what = "zero mean" if method == "mean_relative" else "zero spread"
        shown = ", ".join(gene_ids[:10])
        if len(gene_ids) > 10:
            shown += f", ... ({len(gene_ids)} total)"
        super().__init__(f"cannot {method}-normalize genes with {what}: {shown}")


def _apply(
    matrix: ExpressionMatrix,
    method: str,
    divisor: np.ndarray,
    drop_degenerate: bool,
) -> ExpressionMatrix:
    bad = np.abs(divisor) <= DEGENERATE_TOL
    if bad.any():
        bad_ids = tuple(matrix.gene_ids[i] for i in np.flatnonzero(bad))
        if not drop_degenerate:
            raise DegenerateRowsError(method, bad_ids)
        keep = np.flatnonzero(~bad)
        if keep.size == 0:
            raise DegenerateRowsError(method, bad_ids)
        matrix = matrix.take_genes(keep)
        divisor = divisor[keep]
    means = matrix.row_means()
    values = (matrix.values - means[:, None]) / divisor[:, None]
    return matrix.with_values(values)


def mean_relative(matrix: ExpressionMatrix, drop_degenerate: bool = False) -> ExpressionMatrix:
    """Scale each gene to its relative deviation from its own mean.

    Each value becomes ``(x - mean) / mean`` where the mean is taken over
    the gene's samples. Genes with a mean within ``DEGENERATE_TOL`` of
    zero raise ``DegenerateRowsError`` unless ``drop_degenerate`` is set.
    """
    return _apply(matrix, "mean_relative", matrix.row_means(), drop_degenerate)


def z_score(matrix: ExpressionMatrix, drop_degenerate: bool = False) -> ExpressionMatrix:
    """Standardize each gene to zero mean and unit sample variance.

    Each value becomes ``(x - mean) / std`` with the standard deviation
    computed over the gene's samples using the n - 1 denominator. Genes
    with spread within ``DEGENERATE_TOL`` of zero raise
    ``DegenerateRowsError`` unless ``drop_degenerate`` is set. At least
    two samples are required for the sample deviation to exist.
    """
    if matrix.n_samples < 2:
        raise ValueError(
            f"z-score normalization needs at least 2 samples, got {matrix.n_samples}"
        )
    return _apply(matrix, "z_score", matrix.row_sample_stds(), drop_degenerate)


def normalize(
    matrix: ExpressionMatrix, method: str, drop_degenerate: bool = False
) -> ExpressionMatrix:
    """Dispatch to the transform `method` names (any case, "-" for "_", or "zscore")."""
    if canonical(method, METHODS, "normalization") == "mean_relative":
        return mean_relative(matrix, drop_degenerate)
    return z_score(matrix, drop_degenerate)
