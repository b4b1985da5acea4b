"""Red/green expression heatmaps as binary portable pixmaps.

Each cell is colored by its deviation from its own gene's mean: values
above the mean shade black toward red, values below shade black toward
green, and the scale saturates at two sample standard deviations either
side. A constant gene (zero spread) renders black. The color scale is
fixed so images from different matrices are directly comparable.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Sequence, Union

import numpy as np

from ._util import count, opened
from .matrix import ExpressionMatrix

__all__ = ["render_rgb", "render_ppm", "write_ppm", "cluster_row_order"]

SATURATION_SIGMAS = 2.0


def cluster_row_order(assignments: Sequence[int]) -> np.ndarray:
    """Row permutation grouping genes by cluster, stable within a cluster."""
    arr = np.asarray(assignments)
    return np.argsort(arr, kind="stable")


def render_rgb(matrix: ExpressionMatrix, row_order: Sequence[int] | None = None) -> np.ndarray:
    """Color every cell; returns a uint8 array of shape (n_genes, n_samples, 3).

    The signed intensity of a cell is (value - row mean) / (2 * row std),
    clipped to [-1, 1], with the sample (n-1 denominator) standard
    deviation. Positive intensity t maps to (round(255 t), 0, 0),
    negative to (0, round(-255 t), 0), zero to black. Rows with zero
    spread map entirely to black.
    """
    values, means, stds = matrix.values, matrix.row_means(), matrix.row_sample_stds()
    if row_order is not None:
        order = np.asarray(row_order)
        if sorted(order.tolist()) != list(range(matrix.n_genes)):
            raise ValueError("row_order must be a permutation of all gene indices")
        values, means, stds = values[order], means[order], stds[order]
    means, stds = means[:, None], stds[:, None]
    t = np.zeros_like(values)
    live = (stds > 0.0)[:, 0]
    t[live] = (values[live] - means[live]) / (SATURATION_SIGMAS * stds[live])
    np.clip(t, -1.0, 1.0, out=t)
    rgb = np.zeros(values.shape + (3,), dtype=np.uint8)
    rgb[..., 0] = np.where(t > 0, np.rint(255.0 * t), 0).astype(np.uint8)
    rgb[..., 1] = np.where(t < 0, np.rint(-255.0 * t), 0).astype(np.uint8)
    return rgb


def render_ppm(
    matrix: ExpressionMatrix,
    row_order: Sequence[int] | None = None,
    scale: int = 1,
) -> bytes:
    """Binary PPM (P6, maxval 255) of the heatmap, one scale x scale block per cell."""
    scale = count(scale, "scale", 1)
    rgb = render_rgb(matrix, row_order)
    if scale > 1:  # built at its final size, so an image too large fails at its first allocation
        n, d = rgb.shape[:2]
        scaled = np.empty((n, scale, d, scale, 3), dtype=np.uint8)
        scaled[...] = rgb[:, None, :, None, :]
        rgb = scaled.reshape(n * scale, d * scale, 3)
    height, width = rgb.shape[:2]
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    return header + rgb.tobytes()


def write_ppm(
    matrix: ExpressionMatrix,
    dest: Union[str, Path, IO[bytes]],
    row_order: Sequence[int] | None = None,
    scale: int = 1,
) -> None:
    data = render_ppm(matrix, row_order, scale)
    with opened(dest, "wb") as handle:
        handle.write(data)
