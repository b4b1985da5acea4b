"""Red/green expression heatmaps as binary portable pixmaps.

Each cell is colored by its deviation from its own gene's mean: values
above the mean shade black toward red, values below shade black toward
green, and the scale saturates at two sample standard deviations either
side. A constant gene (zero spread) renders black. The color scale is
fixed so images from different matrices are directly comparable.

One renderer makes every image: the PPM header, then blocks of whole pixel
rows of about 256 KiB (a block is one pixel row where that row alone is
larger), each colored and scaled from only the genes it shows and the row
means and deviations, computed once for the matrix. With a destination each
block is written once it is made, so no process holds the image at any
scale; an image larger than the room left on a regular file's file system
is refused before its first byte. Without one, the blocks are joined into
the image's bytes.
"""

from __future__ import annotations

import errno
import os
import stat
from itertools import chain
from pathlib import Path
from typing import IO, Callable, Iterator, Optional, Sequence, Union

import numpy as np

from ._util import count, opened
from .io import _BLOCK
from .matrix import ExpressionMatrix

__all__ = ["render_rgb", "render_ppm", "write_ppm", "cluster_row_order"]

SATURATION_SIGMAS = 2.0


def cluster_row_order(assignments: Sequence[int]) -> np.ndarray:
    """Row permutation grouping genes by cluster, stable within a cluster."""
    arr = np.asarray(assignments)
    return np.argsort(arr, kind="stable")


def _painter(matrix: ExpressionMatrix,
             row_order: Sequence[int] | None) -> Callable[[int, int], np.ndarray]:
    """Check `row_order`; give paint(lo, hi), the colors of rows lo to hi of
    the image (render_rgb's rule), made from those genes' values alone."""
    n = matrix.n_genes
    values, means, stds = matrix.values, matrix.row_means(), matrix.row_sample_stds()
    order = None
    if row_order is not None:
        order = np.asarray(row_order)
        # a bool or float array is no permutation: numpy reads the first as a mask
        if (order.dtype.kind not in "iu" or order.shape != (n,)
                or not np.array_equal(np.sort(order), np.arange(n))):
            raise ValueError("row_order must be a permutation of all gene indices")

    def paint(lo: int, hi: int) -> np.ndarray:
        rows = slice(lo, hi) if order is None else order[lo:hi]
        m, s = means[rows, None], stds[rows, None]
        t = values[rows] - m
        live = s > 0.0
        np.divide(t, SATURATION_SIGMAS * s, out=t, where=live)
        t[~live[:, 0]] = 0.0
        np.clip(t, -1.0, 1.0, out=t)
        level = np.rint(255.0 * t, out=t)
        rgb = np.zeros(t.shape + (3,), dtype=np.uint8)
        rgb[..., 0] = np.maximum(level, 0.0)
        rgb[..., 1] = np.maximum(-level, 0.0)
        return rgb

    return paint


def render_rgb(matrix: ExpressionMatrix, row_order: Sequence[int] | None = None) -> np.ndarray:
    """Color every cell; returns a uint8 array of shape (n_genes, n_samples, 3).

    The signed intensity of a cell is (value - row mean) / (2 * row std),
    clipped to [-1, 1], with the sample (n-1 denominator) standard
    deviation. Positive intensity t maps to (round(255 t), 0, 0),
    negative to (0, round(-255 t), 0), zero to black. Rows with zero
    spread map entirely to black. `row_order`, if given, must be an
    integer permutation of the gene indices; the image's row i is its
    gene row_order[i].
    """
    return _painter(matrix, row_order)(0, matrix.n_genes)


def _blocks(paint: Callable[[int, int], np.ndarray], n: int, d: int,
            scale: int) -> Iterator[bytes]:
    """The pixel rows of an n x d image of scale x scale cells, in blocks of
    about _BLOCK bytes, or of one pixel row each where a row is larger."""
    row = 3 * d * scale  # the bytes of one pixel row
    reps = max(1, min(scale, _BLOCK // row))  # pixel rows a block holds
    genes = max(1, _BLOCK // row // scale)  # genes a block shows, if it shows whole genes
    for lo in range(0, n, genes):
        rgb = paint(lo, min(lo + genes, n))
        if scale > 1:
            rgb = rgb.repeat(scale, axis=1)
        if reps == scale:
            yield rgb.repeat(scale, axis=0).tobytes() if scale > 1 else rgb.tobytes()
        else:  # one gene's pixel rows take more than a block: reps of them at a time
            line = rgb.tobytes()
            for done in range(0, scale, reps):
                yield line * min(reps, scale - done)


def render_ppm(
    matrix: ExpressionMatrix,
    row_order: Sequence[int] | None = None,
    scale: int = 1,
    dest: Union[str, Path, IO[bytes], None] = None,
) -> Optional[bytes]:
    """Binary PPM (P6, maxval 255) of the heatmap, one scale x scale block per cell.

    Without `dest` returns the image's bytes. With `dest` (a path or a
    binary handle) writes the header and then each block of pixel rows as
    it is made and returns None; an image larger than the room left on the
    file system of a regular file dest is refused (OSError, ENOSPC) before
    its first byte. `scale` and `row_order` are checked before dest is opened.
    """
    scale = count(scale, "scale", 1)
    paint = _painter(matrix, row_order)
    n, d = matrix.values.shape
    header = f"P6\n{d * scale} {n * scale}\n255\n".encode("ascii")
    size = len(header) + 3 * n * d * scale * scale
    blocks = chain([header], _blocks(paint, n, d, scale))
    if dest is None:
        # allocated whole first, so an image too large fails before any block is made
        image = np.empty(size, dtype=np.uint8)
        pos = 0
        for block in blocks:
            image[pos:pos + len(block)] = np.frombuffer(block, dtype=np.uint8)
            pos += len(block)
        return image.tobytes()
    with opened(dest, "wb") as handle:
        _check_room(handle, size)
        handle.writelines(blocks)
    return None


def _check_room(handle, size: int) -> None:
    """Refuse to write `size` bytes to a regular file whose file system has less room."""
    try:
        fd = handle.fileno()
    except (AttributeError, OSError, ValueError):  # a handle with no file (BytesIO)
        return
    if stat.S_ISREG(os.fstat(fd).st_mode):
        fs = os.fstatvfs(fd)
        free = fs.f_bavail * fs.f_frsize
        if size > free:
            raise OSError(errno.ENOSPC, f"the image takes {_iec(size)} but its file system "
                                        f"has {_iec(free)} free")


def _iec(n: int) -> str:
    """`n` bytes to one decimal in the largest binary unit it reaches: "27.3 TiB"."""
    units = ("bytes", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB")
    power = min(max(n, 1).bit_length() - 1, 60) // 10
    return f"{n / 1024 ** power:.1f} {units[power]}"


def write_ppm(
    matrix: ExpressionMatrix,
    dest: Union[str, Path, IO[bytes]],
    row_order: Sequence[int] | None = None,
    scale: int = 1,
) -> None:
    """Write the heatmap's PPM to `dest` a block at a time: render_ppm with dest."""
    render_ppm(matrix, row_order, scale, dest)
