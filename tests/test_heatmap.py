import errno
import io
import os
import tracemalloc

import numpy as np
import pytest

import pfclust.heatmap
from pfclust import ExpressionMatrix, cluster_row_order, render_ppm, render_rgb, write_ppm
from pfclust.io import _BLOCK


def _m(rows, prefix="g"):
    rows = np.asarray(rows, dtype=float)
    return ExpressionMatrix(
        tuple(f"{prefix}{i}" for i in range(rows.shape[0])),
        tuple(f"s{j}" for j in range(rows.shape[1])),
        rows,
    )


def test_mean_cell_is_black():
    rgb = render_rgb(_m([[1.0, 2.0, 3.0]]))
    assert rgb[0, 1].tolist() == [0, 0, 0]


def test_saturation_at_two_sigma():
    # row (0, 10): mean 5, sample std ~7.07; both cells are inside one
    # sigma so neither saturates
    rgb = render_rgb(_m([[0.0, 10.0]]))
    std = np.std([0.0, 10.0], ddof=1)
    t = 5.0 / (2.0 * std)
    want = int(np.rint(255.0 * t))
    assert want == 90
    assert rgb[0, 0].tolist() == [0, want, 0]
    assert rgb[0, 1].tolist() == [want, 0, 0]


def test_clip_beyond_two_sigma():
    # nine zeros and one spike: the spike sits 2.85 sample sigmas above
    # the mean, so it pins at pure red
    row = [0.0] * 9 + [100.0]
    std = np.std(row, ddof=1)
    assert (100.0 - np.mean(row)) / std > 2.0
    rgb = render_rgb(_m([row]))
    assert rgb[0, 9].tolist() == [255, 0, 0]
    assert rgb[0, 0, 0] == 0
    assert rgb[0, 0, 1] > 0


def test_interpolation_rounds_to_nearest():
    # row with mean 0 and sample std exactly 1: the half-max value gives
    # 255 * 0.3162... = 80.64, which must round up to 81 (not floor to 80)
    base = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    row = base / base.std(ddof=1)
    rgb = render_rgb(_m([row]))
    assert rgb[0].tolist() == [
        [0, 161, 0],
        [0, 81, 0],
        [0, 0, 0],
        [81, 0, 0],
        [161, 0, 0],
    ]


def test_constant_row_black():
    rgb = render_rgb(_m([[4.0, 4.0, 4.0], [0.0, 1.0, 2.0]]))
    assert rgb[0].tolist() == [[0, 0, 0]] * 3
    assert rgb[1].sum() > 0


def test_single_sample_black():
    rgb = render_rgb(_m([[7.0]]))
    assert rgb.tolist() == [[[0, 0, 0]]]


def test_no_mixed_channels():
    rng = np.random.default_rng(3)
    rgb = render_rgb(_m(rng.normal(size=(20, 8))))
    red = rgb[..., 0].astype(int)
    green = rgb[..., 1].astype(int)
    assert (red * green == 0).all()
    assert (rgb[..., 2] == 0).all()


def test_row_order_applied():
    m = _m([[0.0, 1.0], [10.0, -10.0]])
    plain = render_rgb(m)
    flipped = render_rgb(m, row_order=[1, 0])
    assert np.array_equal(flipped[0], plain[1])
    assert np.array_equal(flipped[1], plain[0])


def test_row_order_validated():
    m = _m([[0.0, 1.0], [2.0, 3.0]])
    with pytest.raises(ValueError, match="permutation"):
        render_rgb(m, row_order=[0, 0])
    with pytest.raises(ValueError, match="permutation"):
        render_rgb(m, row_order=[0])


@pytest.mark.parametrize("row_order", [[True, False], [1.0, 0.0], np.array([True, True])],
                         ids=["bool", "float", "bool-array"])
def test_row_order_must_hold_integers(row_order):
    # a bool order passed the permutation check and was then used as a mask,
    # dropping a gene; a float one raised numpy's IndexError
    m = _m([[0.0, 1.0], [2.0, 3.0]])
    with pytest.raises(ValueError, match="permutation"):
        render_rgb(m, row_order=row_order)
    with pytest.raises(ValueError, match="permutation"):
        write_ppm(m, io.BytesIO(), row_order=row_order)


def test_cluster_row_order_groups_and_is_stable():
    order = cluster_row_order([2, 0, 1, 0, 2, 1])
    assert order.tolist() == [1, 3, 2, 5, 0, 4]


def test_ppm_header_and_size():
    m = _m(np.arange(12.0).reshape(3, 4))
    data = render_ppm(m)
    assert data.startswith(b"P6\n4 3\n255\n")
    assert len(data) == len(b"P6\n4 3\n255\n") + 3 * 4 * 3


def test_ppm_scale_blocks():
    m = _m([[0.0, 10.0]])
    scaled = render_ppm(m, scale=3)
    assert scaled.startswith(b"P6\n6 3\n255\n")
    rgb = render_rgb(m)
    body = scaled.split(b"\n", 3)[3]
    px = np.frombuffer(body, dtype=np.uint8).reshape(3, 6, 3)
    for r in range(3):
        for c in range(6):
            assert px[r, c].tolist() == rgb[0, c // 3].tolist()
    with pytest.raises(ValueError, match="scale"):
        render_ppm(m, scale=0)


@pytest.mark.parametrize("scale", [1, 3, 300])
def test_blocks_give_the_scaled_image(scale):
    # at scale 300 one gene's 300 pixel rows take more than a block, so they
    # are written a few rows at a time
    m = _m(np.random.default_rng(4).normal(size=(5, 2)))
    order = [3, 0, 4, 1, 2]
    rgb = render_rgb(m, order)
    scaled = rgb.repeat(scale, axis=0).repeat(scale, axis=1)
    header = f"P6\n{2 * scale} {5 * scale}\n255\n".encode("ascii")
    assert render_ppm(m, order, scale) == header + scaled.tobytes()
    buf = io.BytesIO()
    write_ppm(m, buf, order, scale)
    assert buf.getvalue() == header + scaled.tobytes()


@pytest.mark.parametrize("scale", [1, 3])
def test_write_ppm_holds_a_few_blocks(tmp_path, scale):
    # the image is written a block of pixel rows at a time; the row
    # deviations take one float pass over the matrix. Building the whole
    # image peaked at 27 blocks at scale 1 and 77 at scale 3.
    values = np.random.default_rng(0).normal(size=(5000, 50))
    m = ExpressionMatrix([f"g{i}" for i in range(5000)], [f"s{j}" for j in range(50)], values)
    order = cluster_row_order(np.arange(5000) % 7)
    tracemalloc.start()
    try:
        write_ppm(m, tmp_path / "h.ppm", order, scale)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "h.ppm").read_bytes() == render_ppm(m, order, scale)
    assert peak < values.nbytes + 4 * _BLOCK


def test_an_image_larger_than_its_file_system_room_is_refused(tmp_path, monkeypatch):
    real = os.fstatvfs

    def little_room(fd):
        fs = real(fd)
        return os.statvfs_result((fs.f_bsize, 1024, 10, 10, 10, *fs[5:]))

    monkeypatch.setattr(pfclust.heatmap.os, "fstatvfs", little_room)
    m = _m([[0.0, 1.0], [2.0, 3.0]])
    write_ppm(m, tmp_path / "fits.ppm", scale=2)  # 59 bytes in 10 KiB
    with pytest.raises(OSError) as info:
        write_ppm(m, tmp_path / "big.ppm", scale=40)
    assert info.value.errno == errno.ENOSPC
    assert info.value.strerror == "the image takes 18.8 KiB but its file system has 10.0 KiB free"
    assert (tmp_path / "big.ppm").read_bytes() == b""
    # a handle with no file behind it is written whatever its size
    buf = io.BytesIO()
    write_ppm(m, buf, scale=40)
    assert buf.getvalue() == render_ppm(m, scale=40)


def test_write_ppm_file_and_handle(tmp_path):
    m = _m([[0.0, 5.0], [5.0, 0.0]])
    p = tmp_path / "out.ppm"
    write_ppm(m, p, scale=2)
    data = p.read_bytes()
    assert data == render_ppm(m, scale=2)
    buf = io.BytesIO()
    write_ppm(m, buf)
    assert buf.getvalue() == render_ppm(m)
