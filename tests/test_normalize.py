import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfclust import DegenerateRowsError, ExpressionMatrix, mean_relative, normalize, z_score


def _matrix(rows, ids=None):
    ids = ids or tuple(f"g{i}" for i in range(len(rows)))
    samples = tuple(f"s{j}" for j in range(len(rows[0])))
    return ExpressionMatrix(ids, samples, rows)


def test_mean_relative_example():
    out = mean_relative(_matrix([[2.0, 4.0, 6.0]]))
    assert np.array_equal(out.values[0], [-0.5, 0.0, 0.5])


def test_mean_relative_constant_row():
    out = mean_relative(_matrix([[5.0, 5.0, 5.0]]))
    assert np.array_equal(out.values[0], [0.0, 0.0, 0.0])


def test_mean_relative_zero_mean_error_names_genes():
    m = _matrix([[1.0, 2.0], [-3.0, 3.0]], ids=("ok", "bad"))
    with pytest.raises(DegenerateRowsError, match="bad") as err:
        mean_relative(m)
    assert err.value.gene_ids == ("bad",)


def test_mean_relative_drop_degenerate():
    m = _matrix([[1.0, 2.0], [-3.0, 3.0]], ids=("ok", "bad"))
    out = mean_relative(m, drop_degenerate=True)
    assert out.gene_ids == ("ok",)
    assert out.n_genes == 1


def test_z_score_example():
    out = z_score(_matrix([[1.0, 2.0, 3.0]]))
    assert np.allclose(out.values[0], [-1.0, 0.0, 1.0], atol=1e-12)


def test_z_score_two_sample_oracle():
    # row (0, 10): mean 5, sample std sqrt(50) = 7.0710678118654755
    out = z_score(_matrix([[0.0, 10.0]]))
    assert out.values[0][0] == pytest.approx(-0.7071067811865475, abs=1e-15)
    assert out.values[0][1] == pytest.approx(0.7071067811865475, abs=1e-15)


def test_z_score_constant_row_error():
    with pytest.raises(DegenerateRowsError, match="zero spread"):
        z_score(_matrix([[5.0, 5.0, 5.0]]))


def test_z_score_single_sample_rejected():
    with pytest.raises(ValueError, match="at least 2 samples"):
        z_score(_matrix([[1.0]]))


def test_z_score_post_invariants():
    rng = np.random.default_rng(0)
    m = _matrix(rng.normal(5.0, 3.0, size=(20, 7)).tolist())
    out = z_score(m)
    assert np.abs(out.row_means()).max() <= 1e-9
    assert np.abs(out.row_sample_stds() - 1.0).max() <= 1e-9


def test_mean_relative_post_invariant():
    rng = np.random.default_rng(1)
    m = _matrix((rng.random((15, 5)) + 1.0).tolist())
    out = mean_relative(m)
    assert np.abs(out.row_means()).max() <= 1e-9


def test_all_rows_degenerate_still_raises_with_drop():
    m = _matrix([[3.0, 3.0]])
    with pytest.raises(DegenerateRowsError):
        z_score(m, drop_degenerate=True)


def test_dispatcher():
    m = _matrix([[1.0, 2.0, 3.0]])
    assert np.array_equal(normalize(m, "mean_relative").values, mean_relative(m).values)
    assert np.array_equal(normalize(m, "z_score").values, z_score(m).values)
    with pytest.raises(ValueError, match="unknown normalization"):
        normalize(m, "minmax")


def test_error_message_truncates_long_gene_list():
    rows = [[0.0, 0.0]] * 15
    m = _matrix(rows)
    with pytest.raises(DegenerateRowsError, match=r"\(15 total\)"):
        mean_relative(m)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=4, max_size=4),
        min_size=2,
        max_size=6,
    ),
    perm_seed=st.integers(min_value=0, max_value=1000),
)
def test_row_permutation_commutes(rows, perm_seed):
    m = _matrix(rows)
    perm = np.random.default_rng(perm_seed).permutation(m.n_genes)
    for fn in (mean_relative, z_score):
        try:
            direct = fn(m.take_genes(perm), drop_degenerate=True)
        except DegenerateRowsError:
            continue
        swapped = fn(m, drop_degenerate=True)
        # same surviving genes in permuted order, same values per gene
        direct_map = dict(zip(direct.gene_ids, direct.values))
        swapped_map = dict(zip(swapped.gene_ids, swapped.values))
        assert set(direct_map) == set(swapped_map)
        for gid in direct_map:
            assert np.array_equal(direct_map[gid], swapped_map[gid])


def test_peak_memory_is_bounded():
    # the result is divided in place and becomes the matrix's values uncopied
    # (2.16x values.nbytes when the matrix copied it)
    values = np.random.default_rng(0).normal(size=(20000, 72))
    m = ExpressionMatrix([f"g{i}" for i in range(20000)], [f"s{j}" for j in range(72)], values)
    tracemalloc.start()
    try:
        out = normalize(m, "zscore")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    mean = values.mean(axis=1)[:, None]
    assert out.values.tobytes() == ((values - mean) / values.std(axis=1, ddof=1)[:, None]).tobytes()
    assert not out.values.flags.writeable and not np.shares_memory(out.values, m.values)
    assert peak < 1.5 * values.nbytes
