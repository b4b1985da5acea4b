import numpy as np
import pytest

from pfclust import ExpressionMatrix


def test_basic_construction(small_matrix):
    assert small_matrix.n_genes == 3
    assert small_matrix.n_samples == 3
    assert small_matrix.values.dtype == np.float64
    assert small_matrix.gene_ids == ("g1", "g2", "g3")


def test_values_are_read_only(small_matrix):
    with pytest.raises(ValueError):
        small_matrix.values[0, 0] = 99.0


def test_source_array_is_copied():
    src = np.ones((2, 2))
    m = ExpressionMatrix(("a", "b"), ("x", "y"), src)
    src[0, 0] = 7.0
    assert m.values[0, 0] == 1.0


def test_duplicate_gene_id_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        ExpressionMatrix(("a", "a"), ("x",), [[1.0], [2.0]])


def test_duplicate_sample_id_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        ExpressionMatrix(("a", "b"), ("x", "x"), [[1.0, 2.0], [3.0, 4.0]])


def test_non_finite_value_names_location():
    with pytest.raises(ValueError, match="g2.*s1|s1.*g2"):
        ExpressionMatrix(("g1", "g2"), ("s1",), [[1.0], [float("nan")]])


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        ExpressionMatrix(("a", "b"), ("x",), [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        ExpressionMatrix(("a",), ("x",), [1.0])


def test_empty_rejected():
    with pytest.raises(ValueError):
        ExpressionMatrix((), ("x",), np.empty((0, 1)))


def test_row_means_and_sample_stds(small_matrix):
    assert np.allclose(small_matrix.row_means(), [4.0, 2.0, 5.0])
    stds = small_matrix.row_sample_stds()
    # n-1 denominator: var of (2,4,6) is 4, of (1,2,3) is 1
    assert stds[0] == pytest.approx(2.0)
    assert stds[1] == pytest.approx(1.0)
    assert stds[2] == 0.0


def test_single_sample_std_is_zero():
    m = ExpressionMatrix(("a",), ("x",), [[3.0]])
    assert m.row_sample_stds()[0] == 0.0


def test_take_genes(small_matrix):
    sub = small_matrix.take_genes([2, 0])
    assert sub.gene_ids == ("g3", "g1")
    assert np.array_equal(sub.values[1], small_matrix.values[0])
    assert sub.sample_ids == small_matrix.sample_ids
    assert not sub.values.flags.writeable
    assert not np.shares_memory(sub.values, small_matrix.values)


def test_a_taken_array_is_checked_like_a_copied_one():
    values = np.array([[1.0], [np.inf]])
    with pytest.raises(ValueError, match="non-finite value for gene 'b'"):
        ExpressionMatrix._taking(("a", "b"), ("x",), values)
    with pytest.raises(ValueError, match="duplicate gene id"):
        ExpressionMatrix._taking(("a", "a"), ("x",), np.ones((2, 1)))
    m = ExpressionMatrix._taking(["a"], ["x"], np.ones((1, 1)))
    assert m.gene_ids == ("a",) and not m.values.flags.writeable


def test_with_values(small_matrix):
    out = small_matrix.with_values(np.zeros((3, 3)))
    assert out.gene_ids == small_matrix.gene_ids
    assert out.values.sum() == 0.0
    with pytest.raises(ValueError):
        small_matrix.with_values(np.zeros((2, 3)))
