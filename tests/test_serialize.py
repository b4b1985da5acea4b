import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfclust import (
    FuzzyConfig,
    NumericalError,
    FuzzyPartition,
    HardPartition,
    RoughPartition,
    fcm,
    kmeans,
    pfcm,
    read_centroids_csv,
    read_partition_csv,
    rough_kmeans,
    unified_memberships,
    write_centroids_csv,
    write_metadata_json,
    write_partition_csv,
)


def _roundtrip(part, gene_ids):
    buf = io.StringIO()
    write_partition_csv(part, gene_ids, buf)
    buf.seek(0)
    return buf.getvalue(), read_partition_csv(io.StringIO(buf.getvalue()))


def test_hard_round_trip(four_points):
    part = kmeans(four_points, 2, seed=1)
    gene_ids = ("a", "b", "c", "d")
    text, back = _roundtrip(part, gene_ids)
    assert text.splitlines()[0] == "gene_id,cluster"
    assert back.kind == "hard"
    assert back.gene_ids == gene_ids
    assert np.array_equal(back.assignments, part.assignments)
    assert back.k == 2
    one_hot = np.zeros((4, 2))
    one_hot[np.arange(4), part.assignments] = 1.0
    assert np.array_equal(back.memberships, one_hot)


def test_fuzzy_round_trip_exact_floats():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(10, 2))
    part = pfcm(x, FuzzyConfig(c=3, seed=0))
    gene_ids = tuple(f"g{i}" for i in range(10))
    text, back = _roundtrip(part, gene_ids)
    assert text.splitlines()[0] == "gene_id,u0,u1,u2"
    assert back.kind == "fuzzy"
    assert np.array_equal(back.memberships, part.memberships)
    assert np.array_equal(back.assignments, part.hard_assignments())


@pytest.mark.parametrize("row", [
    "a,nan,0.2",
    "a,inf,0.0",
    "a,2.0,-1",
    "a,0.5,0.4999999",
])
def test_fuzzy_reader_rejects_rows_that_are_not_probabilities(row):
    text = "gene_id,u0,u1\nz,0.25,0.75\n" + row + "\n"
    with pytest.raises(ValueError, match="gene 'a': memberships must be in"):
        read_partition_csv(io.StringIO(text))
    # within the 1e-9 row-sum tolerance a row is read as written
    back = read_partition_csv(io.StringIO("gene_id,u0,u1\na,0.5,0.5000000001\n"))
    assert back.memberships.tolist() == [[0.5, 0.5000000001]]


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 20),
    c=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    lattice=st.booleans(),
    m=st.sampled_from([1.1, 1.5, 2.0, 4.0]),
    v=st.sampled_from([0.0, 0.5, 5.0]),
    penalized=st.booleans(),
    max_iter=st.integers(1, 30),
)
def test_written_fuzzy_partitions_read_back(n, c, seed, lattice, m, v, penalized, max_iter):
    c = min(c, n)
    x = np.random.default_rng(seed).standard_normal((n, 2))
    if lattice:
        # duplicate and coincident rows give singular membership rows
        x = np.round(x)
    cfg = FuzzyConfig(c=c, m=m, v=v, seed=seed, max_iter=max_iter)
    try:
        part = (pfcm if penalized else fcm)(x, cfg)
    except NumericalError:
        return
    gene_ids = tuple(f"g{i}" for i in range(n))
    _, back = _roundtrip(part, gene_ids)
    assert np.array_equal(back.memberships, part.memberships)


def test_rough_round_trip():
    x = np.array([[0.0], [1.0], [5.0], [9.0], [10.0]])
    init = np.array([[0.5], [9.5]])
    part = rough_kmeans(x, 2, zeta=1.4, init_centroids=init, max_iter=1)
    gene_ids = ("a", "b", "mid", "c", "d")
    text, back = _roundtrip(part, gene_ids)
    lines = text.splitlines()
    assert lines[0] == "gene_id,cluster,membership_kind"
    assert "mid,0,boundary" in lines and "mid,1,boundary" in lines
    assert back.kind == "rough"
    assert back.gene_ids == gene_ids
    mid = back.gene_ids.index("mid")
    assert back.memberships[mid].tolist() == [0.5, 0.5]
    assert back.assignments[mid] == 0
    a = back.gene_ids.index("a")
    assert back.memberships[a].tolist() == [1.0, 0.0]


def test_rough_lower_mixed_with_boundary_rejected():
    text = "gene_id,cluster,membership_kind\ng1,0,lower\ng1,1,boundary\n"
    with pytest.raises(ValueError, match="mixes lower"):
        read_partition_csv(io.StringIO(text))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 20),
    k=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    zeta=st.sampled_from([1.0, 1.3, 2.0, 1e6]),
    max_iter=st.integers(1, 5),
)
def test_rough_round_trip_matches_unified_memberships(n, k, seed, zeta, max_iter):
    k = min(k, n)
    x = np.round(2.0 * np.random.default_rng(seed).standard_normal((n, 2)))
    part = rough_kmeans(x, k, zeta=zeta, seed=seed, max_iter=max_iter)
    gene_ids = tuple(f"g{i}" for i in range(n))
    _, back = _roundtrip(part, gene_ids)
    assert back.gene_ids == gene_ids
    assert np.array_equal(back.padded_memberships(k), unified_memberships(part))
    first_upper = [min(j for j in range(k) if i in part.upper[j]) for i in range(n)]
    assert back.assignments.tolist() == first_upper


def test_rough_reader_rejects_negative_and_duplicate_rows():
    head = "gene_id,cluster,membership_kind\n"
    with pytest.raises(ValueError, match="negative cluster index"):
        read_partition_csv(io.StringIO(head + "g1,0,boundary\ng1,-1,boundary\n"))
    with pytest.raises(ValueError, match="duplicate"):
        read_partition_csv(io.StringIO(head + "g1,0,boundary\ng1,0,boundary\ng2,1,lower\n"))
    # the first offending gene in file order is named
    text = head + "g2,0,boundary\ng1,0,lower\ng1,1,boundary\ng2,1,lower\n"
    with pytest.raises(ValueError, match="gene 'g2' mixes lower"):
        read_partition_csv(io.StringIO(text))


def test_partition_header_sniffing_errors():
    with pytest.raises(ValueError, match="empty partition file"):
        read_partition_csv(io.StringIO(""))
    with pytest.raises(ValueError, match="no data rows"):
        read_partition_csv(io.StringIO("gene_id,cluster\n"))
    with pytest.raises(ValueError, match="unrecognized partition header"):
        read_partition_csv(io.StringIO("id,group\na,1\n"))
    with pytest.raises(ValueError, match="unrecognized partition header"):
        read_partition_csv(io.StringIO("gene_id,u0,u2\na,0.5,0.5\n"))


def test_hard_reader_validation():
    with pytest.raises(ValueError, match="duplicate gene id"):
        read_partition_csv(io.StringIO("gene_id,cluster\ng,0\ng,1\n"))
    with pytest.raises(ValueError, match="negative"):
        read_partition_csv(io.StringIO("gene_id,cluster\ng,-1\n"))
    with pytest.raises(ValueError, match="2 fields"):
        read_partition_csv(io.StringIO("gene_id,cluster\ng,0,extra\n"))


def test_gene_ids_with_commas_quoted():
    part = kmeans(np.array([[0.0], [10.0]]), 2, seed=0)
    gene_ids = ('g,with,commas', 'plain')
    text, back = _roundtrip(part, gene_ids)
    assert back.gene_ids == gene_ids
    assert 'g,with,commas' in text or '"g,with,commas"' in text


def test_padded_memberships():
    pf = read_partition_csv(io.StringIO("gene_id,cluster\na,0\nb,1\n"))
    wide = pf.padded_memberships(4)
    assert wide.shape == (2, 4)
    assert wide[:, 2:].sum() == 0.0
    assert np.array_equal(wide[:, :2], pf.memberships)
    same = pf.padded_memberships(2)
    assert np.array_equal(same, pf.memberships)
    with pytest.raises(ValueError, match="only 1 centroids"):
        pf.padded_memberships(1)


def test_centroids_round_trip():
    w = np.array([[0.1, 1e-300], [3.0000000000000004, -2.5]])
    buf = io.StringIO()
    write_centroids_csv(w, ("s1", "s2"), buf)
    back, sample_ids = read_centroids_csv(io.StringIO(buf.getvalue()))
    assert sample_ids == ("s1", "s2")
    assert np.array_equal(back, w)


def test_centroids_validation():
    with pytest.raises(ValueError, match="sample ids"):
        write_centroids_csv(np.zeros((2, 3)), ("s1", "s2"), io.StringIO())
    with pytest.raises(ValueError, match="header plus at least one row"):
        read_centroids_csv(io.StringIO("s1,s2\n"))
    with pytest.raises(ValueError, match="fields per centroid row"):
        read_centroids_csv(io.StringIO("s1,s2\n0.5\n"))


def test_gene_id_count_checked():
    part = kmeans(np.array([[0.0], [10.0]]), 2, seed=0)
    with pytest.raises(ValueError, match="gene id count"):
        write_partition_csv(part, ("only_one",), io.StringIO())


@pytest.mark.parametrize("n_ids", [2, 4])
@pytest.mark.parametrize("kind", ["hard", "rough", "fuzzy"])
def test_gene_id_count_checked_for_every_kind(tmp_path, kind, n_ids):
    x = np.array([[0.0], [1.0], [10.0]])
    part = {
        "hard": lambda: kmeans(x, 2, seed=0),
        "rough": lambda: rough_kmeans(x, 2, seed=0),
        "fuzzy": lambda: pfcm(x, FuzzyConfig(c=2, seed=0)),
    }[kind]()
    dest = tmp_path / "part.csv"
    with pytest.raises(ValueError, match="gene id count"):
        write_partition_csv(part, tuple("abcd"[:n_ids]), dest)
    assert not dest.exists()


def test_metadata_json_stable_and_nonfinite():
    meta = {
        "b": math.inf,
        "a": [1, 2.5, -math.inf],
        "nested": {"z": math.nan, "arr": np.array([1.0, 2.0])},
        "n": np.int64(7),
    }
    buf = io.StringIO()
    write_metadata_json(meta, buf)
    doc = json.loads(buf.getvalue())
    assert doc["b"] == "inf"
    assert doc["a"] == [1, 2.5, "-inf"]
    assert doc["nested"]["z"] == "nan"
    assert doc["nested"]["arr"] == [1.0, 2.0]
    assert doc["n"] == 7
    keys = list(doc)
    assert keys == sorted(keys)
    buf2 = io.StringIO()
    write_metadata_json(meta, buf2)
    assert buf.getvalue() == buf2.getvalue()


def test_file_destinations(tmp_path):
    part = kmeans(np.array([[0.0], [10.0]]), 2, seed=0)
    p = tmp_path / "part.csv"
    write_partition_csv(part, ("a", "b"), p)
    back = read_partition_csv(p)
    assert back.kind == "hard"
    c = tmp_path / "cent.csv"
    write_centroids_csv(part.centroids, ("s0",), c)
    w, ids = read_centroids_csv(c)
    assert np.array_equal(w, part.centroids)
    j = tmp_path / "meta.json"
    write_metadata_json({"k": 2}, j)
    assert json.loads(j.read_text()) == {"k": 2}


def test_unsupported_partition_type():
    with pytest.raises(TypeError, match="unsupported partition type"):
        write_partition_csv(object(), ("a",), io.StringIO())
