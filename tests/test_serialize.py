import csv
import io
import json
import math

import _oracles
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_io import ODD_CELLS

from pfclust import (
    NumericalError,
    FuzzyPartition,
    HardPartition,
    RoughPartition,
    fcm,
    kmeans,
    parse_matrix,
    pfcm,
    read_centroids_csv,
    read_partition_csv,
    rough_kmeans,
    run_algorithm,
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
    part = pfcm(x, 3, seed=0)
    gene_ids = tuple(f"g{i}" for i in range(10))
    text, back = _roundtrip(part, gene_ids)
    assert text.splitlines()[0] == "gene_id,u0,u1,u2"
    assert back.kind == "fuzzy"
    assert np.array_equal(back.memberships, part.memberships)
    assert np.array_equal(back.assignments, part.assignments)


@pytest.mark.parametrize("alg", ["kmeans", "rough_kmeans", "fcm", "pfcm"])
def test_every_partition_has_k_assignments_and_memberships(bundled_path, alg):
    m = parse_matrix(bundled_path.read_text(encoding="utf-8"), "tsv")
    part = run_algorithm(alg, m, 5)
    n, k = m.n_genes, part.k
    assert k == 5
    assert part.assignments.shape == (n,)
    assert part.assignments.min() >= 0 and part.assignments.max() < k
    assert part.memberships.shape == (n, k)
    assert (part.memberships >= 0.0).all()
    assert np.allclose(part.memberships.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    # the one label rule: argmax takes the lowest index on ties
    assert np.array_equal(part.assignments, np.argmax(part.memberships, axis=1))
    _, back = _roundtrip(part, m.gene_ids)
    assert np.array_equal(back.assignments, part.assignments)
    assert np.array_equal(back.memberships, part.memberships)


@pytest.mark.parametrize("row", [
    "a,nan,0.2",
    "a,inf,0.0",
    "a,2.0,-1",
    "a,0.5,0.4999999",
    "a,inf,-inf",
    "a,1e308,1e308",
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
    try:
        if penalized:
            part = pfcm(x, c, m=m, v=v, seed=seed, max_iter=max_iter)
        else:
            part = fcm(x, c, m=m, seed=seed, max_iter=max_iter)
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


@pytest.mark.parametrize("text, message", [
    ("gene_id,u0,u1\na,x,0.5\n",
     "gene 'a': memberships must be in [0, 1] and sum to 1, got x, 0.5"),
    ("gene_id,cluster\na,1.0\n", "gene 'a': cluster index must be an integer, got '1.0'"),
    ("gene_id,cluster,membership_kind\na,x,lower\n",
     "gene 'a': cluster index must be an integer, got 'x'"),
], ids=["fuzzy", "hard", "rough"])
def test_cell_that_is_not_a_number_names_its_gene(text, message):
    with pytest.raises(ValueError) as info:
        read_partition_csv(io.StringIO(text))
    assert str(info.value) == message


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
    # centroid cells are held to the matrix rule: finite values only
    with pytest.raises(ValueError, match="non-finite value '-inf' for centroid 1, sample 's2'"):
        read_centroids_csv(io.StringIO("s1,s2\n0.5,1.5\n2.5,-inf\n"))
    with pytest.raises(ValueError, match="non-numeric value 'x' for centroid 0, sample 's2'"):
        read_centroids_csv(io.StringIO("s1,s2\n0.5,x\n"))


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
        "fuzzy": lambda: pfcm(x, 2, seed=0),
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


# ---------------------------------------------------- one cell rule against the old readers

def _read_outcome(read, text):
    """What a reader makes of a text: the message it refuses it with, or its result."""
    try:
        return read(io.StringIO(text))
    except ValueError as exc:
        return str(exc)


def _same_outcome(new, old):
    if isinstance(old, str) or isinstance(new, str):
        assert new == old
    elif isinstance(old, tuple):  # centroids, sample ids
        assert np.array_equal(new[0], old[0]) and new[1] == old[1]
    else:
        assert (new.kind, new.gene_ids) == (old.kind, old.gene_ids)
        assert np.array_equal(new.memberships, old.memberships)
        assert np.array_equal(new.assignments, old.assignments)


# spellings int() and float() accept, so a valid file stays valid
_INT_SPELLINGS = [str, lambda v: f" {v} ", lambda v: f"+{v}",
                  lambda v: "".join(chr(0x660 + int(d)) for d in str(v))]
_FLOAT_SPELLINGS = [repr, lambda v: f" {v!r} "]


@st.composite
def reader_texts(draw):
    """A hard, rough, fuzzy or centroid CSV with at most one injected fault."""
    kind = draw(st.sampled_from(["hard", "rough", "fuzzy", "centroids"]))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    ids = [draw(st.sampled_from([f"g{i}", f"g,{i}"])) for i in range(n)]
    spell = st.sampled_from(_FLOAT_SPELLINGS if kind in ("fuzzy", "centroids") else _INT_SPELLINGS)
    if kind == "hard":
        header = ["gene_id", "cluster"]
        rows = [[gid, draw(spell)(draw(st.integers(0, k - 1)))] for gid in ids]
    elif kind == "rough":
        header = ["gene_id", "cluster", "membership_kind"]
        rows = []
        for gid in ids:
            sets = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True))
            lone = "lower" if len(sets) == 1 and draw(st.booleans()) else "boundary"
            rows += [[gid, draw(spell)(j), lone] for j in sets]
        rows = draw(st.permutations(rows))
    elif kind == "fuzzy":
        header = ["gene_id"] + [f"u{j}" for j in range(k)]
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        one_hot = np.eye(k)[rng.integers(k, size=n)]
        u = rng.dirichlet(np.ones(k), size=n) if draw(st.booleans()) else one_hot
        rows = [[gid] + [draw(spell)(v) for v in row] for gid, row in zip(ids, u.tolist())]
    else:
        header = [f"s{j}" for j in range(draw(st.integers(1, 3)))]
        cell = st.floats(allow_nan=False, allow_infinity=False)
        rows = [[draw(spell)(draw(cell)) for _ in header] for _ in range(k)]
    fault = draw(st.sampled_from({
        "hard": ["fields", "number", "negative", "duplicate"],
        "rough": ["fields", "number", "negative", "kind", "mixed", "repeat"],
        "fuzzy": ["fields", "number", "range", "nudge", "duplicate"],
        "centroids": ["fields", "number", "non-finite"],
    }[kind] + [None] * 2))
    i = draw(st.integers(0, len(rows) - 1))
    # a number fault's column: any centroid cell, else a cluster or membership cell
    j = draw(st.integers(kind != "centroids", 1 if kind == "rough" else len(header) - 1))
    rows = [list(row) for row in rows]
    if fault == "fields":
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["0"]
    elif fault == "number":
        rows[i][j] = draw(st.sampled_from(["x", "", "1.5", "0x10", "1e3", "1.0", "0x1p3"]))
    elif fault == "negative":
        rows[i][j] = "-1"
    elif fault == "non-finite":
        rows[i][j] = draw(st.sampled_from(["nan", "inf", "-infinity", "1e400"]))
    elif fault == "range":
        rows[i][j] = draw(st.sampled_from(["2.0", "-0.5", "nan", "0.5000001"]))
    elif fault == "nudge":  # off the row sum by 1e-7, or by 1e-10 within its tolerance
        rows[i][j] = repr(float(rows[i][j]) + draw(st.sampled_from([1e-7, 1e-10])))
    elif fault == "duplicate" and n > 1:
        rows[i][0] = rows[(i + 1) % len(rows)][0]
    elif fault == "kind":
        rows[i][2] = "upper"
    elif fault == "mixed":
        rows[i][2] = "lower"
    elif fault == "repeat":
        rows.insert(i, rows[i])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header] + rows)
    return kind, buf.getvalue()


@settings(max_examples=400, deadline=None)
@given(case=reader_texts())
def test_readers_match_the_per_cell_readers(case):
    kind, text = case
    new, old = ((read_centroids_csv, _oracles.read_centroids_csv) if kind == "centroids"
                else (read_partition_csv, _oracles.read_partition_csv))
    _same_outcome(_read_outcome(new, text), _read_outcome(old, text))


def _float_or_none(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _int_or_none(cell):
    try:
        return int(cell)
    except ValueError:
        return None


@pytest.mark.parametrize("cell", ODD_CELLS)
def test_odd_centroid_cells_read_as_float_does(cell):
    text = f"s1,s2\n0.5,{cell}\n"
    new = _read_outcome(read_centroids_csv, text)
    _same_outcome(new, _read_outcome(_oracles.read_centroids_csv, text))
    value = _float_or_none(cell)
    if value is not None and math.isfinite(value):
        assert new[0][0, 1] == value
    else:
        assert isinstance(new, str) and new.startswith(("non-numeric", "non-finite"))


# ODD_CELLS read as memberships fail the [0, 1] rule; these spell 0.5 and 0.25
@pytest.mark.parametrize("cell", ODD_CELLS + ["٠.٥", " 0.25 ", "2_5e-2"])
def test_odd_membership_cells_read_as_float_does(cell):
    value = _float_or_none(cell)
    rest = repr(1.0 - value) if value is not None and 0.0 <= value <= 1.0 else "0.5"
    text = f"gene_id,u0,u1\na,{cell},{rest}\nb,0.5,0.5\n"
    new = _read_outcome(read_partition_csv, text)
    _same_outcome(new, _read_outcome(_oracles.read_partition_csv, text))
    if isinstance(new, str):
        assert new.startswith("gene 'a': memberships must be in [0, 1]")
    else:
        assert new.memberships[0, 0] == value


@pytest.mark.parametrize("layout", ["hard", "rough"])
@pytest.mark.parametrize("cell", ODD_CELLS + [" 1 ", "+1", "١", "1.0", "99999999999999999999"])
def test_odd_cluster_cells_read_as_int_does(cell, layout):
    # 13 genes, so the 10 and 12 that 1_0 and the Arabic-Indic digits spell are in range
    head, tail = {"hard": ("gene_id,cluster\n", ""),
                  "rough": ("gene_id,cluster,membership_kind\n", ",lower")}[layout]
    text = head + f"a,{cell}{tail}\n" + "".join(f"g{i},0{tail}\n" for i in range(12))
    new = _read_outcome(read_partition_csv, text)
    value = _int_or_none(cell)
    if value is not None and value >= 13:
        # the old reader had no upper bound: it overflowed here
        assert new == f"gene 'a': cluster index {value} is not below the gene count 13"
        return
    if value is None:
        assert new == f"gene 'a': cluster index must be an integer, got {cell!r}"
    else:
        assert new.assignments[0] == value
    _same_outcome(new, _read_outcome(_oracles.read_partition_csv, text))


@pytest.mark.parametrize("text", [
    "gene_id,cluster\na,99999999999999999999\n",
    f"gene_id,cluster\na,{2**62}\n",
    f"gene_id,cluster,membership_kind\na,0,boundary\na,{2**62},boundary\n",
    f"gene_id,cluster\nb,0\na,{2**64}\n",
], ids=["hard-past-int64", "hard-2**62", "rough-2**62", "hard-past-uint64"])
def test_cluster_index_at_or_above_the_gene_count_names_its_gene(text):
    message = r"^gene 'a': cluster index \d+ is not below the gene count"
    with pytest.raises(ValueError, match=message):
        read_partition_csv(io.StringIO(text))


def test_cluster_index_bound_is_the_gene_count():
    ok = read_partition_csv(io.StringIO("gene_id,cluster\na,0\nb,2\nc,1\n"))
    assert ok.k == 3 and ok.assignments.tolist() == [0, 2, 1]
    with pytest.raises(ValueError) as info:
        read_partition_csv(io.StringIO("gene_id,cluster\na,0\nb,3\nc,1\n"))
    assert str(info.value) == "gene 'b': cluster index 3 is not below the gene count 3"
    # a rough file's gene count is its distinct genes, not its rows
    with pytest.raises(ValueError, match="'b': cluster index 2 is not below the gene count 2"):
        read_partition_csv(io.StringIO(
            "gene_id,cluster,membership_kind\na,0,boundary\na,1,boundary\nb,2,lower\n"))
    with pytest.raises(ValueError, match="^negative cluster index$"):
        read_partition_csv(io.StringIO("gene_id,cluster\na,-99999999999999999999\n"))
