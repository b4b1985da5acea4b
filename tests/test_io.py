import contextlib
import hashlib
import io
import os
import sys
import tracemalloc
import warnings

import _oracles
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pfclust._util
import pfclust.io
from pfclust import ParseError, parse_matrix, sniff_format, write_tsv
from pfclust.io import companion_path, read_matrix, write_companion
from pfclust.matrix import ExpressionMatrix

TSV = "s1\ts2\ng1\t1.5\t2.5\ng2\t-3\t4e2\n"

GCT = "#1.2\n3\t2\nName\tDescription\ta\tb\ng1\tdesc one\t1\t2\ng2\t\t3\t4\ng3\tx\t5\t6\n"

RES = (
    "Description\tAccession\ta\t\tb\t\n"
    "\tsome description line\t\t\n"
    "2\n"
    "first gene\tg1\t1.5\tP\t2.5\tA\n"
    "second gene\tg2\t3\tM\t4\tP\n"
)


def test_parse_tsv():
    m = parse_matrix(TSV, "tsv")
    assert m.sample_ids == ("s1", "s2")
    assert m.gene_ids == ("g1", "g2")
    assert np.array_equal(m.values, [[1.5, 2.5], [-3.0, 400.0]])


def test_parse_gct():
    m = parse_matrix(GCT, "gct")
    assert m.n_genes == 3 and m.n_samples == 2
    assert m.sample_ids == ("a", "b")
    assert m.gene_ids == ("g1", "g2", "g3")
    assert np.array_equal(m.values, [[1, 2], [3, 4], [5, 6]])


def test_parse_res_ignores_call_columns():
    m = parse_matrix(RES, "res")
    assert m.sample_ids == ("a", "b")
    assert m.gene_ids == ("g1", "g2")
    assert np.array_equal(m.values, [[1.5, 2.5], [3.0, 4.0]])


def test_parse_accepts_bytes_and_files():
    assert parse_matrix(TSV.encode(), "tsv").n_genes == 2
    assert parse_matrix(io.StringIO(TSV), "tsv").n_genes == 2
    assert parse_matrix(io.BytesIO(TSV.encode()), "tsv").n_genes == 2


def test_empty_file_rejected():
    for fmt in ("tsv", "gct", "res"):
        with pytest.raises(ParseError, match="empty"):
            parse_matrix("", fmt)
        with pytest.raises(ParseError):
            parse_matrix("\n\n", fmt)


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="unknown format"):
        parse_matrix(TSV, "xlsx")


def test_tsv_field_count_error_names_line():
    bad = "s1\ts2\ng1\t1\n"
    with pytest.raises(ParseError, match="line 2") as err:
        parse_matrix(bad, "tsv")
    assert err.value.line == 2


def test_tsv_non_numeric_cell_names_line_and_column():
    bad = "s1\ts2\ng1\t1\tfoo\n"
    with pytest.raises(ParseError, match="line 2, column 3.*'foo'"):
        parse_matrix(bad, "tsv")


def test_tsv_non_finite_rejected():
    with pytest.raises(ParseError, match="non-finite"):
        parse_matrix("s1\ng1\tinf\n", "tsv")
    with pytest.raises(ParseError, match="non-finite"):
        parse_matrix("s1\ng1\tnan\n", "tsv")


# test_tsv_non_numeric_cell_names_line_and_column covers tsv
@pytest.mark.parametrize("fmt, text, column", [
    ("gct", "#1.2\n1\t2\nName\tDescription\ta\tb\ng1\td\t1\tfoo\n", 4),
    ("res", "Description\tAccession\ta\t\tb\t\n\n1\nd\tg1\t1\tP\tfoo\tA\n", 5),
])
def test_bad_cell_names_its_column(fmt, text, column):
    with pytest.raises(ParseError) as err:
        parse_matrix(text, fmt)
    assert (err.value.line, err.value.column) == (text.count("\n"), column)
    assert str(err.value).endswith("non-numeric value 'foo'")


def test_gct_without_data_rows_is_named():
    with pytest.raises(ParseError) as err:
        parse_matrix("#1.2\n0\t2\nName\tDescription\ta\tb\n", "gct")
    assert str(err.value) == "matrix must be at least 1x1, got 0x2"


def test_tsv_duplicate_gene_id_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_matrix("s1\ng1\t1\ng1\t2\n", "tsv")


def test_tsv_header_only_rejected():
    with pytest.raises(ParseError, match="no data rows"):
        parse_matrix("s1\ts2\n", "tsv")


def test_gct_row_count_mismatch_names_counts():
    bad = "#1.2\n4\t2\nName\tDescription\ta\tb\ng1\t\t1\t2\ng2\t\t3\t4\ng3\t\t5\t6\n"
    with pytest.raises(ParseError, match="declares 4 data rows but file contains 3"):
        parse_matrix(bad, "gct")


def test_gct_sample_count_mismatch():
    bad = "#1.2\n1\t3\nName\tDescription\ta\tb\ng1\t\t1\t2\n"
    with pytest.raises(ParseError, match="declares 3 samples but header names 2"):
        parse_matrix(bad, "gct")


def test_gct_bad_version_marker():
    with pytest.raises(ParseError, match="version"):
        parse_matrix("#1.3\n1\t1\nName\tDescription\ta\ng1\t\t1\n", "gct")


def test_res_row_count_mismatch():
    bad = RES.replace("\n2\n", "\n3\n")
    with pytest.raises(ParseError, match="declares 3 data rows but file contains 2"):
        parse_matrix(bad, "res")


def test_sniff_format(tmp_path):
    assert sniff_format("x.gct") == "gct"
    assert sniff_format("x.RES") == "res"
    assert sniff_format("x.tsv") == "tsv"
    assert sniff_format("x.txt") == "tsv"
    assert sniff_format("noext") == "tsv"


def test_write_tsv_round_trip_exact(tmp_path):
    m = ExpressionMatrix(
        ("g1", "g2"),
        ("s1", "s2", "s3"),
        [[0.1, 1e-300, 123456789.123456789], [-7.5, 3.0000000000000004, 2.0]],
    )
    path = tmp_path / "m.tsv"
    write_tsv(m, path)
    back = parse_matrix(path.read_text(), "tsv")
    assert back.gene_ids == m.gene_ids
    assert back.sample_ids == m.sample_ids
    assert np.array_equal(back.values, m.values)


def test_write_tsv_rejects_ids_with_tabs():
    m = ExpressionMatrix(("g\t1",), ("s1",), [[1.0]])
    with pytest.raises(ValueError, match="tab"):
        write_tsv(m, io.StringIO())


# tab and every line break of str.splitlines(), the reader's line rule
ID_BREAKS = ["\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def test_id_breaks_are_the_splitlines_breaks():
    breaks = [chr(c) for c in range(0x110000) if len(f"a{chr(c)}b".splitlines()) > 1]
    assert sorted(ID_BREAKS) == sorted(breaks + ["\t"])


@pytest.mark.parametrize("where", ["gene", "sample"])
@pytest.mark.parametrize("char", ID_BREAKS, ids=[f"U+{ord(c):04X}" for c in ID_BREAKS])
def test_write_tsv_refuses_an_id_the_reader_would_split(char, where):
    name = f"x{char}y"
    genes, samples = ((name, "g2"), ("s1",)) if where == "gene" else (("g1", "g2"), (name,))
    m = ExpressionMatrix(genes, samples, [[1.0], [2.0]])
    with pytest.raises(ValueError, match="tab or newline"):
        write_tsv(m, io.StringIO())


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=3,
            max_size=3,
        ),
        min_size=1,
        max_size=6,
    )
)
def test_tsv_round_trip_property(values):
    m = ExpressionMatrix(
        tuple(f"g{i}" for i in range(len(values))),
        ("s1", "s2", "s3"),
        values,
    )
    buf = io.StringIO()
    write_tsv(m, buf)
    back = parse_matrix(buf.getvalue(), "tsv")
    assert np.array_equal(back.values, m.values)


# cells float() reads differently from a plain decimal parser
ODD_CELLS = ["1_0", "\u0661\u0662", "0x1p3", " 1.5 ", "", "infinity", "nan", "1e400"]


@st.composite
def matrix_texts(draw):
    """A tsv, gct or res text whose data rows may be malformed."""
    fmt = draw(st.sampled_from(["tsv", "gct", "res"]))
    samples = [f"s{j}" for j in range(draw(st.integers(1, 3)))]
    finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    cell = st.one_of([finite] * 3 + [st.sampled_from(ODD_CELLS)])
    lead = {"tsv": [], "gct": ["d"], "res": ["d"]}[fmt]
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["ok"] * 6 + ["short", "long", "blank"]))
        if kind == "blank":
            rows.append("")
            continue
        gene = draw(st.sampled_from(["g1", "g2", "g3", "g4", "g5", ""]))
        cells = [draw(cell) for _ in samples]
        cells = {"ok": cells, "short": cells[1:], "long": cells + ["1"]}[kind]
        if fmt == "res":
            cells = [f for c in cells for f in (c, "P")]
        fields = lead + [gene] + cells if fmt != "gct" else [gene] + lead + cells
        rows.append("\t".join(fields))
    n_rows = sum(1 for r in rows if r.strip())
    # a declared count of 0 is reported differently by the two parsers
    assume(fmt == "tsv" or n_rows > 0)
    header = {
        "tsv": ["\t".join(samples)],
        "gct": ["#1.2", f"{n_rows}\t{len(samples)}", "\t".join(["Name", "Description"] + samples)],
        "res": ["\t".join(["Description", "Accession"] + [f for s in samples for f in (s, "")]),
                "", str(n_rows)],
    }[fmt]
    return fmt, "\n".join(header + rows) + "\n"


def _outcome(parse, fmt, text):
    try:
        m = parse(text, fmt)
    except ParseError as exc:
        return str(exc), exc.line, exc.column
    except UnicodeDecodeError as exc:
        return str(exc)
    return m.gene_ids, m.sample_ids, m.values.tobytes()


@settings(max_examples=300, deadline=None)
@given(case=matrix_texts())
# a bad cell comes before a short row: the walk, not a structure check, names it
@example(case=("tsv", "s0\ng1\t0x1p3\ng1\n"))
def test_reader_matches_per_cell_parser(case):
    fmt, text = case
    assert _outcome(parse_matrix, fmt, text) == _outcome(_oracles.parse_matrix, fmt, text)


# characters that float() and numpy's C reader may read differently: ASCII
# controls (not tab or the line breaks str.splitlines() splits on), Unicode
# spaces, Arabic-Indic and fullwidth digits
ODD_CHARS = (
    [chr(c) for c in [*range(0x20), 0x7F] if c != 0x09 and len(f"a{chr(c)}b".splitlines()) == 1]
    + ["\u00a0", "\u2003", "\u3000"]
    + [chr(c) for c in [*range(0x660, 0x66A), *range(0xFF10, 0xFF1A)]]
)


def _bodies(fmt, cells):
    """A 2x2 matrix text in `fmt` holding `cells`, row by row."""
    rows = [[f"g{i}"] + cells[2 * i:2 * i + 2] for i in range(2)]
    if fmt == "tsv":
        return "s1\ts2\n" + "".join("\t".join(r) + "\n" for r in rows)
    if fmt == "gct":
        return ("#1.2\n2\t2\nName\tDescription\ts1\ts2\n"
                + "".join("\t".join([r[0], "d"] + r[1:]) + "\n" for r in rows))
    return ("Description\tAccession\ts1\t\ts2\t\n\n2\n"
            + "".join("\t".join(["d", r[0], r[1], "P", r[2], "A"]) + "\n" for r in rows))


@pytest.mark.parametrize("fmt", ["tsv", "gct", "res"])
def test_odd_characters_read_as_float_reads_them(fmt):
    # the C reader strips U+001F, which float() refuses, so the guard in
    # io._read_body is what keeps this equal for that character
    texts = []
    for ch in ODD_CHARS:
        for cell in (ch + "1.5", "1.5" + ch, "1" + ch + ".5"):
            texts += [_bodies(fmt, ["2", "3", cell, "4"]), _bodies(fmt, [cell] * 4)]
    differ = [t for t in texts
              if _outcome(parse_matrix, fmt, t) != _outcome(_oracles.parse_matrix, fmt, t)]
    assert differ == []


def test_parse_peak_memory_is_bounded():
    values = np.random.default_rng(0).normal(size=(5000, 50))
    buf = io.StringIO()
    write_tsv(ExpressionMatrix([f"g{i}" for i in range(5000)],
                               [f"s{j}" for j in range(50)], values), buf)
    text = buf.getvalue()
    tracemalloc.start()
    try:
        parse_matrix(text, "tsv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text)


def _write_with_companion(m, path):
    """Write m as normalize does: the tsv file, then its companion."""
    write_tsv(m, path)
    write_companion(m.values, path, companion_path(path))


def _read_from_companion(path):
    """read_matrix(path, "tsv") if it took its values from the companion beside
    the tsv file at `path`, else None. Each caller's companion holds values
    other than the text's, which is what tells the two sources apart."""
    m = read_matrix(path, "tsv")
    text = parse_matrix(path.read_bytes(), "tsv")
    assert (m.gene_ids, m.sample_ids) == (text.gene_ids, text.sample_ids)
    return None if m.values.tobytes() == text.values.tobytes() else m


def test_companion_sits_beside_its_tsv_and_starts_with_its_digest(tmp_path):
    m = ExpressionMatrix(("g1", "g2"), ("s1",), [[1.5], [-2.0]])
    path = tmp_path / "m.tsv"
    _write_with_companion(m, path)
    assert companion_path(path) == tmp_path / "m.tsv.npy"
    raw = companion_path(path).read_bytes()
    assert raw[:32] == hashlib.sha256(path.read_bytes()).digest()
    assert np.array_equal(np.load(io.BytesIO(raw[32:]), allow_pickle=False), m.values)
    # the same file and values give the same bytes
    write_companion(m.values, path, tmp_path / "again.npy")
    assert (tmp_path / "again.npy").read_bytes() == raw


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                 min_size=3, max_size=3),
        min_size=1,
        max_size=6,
    ),
    genes=st.lists(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4)
                   .filter(lambda g: "\t" not in g and len(f"{g}.".splitlines()) == 1),
                   min_size=6, max_size=6, unique=True),
)
@example(values=[[-0.0, 5e-324, -2.2250738585072014e-308], [2.225e-308, 0.0, -5e-324]],
         genes=["a", "b", "c", "d", "e", "f"])
# U+001F in a gene id, which the C reader never converts
@example(values=[[0.0, 0.0, 0.0]] * 4, genes=["0", "1", "2", "\x1f", "00", "000"])
def test_companion_reads_back_what_the_text_parses(tmp_path_factory, values, genes):
    m = ExpressionMatrix(tuple(genes[:len(values)]), ("s1", "s2", "s3"), values)
    path = tmp_path_factory.mktemp("companion") / "m.tsv"
    _write_with_companion(m, path)
    got = read_matrix(path, "tsv")
    want = parse_matrix(path.read_bytes().decode("utf-8"), "tsv")
    assert (got.gene_ids, got.sample_ids) == (want.gene_ids, want.sample_ids)
    # bit for bit: -0.0 and subnormals included
    assert got.values.tobytes() == want.values.tobytes()
    # and from the companion: other values under the same digest are read back
    write_companion(-m.values, path, companion_path(path))
    assert _read_from_companion(path).values.tobytes() == (-m.values).tobytes()


def _npy(values, **header):
    """An .npy file of `values` whose header entries `header` override."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asarray(values), version=(1, 0), allow_pickle=False)
    raw = buf.getvalue()
    if header:
        d = {"descr": np.lib.format.dtype_to_descr(np.asarray(values).dtype),
             "fortran_order": False, "shape": np.shape(values), **header}
        buf = io.BytesIO()
        np.lib.format.write_array_header_1_0(buf, d)
        raw = buf.getvalue() + np.asarray(values).tobytes()
    return raw


_VALUES = np.array([[0.5, -1.0], [2.0, 3.25], [1e-300, 7.0]])


def _write_with_other_companion(path):
    """A tsv file of _VALUES + 1 and a companion of _VALUES under its digest."""
    write_tsv(ExpressionMatrix(("g1", "g2", "g3"), ("s1", "s2"), _VALUES + 1), path)
    write_companion(_VALUES, path, companion_path(path))

# each a companion body (what follows the digest) that must be ignored
_BAD_BODIES = {
    "empty": b"",
    "garbage": b"not an npy file at all",
    "magic-only": b"\x93NUMPY\x01\x00",
    "truncated-header": _npy(_VALUES)[:40],
    "truncated-values": _npy(_VALUES)[:-1],
    "trailing-byte": _npy(_VALUES) + b"\0",
    "fewer-rows": _npy(_VALUES[:2]),
    "too-many-rows-to-allocate": _npy(_VALUES, shape=(10**12, 2)),
    "transposed": _npy(_VALUES.T.copy()),
    "float32": _npy(_VALUES.astype(np.float32)),
    "big-endian": _npy(_VALUES.astype(">f8")),
    "fortran-order": _npy(_VALUES, fortran_order=True),
    "object-header": _npy(_VALUES, descr="|O"),
    "version-2": b"\x93NUMPY\x02\x00" + _npy(_VALUES)[8:],
}


@pytest.mark.parametrize("body", list(_BAD_BODIES.values()), ids=list(_BAD_BODIES))
def test_a_companion_that_does_not_match_is_ignored(tmp_path, body):
    path = tmp_path / "m.tsv"
    _write_with_other_companion(path)
    assert _read_from_companion(path).values.tobytes() == _VALUES.tobytes()
    digest = companion_path(path).read_bytes()[:32]
    companion_path(path).write_bytes(digest + body)
    assert _read_from_companion(path) is None


def test_a_stale_or_unreadable_companion_is_ignored(tmp_path):
    path = tmp_path / "m.tsv"
    _write_with_other_companion(path)
    assert _read_from_companion(path) is not None
    companion = companion_path(path).read_bytes()
    # a digest one bit off
    companion_path(path).write_bytes(bytes([companion[0] ^ 1]) + companion[1:])
    assert _read_from_companion(path) is None
    # a tsv file edited after its companion was written
    companion_path(path).write_bytes(companion)
    path.write_text(path.read_text(encoding="utf-8").replace("1.5", "1.25"), encoding="utf-8")
    assert _read_from_companion(path) is None
    # a companion that is a directory
    companion_path(path).unlink()
    companion_path(path).mkdir()
    assert _read_from_companion(path) is None


@pytest.mark.parametrize("text", [
    "s1\ts2\ng1\t1\t2\ng1\t3\t4\n",   # a duplicate gene id
    "s1\ts1\ng1\t1\t2\ng2\t3\t4\n",   # a duplicate sample id
    "s1\ts2\ng1\t1\t2\n\ng2\t3\t4\n",  # a blank line
    "s1\ts2\ng1\t1\t2\n \t \t \ng2\t3\t4\n",  # a whitespace-only line of three fields
    "s1\t\ng1\t1\t2\ng2\t3\t4\n",     # an empty sample id
    "s1\ts2\n",                        # no data rows
    "s1\ts2\ng1\t1\x1f\t2\ng2\t3\t4\n",  # a cell float() refuses, the C reader strips
], ids=["duplicate-gene", "duplicate-sample", "blank-line", "whitespace-line", "empty-sample",
        "header-only", "unit-separator"])
def test_a_companion_never_hides_a_fault_of_its_text(tmp_path, text):
    # a companion whose digest is that of a faulty text (normalize writes none),
    # with a row for each line after the header
    path = tmp_path / "m.tsv"
    path.write_text(text, encoding="utf-8")
    write_companion(np.zeros((text.count("\n") - 1, 2)), path, companion_path(path))
    with pytest.raises(ParseError):
        parse_matrix(text, "tsv")
    assert _outcome(lambda _, fmt: read_matrix(path, fmt), "tsv", text) == \
        _outcome(parse_matrix, "tsv", text)


@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("blank", [1, 2], ids=["one", "two"])
def test_tsv_empty_lines_at_the_end_are_dropped(tmp_path, eol, blank):
    clean = "s1\ts2\ng1\t1\t2\ng2\t3\t4\n".replace("\n", eol)
    text = clean + eol * blank
    expected = _outcome(parse_matrix, "tsv", clean)
    assert _outcome(parse_matrix, "tsv", text) == expected
    assert _outcome(_oracles.parse_matrix, "tsv", text) == expected
    # the companion check reads the same lines as the text parse
    path = tmp_path / "m.tsv"
    path.write_bytes(text.encode("utf-8"))
    other = -parse_matrix(clean, "tsv").values
    write_companion(other, path, companion_path(path))
    got = _read_from_companion(path)
    assert (got.gene_ids, got.sample_ids, got.values.tobytes()) == (*expected[:2], other.tobytes())


@pytest.mark.parametrize("text, line", [
    ("s1\ng1\t1\n\ng2\t3\n", 3),
    ("s1\r\ng1\t1\r\n\r\n\r\ng2\t3\r\n\r\n", 3),
    ("s1\n\ng1\t1\n\n", 2),
])
def test_tsv_empty_line_followed_by_data_is_refused(text, line):
    with pytest.raises(ParseError, match=f"^line {line}: blank line inside data section$"):
        parse_matrix(text, "tsv")


_BLANK_BODIES = {
    "gct": "#1.2\n2\t1\nName\tDescription\ts1\ng1\td\t1\n{}\ng2\td\t2\n",
    "res": "Description\tAccession\ts1\t\n\n2\nd\tg1\t1\tP\n{}\nd\tg2\t2\tP\n",
    "tsv": "s1\ng1\t1\n{}\ng2\t2\n",
}


@pytest.mark.parametrize("blank", ["", "  ", "\t"], ids=["empty", "spaces", "tab"])
@pytest.mark.parametrize("fmt", ["tsv", "gct", "res"])
def test_a_blank_line_inside_the_data_section_is_refused_in_every_format(fmt, blank):
    text = _BLANK_BODIES[fmt].format(blank)
    line = text[:text.index("g2")].count("\n")
    for parse in (parse_matrix, _oracles.parse_matrix):
        with pytest.raises(ParseError, match=f"^line {line}: blank line inside data section$"):
            parse(text, fmt)


@pytest.mark.parametrize("fmt", ["tsv", "gct", "res"])
def test_empty_lines_at_the_end_are_dropped_in_every_format(fmt):
    clean = _BLANK_BODIES[fmt].replace("{}\n", "")
    expected = _outcome(parse_matrix, fmt, clean)
    assert expected[0] == ("g1", "g2")
    for text in (clean + "\n", clean + "\n\n", clean.replace("\n", "\r\n") + "\r\n"):
        assert _outcome(parse_matrix, fmt, text) == expected
        assert _outcome(_oracles.parse_matrix, fmt, text) == expected
    with pytest.raises(ParseError, match="blank line inside data section$"):
        parse_matrix(clean + "  \n", fmt)


def test_write_peak_memory_is_bounded():
    values = np.random.default_rng(0).normal(size=(5000, 50))
    m = ExpressionMatrix([f"g{i}" for i in range(5000)], [f"s{j}" for j in range(50)], values)
    buf = io.StringIO()
    write_tsv(m, buf)
    text = buf.getvalue()
    tracemalloc.start()
    try:
        write_tsv(m, io.StringIO())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text)


def test_write_to_a_path_holds_a_few_blocks(tmp_path):
    # the text is streamed a block at a time: gathering every part's text
    # first peaked at 1.50x the 4.9 MB text, about 28 blocks
    values = np.random.default_rng(0).normal(size=(5000, 50))
    m = ExpressionMatrix([f"g{i}" for i in range(5000)], [f"s{j}" for j in range(50)], values)
    tracemalloc.start()
    try:
        write_tsv(m, tmp_path / "m.tsv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "m.tsv").read_text() == _written(m)
    assert peak < 6 * pfclust.io._BLOCK


# The row parts of the reader and of write_tsv (_util.in_parts). Each test
# forces them on small inputs, with a cell floor of 1 and a CPU count of at
# most 3, so that an operation starts at most two child processes.

@contextlib.contextmanager
def _parts(n):
    """Read and write in n parts, where the matrix has n rows (n characters of
    body text) or more."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pfclust._util, "PART_CELLS", 1)
        mp.setattr(pfclust._util, "PART_BYTES", 1)
        mp.setattr(pfclust._util, "usable_cpus", lambda: n)
        yield mp


def _written(m):
    buf = io.StringIO()
    write_tsv(m, buf)
    return buf.getvalue()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_CELL_TEXTS = st.one_of([st.floats(allow_nan=False, allow_infinity=False).map(repr)] * 4
                        + [st.sampled_from(["1_0", "١٢", "７", "-0.0", "5e-324"])])


@settings(max_examples=30, deadline=None)
@given(
    rows=st.lists(st.lists(_CELL_TEXTS, min_size=2, max_size=2), min_size=3, max_size=8),
    odd_id=st.sampled_from(["g\x1f", "gé", "١", "g 1"]),
)
def test_parts_read_and_write_what_one_process_does(rows, odd_id):
    ids = [odd_id] + [f"g{i}" for i in range(1, len(rows))]
    text = "s1\ts2\n" + "".join(f"{g}\t{a}\t{b}\n" for g, (a, b) in zip(ids, rows))
    with _parts(1):
        expected = _outcome(parse_matrix, "tsv", text)
        m = parse_matrix(text, "tsv")
        written = _written(m)
    for n in (2, 3):
        with _parts(n):
            assert _outcome(parse_matrix, "tsv", text) == expected
            assert _written(m) == written
    _no_child_left()


@pytest.mark.parametrize("cell", ["foo", "inf", "nan", "1.5\x1f", ""])
def test_a_bad_cell_in_the_last_part_is_named_as_in_one_part(cell):
    text = "s1\ts2\n" + "".join(f"g{i}\t{i}\t0.5\n" for i in range(5)) + f"g5\t1\t{cell}\n"
    with _parts(1):
        expected = _outcome(parse_matrix, "tsv", text)
    assert expected[1:] == (7, 3)
    with _parts(3):
        assert _outcome(parse_matrix, "tsv", text) == expected
        # a fault in the first part still comes first
        first = text.replace("g0\t0\t", "g0\tx\t")
        assert _outcome(parse_matrix, "tsv", first)[1:] == (2, 2)
    _no_child_left()


def test_a_child_that_dies_leaves_every_outcome_unchanged(tmp_path):
    parent = os.getpid()
    real = pfclust.io.in_parts

    def dying(part, *args):
        def run(a, b):
            if os.getpid() != parent:
                os._exit(1)
            return part(a, b)
        return real(run, *args)

    texts = [TSV + "g3\t5\t6\ng4\t7\t8\n", TSV + "g3\t5\tx\n", TSV + "g3\t1_0\t6\n"]
    with _parts(3) as mp:
        expected = [_outcome(parse_matrix, "tsv", t) for t in texts]
        m = parse_matrix(texts[0], "tsv")
        written = _written(m)
        mp.setattr(pfclust.io, "in_parts", dying)
        assert [_outcome(parse_matrix, "tsv", t) for t in texts] == expected
        assert _written(m) == written
        write_tsv(m, tmp_path / "m.tsv")
        assert (tmp_path / "m.tsv").read_bytes() == written.encode()
    _no_child_left()


@pytest.mark.parametrize("dest", ["path", "text"])
def test_a_child_killed_after_sending_part_of_its_bytes_leaves_the_bytes_unchanged(
        tmp_path, dest):
    # each part's text (about 270 KB) overfills its pipe, so the first child
    # is still sending when the sink, past the parent's own part and one
    # 4 KiB read of the child's, kills it
    values = np.random.default_rng(0).normal(size=(3000, 12))
    m = ExpressionMatrix([f"g{i}" for i in range(3000)], [f"s{j}" for j in range(12)], values)
    written = _written(m)
    own = len("".join(written.splitlines(keepends=True)[1:1001]))
    parent, pids, made_here = os.getpid(), [], []
    real_fork, real_in_parts = os.fork, pfclust.io.in_parts

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    def killing(part, n_items, most, sink, block):
        got = 0

        def run(i, n):
            if os.getpid() == parent:
                made_here.append(i)
            return part(i, n)

        def kill_first_child(data):
            nonlocal got
            got += len(data)
            if own < got <= own + len(data):
                os.kill(pids[0], 9)
            sink(data)

        return real_in_parts(run, n_items, most, kill_first_child, block)

    with _parts(3) as mp:
        mp.setattr(pfclust._util.os, "fork", fork)
        mp.setattr(pfclust.io, "in_parts", killing)
        mp.setattr(pfclust.io, "_BLOCK", 4096)
        if dest == "path":
            write_tsv(m, tmp_path / "m.tsv")
            assert (tmp_path / "m.tsv").read_bytes() == written.encode()
        else:
            assert _written(m) == written
    # the first child's part and the one after it were made again here
    assert len(pids) == 2 and made_here == [0, 1, 2]
    _no_child_left()


def test_an_error_of_the_destination_is_raised_at_once():
    class Full(io.StringIO):
        calls = 0

        def write(self, text):
            self.calls += 1
            if self.calls > 1:
                raise OSError(28, "No space left on device")
            return super().write(text)

    m = ExpressionMatrix([f"g{i}" for i in range(30)], ["s1", "s2"], np.ones((30, 2)))
    handle = Full()
    with _parts(3), pytest.raises(OSError, match="No space left"):
        write_tsv(m, handle)
    # the header, then the first block: no part is made again to write it twice
    assert handle.calls == 2
    _no_child_left()


@pytest.mark.parametrize("where", ["first gene", "last gene", "sample"])
def test_a_lone_surrogate_is_refused_in_a_file_and_kept_in_a_text(tmp_path, where):
    genes, samples = [f"g{i}" for i in range(6)], ["s1", "s2"]
    if where == "sample":
        samples[1] = "s\udc80"
    else:
        genes[0 if where == "first gene" else -1] = "g\udc80"
    m = ExpressionMatrix(genes, samples, np.arange(12.0).reshape(6, 2))
    text = "\t".join(samples) + "\n" + "".join(
        f"{g}\t{2.0 * i}\t{2.0 * i + 1}\n" for i, g in enumerate(genes))
    for n in (1, 2, 3):
        with _parts(n):
            assert _written(m) == text
            with pytest.raises(UnicodeEncodeError) as caught:
                write_tsv(m, tmp_path / "m.tsv")
        assert caught.value.reason == "surrogates not allowed"
        assert caught.value.object[caught.value.start:caught.value.end] == "\udc80"
    _no_child_left()


def test_short_pipe_reads_cut_no_character_of_a_text():
    # with 1-byte blocks every pipe read of a child's part cuts a multi-byte
    # character, which the text handle must still receive whole
    genes = ["gé", "١٢", "g\U0001f600", "g\u20ac", "g4", "\u00e9\u00e9"]
    m = ExpressionMatrix(genes, ["s\u2603", "s2"], np.arange(12.0).reshape(6, 2) / 7)
    with _parts(1):
        text = _written(m)
    for n in (2, 3):
        with _parts(n) as mp:
            mp.setattr(pfclust.io, "_BLOCK", 1)
            assert _written(m) == text
    _no_child_left()


# line breaks of str.splitlines() other than "\n"
_BREAKS = ["\r\n", "\r", "\x0b", "\x85", "\u2028"]


@st.composite
def trap_files(draw):
    """A file drawn by matrix_texts, as (format, bytes), with the reader's traps
    drawn in: other line breaks ending lines or inside them, U+001F inside a
    line, empty and whitespace-only lines at the end, a BOM, and a byte that is
    not UTF-8 on the first or the last data line."""
    fmt, text = draw(matrix_texts())
    lines = text.split("\n")[:-1]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        i = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + draw(st.sampled_from(_BREAKS + ["\x1f"])) + lines[i][at:]
    first = {"tsv": 1, "gct": 3, "res": 3}[fmt]
    bad = draw(st.sampled_from([None, None, None, first, len(lines) - 1]))
    if bad is not None:  # "\udcff" is written as the byte 0xff
        at = draw(st.integers(0, len(lines[bad])))
        lines[bad] = lines[bad][:at] + "\udcff" + lines[bad][at:]
    ends = [draw(st.sampled_from(["\n"] * 4 + _BREAKS)) for _ in lines]
    tail = draw(st.sampled_from(["", "", "\n", "\n\n", "\r\n\r\n", "\u2028\n", "  \n",
                                 "\n \t\n"]))
    text = draw(st.sampled_from(["", "\ufeff"])) + "".join(map(str.__add__, lines, ends)) + tail
    return fmt, text.encode("utf-8", "surrogateescape")


@settings(max_examples=50, deadline=None)
@given(case=trap_files(), block=st.integers(1, 40))
@example(case=("tsv", b"s1\ts2\r\ng1\t1\t2\r\ng2\t3\t4\r\n\r\n"), block=5)
@example(case=("tsv", b"s1\ts2\ng1\t1\r\t2\ng2\t3\t4\r"), block=3)
@example(case=("tsv", "s1\ng1\t1\x0bg2\t2\x85g3\t3\u2028".encode()), block=2)
@example(case=("tsv", "s1\ng1\t1\u2028x\t2\ng2\t\x853\n".encode()), block=4)
@example(case=("tsv", b"s1\ng1\t1\ng2\t2\n\n\n\n"), block=1)
@example(case=("tsv", b"s1\ng1\t1\n\n\n\n\ng2\t2\n"), block=1)
@example(case=("tsv", b"s1\ng1\t1\n\ng2\t2\n"), block=6)
@example(case=("tsv", b"s1\rg0\t1\ng1\t2\n"), block=3)
@example(case=("tsv", b"s1\ng1\t1\n\t\ng2\t2\n"), block=3)
@example(case=("tsv", b"s1\ng1\t1\ng2\t2\n  \n"), block=3)
@example(case=("tsv", "\ufeffs1\ng1\t1\ng2\t2\n".encode()), block=2)
@example(case=("tsv", b"s1\ng1\t\xff1\ng2\tx\ng3\t3\n"), block=2)
@example(case=("tsv", b"s1\ng1\tx\ng2\t2\ng3\t3\xff\n"), block=2)
@example(case=("tsv", "s1\ts2\ng1\t1_0\t١٢\ng2\t７\t4\n".encode()), block=6)
@example(case=("tsv", b"s1\ng1\t1\ng2\t2\x1f\ng3\t3\n"), block=4)
@example(case=("tsv", b"s1\ng1\t1\ng2\t2\ng3\t3\ng4\t4\ng1\t5\n"), block=4)
@example(case=("gct", b"#1.2\r\n2\t1\r\nName\tDescription\ts1\r\ng1\td\t1\r\ng2\td\t2\r\n\r\n"),
         block=3)
@example(case=("gct", b"#1.2\n3\t1\nName\tDescription\ts1\ng1\td\t1\ng2\td\t2\n"), block=3)
@example(case=("res", "Description\tAccession\ts1\t\n\u2028\n2\nd\tg1\t1\tP\u2028"
                      "d\tg2\t2\tA\n\n".encode()), block=5)
@example(case=("res", b"Description\tAccession\ts1\t\n\n2\nd\tg1\t1_0\tP\nd\tg1\t2\tA\n"),
         block=2)
def test_blocks_and_parts_read_what_the_whole_text_gives(tmp_path_factory, case, block):
    fmt, data = case
    path = tmp_path_factory.mktemp("blocks") / "m"
    path.write_bytes(data)
    expected = _outcome(parse_matrix, fmt, data)
    if b"\xff" not in data:
        assert _outcome(_oracles.parse_matrix, fmt, data.decode("utf-8")) == expected
    for n in (1, 2, 3):
        with _parts(n) as mp:
            mp.setattr(pfclust.io, "_BLOCK", block)
            assert _outcome(lambda _, f: read_matrix(path, f), fmt, data) == expected
            assert _outcome(parse_matrix, fmt, data) == expected
    _no_child_left()


def test_read_peak_memory_is_bounded(tmp_path, monkeypatch):
    # the file's text is never held whole: one block of it, the values and
    # the matrix's own copy of them
    values = np.random.default_rng(0).normal(size=(5000, 50))
    path = tmp_path / "m.tsv"
    write_tsv(ExpressionMatrix([f"g{i}" for i in range(5000)],
                               [f"s{j}" for j in range(50)], values), path)
    monkeypatch.setattr(pfclust.io, "_BLOCK", 1 << 16)
    monkeypatch.setattr(pfclust._util, "usable_cpus", lambda: 1)
    tracemalloc.start()
    try:
        m = read_matrix(path, "tsv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.values.tobytes() == values.tobytes()
    assert peak < 2.5 * values.nbytes + 8 * pfclust.io._BLOCK


def test_parts_fork_without_a_warning():
    # Python 3.12+ warns on fork once a process has a second thread
    tasks = "/proc/self/task"
    if sys.version_info >= (3, 12) and os.path.isdir(tasks) and len(os.listdir(tasks)) > 1:
        pytest.skip("BLAS threads run already, so any fork warns")
    text = TSV + "g3\t5\t6\n"
    with _parts(3), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _written(parse_matrix(text, "tsv"))
    assert [str(w.message) for w in caught] == []


def _stat_cpu():
    with open("/proc/self/stat", "rb") as stat:
        return int(stat.read().rsplit(b")", 1)[1].split()[36])


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                    reason="needs Linux and two usable CPUs")
def test_a_forked_part_runs_on_another_cpu_than_its_parent():
    def where(a, b):
        return f"{os.getpid()} {_stat_cpu()} {sorted(os.sched_getaffinity(0))}".encode()

    with _parts(2):
        parent, child = [p.decode().split(" ", 2) for p in pfclust._util.in_parts(where, 2, 2)]
    assert parent[0] == str(os.getpid()) != child[0]
    assert child[1] != parent[1]
    assert child[2] == f"[{child[1]}]"
    _no_child_left()
