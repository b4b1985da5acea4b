"""Reading and writing expression matrices.

Three tab-delimited input formats are supported:

* ``tsv``  -- line 1 holds the sample ids; every following line is a gene id
  plus one numeric field per sample.
* ``gct``  -- line 1 is the version marker ``#1.2``; line 2 is
  ``<n_genes><TAB><n_samples>``; line 3 is ``Name<TAB>Description`` followed
  by the sample ids; data rows carry name, description and the numeric
  fields. The description column is ignored.
* ``res``  -- line 1 interleaves sample ids with per-sample call columns
  after two leading header labels; line 2 is a description line (skipped);
  line 3 declares the gene count; data rows are description, accession and
  value/call pairs. Call columns are ignored and the accession is used as
  the gene id.

One reader builds the matrix for all three formats, and reads each cell as
Python's ``float()`` does. It has two paths with one outcome: numpy's C text
reader converts a well-formed body in one pass (its ``quotechar`` option,
numpy >= 1.23, is within the ``numpy>=1.24`` floor), and any other body is
walked row by row. The C reader runs only after a structure pass has checked
every line's field count and id, and only on bodies whose value fields hold
no U+001F, which it strips as whitespace where ``float()`` refuses it (an id
it does not convert may hold one). The walk reads the cells that only
``float()`` reads (``1_0``, non-ASCII digits) and names the first fault in
file order. Values must be finite; NaN or infinite cells are rejected with
their location rather than imputed, worded by the cell rule the centroid
reader also uses (``_util.bad_cell``).

A tsv file may have a binary companion beside it, its name plus ``.npy``
(``companion_path``), which ``write_companion`` writes: the SHA-256 of the
tsv file's exact bytes, then its values in numpy's ``.npy`` format (float64,
no pickle). ``read_tsv_file`` takes the values from it in place of the text
parse only when its digest is that of the bytes read and its shape is the
(rows, samples) that the structure pass finds in the text; the ids come from
the text and the ``ExpressionMatrix`` checks still run. Any other companion
(missing, stale, truncated, of another shape, or unreadable) is ignored, and
the text is parsed. Since ``write_tsv`` writes each value as its shortest
round-trip ``repr``, both paths give the same matrix bit for bit. The tsv
file stays the source of truth: a companion only saves re-parsing it.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Union

import numpy as np

from ._util import bad_cell, opened
from .matrix import ExpressionMatrix

__all__ = [
    "ParseError", "parse_matrix", "write_tsv", "sniff_format", "FORMATS",
    "companion_path", "write_companion", "read_tsv_file",
]

FORMATS = ("tsv", "gct", "res")

Source = Union[str, bytes, IO[str], IO[bytes]]


class ParseError(ValueError):
    """A malformed matrix file; carries the 1-based line (and column) at fault."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


def sniff_format(path: str | Path) -> str:
    """Pick a format from the file extension; anything unrecognized is tsv."""
    suffix = Path(path).suffix.lower()
    if suffix == ".gct":
        return "gct"
    if suffix == ".res":
        return "res"
    return "tsv"


def _read_lines(source: Source) -> list[str]:
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, str):
        text = source
    else:
        raw = source.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    # Trailing newline at EOF does not count as an extra (empty) line.
    return text.splitlines()


def parse_matrix(source: Source, format: str = "tsv") -> ExpressionMatrix:
    """Parse a matrix from a string, bytes, or open file.

    Parameters
    ----------
    source : str, bytes or file object
        The raw file content (text is assumed UTF-8).
    format : {"tsv", "gct", "res"}
        Which grammar to apply.

    Raises
    ------
    ParseError
        On empty input, header/body dimension mismatches, duplicate gene
        ids, or non-numeric cells; the message names the offending line
        and column.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    lines = _read_lines(source)
    if not lines or all(not ln.strip() for ln in lines):
        raise ParseError("empty file")
    if format == "tsv":
        return _parse_tsv(lines)
    if format == "gct":
        return _parse_gct(lines)
    return _parse_res(lines)


def _read_body(
    rows: list[tuple[int, str]], sample_ids: list[str], id_col: int, id_name: str,
    first: int, step: int, layout: str,
) -> ExpressionMatrix:
    """Build the matrix from numbered data lines with the id in field `id_col`
    and the values in fields `first::step`.

    Two paths give one outcome. A structure pass checks every line's tab
    count (before taking ids, as a short line has no id field), its id, and
    that its fields from `first` on hold no U+001F, which numpy's C reader
    strips as whitespace and float() refuses (an id, never converted, may).
    The C reader (whose ``quotechar`` needs numpy >= 1.23) then converts the
    whole body in one pass. If a check fails, the reader refuses a cell or a
    value is not finite, the rows are walked one by one: assigning a row of
    strings converts each cell as float() does (so ``1_0`` and non-ASCII
    digits, which the C reader refuses, are read), and `bad_cell` names the
    first bad cell in file order with its line and column.
    """
    n_samples = len(sample_ids)
    n_fields = first + step * n_samples
    lines = [line for _, line in rows]
    gene_ids, values = _structure(lines, n_fields, id_col, first), None
    if gene_ids is not None:
        try:
            values = np.loadtxt(lines, delimiter="\t", comments=None, quotechar=None,
                                usecols=range(first, n_fields, step), ndmin=2)
        except ValueError:
            pass
    if values is None or values.shape != (len(rows), n_samples) or not np.isfinite(values).all():
        gene_ids, values = [], np.empty((len(rows), n_samples))
        for i, (line_no, line) in enumerate(rows):
            if not line:
                raise ParseError("blank line inside data section", line_no)
            fields = line.split("\t")
            if len(fields) != n_fields:
                raise ParseError(
                    f"expected {n_fields} fields ({layout}), found {len(fields)}", line_no
                )
            if not fields[id_col]:
                raise ParseError(f"empty {id_name}", line_no, id_col + 1)
            gene_ids.append(fields[id_col])
            cells = fields[first::step]
            try:
                values[i] = cells
                ok = np.isfinite(values[i]).all()
            except ValueError:
                ok = False
            if not ok:
                j, what = bad_cell(cells)
                raise ParseError(what, line_no, first + 1 + step * j)
    try:
        return ExpressionMatrix(tuple(gene_ids), tuple(sample_ids), values)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _structure(lines: list[str], n_fields: int, id_col: int, first: int) -> list[str] | None:
    """The structure pass: the ids in field `id_col` if every line has `n_fields`
    fields (counted first, as a short line has no id field), a non-empty id
    and no U+001F from field `first` on; else None."""
    if lines and all(ln.count("\t") == n_fields - 1 for ln in lines):
        ids = [ln.split("\t", id_col + 1)[id_col] for ln in lines]
        if all(ids) and not any("\x1f" in ln and "\x1f" in ln.split("\t", first)[first]
                                for ln in lines):
            return ids
    return None


def _parse_tsv(lines: list[str]) -> ExpressionMatrix:
    sample_ids = lines[0].split("\t")
    if any(not s for s in sample_ids):
        raise ParseError("empty sample id in header", 1)
    if len(lines) < 2:
        raise ParseError("no data rows after the header", 1)
    return _read_body(list(enumerate(lines[1:], start=2)), sample_ids, 0, "gene id", 1, 1,
                      f"gene id + {len(sample_ids)} values")


def _parse_gct(lines: list[str]) -> ExpressionMatrix:
    if lines[0].strip() != "#1.2":
        raise ParseError(f"unsupported GCT version marker {lines[0]!r} (expected '#1.2')", 1)
    if len(lines) < 3:
        raise ParseError("truncated GCT file: missing dimension or header line", len(lines))
    dims = lines[1].split("\t")
    if len(dims) < 2:
        raise ParseError("dimension line must hold gene and sample counts", 2)
    try:
        n_genes, n_samples = int(dims[0]), int(dims[1])
    except ValueError:
        raise ParseError(f"non-integer dimensions {lines[1]!r}", 2) from None
    header = lines[2].split("\t")
    if len(header) < 2 or header[0].lower() != "name" or header[1].lower() != "description":
        raise ParseError("header must start with 'Name<TAB>Description'", 3)
    sample_ids = header[2:]
    if len(sample_ids) != n_samples:
        raise ParseError(
            f"dimension line declares {n_samples} samples but header names "
            f"{len(sample_ids)}",
            3,
        )
    data_lines = [(no, ln) for no, ln in enumerate(lines[3:], start=4) if ln.strip()]
    if len(data_lines) != n_genes:
        raise ParseError(
            f"dimension line declares {n_genes} data rows but file contains "
            f"{len(data_lines)}",
            2,
        )
    return _read_body(data_lines, sample_ids, 0, "gene name", 2, 1,
                      f"name, description, {n_samples} values")


def _parse_res(lines: list[str]) -> ExpressionMatrix:
    header = lines[0].split("\t")
    if len(header) < 3:
        raise ParseError("header must hold two labels plus at least one sample id", 1)
    rest = header[2:]
    sample_ids = rest[0::2]
    if any(not s for s in sample_ids):
        raise ParseError("empty sample id in header", 1)
    n_samples = len(sample_ids)
    if len(lines) < 4:
        raise ParseError("truncated RES file: missing count line or data rows", len(lines))
    # lines[1] is the sample-description line and is intentionally skipped.
    try:
        n_genes = int(lines[2].strip())
    except ValueError:
        raise ParseError(f"gene-count line must be an integer, found {lines[2]!r}", 3) from None
    data_lines = [(no, ln) for no, ln in enumerate(lines[3:], start=4) if ln.strip()]
    if len(data_lines) != n_genes:
        raise ParseError(
            f"count line declares {n_genes} data rows but file contains {len(data_lines)}",
            3,
        )
    return _read_body(data_lines, sample_ids, 1, "accession", 2, 2,
                      f"description, accession and {n_samples} value/call pairs")


def write_tsv(matrix: ExpressionMatrix, dest: Union[str, Path, IO[str]]) -> None:
    """Write a matrix in the tsv format; values round-trip bit-exactly. An id
    holding a tab or a break of str.splitlines(), the reader's line rule, is refused."""
    for name in list(matrix.gene_ids) + list(matrix.sample_ids):
        if "\t" in name or len(f"{name}.".splitlines()) > 1:
            raise ValueError(f"id {name!r} contains a tab or newline and cannot be written")
    lines = ["\t".join(matrix.sample_ids)]
    # repr of a Python float is the shortest string that round-trips exactly;
    # rows are converted one at a time, as a whole-matrix tolist() would hold
    # a Python float per cell at once
    for gene_id, row in zip(matrix.gene_ids, matrix.values):
        lines.append(gene_id + "\t" + "\t".join(map(repr, row.tolist())))
    with opened(dest) as handle:
        handle.write("\n".join(lines) + "\n")


def companion_path(path: str | Path) -> Path:
    """The binary companion of the tsv file at `path`: its name plus ".npy"."""
    path = Path(path)
    return path.with_name(path.name + ".npy")


def _sha256(data: bytes) -> bytes:
    # imported here, as hashlib loads OpenSSL (about 4 ms and 3.6 MiB of
    # RSS), which a read with no companion beside its file never needs
    import hashlib

    return hashlib.sha256(data).digest()


def write_companion(values: np.ndarray, tsv: str | Path,
                    dest: Union[str, Path, IO[bytes]]) -> None:
    """Write the companion of the tsv file at `tsv`, which holds `values`: the
    SHA-256 of that file's bytes, then `values` as a float64 .npy array
    (format 1.0, no pickle). The same file and values give the same bytes."""
    digest = _sha256(Path(tsv).read_bytes())
    with opened(dest, "wb") as handle:
        handle.write(digest)
        np.lib.format.write_array(handle, np.ascontiguousarray(values, dtype="<f8"),
                                  version=(1, 0), allow_pickle=False)


def read_tsv_file(path: str | Path) -> tuple[str, ExpressionMatrix | None]:
    """The UTF-8 text of the tsv file at `path`, read as bytes once (an OSError
    or a decoding error is raised), and its matrix from the companion beside
    it when that matches (see the module docstring), else None. None also
    for a text that fails the structure pass or values the matrix refuses:
    parse_matrix(text) then reads the file and names the fault."""
    data = Path(path).read_bytes()
    text = data.decode("utf-8")
    try:
        handle = open(companion_path(path), "rb")
    except OSError:
        return text, None
    with handle:
        digest = _sha256(data)
        del data  # the text alone is held from here on, as a parse holds it
        return text, _from_companion(handle, digest, text)


def _from_companion(handle: IO[bytes], digest: bytes, text: str) -> ExpressionMatrix | None:
    try:
        if handle.read(len(digest)) != digest:
            return None
        lines = text.splitlines()
        sample_ids = lines[0].split("\t") if lines else []
        gene_ids = _structure(lines[1:], 1 + len(sample_ids), 0, 1)
        if gene_ids is None or not all(sample_ids):
            return None
        if np.lib.format.read_magic(handle) != (1, 0):
            return None
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(handle)
        if shape != (len(gene_ids), len(sample_ids)) or fortran_order or dtype != "<f8":
            return None
        values = np.empty(shape, dtype="<f8")
        # exactly the array's bytes: a short read or a trailing byte is refused
        if handle.readinto(values) != values.nbytes or handle.read(1):
            return None
        return ExpressionMatrix(tuple(gene_ids), tuple(sample_ids), values)
    except (OSError, ValueError):
        return None
