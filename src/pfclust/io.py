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
Python's ``float()`` does. It has two paths with one outcome.

The block path reads the body, everything after the header lines, in ranges
that start just after a ``\n``: byte ranges of a file (``read_matrix``, by
``os.pread``) or character ranges of a text (``parse_matrix``). Each range is
one ``_util.in_parts`` part: the first in the calling process, each other one
in a forked child. A part takes its range in blocks of about 256 KiB, each cut
just after its last ``\n``. For each block it decodes the bytes, splits the
lines, runs the structure pass (every line's field count, a non-empty id and
no U+001F in a value field, which numpy's C reader strips as whitespace
where ``float()`` refuses it) and converts the values with numpy's C text
reader (its ``quotechar`` option, numpy >= 1.23, is within the
``numpy>=1.24`` floor). So no process holds more than one block of text. The
cuts are safe: the byte 0x0A never occurs inside a multi-byte UTF-8
sequence, so each block decodes on its own, and as every block ends in
``\n`` (so ``\r\n`` is never split), ``str.splitlines`` of the blocks gives
exactly the lines it gives of the whole text, ``\x0b``, U+0085 and U+2028
breaks included. Only the empty lines that end the last part are dropped.

Any failure of the block path sends the read to the whole-text path, the
one fallback: a decode error, a structure fault, a blank line other than the
empty lines that end the file, a cell the C reader refuses, a non-finite
value, a failed part or dead child, a gct or res row count that does not
match, or values the matrix refuses. That path decodes the whole file at
once, so a byte that is not UTF-8 is reported before any fault of the text,
checks its lines and walks every row with ``float()``'s rule: it reads the
cells that only ``float()`` reads (``1_0``, non-ASCII digits), and names the
first fault in file order. Values must be finite; NaN or infinite cells are
rejected with their location rather than imputed, worded by the cell rule
the centroid reader also uses (``_util.bad_cell``).

``write_tsv`` formats a large matrix in row parts the same way
(``_util.in_parts``) and streams them: the calling process formats its own
rows in blocks of about 256 KiB and writes each block once it is made, then
copies each forked part's bytes from that part's pipe, a block at a time, in
row order. A forked part formats its whole range before it sends it, so the
parts run at once. If a part fails or a child dies, the calling process
formats the rows from that part on and writes them past the bytes already
written, so the bytes are always those of one process. A path gets the text
encoded once, as strict UTF-8; an open text handle gets it decoded again,
cut where no UTF-8 sequence is split.

A tsv file may have a binary companion beside it, its name plus ``.npy``
(``companion_path``), which ``write_companion`` writes: the SHA-256 of the
tsv file's exact bytes, then its values in numpy's ``.npy`` format (float64,
no pickle). ``read_matrix`` hashes the file a block at a time, and when that
digest matches and the companion holds a (rows, samples) array, the parts
run only the structure pass and the values come from the companion; the ids
come from the text and the ``ExpressionMatrix`` checks still run. Any other
companion (missing, stale, truncated, of another shape, or unreadable) is
ignored, and the text is parsed. Since ``write_tsv`` writes each value as its
shortest round-trip ``repr``, both paths give the same matrix bit for bit.
The tsv file stays the source of truth: a companion only saves re-parsing it.
"""

from __future__ import annotations

import codecs
import os
from pathlib import Path
from typing import IO, Callable, NamedTuple, Optional, Union

import numpy as np

from . import _util
from ._util import bad_cell, in_parts, opened
from .matrix import ExpressionMatrix

__all__ = [
    "ParseError", "parse_matrix", "read_matrix", "write_tsv", "sniff_format", "FORMATS",
    "companion_path", "write_companion",
]

FORMATS = ("tsv", "gct", "res")

# the header lines of each format, which the calling process reads
_HEAD = {"tsv": 1, "gct": 3, "res": 3}

# the text a part reads, decodes and converts at a time, cut after its last "\n"
# (256 KiB left less freed heap behind than 1 MiB at the same speed), and the
# text write_tsv formats and writes at a time
_BLOCK = 1 << 18
# the newline in a file's bytes and in a text
_NL = {bytes: b"\n", str: "\n"}

Source = Union[str, bytes, IO[str], IO[bytes]]
# read(a, b): the file's bytes, or the text's characters, from a to b
Read = Callable[[int, int], Union[str, bytes]]


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


def _check_format(format: str) -> None:
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")


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
    _check_format(format)
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, str):
        text = source
    else:
        raw = source.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    m = _read_blocks(lambda a, b: text[a:b], len(text), format)
    return m if m is not None else _parse_lines(text.splitlines(), format)


def read_matrix(path: str | Path, format: str = "tsv") -> ExpressionMatrix:
    """Read the matrix file at `path` in blocks (see the module docstring); a
    tsv file's values come from its companion when that matches. Raises
    OSError if the file cannot be read, UnicodeDecodeError if it is not
    UTF-8, and ParseError for the first fault of its text, as parse_matrix of
    its whole text does."""
    _check_format(format)
    with open(path, "rb") as handle:
        fd = handle.fileno()

        def read(a: int, b: int) -> bytes:
            data = os.pread(fd, b - a, a)
            if len(data) != b - a:
                raise OSError(f"{path} changed while it was read")
            return data

        end = os.fstat(fd).st_size
        m = _read_blocks(read, end, format, companion_path(path) if format == "tsv" else None)
    if m is not None:
        return m
    text = Path(path).read_bytes().decode("utf-8")
    return _parse_lines(text.splitlines(), format)


class _Layout(NamedTuple):
    """What a header says of the data lines: the sample ids, the id in field
    `id_col`, the values in fields `first::step`, the row count the header
    declares (None for tsv), and the names its walk errors use."""

    sample_ids: list[str]
    rows: Optional[int]
    id_col: int
    first: int
    step: int
    id_name: str
    fields: str

    @property
    def n_fields(self) -> int:
        return self.first + self.step * len(self.sample_ids)


def _header(head: list[str], format: str, n_lines: int) -> _Layout:
    """Check the header lines `head` of a text of `n_lines` lines."""
    if format == "tsv":
        sample_ids = head[0].split("\t")
        if any(not s for s in sample_ids):
            raise ParseError("empty sample id in header", 1)
        return _Layout(sample_ids, None, 0, 1, 1, "gene id", f"gene id + {len(sample_ids)} values")
    if format == "gct":
        if head[0].strip() != "#1.2":
            raise ParseError(f"unsupported GCT version marker {head[0]!r} (expected '#1.2')", 1)
        if n_lines < 3:
            raise ParseError("truncated GCT file: missing dimension or header line", n_lines)
        dims = head[1].split("\t")
        if len(dims) < 2:
            raise ParseError("dimension line must hold gene and sample counts", 2)
        try:
            n_genes, n_samples = int(dims[0]), int(dims[1])
        except ValueError:
            raise ParseError(f"non-integer dimensions {head[1]!r}", 2) from None
        header = head[2].split("\t")
        if len(header) < 2 or header[0].lower() != "name" or header[1].lower() != "description":
            raise ParseError("header must start with 'Name<TAB>Description'", 3)
        if len(header) - 2 != n_samples:
            raise ParseError(
                f"dimension line declares {n_samples} samples but header names "
                f"{len(header) - 2}",
                3,
            )
        return _Layout(header[2:], n_genes, 0, 2, 1, "gene name",
                       f"name, description, {n_samples} values")
    header = head[0].split("\t")
    if len(header) < 3:
        raise ParseError("header must hold two labels plus at least one sample id", 1)
    sample_ids = header[2::2]
    if any(not s for s in sample_ids):
        raise ParseError("empty sample id in header", 1)
    if n_lines < 4:
        raise ParseError("truncated RES file: missing count line or data rows", n_lines)
    # head[1] is the sample-description line and is intentionally skipped.
    try:
        n_genes = int(head[2].strip())
    except ValueError:
        raise ParseError(f"gene-count line must be an integer, found {head[2]!r}", 3) from None
    return _Layout(sample_ids, n_genes, 1, 2, 2, "accession",
                   f"description, accession and {len(sample_ids)} value/call pairs")


def _check_rows(format: str, layout: _Layout, n: int) -> None:
    """Refuse `n` data rows where the header declares another count, or none in a tsv file."""
    if layout.rows is None:
        if not n:
            raise ParseError("no data rows after the header", 1)
    elif n != layout.rows:
        what, line = ("dimension", 2) if format == "gct" else ("count", 3)
        raise ParseError(f"{what} line declares {layout.rows} data rows but file contains {n}",
                         line)


def _matrix(gene_ids: list[str], sample_ids: list[str], values: np.ndarray) -> ExpressionMatrix:
    try:
        return ExpressionMatrix._taking(gene_ids, sample_ids, values)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# ------------------------------------------------------------ whole-text path

def _parse_lines(lines: list[str], format: str) -> ExpressionMatrix:
    """The whole-text path: check the lines, then walk every data row, so the
    first fault in file order is the one named. The empty lines that end the
    file (an editor or ``echo >>`` may leave them) are dropped; a blank or
    whitespace-only line left in the data section is refused before any data
    line is read."""
    if not lines or all(not ln.strip() for ln in lines):
        raise ParseError("empty file")
    h = _HEAD[format]
    layout = _header(lines[:h], format, len(lines))
    end = len(lines)
    while end > h and not lines[end - 1]:
        end -= 1
    for i in range(h, end):
        if not lines[i].strip():
            raise ParseError("blank line inside data section", i + 1)
    _check_rows(format, layout, end - h)
    n_fields, id_col, first, step = layout.n_fields, layout.id_col, layout.first, layout.step
    gene_ids, values = [], np.empty((end - h, len(layout.sample_ids)))
    for i in range(h, end):
        fields = lines[i].split("\t")
        if len(fields) != n_fields:
            raise ParseError(f"expected {n_fields} fields ({layout.fields}), found {len(fields)}",
                             i + 1)
        if not fields[id_col]:
            raise ParseError(f"empty {layout.id_name}", i + 1, id_col + 1)
        gene_ids.append(fields[id_col])
        # a row of strings converts each cell as float() does
        cells = fields[first::step]
        try:
            values[i - h] = cells
            ok = np.isfinite(values[i - h]).all()
        except ValueError:
            ok = False
        if not ok:
            j, what = bad_cell(cells)
            raise ParseError(what, i + 1, first + 1 + step * j)
    return _matrix(gene_ids, layout.sample_ids, values)


# ----------------------------------------------------------------- block path

def _decode(piece: Union[str, bytes]) -> str:
    return piece if isinstance(piece, str) else piece.decode("utf-8")


def _line_end(read: Read, pos: int, end: int) -> int:
    """The position just after the first "\n" at or after `pos`, else `end`."""
    while pos < end:
        chunk = read(pos, min(pos + _BLOCK, end))
        k = chunk.find(_NL[type(chunk)])
        if k >= 0:
            return pos + k + 1
        pos += len(chunk)
    return end


def _blocks(read: Read, a: int, b: int):
    """[a, b) in consecutive blocks of about _BLOCK, each but the last cut just
    after its last "\n" (or its first, for a line longer than a block)."""
    while a < b:
        chunk = read(a, min(a + _BLOCK, b))
        if a + len(chunk) < b:
            k = chunk.rfind(_NL[type(chunk)]) + 1
            chunk = chunk[:k] if k else read(a, _line_end(read, a + len(chunk), b))
        yield chunk
        a += len(chunk)


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


def _part(read: Read, a: int, b: int, layout: _Layout, convert: bool) -> bytearray:
    """One part's rows, from [a, b) read a block at a time: the values' bytes
    (if `convert`), the ids joined by "\n", then the row count and the number
    of empty lines that end the range, 8 bytes each. Raises ValueError on a
    block the block path does not read."""
    n_fields, first, step = layout.n_fields, layout.first, layout.step
    out, ids, empty = bytearray(), [], 0
    for piece in _blocks(read, a, b):
        lines = _decode(piece).splitlines()
        n = rows = len(lines)
        while rows and not lines[rows - 1]:
            rows -= 1
        if not rows:
            empty += n
            continue
        del lines[rows:]
        got = _structure(lines, n_fields, layout.id_col, first)
        if empty or got is None or not all(ln.strip() for ln in lines):
            raise ValueError("a blank line or a structure fault")
        ids += got
        empty = n - rows
        if convert:
            out += np.loadtxt(lines, delimiter="\t", comments=None, quotechar=None,
                              usecols=range(first, n_fields, step), ndmin=2).data
    out += "\n".join(ids).encode("utf-8", "surrogatepass")
    out += len(ids).to_bytes(8, "little") + empty.to_bytes(8, "little")
    return out


def _gather(parts: list, n_samples: int, convert: bool) -> tuple[list[str], list[np.ndarray]]:
    """The parts' ids and (if `convert`) value arrays, in order. Raises
    ValueError where empty lines that end a part come before rows."""
    ids, arrays, ended = [], [], False
    while parts:  # each part's bytes are dropped once its arrays are taken
        data = memoryview(parts.pop(0))
        rows, empty = int.from_bytes(data[-16:-8], "little"), int.from_bytes(data[-8:], "little")
        if rows and ended:
            raise ValueError("an empty line before data")
        ended = ended or empty > 0
        size = 8 * rows * n_samples if convert else 0
        if rows:
            ids += str(data[size:-16], "utf-8", "surrogatepass").split("\n")
        if rows and convert:
            arrays.append(np.frombuffer(data[:size]).reshape(rows, n_samples))
    return ids, arrays


def _head(read: Read, end: int, format: str) -> Optional[tuple[list[str], int]]:
    """The header lines and the position of the body after them, if the text
    up to its _HEAD[format]-th "\n" splits into that many lines and a body
    follows; else None."""
    pos = 0
    for _ in range(_HEAD[format]):
        pos = _line_end(read, pos, end)
    head = _decode(read(0, pos)).splitlines()
    return (head, pos) if pos < end and len(head) == _HEAD[format] else None


def _read_blocks(read: Read, end: int, format: str,
                 companion: Optional[Path] = None) -> Optional[ExpressionMatrix]:
    """The block path: the matrix of the text that read(0, end) gives, or None
    for any failure, where the whole-text path must read it."""
    try:
        found = _head(read, end, format)
        if found is None:
            return None
        head, start = found
        layout = _header(head, format, len(head) + 1)  # the matrix needs a data line
        n_samples = len(layout.sample_ids)
        values = _from_companion(companion, read, start, end, n_samples) if companion else None
        convert = values is None

        def part(i: int, n: int) -> bytearray:
            a, b = (start if j == 0 else end if j == n else
                    _line_end(read, start + (end - start) * j // n - 1, end) for j in (i, i + 1))
            return _part(read, a, b, layout, convert)

        # the structure pass alone runs in one part: a fork costs more than it saves
        most = (end - start) // _util.PART_BYTES if convert else 1
        parts = in_parts(part, end - start, most)
        if parts is None:
            return None
        ids, arrays = _gather(parts, n_samples, convert)
        _check_rows(format, layout, len(ids))
        if convert:
            values = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        elif len(ids) != len(values):
            return None
        del arrays  # the parts' bytes go before the matrix checks the values
        return _matrix(ids, layout.sample_ids, values)
    except (OSError, ValueError):
        return None


def write_tsv(matrix: ExpressionMatrix, dest: Union[str, Path, IO[str]]) -> None:
    """Write a matrix in the tsv format; values round-trip bit-exactly. An id
    holding a tab or a break of str.splitlines(), the reader's line rule, is refused.

    Rows are formatted in row parts (``_util.in_parts``), each in blocks of
    about _BLOCK bytes, and streamed in row order (see the module docstring).
    A path is written in binary as strict UTF-8, so an id UTF-8 cannot
    encode (a lone surrogate) raises UnicodeEncodeError; an open text handle
    is given the text, decoded so that no UTF-8 sequence is cut."""
    for name in list(matrix.gene_ids) + list(matrix.sample_ids):
        if "\t" in name or len(f"{name}.".splitlines()) > 1:
            raise ValueError(f"id {name!r} contains a tab or newline and cannot be written")
    gene_ids, values = matrix.gene_ids, matrix.values
    binary = isinstance(dest, (str, Path))
    errors = "strict" if binary else "surrogatepass"

    def rows(i: int, n: int):
        lines, size = [], 0
        for g in range(len(gene_ids) * i // n, len(gene_ids) * (i + 1) // n):
            # repr is the shortest string that round-trips; a row at a time, as a
            # whole-matrix tolist() would hold a Python float per cell at once
            lines.append("\t".join((gene_ids[g], *map(repr, values[g].tolist()))) + "\n")
            size += len(lines[-1])
            if size >= _BLOCK:
                yield "".join(lines).encode("utf-8", errors)
                lines, size = [], 0
        if lines:
            yield "".join(lines).encode("utf-8", errors)

    with opened(dest, "wb" if binary else "w") as handle:
        header = "\t".join(matrix.sample_ids) + "\n"
        if binary:
            handle.write(header.encode("utf-8"))
            sink = handle.write
        else:
            handle.write(header)
            decode = codecs.getincrementaldecoder("utf-8")(errors).decode

            def sink(data: bytes) -> None:
                handle.write(decode(data))
        in_parts(rows, len(gene_ids), values.size // _util.PART_CELLS, sink, _BLOCK)


def companion_path(path: str | Path) -> Path:
    """The binary companion of the tsv file at `path`: its name plus ".npy"."""
    path = Path(path)
    return path.with_name(path.name + ".npy")


def write_companion(values: np.ndarray, tsv: str | Path,
                    dest: Union[str, Path, IO[bytes]]) -> None:
    """Write the companion of the tsv file at `tsv`, which holds `values`: the
    SHA-256 of that file's bytes, then `values` as a float64 .npy array
    (format 1.0, no pickle). The same file and values give the same bytes."""
    with open(tsv, "rb") as text:
        digest = _digest(lambda a, b: text.read(b - a), os.fstat(text.fileno()).st_size)
    with opened(dest, "wb") as handle:
        handle.write(digest)
        np.lib.format.write_array(handle, np.ascontiguousarray(values, dtype="<f8"),
                                  version=(1, 0), allow_pickle=False)


def _digest(read: Read, end: int) -> bytes:
    """The SHA-256 of read(0, end), hashed a block at a time."""
    # imported here, as hashlib loads OpenSSL (about 4 ms and 3.6 MiB of
    # RSS), which a read with no companion beside its file never needs
    import hashlib

    sha = hashlib.sha256()
    for a in range(0, end, _BLOCK):
        sha.update(read(a, min(a + _BLOCK, end)))
    return sha.digest()


def _from_companion(path: Path, read: Read, start: int, end: int,
                    n_samples: int) -> Optional[np.ndarray]:
    """The values in the companion at `path` if its digest is that of read(0,
    end) and it holds a float64 (rows, n_samples) array whose rows fit in the
    body, read(start, end) (a tsv row takes 2 * n_samples + 1 bytes or more);
    else None."""
    try:
        with open(path, "rb") as handle:
            if (handle.read(32) != _digest(read, end)
                    or np.lib.format.read_magic(handle) != (1, 0)):
                return None
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(handle)
            if (len(shape) != 2 or shape[1] != n_samples
                    or shape[0] * (2 * n_samples + 1) > end - start
                    or fortran_order or dtype != "<f8"):
                return None
            values = np.empty(shape, dtype="<f8")
            # exactly the array's bytes: a short read or a trailing byte is refused
            if handle.readinto(values) != values.nbytes or handle.read(1):
                return None
            return values
    except (OSError, ValueError):
        return None
