"""Matrix Market reading and writing.

Supported headers are ``matrix coordinate integer general`` and
``matrix array integer general``.  Real and complex files are refused:
every protocol here is exact, so floating-point entries have no meaning.

Two structured comment lines extend the format:

* ``%%modulus=P`` marks the entries as elements of GF(P); coordinate
  files become sparse matrices, array files dense ones.
* ``%%polydegree=D`` (together with a modulus) turns each entry into a
  polynomial given by D+1 coefficients, constant term first.  A
  coordinate line then reads ``i j c0 c1 ... cD``, and each array entry
  occupies one line of D+1 numbers.

Files without a modulus parse as arbitrary-precision integer matrices.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from .errors import DimensionMismatch, Malformed
from .ff import Poly, PrimeField, field_new
from .la import DenseMatrix, SparseMatrix, coordinate_order, int_array
from .lift import IntMatrix, PolyMatrix

Parsed = Union[DenseMatrix, SparseMatrix, IntMatrix, PolyMatrix]

# The line breaks of str.splitlines, so that lines end where a splitlines()
# of the whole text would end them.
_LINE_BREAK = re.compile("\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


@dataclass
class MatrixFile:
    matrix: Parsed
    modulus: Optional[int]
    polydegree: Optional[int]
    layout: str  # "coordinate" or "array"


def _tokens(line: str) -> list[str]:
    return line.split()


def _lines(text: str) -> Iterator[tuple[str, int]]:
    """Each line of text with the offset just past its break, found lazily."""
    start = 0
    for m in _LINE_BREAK.finditer(text):
        yield text[start : m.start()], m.end()
        start = m.end()
    if start < len(text):
        yield text[start:], len(text)


def _data_lines(lines: list[str]) -> list[str]:
    """The stripped lines that are neither blank nor comments."""
    return [s for s in map(str.strip, lines) if s and not s.startswith("%")]


def parse_matrix_market(text: str) -> MatrixFile:
    """Read a Matrix Market text.

    Only the header is walked line by line.  A body of scalar entries is
    read in one vectorised pass: an array body by a strict int64 kernel
    (``_piece_ints``), a coordinate body by one split; a token that kernel
    refuses or that does not fit int64 sends the body through ``str.split``
    and ``int()`` into exact Python ints.  A body that fails
    a check goes to the per-line checks, which raise the Malformed naming
    its first faulty line; polynomial entries are read by those lines.
    """
    lines = _lines(text)
    first = next(lines, None)
    if first is None:
        raise Malformed("empty file")
    head = _tokens(first[0])
    if len(head) != 5 or head[0] != "%%MatrixMarket":
        raise Malformed("missing MatrixMarket banner")
    obj, layout, entry_type, symmetry = (w.lower() for w in head[1:])
    if obj != "matrix":
        raise Malformed(f"unsupported object {obj!r}")
    if layout not in ("coordinate", "array"):
        raise Malformed(f"unsupported layout {layout!r}")
    if entry_type != "integer":
        raise Malformed(
            f"entry type {entry_type!r} not supported; exact protocols need integer data"
        )
    if symmetry != "general":
        raise Malformed(f"unsupported symmetry {symmetry!r}")

    modulus: Optional[int] = None
    polydegree: Optional[int] = None
    size = None
    for raw, end in lines:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("%"):
            if line.startswith("%%") and "=" in line:
                key, _, val = line[2:].partition("=")
                key = key.strip().lower()
                try:
                    num = int(val.strip())
                except ValueError:
                    raise Malformed(f"bad structured comment {line!r}")
                if key == "modulus":
                    modulus = num
                elif key == "polydegree":
                    polydegree = num
                # unknown structured comments are plain comments
            continue
        size, rest = _tokens(line), text[end:]
        break
    if size is None:
        raise Malformed("missing size line")
    if polydegree is not None and modulus is None:
        raise Malformed("polynomial entries need a modulus")
    if polydegree is not None and polydegree < 0:
        raise Malformed("polynomial degree bound must be nonnegative")

    field = field_new(modulus) if modulus is not None else None
    if layout == "coordinate":
        if len(size) != 3:
            raise Malformed("coordinate size line wants rows cols nnz")
        rows, cols, nnz = (_int(t) for t in size)
        if rows < 0 or cols < 0 or nnz < 0:
            raise Malformed("negative size")
        if polydegree is None:
            return MatrixFile(
                _read_coordinate(rows, cols, nnz, rest, field), modulus, None, "coordinate"
            )
        triples = _coordinate_entries(rows, cols, _coordinate_lines(nnz, rest), polydegree)
        entries = [[Poly.zero(field)] * cols for _ in range(rows)]
        for i, j, vals in triples:
            entries[i][j] = Poly(field, [v % field.p for v in vals])
        return MatrixFile(PolyMatrix(field, entries), modulus, polydegree, "coordinate")
    if len(size) != 2:
        raise Malformed("array size line wants rows cols")
    rows, cols = (_int(t) for t in size)
    if rows < 0 or cols < 0:
        raise Malformed("negative size")
    if polydegree is None:
        return MatrixFile(_read_array(rows, cols, rest, field), modulus, None, "array")
    return _parse_poly_array(rows, cols, _data_lines(rest.splitlines()), field, polydegree, modulus)


def _int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise Malformed(f"bad integer {tok!r}")


def _read_array(rows: int, cols: int, rest: str, field: Optional[PrimeField]):
    count = rows * cols
    if "%" in rest:  # comment lines hold no entries
        rest = "\n".join(_data_lines(rest.splitlines()))
    try:
        vals = _int_values(rest, count)
    except ValueError:
        tokens = rest.split()
        for tok in tokens:  # the first token that is not an integer, else the count
            _int(tok)
        raise Malformed(f"expected {count} values, found {len(tokens)}")
    # array entries run down columns, per the format
    cells = vals.reshape(cols, rows).T
    if field is None:
        return IntMatrix(np.ascontiguousarray(cells))
    if vals.dtype == object:  # ints past int64 are reduced before the field's cast
        np.remainder(vals, field.p, out=vals)
    # DenseMatrix reduces the column-major view into a fresh C-ordered
    # array: one pass, no transposed copy first
    return DenseMatrix(field, cells)


# Characters of body text read at a time: a read holds a few pieces' worth
# of temporaries, not the whole body's.
_PIECE_CHARS = 1 << 18


def _int_values(text: str, count: int) -> np.ndarray:
    """The whitespace-separated integers of text, which must number count,
    as one array (see ``int_array``).  Raises ValueError otherwise.

    Each piece goes through ``_piece_ints``; if it refuses one, the whole
    text takes the exact path, ``int_array`` over ``str.split``."""
    out = np.empty(count, dtype=np.int64)
    done = start = 0
    while start < len(text):
        # a piece ends just past a line break, so no token straddles two
        stop = text.find("\n", start + _PIECE_CHARS) + 1 or len(text)
        vals = _piece_ints(text[start:stop])
        if vals is None:
            vals = int_array(text.split())
            if len(vals) != count:
                raise ValueError(f"{len(vals)} values for {count}")
            return vals
        if done + len(vals) > count:
            raise ValueError(f"more than {count} values")
        out[done : done + len(vals)] = vals
        done += len(vals)
        start = stop
    if done != count:
        raise ValueError(f"{done} values for {count}")
    return out


def _piece_ints(piece: str) -> Optional[np.ndarray]:
    """The integers of piece as int64, read by one C-level call, or None
    unless piece holds only ASCII digits, the whitespace both ``str.split``
    and numpy skip, and signs that start a token and precede a digit, with
    no digit run past 18 (so every token fits int64).

    These checks make ``np.fromstring`` agree with ``int()``: alone, it
    reads "- 5" as -5 and blank text as [0], and it saturates a token past
    int64 without an error."""
    if not piece.isascii():
        return None
    raw = piece.encode("ascii")
    if raw.translate(None, b"0123456789+- \t\n\r\x0b\x0c"):
        return None
    b = np.frombuffer(raw, dtype=np.uint8)
    digit = b >= ord("0")  # digits are the only bytes left that high
    if b"+" in raw or b"-" in raw:
        at = np.flatnonzero((b == ord("+")) | (b == ord("-")))
        if at[-1] + 1 == len(b) or not digit[at + 1].all():
            return None
        if not (b[at[at > 0] - 1] <= ord(" ")).all():  # whitespace before
            return None
    run = digit
    for shift in (1, 2, 4, 8, 3):  # True where 2, 4, 8, 16, then 19 digits start
        run = run[shift:] & run[:-shift]
    if run.any():
        return None
    tokens = np.count_nonzero(digit[1:] > digit[:-1]) + int(digit[0])
    if not tokens:
        return np.empty(0, dtype=np.int64)
    try:
        with warnings.catch_warnings():
            # numpy 1.x warns on a partial read where 2.x raises
            warnings.simplefilter("error")
            vals = np.fromstring(piece, dtype=np.int64, sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    return vals if len(vals) == tokens else None


def _read_coordinate(rows: int, cols: int, nnz: int, rest: str, field: Optional[PrimeField]):
    lines = rest.splitlines()
    if "%" in rest or len(lines) != nnz:  # comment or blank lines
        lines = _data_lines(lines)
    try:
        i, j, v = _coordinate_columns(nnz, lines)
        if field is not None:
            return SparseMatrix.from_arrays(field, rows, cols, i - 1, j - 1, v)
        r, c, order = coordinate_order(rows, cols, i - 1, j - 1)
    except (ValueError, DimensionMismatch):
        # the per-line checks name the first faulty line
        _coordinate_entries(rows, cols, _coordinate_lines(nnz, rest), None)
        raise AssertionError("a coordinate body the per-line checks accept was refused")
    cells = np.zeros((rows, cols), dtype=v.dtype)
    cells[r, c] = v[order]
    return IntMatrix(cells)


def _coordinate_columns(nnz: int, lines: list[str]) -> np.ndarray:
    """Columns i, j, v of nnz lines of three integers each; ValueError when
    the lines are not that."""
    if len(lines) != nnz:
        raise ValueError(f"{len(lines)} lines for {nnz} entries")
    # '%' is never part of an entry, so it can mark each line's end
    tokens = " % ".join(lines + [""]).split()
    if len(tokens) != 4 * nnz or tokens[3::4].count("%") != nnz:
        raise ValueError("a line does not hold i j v")
    del tokens[3::4]
    return int_array(tokens).reshape(nnz, 3).T


def _coordinate_lines(nnz: int, rest: str) -> list[str]:
    body = _data_lines(rest.splitlines())
    if len(body) != nnz:
        raise Malformed(f"expected {nnz} entries, found {len(body)}")
    return body


def _entry_tokens(parts: list[str], polydegree: Optional[int], where: str) -> list[int]:
    want = 1 if polydegree is None else polydegree + 1
    if len(parts) != want:
        raise Malformed(f"{where}: expected {want} value(s), found {len(parts)}")
    return [_int(t) for t in parts]


def _coordinate_entries(rows, cols, body, polydegree) -> list:
    """Checked (i, j, values) of each line, 0-based; raises the Malformed
    of the first faulty line."""
    triples = []
    seen = set()
    for line in body:
        parts = _tokens(line)
        if len(parts) < 2:
            raise Malformed(f"short coordinate line {line!r}")
        i, j = _int(parts[0]), _int(parts[1])
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise Malformed(f"entry ({i},{j}) outside {rows}x{cols}")
        if (i, j) in seen:
            raise Malformed(f"duplicate entry ({i},{j})")
        seen.add((i, j))
        vals = _entry_tokens(parts[2:], polydegree, f"entry ({i},{j})")
        triples.append((i - 1, j - 1, vals))
    return triples


def _parse_poly_array(rows, cols, body, field, polydegree, modulus) -> MatrixFile:
    count = rows * cols
    if len(body) != count:
        raise Malformed(f"expected {count} entry lines, found {len(body)}")
    flat = []
    for k, line in enumerate(body):
        coeffs = _entry_tokens(_tokens(line), polydegree, f"entry {k + 1}")
        flat.append(Poly(field, [v % field.p for v in coeffs]))
    # array entries run down columns, per the format
    entries = [[flat[j * rows + i] for j in range(cols)] for i in range(rows)]
    return MatrixFile(PolyMatrix(field, entries), modulus, polydegree, "array")


# -- writers -------------------------------------------------------------------


def _text(head: list[str], lines) -> str:
    return "\n".join([*head, *lines]) + "\n"


def _column_major(a: np.ndarray):
    # array entries run down columns, per the format
    return map(str, a.T.ravel().tolist())


def write_dense(m: DenseMatrix) -> str:
    head = [
        "%%MatrixMarket matrix array integer general",
        f"%%modulus={m.field.p}",
        f"{m.rows} {m.cols}",
    ]
    return _text(head, _column_major(m.a))


def write_sparse(m: SparseMatrix) -> str:
    head = [
        "%%MatrixMarket matrix coordinate integer general",
        f"%%modulus={m.field.p}",
        f"{m.rows} {m.cols} {m.nnz}",
    ]
    rows, cols = (m.ri + 1).tolist(), (m.ci + 1).tolist()
    return _text(head, map("{} {} {}".format, rows, cols, m.vals.tolist()))


def write_int(m: IntMatrix) -> str:
    head = [
        "%%MatrixMarket matrix array integer general",
        f"{m.rows} {m.cols}",
    ]
    return _text(head, _column_major(m.a))


def write_poly(m: PolyMatrix, deg_bound: Optional[int] = None) -> str:
    d = m.max_degree if deg_bound is None else deg_bound
    out = [
        "%%MatrixMarket matrix array integer general",
        f"%%modulus={m.field.p}",
        f"%%polydegree={d}",
        f"{m.rows} {m.cols}",
    ]
    for j in range(m.cols):
        for i in range(m.rows):
            e = m.entries[i][j]
            coeffs = [e.coeff(k) for k in range(d + 1)]
            out.append(" ".join(str(c) for c in coeffs))
    return "\n".join(out) + "\n"
