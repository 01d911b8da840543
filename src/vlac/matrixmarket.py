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

Every body is read in two tiers.  The first is one strict int64 kernel,
a piece of text at a time; the same bytes show that each data line holds
its number of integers: D+1 in a polynomial array, 3 or D+3 in a
coordinate body, while scalar array entries may take any layout.  A
coordinate body already in row-major order, as every file written here
is, is not sorted.  Only a body the kernel refuses goes to the second
tier, one checked line reader: ``int()`` on every token, so values past
int64 stay exact, and a malformed body raises the message of its first
faulty line.
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

    Only the header is walked line by line.  Every body is read in two
    tiers.  The first is one vectorised pass by a strict int64 kernel
    (``_piece_ints``), which for a polynomial or coordinate body also
    checks that each data line holds its number of integers.  Only what
    that kernel refuses, a token past int64 or a faulty line among other
    things, goes to the second: a checked line reader (``_read_lines``)
    that converts every token with ``int()`` and raises the Malformed
    naming the first faulty line.  Coordinate positions go through
    ``coordinate_order``, which sorts only a body not already row-major.
    """
    lines = _lines(text)
    first = next(lines, None)
    if first is None:
        raise Malformed("empty file")
    head = first[0].split()
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
        size, rest = line.split(), text[end:]
        break
    if size is None:
        raise Malformed("missing size line")
    if polydegree is not None and modulus is None:
        raise Malformed("polynomial entries need a modulus")
    if polydegree is not None and polydegree < 0:
        raise Malformed("polynomial degree bound must be nonnegative")
    if "%" in rest:  # comment lines hold no entries
        rest = "\n".join(_data_lines(rest.splitlines()))

    field = field_new(modulus) if modulus is not None else None
    wants = "rows cols nnz" if layout == "coordinate" else "rows cols"
    if len(size) != len(wants.split()):
        raise Malformed(f"{layout} size line wants {wants}")
    dims = [_int(t) for t in size]
    if min(dims) < 0:
        raise Malformed("negative size")
    read = _read_coordinate if layout == "coordinate" else _read_array
    return MatrixFile(read(*dims, rest, field, polydegree), modulus, polydegree, layout)


def _read_array(rows: int, cols: int, body: str, field: Optional[PrimeField], degree):
    if degree is not None:
        width = degree + 1
        flat = _ints(body, rows * cols, width).tolist()
        coeffs = [flat[k : k + width] for k in range(0, len(flat), width)]
        # array entries run down columns, per the format
        entries = [[Poly(field, coeffs[j * rows + i]) for j in range(cols)] for i in range(rows)]
        return PolyMatrix(field, entries)
    vals = _ints(body, rows * cols)
    # array entries run down columns, per the format
    cells = vals.reshape(cols, rows).T
    if field is None:
        return IntMatrix(cells)
    if vals.dtype == object:  # ints past int64 are reduced before the field's cast
        np.remainder(vals, field.p, out=vals)
    # DenseMatrix reduces the column-major view into a fresh C-ordered
    # array: one pass, no transposed copy first
    return DenseMatrix(field, cells)


def _read_coordinate(
    rows: int, cols: int, nnz: int, body: str, field: Optional[PrimeField], degree
):
    width = 3 if degree is None else degree + 3
    vals = _ints(body, nnz, width, (rows, cols))
    # each line is i j, then one value or degree + 1 coefficients
    i, j, v = vals[0::width] - 1, vals[1::width] - 1, vals[2::width]
    try:
        if field is not None and degree is None:
            return SparseMatrix.from_arrays(field, rows, cols, i, j, v)
        r, c, order = coordinate_order(rows, cols, i, j)
    except DimensionMismatch:
        # the checked reader names the first faulty line
        _read_lines(body, nnz, width, (rows, cols))
        raise AssertionError("a coordinate body the checked reader accepts was refused")
    if field is None:
        cells = np.zeros((rows, cols), dtype=v.dtype)
        cells[r, c] = v[order]
        return IntMatrix(cells)
    flat = vals.tolist()
    entries = [[Poly.zero(field)] * cols for _ in range(rows)]
    for a, b, k in zip(r.tolist(), c.tolist(), order.tolist()):
        entries[a][b] = Poly(field, flat[k * width + 2 : (k + 1) * width])
    return PolyMatrix(field, entries)


def _ints(text: str, count: int, width: Optional[int] = None, shape=None) -> np.ndarray:
    """The integers of text, count lines of width each, or count in any
    layout without a width: the kernel's read, or where it refuses the
    text, the checked reader's (see ``_read_lines``)."""
    vals = _int_values(text, count * (width or 1), width)
    return _read_lines(text, count, width, shape) if vals is None else vals


# Characters of body text read at a time: a read holds a few pieces' worth
# of temporaries, not the whole body's.
_PIECE_CHARS = 1 << 18


def _int_values(text: str, count: int, width: Optional[int] = None) -> Optional[np.ndarray]:
    """The whitespace-separated integers of text as one int64 array, read
    a piece at a time by ``_piece_ints``; with a width, every line that
    holds any must hold exactly width of them.  None when a piece is
    refused or the integers do not number count."""
    if count > (len(text) + 1) // 2:  # tokens are a character and a gap apart
        return None
    out = np.empty(count, dtype=np.int64)
    done = start = 0
    while start < len(text):
        # a piece ends just past a line break, so no token or line straddles two
        stop = text.find("\n", start + _PIECE_CHARS) + 1 or len(text)
        vals = _piece_ints(text[start:stop], width)
        if vals is None or done + len(vals) > count:
            return None
        out[done : done + len(vals)] = vals
        done += len(vals)
        start = stop
    return out if done == count else None


def _piece_ints(piece: str, width: Optional[int] = None) -> Optional[np.ndarray]:
    """The integers of piece as int64, read by one C-level call, or None
    unless piece holds only ASCII digits, the whitespace both ``str.split``
    and numpy skip, and signs that start a token and precede a digit, with
    no digit run past 18 (so every token fits int64), and, with a width,
    exactly width tokens on every line that holds one.

    These checks make ``np.fromstring`` agree with ``int()``: alone, it
    reads "- 5" as -5 and blank text as [0], and it saturates a token past
    int64 without an error.  Lines end where ``str.splitlines`` ends them:
    of the bytes let through, at \\n, \\r and \\r\\n, \\x0b and \\x0c."""
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
    if width is None:
        tokens = np.count_nonzero(digit[1:] > digit[:-1]) + int(digit[0])
    else:
        starts = np.flatnonzero(digit[1:] > digit[:-1]) + 1
        if digit[0]:
            starts = np.concatenate(([0], starts))
        tokens = len(starts)
        if tokens % width:
            return None
        # the number of line breaks before each token is its line's; \r\n
        # counts twice, which only skips a line number
        breaks = np.flatnonzero((b >= ord("\n")) & (b <= ord("\r")))
        line = np.searchsorted(breaks, starts).reshape(-1, width)
        # line numbers only rise, so each row of width tokens is one line when
        # its first and last agree, and a line of its own when the next row's
        # first differs
        if (line[:, 0] != line[:, -1]).any() or (line[1:, 0] == line[:-1, -1]).any():
            return None
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


def _read_lines(text: str, count: int, width: Optional[int], shape=None) -> np.ndarray:
    """The integers of text by ``int()``, as one array (see ``int_array``),
    or the Malformed of the first faulty line.  Without a width, text holds
    count integers in any layout; with one, count data lines of width
    integers each, the first two an entry's position inside shape when a
    coordinate shape is given."""
    if width is None:
        vals = [_int(t) for t in text.split()]  # the first bad token, else the count
        if len(vals) != count:
            raise Malformed(f"expected {count} values, found {len(vals)}")
        return int_array(vals)
    lines = _data_lines(text.splitlines())
    if len(lines) != count:
        what = "entry lines" if shape is None else "entries"
        raise Malformed(f"expected {count} {what}, found {len(lines)}")
    want = width if shape is None else width - 2
    vals, seen = [], set()
    for k, line in enumerate(lines, start=1):
        parts, where = line.split(), f"entry {k}"
        if shape is not None:
            if len(parts) < 2:
                raise Malformed(f"short coordinate line {line!r}")
            i, j = _int(parts[0]), _int(parts[1])
            if not (1 <= i <= shape[0] and 1 <= j <= shape[1]):
                raise Malformed(f"entry ({i},{j}) outside {shape[0]}x{shape[1]}")
            if (i, j) in seen:
                raise Malformed(f"duplicate entry ({i},{j})")
            seen.add((i, j))
            vals += (i, j)
            parts, where = parts[2:], f"entry ({i},{j})"
        if len(parts) != want:
            raise Malformed(f"{where}: expected {want} value(s), found {len(parts)}")
        vals += map(_int, parts)
    return int_array(vals)


def _int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise Malformed(f"bad integer {tok!r}")


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
    if d < m.max_degree:  # fewer coefficients would write a different matrix
        raise ValueError("degree bound below an actual entry degree")
    head = [
        "%%MatrixMarket matrix array integer general",
        f"%%modulus={m.field.p}",
        f"%%polydegree={d}",
        f"{m.rows} {m.cols}",
    ]
    # array entries run down columns, per the format
    entries = (m.entries[i][j] for j in range(m.cols) for i in range(m.rows))
    return _text(head, (" ".join(str(e.coeff(k)) for k in range(d + 1)) for e in entries))
