"""Matrix Market files: exact reject messages, the accepted token and line
forms, writer output, and writer -> parser round trips.

``reference_parse`` is a per-line reader kept as the reference for the
vectorised one: on every generated input, both must give the same matrix
or raise the same ``Malformed`` message.
"""

import tracemalloc
from random import Random

import numpy as np
import pytest

from vlac import matrixmarket
from vlac.errors import Malformed
from vlac.ff import field_new
from vlac.la import DenseMatrix, SparseMatrix
from vlac.lift import IntMatrix
from vlac.matrixmarket import (
    parse_matrix_market,
    write_dense,
    write_int,
    write_sparse,
)

P_WORD = 3037000493  # largest prime whose products (p-1)^2 fit int64
P_BIG = 3037000507  # first prime past it: object dtype

ARRAY = "%%MatrixMarket matrix array integer general\n"
COORD = "%%MatrixMarket matrix coordinate integer general\n"


# -- exact reject messages ------------------------------------------------------


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty file"),
        ("%%MatrixMarket vector array integer general\n1 1\n0\n", "unsupported object 'vector'"),
        (
            "%%MatrixMarket matrix array real general\n1 1\n0.5\n",
            "entry type 'real' not supported; exact protocols need integer data",
        ),
        ("%%MatrixMarket matrix array integer symmetric\n1 1\n0\n", "unsupported symmetry 'symmetric'"),
        (COORD + "%%modulus=7\n2 2 2\n1 1 3\n1 1 4\n", "duplicate entry (1,1)"),
        (COORD + "%%modulus=7\n2 2 1\n3 1 3\n", "entry (3,1) outside 2x2"),
        (ARRAY + "%%modulus=7\n2 2\n1 2 3\n", "expected 4 values, found 3"),
        (ARRAY + "%%polydegree=1\n1 1\n1 1\n", "polynomial entries need a modulus"),
        # a bad token, in each layout
        (ARRAY + "%%modulus=7\n2 1\n1\n0x10\n", "bad integer '0x10'"),
        (ARRAY + "2 1\n1e3\n2\n", "bad integer '1e3'"),
        (COORD + "%%modulus=7\n2 2 1\n1 1 1.0\n", "bad integer '1.0'"),
        (COORD + "2 2 1\nx 1 1\n", "bad integer 'x'"),
        # the first bad token wins over a wrong count
        (ARRAY + "%%modulus=7\n2 2\n1\n2\nq\n", "bad integer 'q'"),
        # a short coordinate line
        (COORD + "%%modulus=7\n2 2 1\n1\n", "short coordinate line '1'"),
        # lines of 2 and 4 tokens, 3 * nnz in total
        (COORD + "%%modulus=7\n2 2 2\n1 1\n2 2 5 6\n", "entry (1,1): expected 1 value(s), found 0"),
        (COORD + "%%modulus=7\n2 2 2\n1 1 5 6\n2 2\n", "entry (1,1): expected 1 value(s), found 2"),
        # value and line counts
        (ARRAY + "%%modulus=7\n2 2\n1 2 3 4 5\n", "expected 4 values, found 5"),
        (ARRAY + "1 2\n", "expected 2 values, found 0"),
        (COORD + "%%modulus=7\n2 2 2\n1 1 5\n", "expected 2 entries, found 1"),
        (COORD + "2 2 0\n1 1 5\n", "expected 0 entries, found 1"),
        # a '%' inside a data line is not a comment
        (COORD + "%%modulus=7\n2 2 2\n1 1 5 % 2 2 6\n", "expected 2 entries, found 1"),
        (COORD + "%%modulus=7\n2 2 1\n1 1 5 %\n", "entry (1,1): expected 1 value(s), found 2"),
        (ARRAY + "%%modulus=7\n1 2\n5 %6\n", "bad integer '%6'"),
        # a sign int() refuses, which a bare np.fromstring would read as -5
        (ARRAY + "%%modulus=7\n2 1\n- 5 6\n", "bad integer '-'"),
        # the first faulty line, in file order, names the fault
        (COORD + "%%modulus=7\n2 2 3\n1 1 5\n3 3 1\n1 1 4\n", "entry (3,3) outside 2x2"),
        (COORD + "%%modulus=7\n2 2 3\n1 1 5\n1 1 1\n3 3 4\n", "duplicate entry (1,1)"),
        (COORD + "%%modulus=7\n2 2 2\n1 1 z\n1 1 4\n", "bad integer 'z'"),
        (COORD + "2 2 2\n2 2 1\n0 1 4\n", "entry (0,1) outside 2x2"),
        # header faults
        (ARRAY + "%%modulus=7\n", "missing size line"),
        (ARRAY + "%%modulus=x\n1 1\n1\n", "bad structured comment '%%modulus=x'"),
        (ARRAY + "1 1 1\n1\n", "array size line wants rows cols"),
        (COORD + "1 1\n", "coordinate size line wants rows cols nnz"),
        (ARRAY + "-1 1\n", "negative size"),
        (COORD + "1 1 -1\n", "negative size"),
        (ARRAY + "1 y\n1\n", "bad integer 'y'"),
        ("%%MatrixMarket matrix\n", "missing MatrixMarket banner"),
    ],
)
def test_reject_message_is_exact(text, message):
    with pytest.raises(Malformed) as info:
        parse_matrix_market(text)
    assert str(info.value) == message


# -- accepted forms -----------------------------------------------------------------


def dense_cells(text):
    return parse_matrix_market(text).matrix.a.tolist()


def test_comment_and_blank_lines_inside_the_body():
    text = ARRAY + "%%modulus=101\n% size next\n\n2 2\n1\n% a comment\n\n  \n2\n\t\n3\n  % indented\n4\n"
    assert dense_cells(text) == [[1, 3], [2, 4]]
    text = COORD + "%%modulus=101\n3 3 2\n\n1 1 5\n% between\n   \n3 2 -1\n%%modulus=7\n"
    assert sorted(parse_matrix_market(text).matrix.triples()) == [(0, 0, 5), (2, 1, 100)]


@pytest.mark.parametrize("newline", ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
def test_line_breaks_of_splitlines(newline):
    text = (ARRAY + "%%modulus=101\n2 1\n7\n8\n").replace("\n", newline)
    assert dense_cells(text) == [[7], [8]]
    text = (COORD + "%%modulus=101\n2 2 2\n1 1 5\n2 2 6\n").replace("\n", newline)
    assert sorted(parse_matrix_market(text).matrix.triples()) == [(0, 0, 5), (1, 1, 6)]


def test_tokens_accepted_and_refused_like_int():
    # int() and a vectorised int64 conversion agree on every one of these
    good = {"1_0": 10, "+3": 3, "٣": 3, "00012": 12, "-0": 0, "٣٤": 34}
    for tok, val in good.items():
        assert int(tok) == val
        assert int(np.array([tok], dtype=np.int64)[0]) == val
        assert parse_matrix_market(ARRAY + f"1 1\n{tok}\n").matrix.a.tolist() == [[val]]
    for tok in ["0x10", "1e3", "1.0", "0b1", "1__0", "_1", "+-1", "inf", "²"]:
        with pytest.raises(ValueError):
            int(tok)
        with pytest.raises(ValueError):
            np.array([tok], dtype=np.int64)
        with pytest.raises(Malformed, match="bad integer"):
            parse_matrix_market(ARRAY + f"1 1\n{tok}\n")
    with pytest.raises(OverflowError):
        np.array([str(2**63)], dtype=np.int64)


def test_integer_entries_past_int64_stay_exact():
    big = [2**63, -(2**63) - 1, 10**40, -7]
    text = ARRAY + "2 2\n" + "\n".join(map(str, big)) + "\n"
    m = parse_matrix_market(text).matrix
    assert isinstance(m, IntMatrix)
    assert m.a.tolist() == [[2**63, 10**40], [-(2**63) - 1, -7]]
    text = COORD + "2 2 2\n1 2 " + str(10**30) + "\n2 1 -1\n"
    assert parse_matrix_market(text).matrix.a.tolist() == [[0, 10**30], [-1, 0]]


def test_field_entries_past_int64_reduce_exactly():
    vals = [2**70 + 3, -(2**70), 2**63, -(2**63) - 5]
    text = ARRAY + "%%modulus=10007\n2 2\n" + "\n".join(map(str, vals)) + "\n"
    assert dense_cells(text) == [[vals[0] % 10007, vals[2] % 10007], [vals[1] % 10007, vals[3] % 10007]]
    text = COORD + "%%modulus=10007\n2 2 2\n1 2 " + str(2**70 + 3) + "\n2 1 " + str(-(2**70)) + "\n"
    m = parse_matrix_market(text).matrix
    assert sorted(m.triples()) == [(0, 1, (2**70 + 3) % 10007), (1, 0, -(2**70) % 10007)]


def test_object_dtype_fields():
    vals = [P_BIG - 1, P_BIG, P_BIG + 5, -1]
    text = ARRAY + f"%%modulus={P_BIG}\n2 2\n" + "\n".join(map(str, vals)) + "\n"
    m = parse_matrix_market(text).matrix
    assert isinstance(m, DenseMatrix) and m.a.dtype == object
    assert m.a.tolist() == [[P_BIG - 1, 5], [0, P_BIG - 1]]
    assert all(type(v) is int for v in m.a.flat)
    text = COORD + f"%%modulus={P_BIG}\n3 3 3\n3 3 {P_BIG + 2}\n1 2 -2\n2 2 {P_BIG}\n"
    m = parse_matrix_market(text).matrix
    assert isinstance(m, SparseMatrix) and m.vals.dtype == object
    assert list(m.triples()) == [(0, 1, P_BIG - 2), (2, 2, 2)]


@pytest.mark.parametrize("modulus", [None, 7])
def test_empty_and_single_shapes(modulus):
    head = "" if modulus is None else f"%%modulus={modulus}\n"
    for text, shape in [
        (ARRAY + head + "0 0\n", (0, 0)),
        (ARRAY + head + "0 3\n", (0, 3)),
        (ARRAY + head + "3 0\n", (3, 0)),
        (COORD + head + "0 0 0\n", (0, 0)),
        (COORD + head + "2 3 0\n", (2, 3)),
    ]:
        m = parse_matrix_market(text).matrix
        assert m.shape == shape
        assert (m.nnz if isinstance(m, SparseMatrix) else np.count_nonzero(m.a)) == 0
    one = parse_matrix_market(ARRAY + head + "1 1\n9\n").matrix
    assert one.a.tolist() == [[9 if modulus is None else 2]]
    one = parse_matrix_market(COORD + head + "1 1 1\n1 1 9\n").matrix
    if modulus is None:
        assert one.a.tolist() == [[9]]
    else:
        assert list(one.triples()) == [(0, 0, 2)]


def test_dense_result_is_row_major_like_a_fresh_matrix(gf10007):
    rng = Random(3)
    cells = [[rng.randrange(10007) for _ in range(5)] for _ in range(4)]
    m = parse_matrix_market(write_dense(DenseMatrix(gf10007, cells))).matrix
    assert m == DenseMatrix(gf10007, cells)
    assert m.a.dtype == np.int64 and m.a.flags.c_contiguous


# -- writers ------------------------------------------------------------------------


def test_writer_output_is_fixed():
    gf7 = field_new(7)
    assert write_dense(DenseMatrix(gf7, [[1, 2, 3], [4, 5, 6]])) == (
        "%%MatrixMarket matrix array integer general\n%%modulus=7\n2 3\n1\n4\n2\n5\n3\n6\n"
    )
    assert write_dense(DenseMatrix(gf7, np.zeros((0, 2), dtype=np.int64))) == (
        "%%MatrixMarket matrix array integer general\n%%modulus=7\n0 2\n"
    )
    big = field_new(P_BIG)
    assert write_dense(DenseMatrix(big, [[P_BIG - 1]])) == (
        f"%%MatrixMarket matrix array integer general\n%%modulus={P_BIG}\n1 1\n{P_BIG - 1}\n"
    )
    assert write_sparse(SparseMatrix(gf7, 3, 4, [(2, 3, 9), (0, 1, 6), (0, 0, 7)])) == (
        "%%MatrixMarket matrix coordinate integer general\n%%modulus=7\n3 4 2\n1 2 6\n3 4 2\n"
    )
    assert write_sparse(SparseMatrix(gf7, 2, 2, [])) == (
        "%%MatrixMarket matrix coordinate integer general\n%%modulus=7\n2 2 0\n"
    )
    assert write_sparse(SparseMatrix(big, 1, 1, [(0, 0, -1)])) == (
        f"%%MatrixMarket matrix coordinate integer general\n%%modulus={P_BIG}\n1 1 1\n1 1 {P_BIG - 1}\n"
    )
    assert write_int(IntMatrix([[10**20, -3], [0, 7]])) == (
        "%%MatrixMarket matrix array integer general\n2 2\n100000000000000000000\n0\n-3\n7\n"
    )
    assert write_int(IntMatrix([])) == "%%MatrixMarket matrix array integer general\n0 0\n"


@pytest.mark.parametrize("p", [3, 10007, P_WORD, P_BIG])
@pytest.mark.parametrize("shape", [(0, 0), (1, 1), (3, 5), (6, 2)])
def test_round_trip_per_layout(p, shape):
    field = field_new(p)
    rows, cols = shape
    rng = Random(p * 31 + rows * 7 + cols)
    cells = np.array(
        [[rng.choice([0, 1, p - 1, rng.randrange(p)]) for _ in range(cols)] for _ in range(rows)],
        dtype=object,
    ).reshape(rows, cols)
    dense = DenseMatrix(field, cells)
    back = parse_matrix_market(write_dense(dense))
    assert back.matrix == dense and back.modulus == p and back.layout == "array"
    assert write_dense(back.matrix) == write_dense(dense)

    triples = [(i, j, int(cells[i, j])) for i in range(rows) for j in range(cols)]
    rng.shuffle(triples)
    sparse = SparseMatrix(field, rows, cols, triples)
    back = parse_matrix_market(write_sparse(sparse))
    assert back.matrix.shape == shape and back.layout == "coordinate"
    assert list(back.matrix.triples()) == list(sparse.triples())
    assert back.matrix.vals.dtype == field.dtype
    assert write_sparse(back.matrix) == write_sparse(sparse)


def test_int_round_trip():
    ints = IntMatrix([[10**20, -3, 0], [2**63, -(2**64), 5]])
    back = parse_matrix_market(write_int(ints)).matrix
    assert back == ints and write_int(back) == write_int(ints)
    small = IntMatrix([[1, -2], [3, 4], [5, 6]])
    assert parse_matrix_market(write_int(small)).matrix == small


# -- differential check against the per-line reader -----------------------------------


def reference_parse(text):
    """(kind, modulus, shape, cells) by a per-line walk; Malformed as the reader raises it."""
    lines = text.splitlines()
    if not lines:
        raise Malformed("empty file")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "%%MatrixMarket":
        raise Malformed("missing MatrixMarket banner")
    obj, layout, entry_type, symmetry = (w.lower() for w in head[1:])
    if obj != "matrix":
        raise Malformed(f"unsupported object {obj!r}")
    if layout not in ("coordinate", "array"):
        raise Malformed(f"unsupported layout {layout!r}")
    if entry_type != "integer":
        raise Malformed(f"entry type {entry_type!r} not supported; exact protocols need integer data")
    if symmetry != "general":
        raise Malformed(f"unsupported symmetry {symmetry!r}")
    modulus = None
    body_at = None
    for idx, raw in enumerate(lines[1:], start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("%"):
            if line.startswith("%%") and "=" in line:
                key, _, val = line[2:].partition("=")
                try:
                    num = int(val.strip())
                except ValueError:
                    raise Malformed(f"bad structured comment {line!r}")
                if key.strip().lower() == "modulus":
                    modulus = num
            continue
        body_at = idx
        break
    if body_at is None:
        raise Malformed("missing size line")
    body = [s for s in (r.strip() for r in lines[body_at:]) if s and not s.startswith("%")]
    size, body = body[0].split(), body[1:]

    def num(tok):
        try:
            return int(tok)
        except ValueError:
            raise Malformed(f"bad integer {tok!r}")

    p = field_new(modulus).p if modulus is not None else None
    if layout == "coordinate":
        if len(size) != 3:
            raise Malformed("coordinate size line wants rows cols nnz")
        rows, cols, nnz = (num(t) for t in size)
        if rows < 0 or cols < 0 or nnz < 0:
            raise Malformed("negative size")
        if len(body) != nnz:
            raise Malformed(f"expected {nnz} entries, found {len(body)}")
        cells, seen = {}, set()
        for line in body:
            parts = line.split()
            if len(parts) < 2:
                raise Malformed(f"short coordinate line {line!r}")
            i, j = num(parts[0]), num(parts[1])
            if not (1 <= i <= rows and 1 <= j <= cols):
                raise Malformed(f"entry ({i},{j}) outside {rows}x{cols}")
            if (i, j) in seen:
                raise Malformed(f"duplicate entry ({i},{j})")
            seen.add((i, j))
            if len(parts) != 3:
                raise Malformed(f"entry ({i},{j}): expected 1 value(s), found {len(parts) - 2}")
            cells[(i - 1, j - 1)] = num(parts[2])
        if p is None:
            grid = [[cells.get((i, j), 0) for j in range(cols)] for i in range(rows)]
            return "int", None, (rows, cols), grid
        kept = sorted((i, j, v % p) for (i, j), v in cells.items() if v % p)
        return "sparse", p, (rows, cols), kept
    if len(size) != 2:
        raise Malformed("array size line wants rows cols")
    rows, cols = (num(t) for t in size)
    if rows < 0 or cols < 0:
        raise Malformed("negative size")
    vals = [num(t) for line in body for t in line.split()]
    if len(vals) != rows * cols:
        raise Malformed(f"expected {rows * cols} values, found {len(vals)}")
    grid = [[vals[j * rows + i] for j in range(cols)] for i in range(rows)]
    if p is not None:
        grid = [[v % p for v in row] for row in grid]
    return ("int", None, (rows, cols), grid) if p is None else ("dense", p, (rows, cols), grid)


def outcome(parse, text):
    try:
        got = parse(text)
    except Malformed as exc:
        return ("Malformed", str(exc))
    if isinstance(got, tuple):
        return got
    m = got.matrix
    if isinstance(m, SparseMatrix):
        return "sparse", m.field.p, m.shape, list(m.triples())
    if isinstance(m, DenseMatrix):
        return "dense", m.field.p, m.shape, m.a.tolist()
    return "int", None, m.shape, m.a.tolist()


BAD_TOKENS = ["x", "1.0", "0x1", "%", "%5", "1e2", "--1", str(2**70), str(-(2**64)), "٣", "+4", "1_2"]
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\u2029"]


def random_text(rng):
    modulus = rng.choice([None, 7, 10007, P_BIG])
    head = ["%%MatrixMarket matrix coordinate integer general" if rng.random() < 0.5
            else "%%MatrixMarket matrix array integer general"]
    if modulus is not None:
        head.append(f"%%modulus={modulus}")
    rows, cols = rng.randrange(4), rng.randrange(4)
    if "coordinate" in head[0]:
        cells = [(i, j) for i in range(rows) for j in range(cols) if rng.random() < 0.6]
        rng.shuffle(cells)
        body = [[str(i + 1), str(j + 1), str(rng.randrange(-20, 20))] for i, j in cells]
        size = [str(rows), str(cols), str(len(body))]
    else:
        body = [[str(rng.randrange(-20, 20))] for _ in range(rows * cols)]
        size = [str(rows), str(cols)]
    for _ in range(rng.randrange(4)):
        kind = rng.randrange(11)
        full = [r for r in body if r]
        if kind == 0 and full:
            row = rng.choice(full)
            row[rng.randrange(len(row))] = rng.choice(BAD_TOKENS)
        elif kind == 1 and full:
            rng.choice(full).pop()
        elif kind == 2 and full:
            rng.choice(full).append(str(rng.randrange(5)))
        elif kind == 3 and len(body) > 1:
            k = rng.randrange(len(body) - 1)
            body[k:k + 2] = [body[k] + body[k + 1]]
        elif kind == 4 and body:
            body.insert(rng.randrange(len(body) + 1), list(rng.choice(body)))
        elif kind == 5:
            filler = rng.choice([["%", "note"], ["%%modulus=5"], [], ["\t"]])
            body.insert(rng.randrange(len(body) + 1), filler)
        elif kind == 6 and full:
            row = rng.choice(full)
            row[rng.randrange(min(2, len(row)))] = str(rng.choice([0, rows + 1, cols + 1, -1]))
        elif kind == 7:
            size[rng.randrange(len(size))] = str(rng.randrange(5))
        elif kind == 8 and full:
            rng.choice(full).append("%")
        elif kind == 9:
            body.append([str(rng.randrange(1, 4)) for _ in range(len(size))])
        elif kind == 10 and body:
            k = rng.randrange(len(body))
            body[k:k + 1] = [body[k][:1], body[k][1:]]
    sep = rng.choice(BREAKS)
    gap = rng.choice([" ", "  ", "\t", " \t "])
    lines = head + [gap.join(size)] + [gap.join(r) for r in body]
    return sep.join(lines) + rng.choice([sep, ""])


def test_same_outcome_as_the_per_line_reader():
    rng = Random(8)
    for _ in range(3000):
        text = random_text(rng)
        assert outcome(parse_matrix_market, text) == outcome(reference_parse, text), text


@pytest.mark.parametrize("piece_chars", [1, 5])
def test_same_outcome_when_the_body_is_read_in_pieces(monkeypatch, piece_chars):
    # pieces of a few characters put most piece edges inside an array body
    monkeypatch.setattr(matrixmarket, "_PIECE_CHARS", piece_chars)
    rng = Random(9)
    for _ in range(1000):
        text = random_text(rng)
        assert outcome(parse_matrix_market, text) == outcome(reference_parse, text), text


# -- the strict array kernel against the per-line reader ------------------------------

STRICT_BODIES = [
    # signs: int() takes one only at the start of a token, before a digit
    "- 5", "+ 5", "5 -", "7\n+", "5-6", "--5", "+-5", "-5 +6 -0 +0",
    # blank text, and blank pieces between values
    "", " \t\n \n", "1\n\n\n\n2",
    # digit runs either side of the kernel's 18 and of int64
    "9" * 18, "-" + "9" * 18, "9" * 19, "-" + "9" * 19, "9" * 20, "-" + "9" * 20, "0" * 19 + "7",
    str(2**63 - 1), str(-(2**63 - 1)), str(2**63), str(-(2**63)),
    # tokens int() accepts and the kernel leaves to it
    "1_000", "\u0663\u0664 \u0661", "\uff11\uff12",
    # whitespace str.split splits on: the kernel's share, then the rest
    *(f"1{sep}2{sep}3" for sep in ["\t", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
                                   "\x85", "\xa0", "\u2028"]),
]


@pytest.mark.parametrize("piece_chars", [1, matrixmarket._PIECE_CHARS])
@pytest.mark.parametrize("modulus", [None, 10007])
def test_strict_kernel_agrees_with_the_per_line_reader(monkeypatch, piece_chars, modulus):
    monkeypatch.setattr(matrixmarket, "_PIECE_CHARS", piece_chars)
    head = ARRAY + ("" if modulus is None else f"%%modulus={modulus}\n")
    for body in STRICT_BODIES:
        found = len(body.split())
        for count in (found - 1, found, found + 1):  # one short, exact, one long
            if count >= 0:
                text = head + f"{count} 1\n{body}\n"
                assert outcome(parse_matrix_market, text) == outcome(reference_parse, text), text


@pytest.mark.parametrize("bad", ["x", "- 5", "9" * 19, "1_000", "5\xa06"])
def test_one_refused_piece_sends_the_whole_body_to_the_exact_path(bad):
    values = [str(v) for v in range(100000, 100000 + matrixmarket._PIECE_CHARS // 2)]
    body = "\n".join(values) + "\n" + bad  # the bad token is in the last of several pieces
    assert len(body) > 3 * matrixmarket._PIECE_CHARS
    text = ARRAY + f"%%modulus=10007\n{len(body.split())} 1\n{body}\n"
    assert outcome(parse_matrix_market, text) == outcome(reference_parse, text)


def traced_peak(f, *args):
    """f(*args) and the peak of the memory it allocated, in MiB."""
    tracemalloc.start()
    try:
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_array_read_holds_pieces_not_the_whole_body():
    cells = np.random.default_rng(4).integers(0, 10007, (1024, 1024))
    body = "\n".join(map(str, cells.T.ravel().tolist()))
    # 21 MiB: the 5 MiB body past the header, 8 MiB of values and the
    # 8 MiB matrix; a split of the whole body would pass the bound
    got, peak = traced_peak(parse_matrix_market, ARRAY + "%%modulus=10007\n1024 1024\n" + body)
    assert np.array_equal(got.matrix.a, cells)
    assert peak <= 24, peak
    # the read itself holds the values and one piece's temporaries, about
    # 2 MiB; an encoding of the whole body would add 5 MiB
    vals, peak = traced_peak(matrixmarket._int_values, body, cells.size)
    assert np.array_equal(vals, cells.T.ravel())
    assert peak - vals.nbytes / 2**20 <= 4, peak
