"""Word-size kernels against plain Python-int references at the regime edges.

The edges are where the int64 code changes strategy: p = 3, the largest
int64-safe prime P_WORD (``dot_chunk() == 1``), the first object-dtype prime
P_BIG, lengths and row widths on either side of ``dot_chunk()``, and 1x1
shapes.
"""

import struct
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlac.certs_sparse import _dot, det_certify, projected_sequence, sparse_bytes
from vlac.ff import field_new
from vlac.la import SparseMatrix, as_blackbox, det_dense, matvec
from vlac.oracle import brute_det_field, projected_powers
from vlac.proto import FiatShamirSource

P_DET = 536870909  # dot_chunk() == 32
P_WORD = 3037000493  # largest prime whose products (p-1)^2 fit int64
P_BIG = 3037000507  # first prime past it: object dtype
PRIMES = (3, P_DET, P_WORD, P_BIG)

# for p = 3 dot_chunk() is about 2^61; longer vectors than this are not built
MAX_LEN = 1 << 16


def _rows(m: SparseMatrix) -> list:
    out = [[0] * m.cols for _ in range(m.rows)]
    for i, j, v in m.triples():
        out[i][j] = v
    return out


def _ref_matvec(rows, x, p) -> list:
    return [sum(a * b for a, b in zip(row, x)) % p for row in rows]


def _ref_matvec_t(rows, x, p) -> list:
    cols = len(rows[0]) if rows else 0
    return [sum(rows[i][j] * x[i] for i in range(len(rows))) % p for j in range(cols)]


def _random_sparse(field, rows, cols, rng, density=0.4, full_row=None, full_col=None):
    triples = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density or i == full_row or j == full_col:
                triples[i, j] = rng.randrange(1, field.p)
    return SparseMatrix(field, rows, cols, [(i, j, v) for (i, j), v in triples.items()])


# -- the reduced dot ------------------------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_dot_worst_case_entries(p):
    field = field_new(p)
    chunk = field.dot_chunk()
    for length in (0, 1, chunk, chunk + 1):
        length = min(length, MAX_LEN)
        a = field.arr([p - 1] * length)
        assert _dot(field, a, a.copy()) == length * (p - 1) ** 2 % p


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(0, 80), st.integers(0, 2**32))
def test_dot_matches_python_ints(p, length, seed):
    rng = Random(seed)
    field = field_new(p)
    a = [rng.randrange(p) for _ in range(length)]
    b = [rng.randrange(p) for _ in range(length)]
    assert _dot(field, field.arr(a), field.arr(b)) == sum(x * y for x, y in zip(a, b)) % p


# -- sparse products over wide rows and columns ----------------------------------


@pytest.mark.parametrize("p", (P_DET, P_WORD, P_BIG))
def test_matvec_and_apply_t_full_row_and_column(p):
    field = field_new(p)
    rng = Random(p % 1000)
    n = 70  # wider than dot_chunk() for every prime here
    m = _random_sparse(field, n, n, rng, density=0.05, full_row=3, full_col=5)
    rows = _rows(m)
    for x in ([p - 1] * n, [rng.randrange(p) for _ in range(n)]):
        assert matvec(m, x).tolist() == _ref_matvec(rows, x, p)
        assert as_blackbox(m).apply_t(x).tolist() == _ref_matvec_t(rows, x, p)


def test_widest_is_cached_and_counts_entries():
    field = field_new(P_DET)
    m = SparseMatrix(field, 3, 4, [(0, 0, 1), (0, 3, 2), (2, 3, 5)])
    assert m.widest() == (2, 2)
    assert m.widest() is m.widest()
    assert SparseMatrix(field, 2, 2, []).widest() == (0, 0)


# -- the folded row scaling ------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(PRIMES),
    st.integers(1, 40),
    st.integers(1, 40),
    st.integers(0, 2**32),
    st.booleans(),
)
def test_scale_rows_is_d_times_a(p, rows, cols, seed, wide):
    rng = Random(seed)
    field = field_new(p)
    # a full row past dot_chunk() sends the product down the reduced path
    m = _random_sparse(field, rows, cols, rng, full_row=0 if wide else None)
    d = [rng.randrange(1, p) for _ in range(rows)]
    scaled = m.scale_rows(field.arr(d))
    assert scaled.widest() == m.widest()
    x = [rng.randrange(p) for _ in range(cols)]
    y = [rng.randrange(p) for _ in range(rows)]
    ax = _ref_matvec(_rows(m), x, p)
    assert matvec(scaled, x).tolist() == [di * v % p for di, v in zip(d, ax)]
    dy = [di * v % p for di, v in zip(d, y)]
    assert as_blackbox(scaled).apply_t(y).tolist() == _ref_matvec_t(_rows(m), dy, p)
    assert _rows(scaled) == [[di * v % p for v in row] for di, row in zip(d, _rows(m))]


@pytest.mark.parametrize("p", PRIMES)
def test_scale_rows_one_by_one(p):
    field = field_new(p)
    m = SparseMatrix(field, 1, 1, [(0, 0, p - 1)])
    scaled = m.scale_rows(field.arr([p - 1]))
    assert matvec(scaled, [p - 1]).tolist() == [(p - 1) ** 3 % p]
    empty = SparseMatrix(field, 1, 1, []).scale_rows(field.arr([2]))
    assert matvec(empty, [1]).tolist() == [0]


def test_projected_sequence_of_folded_operator_matches_oracle():
    field = field_new(P_WORD)
    rng = Random(17)
    n = 12
    m = _random_sparse(field, n, n, rng, density=0.3, full_row=2)
    d = [rng.randrange(1, P_WORD) for _ in range(n)]
    u = [rng.randrange(P_WORD) for _ in range(n)]
    v = [rng.randrange(P_WORD) for _ in range(n)]
    scaled = m.scale_rows(field.arr(d))
    got = projected_sequence(field, scaled, field.arr(u), field.arr(v), 2 * n)
    assert got == projected_powers(field, _rows(scaled), u, v, 2 * n)


# -- determinants over wide rows -------------------------------------------------


def test_det_full_first_row_large_prime():
    # a full first row is far wider than dot_chunk() == 32; unreduced row
    # sums of this width pass 2^63
    field = field_new(P_DET)
    rng = Random(23)
    n = 512
    triples = [(0, j, rng.randrange(1, P_DET)) for j in range(n)]
    triples += [(i, i, rng.randrange(1, P_DET)) for i in range(1, n)]
    a = SparseMatrix(field, n, n, triples)
    verdict, value = det_certify(a, FiatShamirSource(), prover_seed=3)
    assert verdict.accepted
    assert value == det_dense(a.to_dense())


@pytest.mark.parametrize("p", (P_WORD, P_BIG))
def test_det_wide_rows_at_the_dtype_edge(p):
    field = field_new(p)
    m = _random_sparse(field, 9, 9, Random(p % 997), density=0.3, full_row=1, full_col=4)
    verdict, value = det_certify(m, FiatShamirSource(), prover_seed=5)
    assert verdict.accepted
    assert value == brute_det_field(field, m)


# -- instance encoding -----------------------------------------------------------


def _sparse_bytes_by_struct(m: SparseMatrix) -> bytes:
    out = [b"S", struct.pack("<III", m.rows, m.cols, m.nnz)]
    for i, j, v in m.triples():
        out.append(struct.pack("<IIQ", i, j, v))
    return b"".join(out)


@pytest.mark.parametrize("p", PRIMES)
def test_sparse_bytes_matches_struct_encoding(p):
    field = field_new(p)
    rng = Random(29)
    for rows, cols in ((1, 1), (7, 3), (20, 20)):
        m = _random_sparse(field, rows, cols, rng, full_row=0)
        assert sparse_bytes(m) == _sparse_bytes_by_struct(m)
    empty = SparseMatrix(field, 4, 5, [])
    assert sparse_bytes(empty) == _sparse_bytes_by_struct(empty) == b"S" + struct.pack(
        "<III", 4, 5, 0
    )
    top = SparseMatrix(field, 2, 2, [(1, 1, p - 1)])
    assert sparse_bytes(top) == _sparse_bytes_by_struct(top)
