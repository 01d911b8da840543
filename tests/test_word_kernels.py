"""Word-size kernels against plain Python-int references at the regime edges.

The edges are where the int64 code changes strategy: p = 3, the largest
int64-safe prime P_WORD (``dot_chunk() == 1``), the first object-dtype prime
P_BIG, lengths and row widths on either side of ``dot_chunk()``, 0x0 and 1x1
shapes, the determinant stack cap and its reduction budget, integer
entries past int64, the steps of the limb widths, the largest 63-bit
prime for the limb products, and the panel edges of the blocked
elimination.
"""

import struct
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlac import la, lift
from vlac.certs_dense import _geometric_vector
from vlac.certs_sparse import (
    KRYLOV_BLOCK,
    _dot,
    _shift_solver,
    det_certify,
    det_verify,
    krylov_checkpoints,
    krylov_stride,
    projected_sequence,
    sparse_bytes,
)
from vlac.errors import BothZero, DivisionByZero, GeneratorMismatch
from vlac.ff import (
    Poly,
    _mul_arrays,
    _quotient,
    berlekamp_massey,
    field_new,
    is_probable_prime,
    minpoly_package,
    numerator_from_sequence,
    poly_xgcd,
)
from vlac.la import (
    Blackbox,
    Butterfly,
    CostCounter,
    DenseMatrix,
    SparseMatrix,
    _limb_width,
    butterfly_param_count,
    compose,
    det_dense,
    det_stack,
    diagonal_scaling,
    matvec,
    stack_cap,
)
from vlac.lift import (
    CRT_PRIME_BITS,
    IntMatrix,
    PolyMatrix,
    _crt_primes,
    hadamard_bound,
    int_det_crt,
    poly_det_interp,
)
from vlac.oracle import (
    _solve_field,
    brute_det_field,
    brute_det_int,
    brute_det_poly,
    brute_minpoly_fuv,
    brute_rank,
    projected_powers,
)
from vlac.proto import KIND_BIGINT, FiatShamirSource, encode_payload

P_DET = 536870909  # dot_chunk() == 32
P_CRT = 536870923  # the first prime above 2^29: dot_chunk() == 31
P_WORD = 3037000493  # largest prime whose products (p-1)^2 fit int64
P_BIG = 3037000507  # first prime past it: object dtype
PRIMES = (3, P_DET, P_WORD, P_BIG)

# for p = 3 dot_chunk() is about 2^61; longer vectors than this are not built
MAX_LEN = 1 << 16

# u and v drawn with all entries nonzero reach a full-degree generator of a
# diagonal operator with distinct entries in a few draws
DRAWS_FOR_FULL_DEGREE = 20


def _largest_63_bit_prime() -> int:
    p = (1 << 63) - 1
    while not is_probable_prime(p):
        p -= 2
    return p


P_TOP = _largest_63_bit_prime()


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


# -- the limb projection ---------------------------------------------------------


def _width_changes(p, top, both=False):
    """Lengths n <= top at which ``_limb_width(p, n, both)`` differs from n - 1's."""
    return [
        n for n in range(2, top + 1) if _limb_width(p, n, both) != _limb_width(p, n - 1, both)
    ]


def _last_length_of_width(p, width, both=False):
    # n (2^b - 1) (p - 1) < 2^63, or L n (2^b - 1)^2 < 2^63 for L limbs of
    # p - 1 on both sides, holds up to this n
    limb = (1 << width) - 1
    if both:
        return (2**63 - 1) // (-(-(p - 1).bit_length() // width) * limb * limb)
    return (2**63 - 1) // (limb * (p - 1))


def _recorded(field, vectors):
    """A black box whose i-th apply returns vectors[i + 1], whatever its
    input, so ``projected_sequence`` projects exactly ``vectors``."""
    n = len(vectors[0]) if vectors else 0
    later = iter(vectors[1:])
    return Blackbox(field, n, n, 0, lambda x: next(later), None)


@pytest.mark.parametrize("p", (3, P_DET, P_WORD))
def test_projection_worst_case_entries_at_width_changes(p):
    field = field_new(p)
    changes = _width_changes(p, MAX_LEN)
    assert changes or p == 3  # p = 3 keeps one 2-bit limb at every such length
    lengths = {0, 1, 2, MAX_LEN} | {n for c in changes for n in (c - 1, c)}
    for n in sorted(lengths):
        a = field.arr([p - 1] * n)
        want = _dot(field, a, a.copy())
        assert want == n * (p - 1) ** 2 % p
        # a block of two rows splits u; one row splits the row itself
        assert projected_sequence(field, _recorded(field, [a, a]), a, a, 2) == [want, want]
        assert projected_sequence(field, _recorded(field, [a]), a, a, 1) == [want]


@pytest.mark.parametrize("p", (3, P_DET, P_WORD))
def test_limb_width_bound_and_floor(p):
    top_bits = (p - 1).bit_length()
    for n in (1, 2, 33, 2048, MAX_LEN):
        b = _limb_width(p, n)
        assert 1 <= b <= top_bits
        assert n * ((1 << b) - 1) * (p - 1) < 2**63
        assert b == top_bits or n * ((1 << (b + 1)) - 1) * (p - 1) >= 2**63
    # the floor: one-bit limbs, then no width at all; no vector is built
    last_two = _last_length_of_width(p, 2)
    last_one = _last_length_of_width(p, 1)
    assert _limb_width(p, last_two) == 2
    assert _limb_width(p, last_two + 1) == 1
    assert _limb_width(p, last_one) == 1
    assert _limb_width(p, last_one + 1) == 0


@pytest.mark.parametrize("p", PRIMES)
def test_projection_of_the_empty_vector(p):
    field = field_new(p)
    op = SparseMatrix(field, 0, 0, [])
    for count in (0, 1, 2, 65):
        assert projected_sequence(field, op, field.zeros(0), field.zeros(0), count) == [0] * count


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(0, 300), st.integers(1, 3), st.integers(0, 2**32))
def test_projection_matches_dot(p, length, count, seed):
    rng = Random(seed)
    field = field_new(p)
    a = field.arr([rng.randrange(p) for _ in range(length)])
    xs = [field.arr([rng.randrange(p) for _ in range(length)]) for _ in range(count)]
    got = projected_sequence(field, _recorded(field, xs), a, xs[0], count)
    assert all(type(g) is int for g in got)
    assert got == [_dot(field, a, x) for x in xs]


@pytest.mark.parametrize("p", (3, P_DET, P_WORD, P_BIG, P_TOP))
def test_projected_sequence_at_block_edges(p):
    """Counts on either side of one block of ``KRYLOV_BLOCK`` = 64 Krylov
    vectors, and 2n, against Python-int products and ``_dot``."""
    assert KRYLOV_BLOCK == 64
    n = 40
    field = field_new(p)
    rng = Random(p % 977 + 5)
    m = _random_sparse(field, n, n, rng, density=0.2, full_row=3)
    rows = _rows(m)
    u = [rng.choice([p - 1, rng.randrange(p)]) for _ in range(n)]
    v = [rng.choice([p - 1, rng.randrange(p)]) for _ in range(n)]
    want, x = [], v
    for _ in range(2 * n):
        want.append(sum(a * b for a, b in zip(u, x)) % p)
        assert want[-1] == _dot(field, field.arr(u), field.arr(x))
        x = _ref_matvec(rows, x, p)
    for count in (0, 1, 63, 64, 65, 2 * n):
        got = projected_sequence(field, m, field.arr(u), field.arr(v), count)
        assert got == want[:count], count


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
        assert m.apply_t(x).tolist() == _ref_matvec_t(rows, x, p)


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
    assert scaled.apply_t(y).tolist() == _ref_matvec_t(_rows(m), dy, p)
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
    for p, n in [(P_WORD, 12)] + [(p, n) for p in PRIMES for n in (1, 40)]:
        field = field_new(p)
        rng = Random(17 + n)
        m = _random_sparse(field, n, n, rng, density=0.3, full_row=n // 6)
        d = [rng.randrange(1, p) for _ in range(n)]
        u = [rng.randrange(p) for _ in range(n)]
        v = [rng.randrange(p) for _ in range(n)]
        scaled = m.scale_rows(field.arr(d))
        checkpoints = krylov_checkpoints(field, n)
        got = projected_sequence(field, scaled, field.arr(u), field.arr(v), 2 * n, checkpoints)
        assert got == projected_powers(field, _rows(scaled), u, v, 2 * n)
        assert got == projected_sequence(field, scaled, field.arr(u), field.arr(v), 2 * n)
        # the checkpoints are A^(mk) v for mk < n
        k = krylov_stride(n)
        powers, x = [], v
        for i in range(n):
            if i % k == 0:
                powers.append(x)
            x = _ref_matvec(_rows(scaled), x, p)
        assert [c.tolist() for c in checkpoints] == powers


# -- the checkpointed shift solve ------------------------------------------------


def _horner_shift_solve(field, operator, gen, v, r):
    """(r I - B)^{-1} v as q(B) v / gen(r), one product per coefficient of q."""
    p = field.p
    quot, rem = gen.divmod_by(Poly(field, [-r, 1]))
    if rem.coeff(0) == 0:
        return None
    q = quot.coeffs
    w = v * q[-1] % p
    for c in reversed(q[:-1]):
        w = (matvec(operator, w) + c * v) % p
    return w * field.inv(rem.coeff(0)) % p


def _shift_operator(field, kind, n, rng):
    p = field.p
    if kind == "sparse":
        m = _random_sparse(field, n, n, rng, density=0.3, full_row=0)
        return m.scale_rows(field.arr([rng.randrange(1, p) for _ in range(n)]))
    a = _dense(field, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
    if kind == "dense":
        return compose(diagonal_scaling(field, [rng.randrange(1, p) for _ in range(n)]), a)
    return a


# dense matrices applied on limb planes, wider than dot_chunk()
SHIFT_OPERATORS = [(p, kind) for p in PRIMES for kind in ("sparse", "dense", "limbs")]


# n = k^2 and k^2 +- 1 for k = 1, 2, 4, and a Q padded with zeros elsewhere
@pytest.mark.parametrize("p, kind", SHIFT_OPERATORS)
@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 15, 16, 17, 64))
def test_shift_solve_matches_horner(p, kind, n):
    field = field_new(p)
    rng = Random(p % 997 + 31 * n)
    op = _shift_operator(field, kind, n, rng)
    u = field.arr([rng.randrange(p) for _ in range(n)])
    v = field.arr([rng.randrange(p) for _ in range(n)])
    checkpoints = krylov_checkpoints(field, n)
    gen = minpoly_package(field, projected_sequence(field, op, u, v, 2 * n, checkpoints))[0]
    if gen.degree < 1:
        return  # v = 0: nothing to solve
    solve = _shift_solver(field, op, gen, checkpoints)
    shifts = [rng.randrange(p) for _ in range(4)] + [0, 1, p - 1]
    for r in shifts:
        want = _horner_shift_solve(field, op, gen, v, r)
        got = solve(r)
        if want is None:
            assert got is None
            continue
        assert got.tolist() == want.tolist()
        if gen.degree == n:
            # gen is the characteristic polynomial: w solves (r I - B) w = v
            assert ((r * got - matvec(op, got)) % p).tolist() == v.tolist()


@pytest.mark.parametrize("p", PRIMES)
def test_shift_solve_at_a_root_returns_none(p):
    field = field_new(p)
    n = min(p - 1, 5)
    diag = [(7 * i + 2) % p for i in range(n)]  # distinct eigenvalues
    op = SparseMatrix(field, n, n, [(i, i, d) for i, d in enumerate(diag) if d])
    rng = Random(p % 89)
    for _ in range(DRAWS_FOR_FULL_DEGREE):
        u = field.arr([rng.randrange(1, p) for _ in range(n)])
        v = field.arr([rng.randrange(1, p) for _ in range(n)])
        checkpoints = krylov_checkpoints(field, n)
        gen = minpoly_package(field, projected_sequence(field, op, u, v, 2 * n, checkpoints))[0]
        if gen.degree == n:
            break
    assert gen.degree == n
    solve = _shift_solver(field, op, gen, checkpoints)
    for d in diag:
        assert solve(d) is None
    off = next(r for r in range(p) if r not in diag)
    w = solve(off)
    assert ((off * w - matvec(op, w)) % p).tolist() == v.tolist()


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


# -- the batched determinant kernel ----------------------------------------------


def _stack(field, slices) -> np.ndarray:
    n = len(slices[0])
    out = field.zeros((len(slices), n, n))
    for i, rows in enumerate(slices):
        out[i] = field.arr(rows)
    return out


def _edge_slices(p, n, rng) -> list:
    """Nonsingular, singular and zero-leading slices for one stack."""
    def rand():
        return [[rng.randrange(p) for _ in range(n)] for _ in range(n)]

    out = [rand() for _ in range(3)]
    dup = rand()
    dup[-1] = list(dup[0])  # two equal rows
    out.append(dup)
    zcol = rand()
    for row in zcol:
        row[n // 2] = 0
    out.append(zcol)
    # zeros above the diagonal's first pivot force row swaps
    for zeros in range(1, n):
        sw = rand()
        for i in range(zeros):
            sw[i][0] = 0
        sw[zeros][0] = rng.randrange(1, p)
        out.append(sw)
    # an anti-diagonal permutation: every column needs a swap
    perm = [[(rng.randrange(1, p) if i + j == n - 1 else 0) for j in range(n)] for i in range(n)]
    out.append(perm)
    out.append([[0] * n for _ in range(n)])
    return out


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", (1, 2, 3, 6))
def test_det_stack_matches_oracle_on_mixed_slices(p, n):
    field = field_new(p)
    slices = _edge_slices(p, n, Random(p % 1009 + n))
    got = det_stack(_stack(field, slices), [p] * len(slices))
    assert got == [brute_det_field(field, s) for s in slices]
    assert got[-1] == 0
    assert any(d != 0 for d in got)


@pytest.mark.parametrize("p", (*PRIMES, P_CRT))
def test_det_stack_zero_by_zero_and_empty(p):
    field = field_new(p)
    assert det_stack(field.zeros((3, 0, 0)), [p] * 3) == [brute_det_field(field, [])] * 3
    assert det_stack(field.zeros((0, 4, 4)), []) == []
    assert det_dense(DenseMatrix(field, np.zeros((0, 0), dtype=np.int64))) == 1
    assert det_stack(_stack(field, [[[p - 1]], [[0]]]), [p, p]) == [p - 1, 0]


def test_det_stack_per_slice_moduli():
    primes = [3, 5, 7, 536870909, P_WORD]
    rng = Random(41)
    rows = [[[rng.randrange(q) for _ in range(4)] for _ in range(4)] for q in primes]
    stack = np.array(rows, dtype=np.int64)
    got = det_stack(stack, primes)
    assert got == [brute_det_field(field_new(q), r) for q, r in zip(primes, rows)]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(PRIMES),
    st.integers(1, 7),
    st.integers(1, 6),
    st.integers(0, 2**32),
)
def test_det_stack_random_sparse_slices(p, n, k, seed):
    rng = Random(seed)
    field = field_new(p)
    # sparse entries make zero pivots and singular slices common
    slices = [
        [[rng.randrange(p) if rng.random() < 0.4 else 0 for _ in range(n)] for _ in range(n)]
        for _ in range(k)
    ]
    assert det_stack(_stack(field, slices), [p] * k) == [
        brute_det_field(field, s) for s in slices
    ]


def _worst_case_slice(p: int, n: int, swaps) -> list:
    """P L U mod p with every entry of L below the diagonal and of U on and
    above it p - 1, so that each column subtracts (p - 1)^2 from every
    trailing entry.  At each column c in swaps, L[c + 1][c] is 0 and rows c
    and c + 1 of L U trade places, so that column needs a row swap."""
    low = [[1 if i == j else (p - 1 if j < i else 0) for j in range(n)] for i in range(n)]
    for c in swaps:
        low[c + 1][c] = 0
    rows = [
        [sum(low[i][t] * (p - 1) for t in range(min(i, j) + 1)) % p for j in range(n)]
        for i in range(n)
    ]
    for c in swaps:
        rows[c], rows[c + 1] = rows[c + 1], rows[c]
    return rows


def _after_each_block(budget: int, n: int) -> list:
    """Columns right after a block reduction, no two adjacent, that have a
    row below them to swap in."""
    return list(range(budget, n - 1, max(budget, 2)))


# (p, budget): P_CRT and P_DET reduce their block once per 31 and 32
# columns, P_WORD and P_BIG every column
BUDGETS = ((P_CRT, 31), (P_DET, 32), (P_WORD, 1), (P_BIG, 1))


@pytest.mark.parametrize("p, budget", BUDGETS)
def test_det_stack_at_the_reduction_budget(p, budget):
    field = field_new(p)
    if field.dtype is np.int64:
        assert field.dot_chunk() == budget
    for n in (budget, budget + 1, 2 * budget + 1):
        swaps = _after_each_block(budget, n)
        slices = [_worst_case_slice(p, n, swaps), _worst_case_slice(p, n, [])]
        want = [brute_det_field(field, s) for s in slices]
        assert want[0] != 0 and want[1] != 0
        assert det_stack(_stack(field, slices), [p, p]) == want


def test_det_stack_small_prime_worst_case():
    # at p = 3 the block is never reduced as a whole
    field = field_new(3)
    slices = [_worst_case_slice(3, 9, [2, 5]), _worst_case_slice(3, 9, [])]
    assert det_stack(_stack(field, slices), [3, 3]) == [brute_det_field(field, s) for s in slices]


def test_det_stack_budget_comes_from_the_largest_modulus():
    n = 2 * 31 + 1
    primes = [P_CRT, P_WORD, P_DET]
    slices = [_worst_case_slice(q, n, _after_each_block(31, n)) for q in primes]
    stack = np.array(slices, dtype=np.int64)
    assert det_stack(stack, primes) == [
        brute_det_field(field_new(q), s) for q, s in zip(primes, slices)
    ]


@pytest.mark.parametrize("p", (3, P_CRT, P_DET, P_WORD, P_BIG))
def test_det_stack_multiples_of_p_read_as_zero_pivots(p):
    # column 1 below the diagonal becomes 1 - (p - 1)^2, a nonzero multiple
    # of p, in both rows: the slice is singular
    rows = [[1, p - 1, 0], [p - 1, 1, 0], [p - 1, 1, 1]]
    field = field_new(p)
    assert brute_det_field(field, rows) == 0
    ok = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert det_stack(_stack(field, [rows, ok]), [p, p]) == [0, 1]


def test_stack_cap_values():
    assert stack_cap(64) == 256
    assert stack_cap(1024) == 1
    assert stack_cap(4096) == 1
    assert stack_cap(1) == 1 << 20


@pytest.fixture
def stack_sizes(monkeypatch):
    """Slices in each det_stack call the lifts make, with stack_cap(4) == 3."""
    monkeypatch.setattr(la, "STACK_ENTRIES", 3 * 16)
    assert stack_cap(4) == 3
    seen = []

    def spy(stack, moduli):
        seen.append(len(stack))
        return det_stack(stack, moduli)

    monkeypatch.setattr(lift, "det_stack", spy)
    return seen


@pytest.mark.parametrize("top, bits", ((2**40, CRT_PRIME_BITS), (2**70, 40)))
def test_int_det_crt_hands_det_stack_at_most_the_cap(top, bits, stack_sizes):
    rng = Random(43)
    rows = [[rng.randint(-top, top) for _ in range(4)] for _ in range(4)]
    assert int_det_crt(IntMatrix(rows), bits) == brute_det_int(rows)
    assert len(stack_sizes) > 1 and max(stack_sizes) == 3
    assert sum(stack_sizes) == len(_crt_primes(bits, hadamard_bound(IntMatrix(rows))))


@pytest.mark.parametrize("p", (P_DET, P_BIG))
def test_poly_det_interp_hands_det_stack_at_most_the_cap(p, stack_sizes):
    field = field_new(p)
    rng = Random(44)
    entries = [[Poly(field, [rng.randrange(p) for _ in range(3)]) for _ in range(4)]
               for _ in range(4)]
    got = poly_det_interp(PolyMatrix(field, entries))
    assert got.coeffs == brute_det_poly(entries, field).coeffs
    # degree at most 4 * 2: nine points, in stacks of three
    assert stack_sizes == [3, 3, 3]


# -- the CRT lift ------------------------------------------------------------------


def test_int_det_crt_zero_and_singular():
    zero = [[0] * 5 for _ in range(5)]
    assert int_det_crt(IntMatrix(zero)) == brute_det_int(zero) == 0
    rng = Random(47)
    base = [[rng.randint(-100, 100) for _ in range(6)] for _ in range(6)]
    twice = [list(r) for r in base]
    twice[4] = [2 * v for v in base[1]]  # row 4 = 2 * row 1
    assert brute_det_int(twice) == 0
    assert int_det_crt(IntMatrix(twice)) == 0
    low_rank = [[a * b for b in base[0]] for a in base[1]]
    assert int_det_crt(IntMatrix(low_rank)) == 0
    assert int_det_crt(IntMatrix(base)) == brute_det_int(base)
    assert int_det_crt(IntMatrix([])) == 1
    assert int_det_crt(IntMatrix([[-7]])) == -7


@pytest.mark.parametrize("n", (2, 5, 9))
def test_int_det_crt_past_int64_takes_the_fallback(n):
    rng = Random(53 + n)
    rows = [[rng.randint(-(2**70), 2**70) for _ in range(n)] for _ in range(n)]
    rows[0][0] = 2**63  # one past int64
    m = IntMatrix(rows)
    assert m.a.dtype == object
    assert int_det_crt(m) == brute_det_int(rows)


def test_int_det_crt_int64_edges_and_object_primes():
    rows = [[2**63 - 1, -(2**63)], [-(2**63) + 1, 2**62]]
    m = IntMatrix(rows)
    assert m.a.dtype == np.int64
    assert int_det_crt(m) == brute_det_int(rows)
    rng = Random(59)
    rows = [[rng.randint(-(2**40), 2**40) for _ in range(7)] for _ in range(7)]
    # 40-bit primes are past int64-safe: the stack runs on object arrays
    assert int_det_crt(IntMatrix(rows), bits=40) == brute_det_int(rows)
    assert int_det_crt(IntMatrix(rows)) == brute_det_int(rows)


def test_int_det_crt_default_primes_match_31_bits_and_bareiss():
    # 64 columns are two block reductions at the default prime size and
    # one reduction per column at 31 bits
    assert field_new(_crt_primes(CRT_PRIME_BITS, 1)[0]).dot_chunk() < 64
    rng = Random(61)
    rows = [[rng.randint(-100, 100) for _ in range(64)] for _ in range(64)]
    m = IntMatrix(rows)
    assert int_det_crt(m) == int_det_crt(m, bits=31) == brute_det_int(rows) != 0


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(1, 2**62), st.integers(0, 2**32))
def test_int_det_crt_matches_bareiss(n, top, seed):
    rng = Random(seed)
    rows = [[rng.randint(-top, top) for _ in range(n)] for _ in range(n)]
    assert int_det_crt(IntMatrix(rows)) == brute_det_int(rows)


def _hadamard_reference(rows) -> int:
    from math import isqrt

    square = 1
    for row in rows:
        square *= sum(v * v for v in row)
    root = isqrt(square)
    return root + (root * root < square)


@pytest.mark.parametrize("top", (1, 100, 2**30, 3037000499, 2**31 + 1, 2**62, 2**70))
def test_hadamard_bound_exact_across_the_int64_threshold(top):
    rng = Random(top % 1000)
    for n in (1, 2, 4):
        rows = [[rng.randint(-top, top) for _ in range(n)] for _ in range(n)]
        rows[0][0] = -top
        assert hadamard_bound(IntMatrix(rows)) == _hadamard_reference(rows)
    assert hadamard_bound(IntMatrix([[top, 0], [0, 0]])) == 0


# -- limb products over object-dtype fields ----------------------------------------


def _dense(field, rows) -> DenseMatrix:
    return DenseMatrix(field, np.array(rows, dtype=object))


@pytest.mark.parametrize("p", (P_BIG, P_TOP))
@pytest.mark.parametrize("shape", ((1, 1), (3, 5), (64, 64), (7, 2)))
def test_limb_apply_matches_object_product(p, shape):
    field = field_new(p)
    rows, cols = shape
    rng = Random(p % 1013 + rows)
    full = [[p - 1] * cols for _ in range(rows)]
    rand = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
    for entries in (full, rand):
        a = _dense(field, entries)
        for x in ([p - 1] * cols, [rng.randrange(p) for _ in range(cols)], [0] * cols):
            xv = field.arr(x)
            want = a.a.dot(xv) % p
            got = a.apply(xv)
            assert got.dtype == object
            assert got.tolist() == want.tolist()
            assert all(type(v) is int for v in got)


@pytest.mark.parametrize("p", (P_BIG, P_TOP))
def test_limb_apply_across_width_steps(p):
    # the widths _limb_product splits at: one side while one fits, then both
    field = field_new(p)
    rng = Random(p % 1031)
    steps = _width_changes(p, 1 << 12) + _width_changes(p, 1 << 12, both=True)
    for k in sorted({n for c in steps for n in (c - 1, c)}):
        rows = [[rng.randrange(p) for _ in range(k)] for _ in range(2)]
        a = _dense(field, rows)
        for x in ([p - 1] * k, [rng.randrange(p) for _ in range(k)]):
            assert a.apply(field.arr(x)).tolist() == _ref_matvec(rows, x, p)


@pytest.mark.parametrize("p", PRIMES + (P_TOP,))
def test_limb_width_rule_at_its_boundaries(p):
    bits = (p - 1).bit_length()

    def fits(n, b, both):
        limb = (1 << b) - 1
        if both:
            return -(-bits // b) * n * limb * limb < 2**63
        return n * limb * (p - 1) < 2**63

    for both in (False, True):
        for n in (0, 1, 2, 3, 33, 2048, MAX_LEN, 2**40):
            b = _limb_width(p, n, both)
            assert 0 <= b <= bits
            assert b == 0 or fits(n, b, both)
            assert b == bits or not fits(n, b + 1, both)
        # each width holds up to its last length and no further
        for b in range(1, bits):
            last = _last_length_of_width(p, b, both)
            if last >= 1:
                assert _limb_width(p, last, both) == b
                assert _limb_width(p, last + 1, both) == b - 1


def test_limb_apply_zero_width():
    field = field_new(P_BIG)
    a = DenseMatrix(field, np.zeros((3, 0), dtype=object))
    assert a.apply(field.zeros(0)).tolist() == [0, 0, 0]


@pytest.mark.parametrize("p, one_plane", ((P_WORD, False), (P_BIG, False), (10007, True)))
def test_dense_matrix_splits_on_its_second_apply(monkeypatch, p, one_plane):
    """A matrix of two or more limb planes applied once multiplies by the
    split vector and builds no planes of its own; its second apply splits
    it, once for every later apply.  A GF(10007) matrix is its own one plane
    from its first apply.  A matrix made from another starts unsplit."""
    field = field_new(p)
    rng = Random(23)
    rows = [[rng.randrange(p) for _ in range(8)] for _ in range(8)]
    x = [rng.randrange(p) for _ in range(8)]
    d = [rng.randrange(1, p) for _ in range(8)]
    m = DenseMatrix(field, rows)
    assert la._one_plane(field, 8) == one_plane
    want = _ref_matvec(rows, x, p)
    assert la._mul_mod(field, m.a, field.arr(x)).tolist() == want
    split = []
    product = la._limb_product
    monkeypatch.setattr(la, "_limb_product", lambda f, a: split.append(a is m.a) or product(f, a))
    assert matvec(m, x).tolist() == want
    assert split.count(True) == one_plane
    for _ in range(2):
        assert matvec(m, x).tolist() == want
        assert split.count(True) == 1
    made = [m.scale_rows(field.arr(d)), m.to_dense(), IntMatrix(rows).reduce(field)]
    assert all(out._limbs is None for out in made)
    scaled_rows = [[di * v for v in row] for di, row in zip(d, rows)]
    assert made[0].apply(x).tolist() == _ref_matvec(scaled_rows, x, p)
    assert made[1].apply(x).tolist() == made[2].apply(x).tolist() == want


@pytest.mark.parametrize(
    "p,n", ((P_BIG, 9), (P_TOP, 9), (P_DET, 32), (P_DET, 33), (P_WORD, 1), (P_WORD, 2))
)
def test_dense_det_on_limb_planes_replays(p, n):
    # the scaled operator is split into limb planes over every field and at
    # every size, including n <= dot_chunk(), where it is one int64 plane
    field = field_new(p)
    rng = Random(p % 1019)
    a = _dense(field, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
    verdict, value = det_certify(a, FiatShamirSource(), prover_seed=7)
    assert verdict.accepted
    assert value == brute_det_field(field, a)
    replay, same = det_verify(a, verdict.transcript)
    assert replay.accepted and same == value


@pytest.mark.parametrize("p", PRIMES)
def test_geometric_vector_counts_n_minus_1(p):
    for n in (0, 1, 2, 17):
        counter = CostCounter()
        _geometric_vector(field_new(p), 2, n, counter)
        assert counter.ops == max(n - 1, 0)


# -- public matvec keeps reducing its input -----------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_matvec_reduces_non_canonical_input(p):
    field = field_new(p)
    rng = Random(p % 1021)
    rows = [[rng.randrange(p) for _ in range(6)] for _ in range(5)]
    x = [rng.randrange(p) for _ in range(6)]
    want = _ref_matvec(rows, x, p)
    # negatives and values past p, all congruent to x and inside int64
    shifted = [v - p if i % 2 else v + p * (i + 1) for i, v in enumerate(x)]
    sparse = SparseMatrix(
        field, 5, 6, [(i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row)]
    )
    for m in (DenseMatrix(field, rows), sparse, compose(sparse)):
        assert matvec(m, shifted).tolist() == want


# -- the integer-matrix encoding ---------------------------------------------------


_EDGE_INTS = [0, 1, -1, 255, -255, 256, -256, 2**63 - 1, -(2**63 - 1), -(2**63)]


def _encode_by_entries(m: IntMatrix) -> bytes:
    out = [b"I", struct.pack("<II", m.rows, m.cols)]
    for i in range(m.rows):
        for j in range(m.cols):
            out.append(encode_payload(KIND_BIGINT, m.a[i, j]))
    return b"".join(out)


def test_intmatrix_encode_int64_buffer_matches_entries():
    m = IntMatrix([_EDGE_INTS, _EDGE_INTS[::-1]])
    assert m.a.dtype == np.int64
    assert m.encode() == _encode_by_entries(m)
    rng = Random(67)
    for n in (1, 3, 16):
        rows = [[rng.randint(-(2**63), 2**63 - 1) >> rng.randrange(64) for _ in range(n)]
                for _ in range(n)]
        m = IntMatrix(rows)
        assert m.encode() == _encode_by_entries(m)


def test_intmatrix_encode_past_int64_matches_entries():
    m = IntMatrix([_EDGE_INTS + [2**70], [-(2**70)] + _EDGE_INTS])
    assert m.a.dtype == object
    assert m.encode() == _encode_by_entries(m)


def test_intmatrix_encode_empty():
    m = IntMatrix([])
    assert m.encode() == _encode_by_entries(m) == b"I" + struct.pack("<II", 0, 0)



# -- the sequence and polynomial kernels -----------------------------------------
#
# Lengths 0, 1, 31, 32, 33 straddle dot_chunk() == 32 at P_DET, and the
# kernels must agree with plain Python ints at every one of them.

KERNEL_LENGTHS = (0, 1, 31, 32, 33)


def _companion(p: int, f: list) -> list:
    """Companion matrix (plain rows) of the monic f, coefficients low-first."""
    k = len(f) - 1
    c = [[0] * k for _ in range(k)]
    for i in range(k):
        if i + 1 < k:
            c[i + 1][i] = 1
        c[i][k - 1] = -f[i] % p
    return c


def _random_monic(p: int, degree: int, rng: Random) -> list:
    return [rng.randrange(p) for _ in range(degree)] + [1]


def _unit(i: int, size: int) -> list:
    return [int(j == i) for j in range(size)]


def _sequence_cases(p: int, n: int):
    """(kind, matrix rows, u, v) whose sequences have known generator degrees."""
    rng = Random(p % 997 + n)
    full = _companion(p, _random_monic(p, n, rng))
    yield "zero", [[rng.randrange(p) for _ in range(n)] for _ in range(n)], [0] * n, [1] * n
    if n:
        # the sequence lives in a k-dimensional block, k < n
        k = n // 2
        block = _companion(p, _random_monic(p, k, rng))
        a = [[block[i][j] if i < k and j < k else 0 for j in range(n)] for i in range(n)]
        u = [rng.randrange(p) if i < k else 0 for i in range(n)]
        yield "deficient", a, u, _unit(0, n) if k else [0] * n
    yield "full", full, _unit(n - 1, n), _unit(0, n)
    yield "random", full, [rng.randrange(p) for _ in range(n)], _unit(0, n)


def _numerator_by_definition(gen: list, seq: list, p: int) -> list:
    m = len(gen) - 1
    out = [sum(gen[j + 1 + k] * seq[k] for k in range(m - j)) % p for j in range(m)]
    while out and out[-1] == 0:
        out.pop()
    return out


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", KERNEL_LENGTHS)
def test_berlekamp_massey_and_numerator_match_definitions(p, n):
    field = field_new(p)
    for kind, a, u, v in _sequence_cases(p, n):
        seq = projected_powers(field, a, u, v, 2 * n)
        gen = berlekamp_massey(field, seq)
        assert gen == brute_minpoly_fuv(field, a, u, v), kind
        assert gen.is_monic
        if kind == "zero":
            assert gen == Poly.one(field)
        elif kind == "deficient":
            assert gen.degree < n
        elif kind == "full":
            assert gen.degree == n
        num = numerator_from_sequence(gen, seq)
        assert num.coeffs == _numerator_by_definition(gen.coeffs, seq, p), kind
        assert num.degree < max(gen.degree, 1)
        if seq:
            broken = seq[:-1] + [(seq[-1] + 1) % p]
            with pytest.raises(GeneratorMismatch):
                numerator_from_sequence(gen, broken)


def test_numerator_rejects_a_window_shorter_than_the_generator():
    field = field_new(P_DET)
    with pytest.raises(GeneratorMismatch):
        numerator_from_sequence(Poly(field, [1, 2, 3, 1]), [1, 2])


def _naive_mul(a: list, b: list, p: int) -> list:
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [v % p for v in out]


def _naive_add(a: list, b: list, p: int) -> list:
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p for i in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _random_poly(p: int, length: int, rng: Random) -> list:
    if length == 0:
        return []
    return [rng.randrange(p) for _ in range(length - 1)] + [rng.randrange(1, p)]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("lf", KERNEL_LENGTHS)
@pytest.mark.parametrize("lg", KERNEL_LENGTHS)
def test_poly_xgcd_identity_monic_gcd_and_degree_bounds(p, lf, lg):
    field = field_new(p)
    rng = Random(1000 * lf + lg + p % 991)
    pairs = [(_random_poly(p, lf, rng), _random_poly(p, lg, rng), [1])]
    if lf > 3 and lg > 3:
        common = _random_monic(p, 3, rng)
        pairs.append(
            (_naive_mul(common, _random_poly(p, lf - 3, rng), p),
             _naive_mul(common, _random_poly(p, lg - 3, rng), p),
             common)
        )
    for fc, gc, common in pairs:
        f, g = Poly(field, fc), Poly(field, gc)
        if f.is_zero and g.is_zero:
            with pytest.raises(BothZero):
                poly_xgcd(f, g)
            continue
        d, s, t = poly_xgcd(f, g)
        assert d.is_monic
        lhs = _naive_add(_naive_mul(s.coeffs, f.coeffs, p), _naive_mul(t.coeffs, g.coeffs, p), p)
        assert lhs == d.coeffs
        # d divides f and g and is a combination of them: it is their gcd
        for x in (f, g):
            assert x.divmod_by(d)[1].is_zero
        assert d.divmod_by(Poly(field, common))[1].is_zero
        if f.degree > d.degree and g.degree > d.degree:
            # these bounds make the Bezout pair unique
            assert s.degree < g.degree - d.degree
            assert t.degree < f.degree - d.degree


def _naive_divmod(num: list, den: list, p: int) -> tuple:
    """Long division in Python ints, both results trimmed."""
    rem = list(num)
    inv = pow(den[-1], -1, p)
    q = [0] * max(len(num) - len(den) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + len(den) - 1] * inv % p
        q[k] = c
        for i, d in enumerate(den):
            rem[k + i] = (rem[k + i] - c * d) % p
    return _naive_add(q, [], p), _naive_add(rem, [], p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", (31, 32, 33))
def test_poly_mul_and_divmod_match_schoolbook(p, n):
    field = field_new(p)
    rng = Random(p % 983 + n)
    non_monic = _random_poly(p, n - 1, rng)[:-1] + [p - 1]
    cases = [
        [],  # zero
        [rng.randrange(1, p)],  # constant
        [rng.randrange(p), p - 1],  # non-monic linear divisor
        non_monic,
        _random_poly(p, n, rng),
        [p - 1] * n,  # the largest coefficients everywhere
        _random_poly(p, n + 5, rng),  # longer than every other dividend
    ]
    for a in cases:
        for b in cases:
            f, g = Poly(field, a), Poly(field, b)
            assert (f * g).coeffs == _naive_add(_naive_mul(a, b, p), [], p)
            if not b:
                with pytest.raises(DivisionByZero):
                    f.divmod_by(g)
                continue
            q, r = f.divmod_by(g)
            assert (q.coeffs, r.coeffs) == _naive_divmod(a, b, p)
            if len(b) > len(a):
                assert q.is_zero and r == f


@pytest.mark.parametrize("p", (3, P_DET, P_WORD, P_BIG, P_TOP))
def test_quotient_at_every_degree_with_top_cancellation(p):
    """``_quotient`` against Python-int long division: quotient degrees 0, 1
    and more, divisor tops of one, two and more coefficients, and quotient
    coefficients that cancel to zero below the top."""
    field = field_new(p)
    rng = Random(p % 971 + 3)
    dens = [
        [rng.randrange(1, p)],
        [rng.randrange(p), p - 1],
        _random_poly(p, 6, rng),
        [p - 1] * 9,
    ]
    quotients = [
        [rng.randrange(1, p)],  # degree 0
        [rng.randrange(p), rng.randrange(1, p)],  # degree 1
        [0, 1],
        [rng.randrange(1, p), 0, 0, p - 1],  # q_1 = q_2 = 0: the tops cancel
        [0] * 5 + [1],
        _random_poly(p, 12, rng),
    ]
    for den in dens:
        for q in quotients:
            rem = _random_poly(p, len(den) - 1, rng)
            num = _naive_add(_naive_mul(q, den, p), rem, p)
            got = _quotient(field, field.arr(num), field.arr(den))
            assert got == q == _naive_divmod(num, den, p)[0]
            assert all(type(c) is int for c in got)
        # a dividend shorter than the divisor has quotient zero
        assert _quotient(field, field.arr(den[:-1]), field.arr(den)) == []


@pytest.mark.parametrize(
    "p, lengths", ((P_WORD, (1, 2, 3, 64, 257)), (P_DET, (31, 32, 33)), (P_BIG, (1, 33, 40)))
)
def test_mul_arrays_matches_python_ints(p, lengths):
    """One ``_sub_mul`` from zero, reduced after every ``dot_chunk()``
    updates over int64, on both sides of ``dot_chunk()``; worst-case and
    random entries, in both orders."""
    field = field_new(p)
    rng = Random(p % 967 + 11)
    for short in lengths:
        for long in (short, short + 7, 300):
            for a, b in (
                ([p - 1] * short, [p - 1] * long),
                (_random_poly(p, short, rng), _random_poly(p, long, rng)),
            ):
                want = _naive_mul(a, b, p)
                assert _mul_arrays(field, field.arr(a), field.arr(b)).tolist() == want
                assert _mul_arrays(field, field.arr(b), field.arr(a)).tolist() == want


# -- the minimal-polynomial package in one Euclid pass -----------------------------
#
# Windows of length 0, 2, 62, 64 and 66 (n = 0, 1, 31, 32, 33) straddle
# dot_chunk() == 32 at P_DET; the single pass must give what the three public
# functions give, one after the other.

PACKAGE_SIZES = (0, 1, 31, 32, 33)


def _package_cases(p: int, n: int):
    """(kind, matrix rows, u, v): zero, deficient, gen(0) = 0 and full degree."""
    rng = Random(p % 991 + 7 * n)
    yield from _sequence_cases(p, n)
    if n:
        # strictly upper triangular: nilpotent, so its generator is x^k
        nil = [[rng.randrange(p) if j > i else 0 for j in range(n)] for i in range(n)]
        yield "nilpotent", nil, [rng.randrange(p) for _ in range(n)], _unit(n - 1, n)
        # a zero eigenvalue next to nonzero ones: gen(0) = 0 with full degree
        f = _random_monic(p, n - 1, rng)
        singular = _naive_mul(f, [0, 1], p)
        yield "singular", _companion(p, singular), _unit(n - 1, n), _unit(0, n)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", PACKAGE_SIZES)
def test_minpoly_package_equals_the_three_passes(p, n):
    field = field_new(p)
    for kind, a, u, v in _package_cases(p, n):
        seq = projected_powers(field, a, u, v, 2 * n)
        gen, num, phi, psi = minpoly_package(field, seq)
        want_gen = berlekamp_massey(field, seq)
        want_num = numerator_from_sequence(want_gen, seq)
        d, want_phi, want_psi = poly_xgcd(want_gen, want_num)
        assert d == Poly.one(field), kind
        assert (gen, num, phi, psi) == (want_gen, want_num, want_phi, want_psi), kind
        assert gen.is_monic
        if kind == "zero":
            assert (gen, num, phi, psi) == (Poly.one(field), Poly.zero(field),
                                            Poly.one(field), Poly.zero(field))
        elif kind == "deficient":
            assert gen.degree < n
        elif kind == "nilpotent":
            assert gen.coeffs == [0] * gen.degree + [1]
        elif kind in ("full", "singular"):
            assert gen.degree == n, kind
        if kind == "singular":
            assert gen.coeff(0) == 0
        # the Bezout identity and the strict bounds the verifier enforces
        lhs = _naive_add(_naive_mul(phi.coeffs, gen.coeffs, p),
                         _naive_mul(psi.coeffs, num.coeffs, p), p)
        assert lhs == [1], kind
        assert num.degree < gen.degree or (gen.degree == 0 and num.is_zero)
        assert phi.degree <= max(num.degree - 1, 0)
        assert psi.degree <= max(gen.degree - 1, 0)


def test_minpoly_package_refuses_a_window_without_a_short_generator():
    field = field_new(P_DET)
    # linear complexity 4 in a window of 4: no generator of degree <= 2
    with pytest.raises(GeneratorMismatch):
        minpoly_package(field, [0, 0, 0, 1])


# -- butterflies against the materialised matrix ---------------------------------
#
# 2147483659 and P_WORD are int64 primes whose sums a + b of two residues,
# times a third, pass 2^63; P_BIG runs on object arrays.

BUTTERFLY_PRIMES = (3, P_DET, 2147483659, P_WORD, P_BIG)


def _butterfly_rows(p: int, n_padded: int, thetas: list) -> list:
    """The butterfly's matrix in Python ints: layer t pairs i with i + 2^t
    (bit t of i clear) and maps (a, b) to (alpha a + beta b, alpha a - beta b)."""
    half = n_padded // 2
    layers = n_padded.bit_length() - 1
    m = [_unit(i, n_padded) for i in range(n_padded)]
    for t in range(layers):
        alphas = thetas[2 * half * t : 2 * half * t + half]
        betas = thetas[2 * half * t + half : 2 * half * (t + 1)]
        lows = [i for i in range(n_padded) if not i & (1 << t)]
        layer = [[0] * n_padded for _ in range(n_padded)]
        for k, i in enumerate(lows):
            j = i + (1 << t)
            layer[i][i], layer[i][j] = alphas[k], betas[k]
            layer[j][i], layer[j][j] = alphas[k], -betas[k] % p
        m = [[sum(layer[i][k] * m[k][j] for k in range(n_padded)) % p for j in range(n_padded)]
             for i in range(n_padded)]
    return m


@pytest.mark.parametrize("p", BUTTERFLY_PRIMES)
@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 8))
@pytest.mark.parametrize("params", ("random", "top"))
def test_butterfly_apply_and_transpose_match_python_ints(p, n, params):
    field = field_new(p)
    rng = Random(p % 1009 + 10 * n + len(params))
    count = butterfly_param_count(n)
    thetas = [p - 1] * count if params == "top" else [rng.randrange(1, p) for _ in range(count)]
    bf = Butterfly(field, n, thetas)
    size = bf.n_padded
    m = _butterfly_rows(p, size, thetas)
    mt = [list(col) for col in zip(*m)]
    top = [p - 1] * size
    for x, y in ((top, top), (top, [rng.randrange(p) for _ in range(size)]),
                 ([rng.randrange(p) for _ in range(size)], top)):
        bx = [int(v) for v in bf.apply(x)]
        bty = [int(v) for v in bf.apply_t(y)]
        assert bx == _times(p, m, x)
        assert bty == _times(p, mt, y)
        # the adjoint identity <Bx, y> = <x, B^T y>
        assert sum(a * b for a, b in zip(bx, y)) % p == sum(a * b for a, b in zip(x, bty)) % p


# -- dense products at zero width and the chunk edges ---------------------------


@pytest.mark.parametrize("p", (P_DET, P_WORD, P_BIG))
@pytest.mark.parametrize(
    "rows,inner,cols",
    [(0, 0, 0), (1, 0, 1), (1, 0, 3), (2, 1, 0), (0, 3, 2), (1, 1, 1),
     (2, 31, 2), (2, 32, 2), (2, 33, 3)],
)
def test_dense_matmul_and_matvec_edges(p, rows, inner, cols):
    field = field_new(p)
    rng = Random(rows * 100 + inner * 10 + cols)
    # row 0 of a and column 0 of b hold p - 1: the worst case for unreduced sums
    a = [[p - 1 if i == 0 else rng.randrange(p) for _ in range(inner)] for i in range(rows)]
    b = [[p - 1 if j == 0 else rng.randrange(p) for j in range(cols)] for _ in range(inner)]
    am = DenseMatrix(field, np.array(a, dtype=object).reshape(rows, inner))
    bm = DenseMatrix(field, np.array(b, dtype=object).reshape(inner, cols))
    got = la.dense_matmul(am, bm)
    assert got.shape == (rows, cols)
    assert got.a.dtype == field.dtype
    want = [[sum(a[i][t] * b[t][j] for t in range(inner)) % p for j in range(cols)]
            for i in range(rows)]
    assert [[int(v) for v in row] for row in got.a] == want
    x = [p - 1] * inner
    want_x = [sum(a[i][t] * x[t] for t in range(inner)) % p for i in range(rows)]
    sm = SparseMatrix(field, rows, inner, [(i, j, a[i][j]) for i in range(rows) for j in range(inner)])
    for m in (am, sm):
        y = matvec(m, x)
        assert y.dtype == field.dtype
        assert [int(v) for v in y] == want_x


# -- the dense product on both sides of every regime change -----------------------


P_PAST = 9223372036854775837  # the first prime above 2^63
EDGE_PRIMES = PRIMES + (P_TOP,)


def test_field_refuses_a_modulus_past_63_bits():
    field_new(P_TOP)
    with pytest.raises(ValueError, match="63 bits"):
        field_new(P_PAST)


def _inner_edges(p, top):
    """Inner dimensions up to top on both sides of ``dot_chunk()`` and of
    every step of either limb width."""
    chunk = field_new(p).dot_chunk()
    edges = {0, 1, 2, chunk - 1, chunk, chunk + 1}
    for both in (False, True):
        edges |= {n for c in _width_changes(p, top, both) for n in (c - 1, c)}
    return sorted(k for k in edges if 0 <= k <= top)


def _assert_canonical(field, got, want):
    assert got.dtype == field.dtype
    assert got.tolist() == want
    assert all(type(v) is int for v in got.ravel().tolist())


@pytest.mark.parametrize("p", EDGE_PRIMES)
def test_dense_product_worst_case_at_every_edge(p):
    # every entry p - 1, so every sum is as large as it can be
    field = field_new(p)
    for k in _inner_edges(p, MAX_LEN):
        a = field.arr([[p - 1] * k] * 2).reshape(2, k)
        x = a[0].copy()
        b = field.arr([[p - 1] * 3] * k).reshape(k, 3)
        full = k * (p - 1) ** 2 % p
        _assert_canonical(field, la._mul_mod(field, a, x), [full] * 2)
        _assert_canonical(field, la._mul_mod(field, a, b), [[full] * 3] * 2)
        # a transposed, non-contiguous left operand
        _assert_canonical(field, la._mul_mod(field, b.T, x), [full] * 3)
        # the first apply splits the matrix, the second reuses its planes
        op = DenseMatrix(field, a)
        _assert_canonical(field, matvec(op, x), [full] * 2)
        _assert_canonical(field, op.apply(x), [full] * 2)
        _assert_canonical(field, op.apply_t(field.arr([p - 1] * 2)), [2 * (p - 1) ** 2 % p] * k)


@pytest.mark.parametrize("p", EDGE_PRIMES)
@pytest.mark.parametrize("rows,cols", [(0, 0), (1, 1), (3, 0), (0, 3), (2, 3)])
def test_dense_product_matches_python_ints(p, rows, cols):
    field = field_new(p)
    rng = Random(p % 1009 + 10 * rows + cols)
    for k in _inner_edges(p, 80) + [5]:
        a = [[rng.randrange(p) for _ in range(k)] for _ in range(rows)]
        b = [[rng.randrange(p) for _ in range(cols)] for _ in range(k)]
        x = [rng.randrange(p) for _ in range(k)]
        y = [rng.randrange(p) for _ in range(rows)]
        am = DenseMatrix(field, np.array(a, dtype=object).reshape(rows, k))
        bm = DenseMatrix(field, np.array(b, dtype=object).reshape(k, cols))
        want = [[sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(cols)]
                for i in range(rows)]
        want_x = _ref_matvec(a, x, p)
        want_t = [sum(a[i][t] * y[i] for i in range(rows)) % p for t in range(k)]
        _assert_canonical(field, la.dense_matmul(am, bm).a, want)
        _assert_canonical(field, la._mul_mod(field, am.a, bm.a), want)
        _assert_canonical(field, matvec(am, x), want_x)
        _assert_canonical(field, la._mul_mod(field, am.a.T, field.arr(y).reshape(rows)), want_t)
        _assert_canonical(field, am.apply(x), want_x)
        _assert_canonical(field, am.apply_t(y), want_t)


# -- dense elimination: the blocked kernel and its solvers, at its panel edges --


def _times(p, a, x):
    """a x mod p in Python ints, for a list of rows and a vector."""
    return [sum(v * w for v, w in zip(row, x)) % p for row in a]


def _rank_r_rows(p, rng, rows, cols, r):
    """A rows x cols list of rows of rank at most r: (rows x r)(r x cols)."""
    left = [[rng.choice([1, p - 1, rng.randrange(p)]) for _ in range(r)] for _ in range(rows)]
    right = [[rng.choice([1, p - 1, rng.randrange(p)]) for _ in range(cols)] for _ in range(r)]
    return [[sum(left[i][t] * right[t][j] for t in range(r)) % p for j in range(cols)]
            for i in range(rows)]


ELIMINATION_PRIMES = (3, P_DET, P_WORD, P_BIG, P_TOP)
B = la.PANEL


def _rref(field, m):
    """In-place reduced row echelon; returns the pivot columns.

    The row-at-a-time elimination the dense solvers ran before the blocked
    kernel, kept as the reference that pins their answers on singular
    inputs: the free variables of a solution are 0, and the kernel vector
    is 1 at the first non-pivot column and 0 past it.
    """
    p = field.p
    rows, cols = m.shape
    r = 0
    pivots = []
    for c in range(cols):
        if r == rows:
            break
        pr = None
        for i in range(r, rows):
            if m[i, c] != 0:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = m[r] * field.inv(int(m[r, c])) % p
        col = m[:, c].copy()
        col[r] = 0
        nz = np.nonzero(col)[0]
        if len(nz):
            m[nz] = (m[nz] - np.outer(col[nz], m[r])) % p
        pivots.append(c)
        r += 1
    return pivots


def _rref_solve(a, b):
    field = a.field
    aug = field.zeros((a.rows, a.cols + 1))
    aug[:, : a.cols] = a.a
    aug[:, a.cols] = field.arr(b)
    pivots = _rref(field, aug)
    if pivots and pivots[-1] == a.cols:
        return None
    x = field.zeros(a.cols)
    for row, c in enumerate(pivots):
        x[c] = aug[row, a.cols]
    return x


def _rref_kernel(a):
    field = a.field
    m = a.a.copy()
    pivots = _rref(field, m)
    if len(pivots) == a.cols:
        return None
    free = next(c for c in range(a.cols) if c not in set(pivots))
    x = field.zeros(a.cols)
    x[free] = 1
    for row, c in enumerate(pivots):
        x[c] = -m[row, free] % field.p
    return x


def _random_rows(p, rng, rows, cols):
    return [[rng.choice([1, p - 1, rng.randrange(p)]) for _ in range(cols)] for _ in range(rows)]


def _dependent(p, cells, target, sources):
    """cells with column target replaced by a combination of the sources."""
    coef = [(k + 2) % p or 1 for k in range(len(sources))]
    for row in cells:
        row[target] = sum(c * row[s] for c, s in zip(coef, sources)) % p
    return cells


def _panel_edge_case(name, p, rng):
    """A list of rows named by the shape or rank profile it exercises."""
    if name == "0x0":
        return []
    if name == "1x1":
        return [[p - 1]]
    if name == "1x1 zero":
        return [[0]]
    if name == "rank 0":
        return [[0] * (B + 3) for _ in range(5)]
    if name == "tall":
        return _rank_r_rows(p, rng, 2 * B + 1, 5, 5)
    if name == "wide":
        return _rank_r_rows(p, rng, 5, 2 * B + 1, 5)
    if name in SQUARE_SIZES:
        n = SQUARE_SIZES[name]
        return _random_rows(p, rng, n, n)
    n = 2 * B + 1
    cells = _random_rows(p, rng, n, n)
    if name == "pivotless inside a panel":
        return _dependent(p, cells, 5, [0, 3])
    if name == "pivotless at panel edges":
        # the last column of the first panel and the first of the second
        return _dependent(p, _dependent(p, cells, B - 1, [1, 2]), B, [0, B - 1])
    if name == "zero column at a panel edge":
        for row in cells:
            row[B] = 0
        return cells
    if name == "rank-deficient tall":
        return _rank_r_rows(p, rng, 3 * B, 2 * B + 1, B + 2)
    raise AssertionError(name)


SQUARE_SIZES = {
    "n = b - 1": B - 1, "n = b": B, "n = b + 1": B + 1,
    "n = 2b - 1": 2 * B - 1, "n = 2b": 2 * B, "n = 2b + 1": 2 * B + 1,
}
PANEL_EDGE_CASES = (
    "0x0", "1x1", "1x1 zero", "rank 0", "tall", "wide", *SQUARE_SIZES,
    "pivotless inside a panel", "pivotless at panel edges", "zero column at a panel edge",
    "rank-deficient tall",
)


def _check_dense_solvers(p, cells, rng):
    """The five dense solvers on one list of rows, against ``vlac.oracle``
    and, for the answers a singular input leaves open, against ``_rref``."""
    field = field_new(p)
    rows, cols = len(cells), len(cells[0]) if cells else 0
    a = DenseMatrix(field, np.array(cells, dtype=object).reshape(rows, cols))
    rank = brute_rank(field, cells)
    assert la.rank_dense(a) == rank
    if rows == cols:
        assert det_dense(a) == brute_det_field(field, cells)

    # a consistent right-hand side: the one solution whose free variables
    # are 0, which is what the oracle returns too
    b = _times(p, cells, [rng.randrange(p) for _ in range(cols)])
    x = la.solve_dense(a, b)
    assert x.dtype == field.dtype and len(x) == cols
    assert [int(v) for v in x] == _solve_field(p, cells, b)
    assert _times(p, cells, [int(v) for v in x]) == b
    assert np.array_equal(x, _rref_solve(a, b))

    # an inconsistent one, when the column space misses some vector
    if rank < rows:
        b = next(c for c in ([rng.randrange(p) for _ in range(rows)] for _ in range(200))
                 if _solve_field(p, cells, c) is None)
        assert la.solve_dense(a, b) is None and _rref_solve(a, b) is None

    k = la.kernel_vector(a)
    if rank == cols:
        assert k is None and _rref_kernel(a) is None
    else:
        ks = [int(v) for v in k]
        assert any(ks) and _times(p, cells, ks) == [0] * rows
        assert np.array_equal(k, _rref_kernel(a))

    if rows == cols:
        inv = la.invert_dense(a)
        if rank < rows:
            assert inv is None
        else:
            assert inv.shape == (rows, rows) and inv.a.dtype == field.dtype
            w = [[int(v) for v in row] for row in inv.a]
            cols_of_w = [list(c) for c in zip(*w)] if rows else []
            product = [_times(p, cells, c) for c in cols_of_w]  # columns of a w
            assert product == [[int(i == j) for i in range(rows)] for j in range(rows)]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("rows,cols", [(0, 0), (1, 1), (0, 2), (2, 0), (4, 4), (3, 5), (5, 3)])
@pytest.mark.parametrize("deficit", [0, 1, 9])
def test_elimination_consumers_match_oracle(p, rows, cols, deficit):
    rng = Random(p + rows * 31 + cols * 7 + deficit)
    cells = _rank_r_rows(p, rng, rows, cols, max(min(rows, cols) - deficit, 0))
    _check_dense_solvers(p, cells, rng)


@pytest.mark.parametrize("p", ELIMINATION_PRIMES)
@pytest.mark.parametrize("name", PANEL_EDGE_CASES)
def test_dense_solvers_at_panel_edges(p, name):
    rng = Random(f"{p} {name}")
    _check_dense_solvers(p, _panel_edge_case(name, p, rng), rng)


@pytest.mark.parametrize("p", ELIMINATION_PRIMES)
def test_elimination_kernel_factors_p_m_as_l_u(p):
    """P m = L U with the documented storage, across three panels with
    pivotless columns inside and at the edges of a panel."""
    field = field_new(p)
    rng = Random(p)
    cells = _random_rows(p, rng, 3 * B + 1, 2 * B + 1)
    for target, sources in ((B - 1, [1, 2]), (B, [0, B - 1]), (2 * B, [0, 5])):
        _dependent(p, cells, target, sources)
    m = field.arr(cells)
    swaps, pivots = la._ple(field, m)
    rows, cols = m.shape
    r = len(pivots)
    assert r == brute_rank(field, cells) and pivots == sorted(pivots)
    assert pivots[: B - 1] == list(range(B - 1))
    assert not {B - 1, B, 2 * B} & set(pivots)
    perm = list(range(rows))
    for i, s in enumerate(swaps):
        assert i <= s < rows
        perm[i], perm[s] = perm[s], perm[i]
    lo = [[0] * r for _ in range(rows)]
    up = [[0] * cols for _ in range(r)]
    for i in range(rows):
        for j in range(min(i, r)):
            lo[i][j] = int(m[i, pivots[j]])
        if i < r:
            lo[i][i] = 1
            up[i][pivots[i] :] = [int(v) for v in m[i, pivots[i] :]]
            assert up[i][pivots[i]] != 0
            assert all(int(v) == 0 for c, v in enumerate(m[i, : pivots[i]]) if c not in pivots)
    for i in range(r, rows):
        assert all(int(v) == 0 for c, v in enumerate(m[i]) if c not in pivots[:r])
    product = [[sum(lo[i][t] * up[t][c] for t in range(r)) % p for c in range(cols)]
               for i in range(rows)]
    assert product == [cells[perm[i]] for i in range(rows)]


def test_narrow_matrices_make_no_product(monkeypatch):
    """Fewer than 2 PANEL columns is one panel, and at most PANEL rows one
    block of the back substitution: neither calls the product."""
    field = field_new(P_DET)
    calls = []
    product = la._mul_mod
    monkeypatch.setattr(la, "_mul_mod", lambda *a: calls.append(1) or product(*a))
    rng = Random(7)
    a = DenseMatrix(field, _random_rows(P_DET, rng, B, B))
    assert la.solve_dense(a, [1] * B) is not None and la.invert_dense(a) is not None
    assert det_dense(DenseMatrix(field, _random_rows(P_DET, rng, 2 * B - 1, 2 * B - 1))) != 0
    assert not calls
    det_dense(DenseMatrix(field, _random_rows(P_DET, rng, 2 * B, 2 * B)))
    assert len(calls) == 1


@pytest.mark.parametrize("p", (3, P_DET, P_WORD))
def test_reduce_matches_remainder_on_both_paths(p):
    rng = np.random.default_rng(p % 1000)
    top = (p - 1) ** 2 * max(field_new(p).dot_chunk() - 1, 1)
    for size in (1, 1023, 1024, 5000):
        x = rng.integers(-min(top, 2**63 - 2 * p), p, size)
        x[0] = -min(top, 2**63 - 2 * p)
        want = x % p
        got = la._reduce(x, p)
        assert got is x and np.array_equal(got, want)
