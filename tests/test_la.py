"""Dense/sparse matrices, blackbox operators, butterfly mixers, elimination."""

from random import Random

import numpy as np
import pytest

from vlac.errors import DimensionMismatch, DivisionByZero, FieldMismatch
from vlac.ff import field_new
from vlac.la import (
    Blackbox,
    Butterfly,
    CostCounter,
    DenseMatrix,
    SparseMatrix,
    butterfly_padding,
    butterfly_param_count,
    compose,
    dense_matmul,
    det_dense,
    diagonal_scaling,
    invert_dense,
    kernel_vector,
    leading_projection,
    matvec,
    padded,
    rank_dense,
    solve_dense,
)
from vlac.oracle import brute_det_field, brute_rank


def rand_dense(field, rng, rows, cols):
    return DenseMatrix(
        field, [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)]
    )


def rand_thetas(rng, p, count):
    return [rng.randrange(1, p) for _ in range(count)]


# -- products -------------------------------------------------------------------


def test_matvec_dense_hand_value(gf101):
    a = DenseMatrix(gf101, [[2, 1], [1, 1]])
    assert list(matvec(a, [1, 1])) == [3, 2]
    assert list(matvec(a, [100, 1])) == [100, 0]


def test_matvec_counter_accounting(gf101):
    a = DenseMatrix(gf101, [[2, 1], [1, 1]])
    c = CostCounter()
    matvec(a, [1, 1], c)
    assert c.ops == a.mu == 8
    s = SparseMatrix(gf101, 3, 3, [(0, 0, 5), (2, 1, 7)])
    matvec(s, [1, 1, 1], c)
    assert c.ops == 8 + s.mu == 8 + 4


def test_matvec_sparse_matches_dense(gf101, gf10007):
    rng = Random(3)
    for field in (gf101, gf10007):
        for _ in range(20):
            rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
            triples = [
                (i, j, rng.randrange(field.p))
                for i in range(rows)
                for j in range(cols)
                if rng.random() < 0.4
            ]
            s = SparseMatrix(field, rows, cols, triples)
            x = [rng.randrange(field.p) for _ in range(cols)]
            assert list(matvec(s, x)) == list(matvec(s.to_dense(), x))


def test_matvec_object_dtype_path():
    # (p-1)^2 overflows int64, forcing the exact-integer code path
    big = field_new((1 << 61) - 1)
    assert big.dtype is object
    rng = Random(5)
    a = rand_dense(big, rng, 4, 4)
    s = SparseMatrix(big, 4, 4, [(i, j, a.a[i, j]) for i in range(4) for j in range(4)])
    x = [rng.randrange(big.p) for _ in range(4)]
    want = [sum(a.a[i, j] * x[j] for j in range(4)) % big.p for i in range(4)]
    assert list(matvec(a, x)) == want
    assert list(matvec(s, x)) == want


def test_dense_matmul_hand_value(gf101):
    a = DenseMatrix(gf101, [[2, 1], [1, 1]])
    b = DenseMatrix(gf101, [[1, 2], [3, 4]])
    assert dense_matmul(a, b) == DenseMatrix(gf101, [[5, 8], [4, 6]])


def test_operands_over_different_fields_raise_field_mismatch(gf101, gf10007):
    a = DenseMatrix(gf101, [[2, 1], [1, 1]])
    b = DenseMatrix(gf10007, [[1, 2], [3, 4]])
    with pytest.raises(FieldMismatch, match="fields differ"):
        dense_matmul(a, b)
    with pytest.raises(FieldMismatch, match="compose: fields differ"):
        compose(a, b)


def test_dense_matmul_wide_accumulation(gf_big):
    # k past the int64-safe chunk width exercises chunked accumulation
    rng = Random(7)
    k = gf_big.dot_chunk() * 2 + 3
    assert k < 1000
    a = rand_dense(gf_big, rng, 2, k)
    b = rand_dense(gf_big, rng, k, 2)
    got = dense_matmul(a, b)
    for i in range(2):
        for j in range(2):
            want = sum(int(a.a[i, t]) * int(b.a[t, j]) for t in range(k)) % gf_big.p
            assert got.a[i, j] == want


@pytest.mark.parametrize("p", (101, 3037000507))
def test_dense_matrix_is_c_ordered_whatever_the_input(p):
    field = field_new(p)
    rng = Random(p)
    cells = [[rng.randrange(3 * p) for _ in range(5)] for _ in range(3)]
    m = DenseMatrix(field, cells)
    fortran = DenseMatrix(field, np.asfortranarray(np.array(cells, dtype=field.dtype)))
    transposed = DenseMatrix(field, m.a.T)
    for d in (m, fortran, transposed, DenseMatrix(field, fortran.a.T)):
        assert d.a.flags.c_contiguous
        assert d.a.dtype == field.dtype
    want = [[v % p for v in row] for row in cells]
    assert fortran.a.tolist() == want
    assert transposed.a.tolist() == [list(col) for col in zip(*want)]


def test_sparse_validation(gf101):
    with pytest.raises(DimensionMismatch):
        SparseMatrix(gf101, 2, 2, [(0, 0, 1), (0, 0, 2)])
    with pytest.raises(DimensionMismatch):
        SparseMatrix(gf101, 2, 2, [(2, 0, 1)])
    # zeros are dropped from storage
    s = SparseMatrix(gf101, 2, 2, [(0, 0, 101), (1, 1, 3)])
    assert s.nnz == 1


@pytest.mark.parametrize(
    "triples, message",
    [
        ([(0, 0, 1), (0, 0, 2)], "duplicate entry at (0,0)"),
        ([(1, 1, 1), (2, 0, 1)], "entry (2,0) outside 2x2"),
        ([(0, -1, 1)], "entry (0,-1) outside 2x2"),
        ([(2**70, 0, 1)], f"entry ({2**70},0) outside 2x2"),
        # the first faulty triple, in the given order, is named
        ([(0, 1, 1), (5, 5, 1), (0, 1, 2)], "entry (5,5) outside 2x2"),
        ([(0, 1, 1), (1, 0, 3), (0, 1, 2), (5, 5, 1)], "duplicate entry at (0,1)"),
        ([(1, 1, 1), (0, 0, 1), (1, 1, 0), (0, 0, 0)], "duplicate entry at (1,1)"),
    ],
)
def test_sparse_first_fault_is_named(gf101, triples, message):
    with pytest.raises(DimensionMismatch) as info:
        SparseMatrix(gf101, 2, 2, triples)
    assert str(info.value) == message


def test_sparse_entries_sorted_reduced_and_transposed(gf101):
    s = SparseMatrix(gf101, 3, 2, [(2, 1, -1), (0, 1, 2**70), (0, 0, 202), (1, 0, 5)])
    assert list(s.triples()) == [(0, 1, 2**70 % 101), (1, 0, 5), (2, 1, 100)]
    assert s.ri.dtype == s.ci.dtype == np.int64 and s.vals.dtype == np.int64
    t = SparseMatrix.from_arrays(gf101, 2, 3, s.ci, s.ri, s.vals)
    assert t.shape == (2, 3)
    assert list(t.triples()) == [(0, 1, 5), (1, 0, 2**70 % 101), (1, 2, 100)]
    same = SparseMatrix.from_arrays(gf101, 3, 2, s.ri, s.ci, s.vals)
    assert list(same.triples()) == list(s.triples())


# -- blackbox combinators -------------------------------------------------------


def all_probe_ops(field, rng):
    """A zoo of operators paired with dense references."""
    a = rand_dense(field, rng, 4, 4)
    d = [rng.randrange(1, field.p) for _ in range(4)]
    bf = Butterfly(field, 4, rand_thetas(rng, field.p, butterfly_param_count(4)))
    s = SparseMatrix(
        field, 4, 4, [(i, j, a.a[i, j]) for i in range(4) for j in range(4) if (i + j) % 2]
    )
    diag = DenseMatrix(field, np.diag(d))
    pairs = [
        (a, a),
        (s, s.to_dense()),
        (bf, None),
        (compose(a), a),
        (compose(s), s.to_dense()),
        (diagonal_scaling(field, d), diag),
        (compose(bf), bf.to_dense()),
        (compose(s).scale_rows(field.arr(d)), dense_matmul(diag, s.to_dense())),
        (compose(a, s), dense_matmul(a, s.to_dense())),
        (padded(a, 6, 5), None),
        (leading_projection(a, 2), None),
    ]
    return pairs


def test_blackbox_linearity_and_transpose(gf101):
    rng = Random(11)
    p = gf101.p
    for op, ref in all_probe_ops(gf101, rng):
        rows, cols = op.shape
        for _ in range(5):
            x = gf101.arr([rng.randrange(p) for _ in range(cols)])
            y = gf101.arr([rng.randrange(p) for _ in range(cols)])
            z = gf101.arr([rng.randrange(p) for _ in range(rows)])
            c = rng.randrange(p)
            assert list(op.apply((x + y) % p)) == list(
                (op.apply(x) + op.apply(y)) % p
            )
            assert list(op.apply(c * x % p)) == list(c * op.apply(x) % p)
            # adjoint probe: z . (A x) == (A^T z) . x
            lhs = int(sum(int(v) * int(w) for v, w in zip(z, op.apply(x)))) % p
            rhs = int(sum(int(v) * int(w) for v, w in zip(op.apply_t(z), x))) % p
            assert lhs == rhs
            # inputs are reduced first: x and x + kp give the same products
            for k in (1, -1):
                assert list(op.apply(x + k * p)) == list(op.apply(x))
                assert list(op.apply_t(z + k * p)) == list(op.apply_t(z))
            counter = CostCounter()
            assert list(matvec(op, x, counter)) == list(op.apply(x))
            assert counter.ops == op.mu
        with pytest.raises(DimensionMismatch):
            op.apply(gf101.zeros(cols + 1))
        with pytest.raises(DimensionMismatch):
            op.apply_t(gf101.zeros(rows + 1))
        if ref is not None:
            assert op.to_dense() == ref


def _probed(m) -> np.ndarray:
    """The operator's matrix, one identity column at a time."""
    out = m.field.zeros(m.shape)
    for j in range(m.cols):
        e = m.field.zeros(m.cols)
        e[j] = 1
        out[:, j] = m.apply(e)
    return out


@pytest.mark.parametrize("p", (101, 3037000507))
@pytest.mark.parametrize("shape", ((0, 0), (1, 1), (3, 5)))
def test_materialize_matrices_is_a_fresh_copy(p, shape):
    field = field_new(p)
    rng = Random(p % 97 + shape[1])
    rows, cols = shape
    flat = [rng.randrange(p) for _ in range(rows * cols)]
    dense = DenseMatrix(field, field.arr(flat).reshape(rows, cols))
    sparse = SparseMatrix(
        field, rows, cols,
        [(i, j, rng.randrange(1, p)) for i in range(rows) for j in range(cols) if (i + j) % 2 == 0],
    )
    for m in (dense, sparse, compose(dense)):
        before = _probed(m)
        out = m.to_dense()
        assert out.shape == shape
        assert np.array_equal(out.a, before)
        out.a[...] = 1
        assert np.array_equal(_probed(m), before)


def block_ops(field, rng):
    """Every operator kind and combinator: rectangular and 1x1 ones, butterfly
    mixings of a padded square at n = 3 and 5 with their 0x0 corners, and a
    sparse matrix with a row and a column of three entries, wider than
    ``dot_chunk()`` at P_WORD."""
    a = rand_dense(field, rng, 3, 5)
    d = [rng.randrange(1, field.p) for _ in range(5)]
    s = SparseMatrix(
        field, 5, 4,
        [(0, 0, 1), (0, 1, field.p - 1), (0, 3, rng.randrange(1, field.p)),
         (2, 0, rng.randrange(1, field.p)), (4, 0, field.p - 1), (3, 2, 1)],
    )
    ops = [
        a,
        rand_dense(field, rng, 1, 1),
        s,
        s.scale_rows(field.arr(d)),
        Butterfly(field, 1, []),
        diagonal_scaling(field, d),
        compose(a, s),
        compose(s).scale_rows(field.arr(d)),
        padded(a, 4, 6),
        leading_projection(a, 2),
        leading_projection(a, 0),
    ]
    for n in (3, 5):
        count = butterfly_param_count(n)
        u = Butterfly(field, n, rand_thetas(rng, field.p, count))
        v = Butterfly(field, n, rand_thetas(rng, field.p, count))
        size = u.n_padded
        mixed = compose(u, padded(rand_dense(field, rng, n, n), size, size), v)
        ops += [u, mixed, leading_projection(mixed, n), leading_projection(mixed, 0)]
    return ops


# p = 3, GF(10007), P_WORD (``dot_chunk() == 1``) and P_BIG (``object``)
@pytest.mark.parametrize("p", (3, 10007, 3037000493, 3037000507))
def test_block_applies_are_the_stack_of_column_applies(p):
    field = field_new(p)
    rng = Random(p % 1009)
    for op in block_ops(field, rng):
        for name, n, m in (("apply", op.cols, op.rows), ("apply_t", op.rows, op.cols)):
            for k in (0, 1, 3):
                block = field.arr([rng.randrange(p) for _ in range(n * k)]).reshape(n, k)
                given = block.copy()
                want = field.zeros((m, k))
                for j in range(k):
                    want[:, j] = getattr(op, name)(block[:, j])
                # the canonical block straight to the class's own apply
                out = getattr(op, "_" + name)(block)
                assert out.shape == (m, k) and out.dtype == field.dtype, op
                assert np.array_equal(out, want), op
                assert np.array_equal(block, given)
                assert np.array_equal(getattr(op, name)(block), want), op
        dense = op.to_dense()
        assert dense.shape == op.shape
        assert np.array_equal(dense.a, _probed(op)), op


def test_to_dense_is_one_apply(gf101):
    a = rand_dense(gf101, Random(29), 3, 4)
    calls = []

    def apply(x):
        calls.append(x.shape)
        return a.apply(x)

    assert Blackbox(gf101, 3, 4, a.mu, apply, a.apply_t).to_dense() == a
    assert calls == [(4, 4)]


def test_compose_shapes_and_cost(gf101):
    rng = Random(13)
    a = rand_dense(gf101, rng, 3, 4)
    b = rand_dense(gf101, rng, 4, 2)
    ab = compose(a, b)
    assert ab.shape == (3, 2)
    assert ab.mu == a.mu + b.mu
    assert ab.to_dense() == dense_matmul(a, b)
    with pytest.raises(DimensionMismatch):
        compose(b, a)
    with pytest.raises(DimensionMismatch):
        compose()


def test_padded_embeds_and_keeps_rank(gf101):
    a = DenseMatrix(gf101, [[1, 2], [2, 4]])
    big = padded(a, 4, 3).to_dense()
    assert big.shape == (4, 3)
    assert big.a[0, 1] == 2 and big.a[3, 2] == 0
    assert brute_rank(gf101, big) == brute_rank(gf101, a) == 1


def test_leading_projection_hand_value(gf101):
    a = DenseMatrix(gf101, [[1, 2], [7, 3]])
    assert leading_projection(a, 1).to_dense() == DenseMatrix(gf101, [[1]])
    assert leading_projection(a, 2).to_dense() == a
    with pytest.raises(DimensionMismatch):
        leading_projection(a, 3)


def test_diagonal_rejects_zero(gf101):
    with pytest.raises(DivisionByZero):
        diagonal_scaling(gf101, [1, 0, 2])


# -- butterflies ----------------------------------------------------------------


def test_butterfly_padding_and_params():
    assert [butterfly_padding(n) for n in (1, 2, 3, 4, 5, 8, 9)] == [
        1, 2, 4, 4, 8, 8, 16,
    ]
    assert butterfly_param_count(1) == 0
    assert butterfly_param_count(2) == 2
    assert butterfly_param_count(5) == 24


def test_butterfly_single_switch(gf101):
    bf = Butterfly(gf101, 2, [1, 1])
    assert list(bf.apply([3, 5])) == [8, 99]
    assert bf.to_dense() == DenseMatrix(gf101, [[1, 1], [1, 100]])
    th = Butterfly(gf101, 2, [7, 2])
    # (7*3 + 2*5, 7*3 - 2*5)
    assert list(th.apply([3, 5])) == [31, 11]
    assert th.to_dense() == DenseMatrix(gf101, [[7, 2], [7, 99]])


def test_butterfly_no_invariant_directions(gf101):
    """No input direction may be fixed by the whole family.

    A switch with a parameter-free output would map some fixed combination
    (for example the all-ones vector) the same way under every parameter
    choice, and rank mixing would fail on matrices orthogonal to it.
    """
    rng = Random(5)
    n = 8
    ones = [1] * n
    images = set()
    for _ in range(10):
        bf = Butterfly(gf101, n, rand_thetas(rng, 101, butterfly_param_count(n)))
        images.add(tuple(int(v) for v in bf.apply(ones)))
    assert len(images) > 1


def test_butterfly_validation(gf101):
    with pytest.raises(DimensionMismatch):
        Butterfly(gf101, 4, [1, 2, 3])  # wants 8 parameters
    with pytest.raises(DivisionByZero):
        Butterfly(gf101, 2, [0, 1])


def test_butterfly_cost_bound(gf101):
    for n in (2, 3, 5, 8, 16, 33):
        np_ = butterfly_padding(n)
        bf = Butterfly(gf101, n, [1] * butterfly_param_count(n))
        assert bf.mu <= 2 * np_ * (np_.bit_length() - 1)


def test_butterfly_always_invertible(gf101):
    rng = Random(17)
    for n in (2, 3, 5, 8):
        for _ in range(5):
            bf = Butterfly(gf101, n, rand_thetas(rng, 101, butterfly_param_count(n)))
            m = bf.to_dense()
            assert brute_det_field(gf101, m) != 0


def test_butterfly_genericity(gf10007):
    """Random mixing makes the leading corner of a rank-r matrix nonsingular."""
    rng = Random(19)
    n, r = 8, 3
    while True:
        left = rand_dense(gf10007, rng, n, r)
        right = rand_dense(gf10007, rng, r, n)
        a = dense_matmul(left, right)
        if brute_rank(gf10007, a) == r:
            break
    count = butterfly_param_count(n)
    hits = 0
    for _ in range(100):
        u = Butterfly(gf10007, n, rand_thetas(rng, 10007, count))
        v = Butterfly(gf10007, n, rand_thetas(rng, 10007, count))
        mixed = compose(u, a, v).to_dense()
        corner = DenseMatrix(gf10007, mixed.a[:r, :r])
        if brute_det_field(gf10007, corner) != 0:
            hits += 1
    assert hits >= 95


# -- elimination helpers vs oracles ---------------------------------------------


def test_det_and_rank_match_oracles(gf101):
    rng = Random(23)
    for _ in range(100):
        n = rng.randrange(1, 6)
        a = rand_dense(gf101, rng, n, n)
        if rng.random() < 0.3 and n > 1:  # force singular sometimes
            a.a[n - 1] = a.a[0]
        assert det_dense(a) == brute_det_field(gf101, a)
        assert rank_dense(a) == brute_rank(gf101, a)


def test_invert_dense(gf101):
    rng = Random(29)
    eye = DenseMatrix(gf101, np.eye(3, dtype=int))
    for _ in range(30):
        a = rand_dense(gf101, rng, 3, 3)
        inv = invert_dense(a)
        if brute_det_field(gf101, a) == 0:
            assert inv is None
        else:
            assert dense_matmul(a, inv) == eye
    assert invert_dense(DenseMatrix(gf101, [[1, 2], [2, 4]])) is None


def test_kernel_vector(gf101):
    rng = Random(31)
    for _ in range(30):
        n = rng.randrange(1, 6)
        a = rand_dense(gf101, rng, n, n)
        if rng.random() < 0.5 and n > 1:
            a.a[n - 1] = (3 * a.a[0]) % 101
        k = kernel_vector(a)
        if brute_rank(gf101, a) == n:
            assert k is None
        else:
            assert any(int(v) for v in k)
            assert not any(int(v) for v in matvec(a, k))


def test_solve_dense(gf101):
    rng = Random(37)
    solved = refused = 0
    for _ in range(60):
        n = rng.randrange(1, 6)
        a = rand_dense(gf101, rng, n, n)
        if rng.random() < 0.4 and n > 1:
            a.a[n - 1] = a.a[0]
        b = [rng.randrange(101) for _ in range(n)]
        x = solve_dense(a, b)
        if x is None:
            refused += 1
            stacked = DenseMatrix(gf101, np.column_stack([a.a, gf101.arr(b)]))
            assert brute_rank(gf101, stacked) > brute_rank(gf101, a)
        else:
            solved += 1
            assert list(matvec(a, x)) == list(gf101.arr(b))
    assert solved and refused
