"""Exact linear algebra over GF(p): dense and sparse matrices, blackbox
operators with explicit apply costs, and butterfly preconditioners.

Matrix data lives in numpy arrays: int64 when products of residues fit it,
else ``object`` arrays of exact Python ints.  Sparse int64 products run as
``scipy.sparse`` CSR products; scipy is a required dependency, imported
outright.

The int64 overflow argument: ``_limb_product``, under every dense product,
runs on int64 limb planes over int64 and ``object`` fields alike.  An
operand split into b-bit limbs with k (2^b - 1)(p - 1) < 2^63 sums k
products without wrapping; where b covers p - 1, the one plane is the
operand itself.  A product of canonical operands is at most (p - 1)^2, so
the sparse product sums ``dot_chunk()`` of them unreduced, and reduces
each product before summing a wider row, which is exact while
width * p < 2^63.  ``det_stack`` subtracts at most ``dot_chunk()`` of them,
for its largest modulus, from a canonical block: entries stay in (-2^63, p).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy import sparse as _scipy_sparse

from .errors import DimensionMismatch, DivisionByZero, FieldMismatch, NotSquare
from .ff import PrimeField, _reduce


class CostCounter:
    """Tallies verifier-side field operations (multiplies + adds)."""

    __slots__ = ("ops",)

    def __init__(self):
        self.ops = 0

    def add(self, n: int) -> None:
        self.ops += n


class Operator:
    """A linear map from F^cols to F^rows over GF(p), reached only through
    products: the blackbox model of the certificates.

    A subclass holds ``field``, ``rows``, ``cols`` and ``mu``, the declared
    cost (multiplies + adds) of one apply, which verifier cost assertions
    use verbatim.  It defines ``_apply`` and ``_apply_t``, x -> A x and
    x -> A^T x: each takes a canonical vector of the right length and dtype,
    or a (length, k) block of such columns, k >= 0, each mapped on its own;
    it leaves x as it is and returns a fresh canonical vector or block.
    ``apply`` and ``apply_t`` check the length and reduce any input first.
    """

    __slots__ = ()

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def apply(self, x) -> np.ndarray:
        return self._apply(self._canonical(x, self.cols, "apply"))

    def apply_t(self, x) -> np.ndarray:
        return self._apply_t(self._canonical(x, self.rows, "apply_t"))

    def _canonical(self, x, n: int, what: str) -> np.ndarray:
        x = np.asarray(x, dtype=self.field.dtype)
        if len(x) != n:
            raise DimensionMismatch(f"{what}: {self.shape} by {len(x)}")
        return x % self.field.p

    def scale_rows(self, d: np.ndarray) -> "Operator":
        """diag(d) @ self for canonical nonzero scalars d."""
        return compose(diagonal_scaling(self.field, d), self)

    def to_dense(self) -> "DenseMatrix":
        """The operator as a fresh dense matrix: one apply of the identity block."""
        return DenseMatrix(self.field, self.apply(np.eye(self.cols, dtype=np.int64)))


class DenseMatrix(Operator):
    """Row-major dense matrix over GF(p).

    A matrix of two or more limb planes (``_limb_product``) makes its first
    apply as ``_mul_mod`` does, on the split vector, and keeps no planes;
    its second apply splits ``a`` and keeps the planes for every later
    apply.  A matrix that is its own one plane keeps that from its
    first apply.  Either way ``a`` is read-only once the matrix has been
    applied.
    """

    __slots__ = ("field", "a", "_limbs")

    def __init__(self, field: PrimeField, data):
        self.field = field
        a = np.asarray(data, dtype=field.dtype)
        if a.ndim != 2:
            raise DimensionMismatch("dense matrix needs a 2-d array")
        # a fresh C-ordered array whatever the input's layout, so equal
        # matrices run the product kernels at the same speed
        self.a = np.remainder(a, field.p, order="C")
        self._limbs = None

    @classmethod
    def _of(cls, field: PrimeField, a: np.ndarray) -> "DenseMatrix":
        """The matrix holding a canonical 2-d array of the field's dtype
        itself, neither checked nor copied."""
        m = cls.__new__(cls)
        m.field, m.a, m._limbs = field, a, None
        return m

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def nnz(self) -> int:
        # stored entries; dense storage does not exploit zeros
        return self.rows * self.cols

    @property
    def mu(self) -> int:
        return 2 * self.rows * self.cols

    def _apply(self, x: np.ndarray) -> np.ndarray:
        if self._limbs is None and not _one_plane(self.field, self.cols):
            self._limbs = False  # applied once, not split
            return _mul_mod(self.field, self.a, x)
        if not self._limbs:
            self._limbs = _limb_product(self.field, self.a)
        return self._limbs(x)

    def _apply_t(self, x: np.ndarray) -> np.ndarray:
        return _mul_mod(self.field, self.a.T, x)

    def scale_rows(self, d: np.ndarray) -> "DenseMatrix":
        """diag(d) @ self for a canonical vector d."""
        if len(d) != self.rows:
            raise DimensionMismatch(f"row scaling: {self.rows} rows by {len(d)}")
        return DenseMatrix._of(self.field, d[:, None] * self.a % self.field.p)

    def to_dense(self) -> "DenseMatrix":
        return DenseMatrix(self.field, self.a)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DenseMatrix)
            and other.field == self.field
            and other.shape == self.shape
            and bool(np.equal(other.a, self.a).all())
        )

    def __repr__(self) -> str:
        return f"DenseMatrix({self.rows}x{self.cols} over GF({self.field.p}))"


class SparseMatrix(Operator):
    """Coordinate-list sparse matrix; triples sorted row-major, no duplicates."""

    __slots__ = ("field", "rows", "cols", "ri", "ci", "vals", "_csr", "_csc", "_widest")

    def __init__(self, field: PrimeField, rows: int, cols: int, triples):
        t = list(triples)
        self._fill(field, rows, cols, *(int_array([e[k] for e in t]) for k in range(3)))

    @classmethod
    def from_arrays(
        cls, field: PrimeField, rows: int, cols: int, ri, ci, vals
    ) -> "SparseMatrix":
        """The matrix with entries ``vals[k]`` at ``(ri[k], ci[k])``.

        The columns are integer arrays (int64, or ``object`` for values
        past int64) and are checked like the triples of ``__init__``.
        """
        m = cls.__new__(cls)
        m._fill(field, rows, cols, ri, ci, vals)
        return m

    def _fill(self, field, rows, cols, ri, ci, vals) -> None:
        ri, ci, order = coordinate_order(rows, cols, ri, ci)
        vals = (vals[order] % field.p).astype(field.dtype)
        keep = vals != 0
        self.field = field
        self.rows = rows
        self.cols = cols
        self.ri = ri[keep]
        self.ci = ci[keep]
        self.vals = vals[keep]
        self._csr = None
        self._csc = None
        self._widest = None

    @property
    def nnz(self) -> int:
        return len(self.vals)

    @property
    def mu(self) -> int:
        return 2 * self.nnz

    def triples(self):
        for i in range(self.nnz):
            yield int(self.ri[i]), int(self.ci[i]), int(self.vals[i])

    def widest(self) -> tuple[int, int]:
        """Most entries in any one row and in any one column (computed once)."""
        if self._widest is None:
            if self.nnz == 0:
                self._widest = (0, 0)
            else:
                self._widest = (
                    int(np.bincount(self.ri).max()),
                    int(np.bincount(self.ci).max()),
                )
        return self._widest

    def scale_rows(self, d: np.ndarray) -> "SparseMatrix":
        """diag(d) @ self for canonical nonzero scalars d.

        The product keeps the sparsity pattern, so the index arrays and the
        row and column widths are shared with this matrix.
        """
        if len(d) != self.rows:
            raise DimensionMismatch(f"row scaling: {self.rows} rows by {len(d)}")
        out = SparseMatrix.__new__(SparseMatrix)
        out.field, out.rows, out.cols = self.field, self.rows, self.cols
        out.ri, out.ci = self.ri, self.ci
        out.vals = d[self.ri] * self.vals % self.field.p
        out._csr = out._csc = None
        out._widest = self.widest()
        return out

    def _as_csr(self):
        if self._csr is None:
            self._csr = _scipy_sparse.csr_matrix(
                (self.vals, (self.ri, self.ci)), shape=self.shape, dtype=np.int64
            )
        return self._csr

    def _as_csc(self):
        if self._csc is None:
            self._csc = self._as_csr().T.tocsr()
        return self._csc

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return self._product(x, transpose=False)

    def _apply_t(self, x: np.ndarray) -> np.ndarray:
        return self._product(x, transpose=True)

    def _product(self, x: np.ndarray, transpose: bool) -> np.ndarray:
        """self @ x, or self^T @ x, for a canonical vector or block x."""
        field = self.field
        p = field.p
        # a CSR product sums one row of unreduced products at a time
        if field.dtype is np.int64 and self.widest()[1 if transpose else 0] <= field.dot_chunk():
            csr = self._as_csc() if transpose else self._as_csr()
            return _reduce(csr @ x, p)
        if transpose:
            out_idx, in_idx, size = self.ci, self.ri, self.cols
        else:
            out_idx, in_idx, size = self.ri, self.ci, self.rows
        # object dtype, or rows too wide for unreduced int64 sums: reduce every
        # product before summing
        out = field.zeros((size,) + x.shape[1:])
        np.add.at(out, out_idx, _reduce((x[in_idx].T * self.vals).T, p))
        return _reduce(out, p)

    def to_dense(self) -> DenseMatrix:
        a = self.field.zeros(self.shape)
        a[self.ri, self.ci] = self.vals
        return DenseMatrix(self.field, a)

    def __repr__(self) -> str:
        return (
            f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz},"
            f" GF({self.field.p}))"
        )


def int_array(values: list) -> np.ndarray:
    """Integers as an int64 array, or as exact Python ints (``object``)
    when one does not fit.  A value ``int()`` refuses raises ValueError."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array([int(v) for v in values], dtype=object)


def coordinate_order(rows: int, cols: int, ri, ci):
    """The positions ``(ri[k], ci[k])`` sorted row-major, as int64 arrays,
    and the permutation that sorts them.

    Raises DimensionMismatch for the first position, in the given order,
    that lies outside rows x cols or repeats an earlier one.
    """
    outside = np.flatnonzero((ri < 0) | (ri >= rows) | (ci < 0) | (ci >= cols))
    stop = outside[0] if len(outside) else len(ri)
    r = np.asarray(ri[:stop], dtype=np.int64)
    c = np.asarray(ci[:stop], dtype=np.int64)
    order = np.lexsort((c, r))  # stable: a repeat sorts after its first
    r, c = r[order], c[order]
    again = (r[1:] == r[:-1]) & (c[1:] == c[:-1])
    if again.any():
        k = order[1:][again].min()
        raise DimensionMismatch(f"duplicate entry at ({ri[k]},{ci[k]})")
    if len(outside):
        raise DimensionMismatch(f"entry ({ri[stop]},{ci[stop]}) outside {rows}x{cols}")
    return r, c, order


# ---------------------------------------------------------------------------
# matrix-vector and matrix-matrix products
# ---------------------------------------------------------------------------


def _mul_mod(field: PrimeField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b mod p for a canonical matrix a and a canonical vector or matrix
    b, on limb planes of the operand with fewer entries (``_limb_product``):
    one plane, the operand itself, while its sums cannot wrap."""
    if b.size < a.size:
        # a @ b = (b^T a^T)^T
        out = _limb_product(field, np.atleast_2d(b.T))(a.T)
        return out.T.reshape(a.shape[:1] + b.shape[1:])
    return _limb_product(field, a)(b)


def _limb_width(p: int, n: int, both: bool = False) -> int:
    """Widest limb b, at most the bit length of p - 1, with
    n * (2^b - 1) * (p - 1) < 2^63, or, for ``both`` operands split into
    L = ceil(bits / b) limbs, L * n * (2^b - 1)^2 < 2^63, so that the L limb
    products of one weight also sum in int64; 0 when no b fits."""
    top = p - 1
    bits = top.bit_length()
    if n == 0:
        return bits
    room = (2**63 - 1) // n
    if not both:
        return min(bits, (room // top + 1).bit_length() - 1)
    b = min(bits, (math.isqrt(room) + 1).bit_length() - 1)
    while b and -(-bits // b) * ((1 << b) - 1) ** 2 > room:
        b -= 1
    return b


def _limb_planes(a: np.ndarray, width: int, bits: int) -> np.ndarray:
    """Entries of a, in [0, 2^bits), as int64 limbs of ``width`` bits along a
    new first axis: limb i holds bits [i width, (i + 1) width), so a is the
    sum of limb i times 2^(i width)."""
    shifts = np.arange(0, bits, width, dtype=np.int64).reshape((-1,) + (1,) * a.ndim)
    return (a.astype(np.int64, copy=False) >> shifts) & ((1 << width) - 1)


def _one_plane(field: PrimeField, k: int) -> bool:
    """Is a canonical (m, k) matrix over the field its own one limb plane,
    which ``_limb_product`` does not split: int64, with a limb width that
    covers p - 1?"""
    return field.dtype is np.int64 and _limb_width(field.p, k) == (field.p - 1).bit_length()


def _limb_product(field: PrimeField, a: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """x -> a @ x mod p for a fixed canonical (m, k) matrix a, split once.

    a splits into planes A_i of b-bit limbs, b = ``_limb_width(p, k)``, so
    each A_i @ x sums k products below (2^b - 1)(p - 1) < 2^63 / k.  When no
    b fits, x splits too, at ``_limb_width(p, k, both=True)``.  One int64
    product of the stacked planes gives every A_i @ X_j; those of weight
    2^(b (i + j)) are summed, and the sums recombined mod p: by Horner's rule
    in int64 when (p - 1)^2 < 2^63, else as one dot in Python ints.  Where b
    covers p - 1 over int64, the one plane is a itself.
    """
    p = field.p
    m, k = a.shape
    if _one_plane(field, k):
        # one plane, a itself: one product, reduced once
        return lambda x: _reduce(np.einsum("ik,k...->i...", a, x), p)
    bits = (p - 1).bit_length()
    width = _limb_width(p, k)
    split_x = width == 0
    if split_x:
        width = _limb_width(p, k, both=True)
    left = -(-bits // width)
    right = left if split_x else 1
    planes = _limb_planes(a, width, bits).reshape(left * m, k)
    if field.dtype is object:
        weights = np.array([pow(2, c * width, p) for c in range(left + right - 1)], dtype=object)

    def product(x: np.ndarray) -> np.ndarray:
        cols = x.astype(np.int64, copy=False)
        if x.ndim == 1:
            cols = cols[:, None]
        n = cols.shape[1]
        if split_x:
            cols = _limb_planes(cols.T, width, bits).reshape(right * n, k).T
        sums = np.einsum("ik,kj->ij", planes, cols).reshape(left, m, right, n)
        # A_i @ X_j of equal weight 2^(b (i + j)) summed in int64
        terms = np.zeros((left + right - 1, m, n), dtype=np.int64)
        for j in range(right):
            terms[j : j + left] += sums[:, :, j]
        if field.dtype is object:
            flat = np.ascontiguousarray(terms.reshape(len(terms), m * n).T)
            out = (flat.astype(object).dot(weights) % p).reshape(m, n)
        else:
            # Horner's rule by 2^b stays below p 2^b + p < 2^63, since
            # b < bits(p - 1) <= 32 whenever a splits
            out = _reduce(terms[-1], p)
            for t in terms[-2::-1]:
                out <<= width
                out += _reduce(t, p)
                _reduce(out, p)
        return out[:, 0] if x.ndim == 1 else out

    return product


def matvec(m: Operator, x, counter: CostCounter | None = None) -> np.ndarray:
    """Product m @ x for any operator and a vector or an (n, k) block x,
    its cost ``mu`` charged to counter once per column."""
    if counter is not None:
        counter.add(m.mu * (np.shape(x)[1] if np.ndim(x) == 2 else 1))
    return m.apply(x)


def dense_matmul(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Exact product of dense matrices (schoolbook cost, vectorized)."""
    if a.field != b.field:
        raise FieldMismatch("fields differ")
    if a.cols != b.rows:
        raise DimensionMismatch(f"matmul: {a.shape} by {b.shape}")
    return DenseMatrix(a.field, _mul_mod(a.field, a.a, b.a))


# ---------------------------------------------------------------------------
# blackbox operators
# ---------------------------------------------------------------------------


class Blackbox(Operator):
    """An operator given by its two products: ``apply`` and ``apply_t`` are
    functions of the ``_apply`` kind (see ``Operator``)."""

    __slots__ = ("field", "rows", "cols", "mu", "_apply", "_apply_t")

    def __init__(
        self,
        field: PrimeField,
        rows: int,
        cols: int,
        mu: int,
        apply: Callable[[np.ndarray], np.ndarray],
        apply_t: Callable[[np.ndarray], np.ndarray],
    ):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.mu = mu
        self._apply = apply
        self._apply_t = apply_t

    def __repr__(self) -> str:
        return f"Blackbox({self.rows}x{self.cols}, mu={self.mu})"


def diagonal_scaling(field: PrimeField, d: Sequence[int]) -> Blackbox:
    """Invertible diagonal operator diag(d); every entry must be nonzero."""
    dv = field.arr(d)
    if dv.ndim != 1:
        raise DimensionMismatch("diagonal needs a vector")
    if not (dv != 0).all():
        raise DivisionByZero("diagonal scaling requires nonzero entries")
    n = len(dv)
    p = field.p
    fn = lambda x: (x.T * dv % p).T
    return Blackbox(field, n, n, n, fn, fn)


def compose(*ops: Operator) -> Blackbox:
    """Chain of operators applied right-to-left: compose(U, A, V) is U∘A∘V."""
    if not ops:
        raise DimensionMismatch("compose of nothing")
    field = ops[0].field
    for left, right in zip(ops, ops[1:]):
        if left.cols != right.rows:
            raise DimensionMismatch(
                f"compose: {left.shape} cannot follow {right.shape}"
            )
        if right.field != field:
            raise FieldMismatch("compose: fields differ")

    def apply(x):
        for op in reversed(ops):
            x = op.apply(x)
        return x

    def apply_t(x):
        for op in ops:
            x = op.apply_t(x)
        return x

    return Blackbox(
        field,
        ops[0].rows,
        ops[-1].cols,
        sum(op.mu for op in ops),
        apply,
        apply_t,
    )


def padded(m: Operator, rows: int, cols: int) -> Blackbox:
    """Zero-embed an operator into the top-left of a larger shape.

    Rank is preserved: the embedding adds zero rows/columns only.
    """
    if rows < m.rows or cols < m.cols:
        raise DimensionMismatch("padding cannot shrink")
    field = m.field

    def apply(x):
        out = field.zeros((rows,) + x.shape[1:])
        out[: m.rows] = m.apply(x[: m.cols])
        return out

    def apply_t(x):
        out = field.zeros((cols,) + x.shape[1:])
        out[: m.cols] = m.apply_t(x[: m.rows])
        return out

    return Blackbox(field, rows, cols, m.mu, apply, apply_t)


def leading_projection(m: Operator, k: int) -> Blackbox:
    """The leading k x k corner of an operator, as an operator.

    Input is zero-padded to full width, the operator applied, and the
    output truncated to its first k coordinates.
    """
    if k < 0 or k > m.rows or k > m.cols:
        raise DimensionMismatch(f"projection {k} of {m.shape}")
    field = m.field

    def apply(x):
        xx = field.zeros((m.cols,) + x.shape[1:])
        xx[:k] = x
        return m.apply(xx)[:k]

    def apply_t(x):
        xx = field.zeros((m.rows,) + x.shape[1:])
        xx[:k] = x
        return m.apply_t(xx)[:k]

    return Blackbox(field, k, k, m.mu, apply, apply_t)


# ---------------------------------------------------------------------------
# butterfly preconditioners
# ---------------------------------------------------------------------------


def butterfly_padding(n: int) -> int:
    """Smallest power of two >= n."""
    if n < 1:
        raise DimensionMismatch("butterfly needs n >= 1")
    return 1 << max(0, (n - 1).bit_length())


class Butterfly(Operator):
    """Product of log2(n) switch layers acting on F^n_padded.

    Each switch mixes a pair (a, b) into (alpha*a + beta*b, alpha*a - beta*b)
    with its own two nonzero parameters, so every layer (and hence the whole
    network) is invertible away from characteristic 2.  Both outputs must
    depend on the parameters: with a parameter-free output, whole directions
    (such as the all-ones vector) would be fixed by every network in the
    family, and matrices orthogonal to them could never be mixed into
    general position.
    """

    __slots__ = ("field", "n", "n_padded", "layers", "_switches")

    def __init__(self, field: PrimeField, n: int, thetas: Sequence[int]):
        self.field = field
        self.n = n
        self.n_padded = butterfly_padding(n)
        self.layers = self.n_padded.bit_length() - 1
        half = self.n_padded // 2
        need = butterfly_param_count(n)
        th = field.arr(thetas)
        if th.ndim != 1 or len(th) != need:
            raise DimensionMismatch(f"butterfly wants {need} parameters")
        if not (th != 0).all():
            raise DivisionByZero("butterfly parameters must be nonzero")
        pairs = th.reshape(self.layers, 2, half)
        # layer t acts on the (-1, 2, 2^t, k) view of a block of k columns,
        # a vector viewed as one column (below): its switch parameters,
        # alphas then betas, in that shape with one column to broadcast
        self._switches = [
            np.ascontiguousarray(pairs[t].reshape(2, -1, 1 << t, 1).swapaxes(0, 1))
            for t in range(self.layers)
        ]

    @property
    def rows(self) -> int:
        return self.n_padded

    cols = rows

    @property
    def mu(self) -> int:
        # two multiplies and two adds per switch
        return 4 * (self.n_padded // 2) * self.layers

    # Butterfly's own names for the shared applies, so a profiler can wrap
    # the butterflies' alone (benchmark/tracing.py patches them by name)
    apply = Operator.apply
    apply_t = Operator.apply_t

    def _apply(self, x: np.ndarray) -> np.ndarray:
        p = self.field.p
        x = x.copy()  # C-ordered, so the views below write into it
        for t in range(self.layers):
            # layer t pairs i with i + 2^t (bit t of i clear) along axis 1 of
            # v; its leading length is explicit, as k may be 0
            v = x.reshape(len(x) >> (t + 1), 2, 1 << t, -1)
            ab = v * self._switches[t] % p
            v[:, 0] = ab[:, 0] + ab[:, 1]
            v[:, 1] = ab[:, 0] - ab[:, 1]
            v %= p
        return x

    def _apply_t(self, x: np.ndarray) -> np.ndarray:
        p = self.field.p
        x = x.copy()  # C-ordered, so the views below write into it
        for t in reversed(range(self.layers)):
            v = x.reshape(len(x) >> (t + 1), 2, 1 << t, -1)
            a, b = v[:, 0], v[:, 1]
            # a + b is below 2p: reduce it first, or the product can pass 2^63
            total = (a + b) % p
            v[:, 1] = a - b
            v[:, 0] = total
            v *= self._switches[t]
            v %= p
        return x

    def __repr__(self) -> str:
        return f"Butterfly(n={self.n}, padded={self.n_padded}, GF({self.field.p}))"


def butterfly_param_count(n: int) -> int:
    np_ = butterfly_padding(n)
    return 2 * (np_.bit_length() - 1) * (np_ // 2)


# ---------------------------------------------------------------------------
# prover-side elimination: one blocked PLE kernel behind the dense solvers
# (``vlac.oracle`` is the independent reference)
# ---------------------------------------------------------------------------

# Columns in one panel of ``_ple`` and rows in one block of
# ``_back_substitute``.  Neither calls the product on a matrix of at most
# PANEL columns, where einsum's dispatch cost outweighs the update it makes.
PANEL = 32


def _ple(field: PrimeField, m: np.ndarray) -> tuple[list[int], list[int]]:
    """Blocked row-echelon (PLE) elimination of a canonical (rows, cols)
    array, in place; returns ``(swaps, pivots)``.

    Step i swaps row i with row ``swaps[i]`` (LAPACK's ipiv), which gives
    the permutation P.  ``pivots`` are the pivot columns, the column rank
    profile of m, and r = len(pivots).  Then P m = L U, where U (r x cols)
    is in row echelon form with its leading entries at the pivots and L
    (rows x r) is unit lower trapezoidal.  m is left holding row i of U
    from column pivots[i] onward, L's column j below row j in column
    pivots[j], and zeros elsewhere.

    The pivot is the first nonzero at or below the current row, and a
    column with none is skipped.  Each panel of PANEL columns is eliminated
    a column at a time on a transposed copy of the panel alone; then the
    panel's pivot rows get U12 = L11^-1 A12 by forward substitution and the
    rows below A22 -= L21 U12, one ``_mul_mod`` product.  Only trailing
    entries are ever updated.  The rank-1 updates of the panel and of the
    forward substitution are reduced once per ``dot_chunk() - 1`` of them
    (the delayed reduction of FFLAS-FFPACK), each row and column only as it
    becomes a pivot row or column; at P_WORD that is every update.
    """
    p = field.p
    rows, cols = m.shape
    swaps: list[int] = []
    pivots: list[int] = []
    r = 0
    # rank-1 updates an entry may take unreduced: t (p - 1)^2 + p < 2^63
    # for t < dot_chunk(), and one always fits int64; objects never overflow
    budget = max(field.dot_chunk() - 1, 1) if field.dtype is np.int64 else None
    # panels of PANEL columns; a remainder narrower than PANEL joins the last
    starts = range(0, max(cols - PANEL, 0) + 1, PANEL)
    for c0, c1 in zip(starts, [*starts[1:], cols]):
        if r == rows:
            break
        top = r
        pan = m[top:, c0:c1].T.copy()  # row j holds column c0 + j
        order = list(range(rows - top))  # the panel's row swaps, made on m after it
        swapped = False
        pending = 0  # updates since the panel was last reduced
        for j in range(c1 - c0):
            if r == rows:
                break
            i = r - top
            if pending:
                _reduce(pan[j, i:], p)
            s = i
            if not pan[j, i]:
                nz = np.flatnonzero(pan[j, i:])
                if not len(nz):
                    continue
                s += int(nz[0])
                pan[:, [i, s]] = pan[:, [s, i]]
                order[i], order[s] = order[s], order[i]
                swapped = True
            swaps.append(top + s)
            pivots.append(c0 + j)
            col = pan[j, i + 1 :]
            col *= pow(int(pan[j, i]), -1, p)
            _reduce(col, p)
            row = pan[j + 1 :, i]
            if pending:
                _reduce(row, p)
            rest = pan[j + 1 :, i + 1 :]
            rest -= row[:, None] * col
            pending += 1
            if pending == budget:
                _reduce(rest, p)
                pending = 0
            r += 1
        if swapped:
            m[top:] = m[top:][order]
        m[top:, c0:c1] = pan.T
        k = r - top
        if k == 0 or c1 == cols:
            continue
        ls = pan[np.array(pivots[-k:]) - c0]  # row j: L's column top + j
        u = m[top:r, c1:]
        pending = 0
        for j in range(k - 1):
            if pending:
                _reduce(u[j], p)
            below = u[j + 1 :]
            below -= ls[j, j + 1 : k, None] * u[j]
            pending += 1
            if pending == budget:
                _reduce(below, p)
                pending = 0
        if pending:
            _reduce(u[k - 1], p)
        if r < rows:
            rest = m[r:, c1:]
            rest -= _mul_mod(field, ls[:, k:].T, u)
            _reduce(rest, p)
    return swaps, pivots


def _back_substitute(field: PrimeField, u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x with u x = y for a square u whose upper triangle, diagonal included,
    is invertible; what lies below the diagonal is never used.  y, an
    (n, k) array, is overwritten by x, a block of PANEL rows at a time from
    the bottom: one product brings in the rows solved so far, and the
    block's rows and triangle are scaled to a unit diagonal."""
    p = field.p
    n = len(u)
    for hi in range(n, 0, -PANEL):
        lo = max(0, hi - PANEL)
        block = y[lo:hi]
        if hi < n:
            block -= _mul_mod(field, u[lo:hi, hi:], y[hi:])
        scale = field.arr([pow(int(v), -1, p) for v in u.diagonal()[lo:hi]])[:, None]
        block *= scale
        _reduce(block, p)
        t = _reduce(u[lo:hi, lo:hi] * scale, p)
        for i in range(hi - lo - 1, 0, -1):
            above = block[:i]
            above -= t[:i, i, None] * block[i]
            _reduce(above, p)
    return y


def solve_dense(a: DenseMatrix, b) -> np.ndarray | None:
    """One solution of A x = b, or None when the system is inconsistent.
    Free variables (the non-pivot columns) are 0."""
    field = a.field
    bv = field.arr(b)
    if len(bv) != a.rows:
        raise DimensionMismatch("solve: rhs length mismatch")
    aug = field.zeros((a.rows, a.cols + 1))
    aug[:, : a.cols] = a.a
    aug[:, a.cols] = bv
    _, pivots = _ple(field, aug)
    if pivots and pivots[-1] == a.cols:
        return None
    r = len(pivots)
    x = field.zeros(a.cols)
    x[pivots] = _back_substitute(field, aug[:r, pivots], aug[:r, a.cols :])[:, 0]
    return x


def invert_dense(a: DenseMatrix) -> DenseMatrix | None:
    """Inverse of a square dense matrix, or None when singular."""
    if a.rows != a.cols:
        raise NotSquare("inverse needs a square matrix")
    field = a.field
    n = a.rows
    aug = field.zeros((n, 2 * n))
    aug[:, :n] = a.a
    aug[:, n:] = np.eye(n, dtype=np.int64)
    _, pivots = _ple(field, aug)
    if len(pivots) < n or (n and pivots[-1] >= n):
        return None
    return DenseMatrix(field, _back_substitute(field, aug[:, :n], aug[:, n:]))


def kernel_vector(a: DenseMatrix) -> np.ndarray | None:
    """A nonzero kernel vector, or None when the matrix has full column rank:
    the one that is 1 at the first non-pivot column f and 0 past it."""
    field = a.field
    m = a.a.copy()
    _, pivots = _ple(field, m)
    if len(pivots) == a.cols:
        return None
    # columns 0 .. f - 1 are the first f pivots
    f = next((j for j, c in enumerate(pivots) if c != j), len(pivots))
    x = field.zeros(a.cols)
    x[f] = 1
    x[:f] = _back_substitute(field, m[:f, :f], -m[:f, f : f + 1] % field.p)[:, 0]
    return x


def rank_dense(a: DenseMatrix) -> int:
    return len(_ple(a.field, a.a.copy())[1])


def det_dense(a: DenseMatrix) -> int:
    if a.rows != a.cols:
        raise NotSquare("determinant needs a square matrix")
    field = a.field
    m = a.a.copy()
    swaps, pivots = _ple(field, m)
    if len(pivots) < a.rows:
        return 0
    p = field.p
    det = p - 1 if sum(s != i for i, s in enumerate(swaps)) % 2 else 1
    for v in m.diagonal():
        det = det * int(v) % p
    return det


# Entries in one det_stack call, so a stack stays a few MB whatever the
# number of slices, and in one block of its row updates, so the update's
# temporary stays far smaller than the stack.
STACK_ENTRIES = 1 << 20
UPDATE_ENTRIES = 1 << 14


def stack_cap(n: int) -> int:
    """Most n x n slices a caller puts in one det_stack call."""
    return max(1, STACK_ENTRIES // max(1, n * n))


def det_stack(stack: np.ndarray, moduli: Sequence[int]) -> list[int]:
    """Determinant of each slice of a (k, n, n) stack, slice i modulo moduli[i].

    Entries must be canonical, in int64 when every modulus is int64-safe
    and in ``object`` otherwise; the stack is overwritten.  One forward
    elimination runs on all the slices at once, with the pivot search, row
    swaps and sign kept per slice, and stops at the triangular form.  Each
    column reduces its pivot column and row; the trailing block is reduced
    once per ``dot_chunk()`` rank-1 updates of the largest modulus
    (FFLAS-FFPACK's delayed reduction), every column at P_WORD and over
    ``object``.  Callers build stacks of at most ``stack_cap(n)`` slices.
    """
    k, n, _ = stack.shape
    if len(moduli) != k:
        raise DimensionMismatch(f"{k} slices but {len(moduli)} moduli")
    if not k:
        return []
    ps = np.array(moduli, dtype=stack.dtype)
    block = max(1, UPDATE_ENTRIES // max(1, k * n))
    every = np.arange(k)
    det = np.ones(k, dtype=stack.dtype)
    budget = max(PrimeField(int(ps.max())).dot_chunk(), 1)
    for c in range(n):
        stack[:, c:, c] %= ps[:, None]
        # first nonzero entry at or below the diagonal; c when there is none
        pr = c + (stack[:, c:, c] != 0).argmax(axis=1)
        swap = every[pr != c]
        if len(swap):
            top = stack[swap, c].copy()
            stack[swap, c] = stack[swap, pr[swap]]
            stack[swap, pr[swap]] = top
            det[swap] = (ps[swap] - det[swap]) % ps[swap]
        piv = stack[:, c, c]
        # a singular slice has a zero pivot: its det stays 0 and it never
        # changes again, since its multipliers are 0
        det = det * piv % ps
        if c + 1 == n:
            break
        inv = np.array(
            [pow(v, -1, q) if v else 0 for v, q in zip(piv.tolist(), ps.tolist())],
            dtype=stack.dtype,
        )
        f = stack[:, c + 1 :, c] * inv[:, None] % ps[:, None]
        row = stack[:, c, None, c + 1 :]
        row %= ps[:, None, None]
        for lo in range(c + 1, n, block):
            rest = stack[:, lo : lo + block, c + 1 :]
            rest -= f[:, lo - c - 1 : lo - c - 1 + block, None] * row
            if (c + 1) % budget == 0:
                rest %= ps[:, None, None]
    return [int(d) for d in det]
