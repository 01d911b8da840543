"""Certificates for black-box operators: nonsingularity, rank, minimal
polynomials of projected sequences, and determinants.

The verifier touches the matrix only through matrix-vector products, so
everything here works for sparse and structured operators whose apply
cost mu is far below n^2.  The prover is allowed cubic work (dense
elimination, Krylov sequences); the point is that the checks stay cheap.

Two soundness regimes coexist.  The solve-based checks (nonsingularity,
the rank lower bound, the shifted-system spot checks) carry exact error
bounds.  The rank upper bound leans on butterfly preconditioners being
generic, which is well-supported but not proven for the structured
parameter sets used here, so the bound is flagged as heuristic on the
verdict.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from random import Random
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, NotSquare
from .ff import (
    Poly,
    PrimeField,
    SampleSet,
    _check_sample_set,
    _dot,
    _powers,
    _prod,
    _reduce,
    minpoly_package,
)
from .la import (
    Blackbox,
    Butterfly,
    CostCounter,
    DenseMatrix,
    SparseMatrix,
    butterfly_padding,
    butterfly_param_count,
    compose,
    diagonal_scaling,
    kernel_vector,
    leading_projection,
    matvec,
    _mul_mod,
    padded,
    solve_dense,
)
from .proto import (
    KIND_EMPTY,
    KIND_POLY,
    KIND_VEC,
    TAG_COMMIT,
    TAG_RESPONSE,
    Reject,
    Verdict,
    certify,
    encode_payload,
    instance_digest,
    matrix_chunks,
    replay,
    _u32,
    _u64,
)

HEURISTIC_BUTTERFLY = "butterfly-preconditioner"

PROTOCOL_NONSINGULAR = "vlac.nonsingular.v1"
PROTOCOL_RANK_UPPER = "vlac.rank-upper.v1"
PROTOCOL_RANK = "vlac.rank.v1"
PROTOCOL_MINPOLY = "vlac.minpoly.v1"
PROTOCOL_DET = "vlac.det.v1"

# the prover redraws its scaling and projections until the projected
# sequence has full-degree generator, then gives up visibly
DET_MAX_ATTEMPTS = 20

# total shifted-system challenges before the verifier declares a stall
SHIFT_DRAWS = 4

# Krylov vectors projected together: 1 MB of int64 rows at n = 2048
KRYLOV_BLOCK = 64


# -- instance encodings -------------------------------------------------------


# one (row, col, value) triple as it appears in the instance encoding
_TRIPLE = np.dtype([("i", "<u4"), ("j", "<u4"), ("v", "<u8")])


def sparse_bytes(m: SparseMatrix) -> bytes:
    triples = np.empty(m.nnz, dtype=_TRIPLE)
    triples["i"] = m.ri
    triples["j"] = m.ci
    triples["v"] = m.vals
    return b"S" + _u32(m.rows) + _u32(m.cols) + _u32(m.nnz) + triples.tobytes()


def operator_bytes(m, instance_tag: Optional[bytes] = None):
    """Canonical encoding binding a run to its operator: bytes, or the
    ``Chunks`` of a dense matrix.

    Dense and sparse matrices have a natural encoding; a raw black box
    does not, so callers must tag it themselves.
    """
    if instance_tag is not None:
        return b"T" + instance_tag
    if isinstance(m, DenseMatrix):
        return matrix_chunks(m, b"D")
    if isinstance(m, SparseMatrix):
        return sparse_bytes(m)
    raise ValueError("a black-box operator needs an explicit instance tag")


def _square_dims(m) -> int:
    if m.rows != m.cols:
        raise NotSquare(f"operator is {m.rows}x{m.cols}")
    if m.rows < 1:
        raise DimensionMismatch("operator must be at least 1x1")
    return m.rows


def _prover_rng(digest: bytes, prover_seed: Optional[int]) -> Random:
    if prover_seed is None:
        prover_seed = int.from_bytes(
            hashlib.sha256(digest + b"prover-seed").digest()[:8], "little"
        )
    return Random(prover_seed)


def _send_answer(ch, w) -> None:
    """Send the vector w, or an empty response when there is none."""
    ch.send(TAG_RESPONSE, KIND_EMPTY if w is None else KIND_VEC, w)


def _prove_solve(ch, label: str, s: SampleSet, dense: DenseMatrix) -> None:
    """Solve a square matrix at the right-hand side the verifier draws."""
    target = ch.challenge_vector(label, s, dense.rows)
    _send_answer(ch, solve_dense(dense, dense.field.arr(target)))


def _recv_answer(ch, field: PrimeField, n: int) -> np.ndarray:
    """The prover's answer vector of length n, which must be there."""
    kind, w = ch.recv(TAG_RESPONSE, (KIND_VEC, KIND_EMPTY), field, count=n)
    if kind == KIND_EMPTY:
        raise Reject("ProverFailed")
    return w


def _check_solve(ch, label: str, s: SampleSet, op) -> None:
    """Draw a right-hand side b for a square operator and check the
    prover's answer x by one product, op x = b."""
    field, n = op.field, op.rows
    target = field.arr(ch.challenge_vector(label, s, n))
    x = _recv_answer(ch, field, n)
    if not np.array_equal(matvec(op, x, ch.counter), target):
        raise Reject("CheckFailed:solve")


def krylov_stride(n: int) -> int:
    """ceil(sqrt(n)): the spacing of the Krylov checkpoints of an n x n operator."""
    return math.isqrt(n - 1) + 1 if n > 1 else 1


def krylov_checkpoints(field: PrimeField, n: int) -> np.ndarray:
    """Room for the Krylov checkpoints of an n x n operator: one row of
    length n for each multiple of ``krylov_stride(n)`` below n."""
    return field.zeros((-(-n // krylov_stride(n)), n))


def projected_sequence(
    field: PrimeField,
    operator,
    u: np.ndarray,
    v: np.ndarray,
    count: int,
    checkpoints: Optional[np.ndarray] = None,
):
    """The first ``count`` terms of i -> u . (A^i v) (prover-side).

    The Krylov vectors A^i v gather in blocks of ``KRYLOV_BLOCK`` rows, and
    each block takes its projections from one product with u (``_mul_mod``,
    on limb planes of u where int64 sums could wrap).  Given an array from
    ``krylov_checkpoints``, its row m receives A^(mk) v for
    k = ``krylov_stride(n)``, n = len(v), and mk < min(n, count): about
    sqrt(n) vectors, from which ``_shift_solver`` evaluates a polynomial in
    A at v.
    """
    n = len(v)
    stride = krylov_stride(n)
    block = field.zeros((min(KRYLOV_BLOCK, count), n))
    x = v
    out = []
    for i in range(count):
        if i:
            x = operator._apply(x)
        if checkpoints is not None and i < n and i % stride == 0:
            checkpoints[i // stride] = x
        row = i % KRYLOV_BLOCK
        block[row] = x
        if row == len(block) - 1 or i == count - 1:
            out += _mul_mod(field, block[: row + 1], u).tolist()
    return out


# -- nonsingularity -----------------------------------------------------------


def nonsingular_epsilon(s: SampleSet) -> Fraction:
    return Fraction(1, len(s))


def _nonsingular_parts(a, s: Optional[SampleSet], instance_tag: Optional[bytes]):
    n = _square_dims(a)
    field = a.field
    s = _check_sample_set(field, s)
    params = _u64(field.p) + _u64(s.offset) + _u64(s.size) + _u32(n)
    digest = instance_digest(PROTOCOL_NONSINGULAR, (operator_bytes(a, instance_tag),))

    def prover(ch):
        _prove_solve(ch, "nonsingular.b", s, a.to_dense())

    def verifier(ch):
        _check_solve(ch, "nonsingular.b", s, a)
        return Verdict.accept(nonsingular_epsilon(s)), None

    return params, digest, prover, verifier


def nonsingular_certify(
    a,
    source,
    s: Optional[SampleSet] = None,
    instance_tag: Optional[bytes] = None,
    timeout: float = 60.0,
) -> Verdict:
    """Certify that a square operator is invertible.

    The verifier picks a random right-hand side; the prover must solve
    for it.  A singular operator misses all but at most a 1/|S| fraction
    of right-hand sides, since its column span is a proper subspace.
    """
    return certify(
        PROTOCOL_NONSINGULAR, _nonsingular_parts(a, s, instance_tag), source, timeout
    )[0]


def nonsingular_verify(
    a,
    transcript,
    s: Optional[SampleSet] = None,
    instance_tag: Optional[bytes] = None,
) -> Verdict:
    return replay(transcript, PROTOCOL_NONSINGULAR, _nonsingular_parts(a, s, instance_tag))[0]


# -- rank ---------------------------------------------------------------------


def rank_upper_epsilon(m: int, n: int, r: int, s: SampleSet) -> Fraction:
    """Heuristic failure bound for the preconditioned kernel check.

    Charges (r + 2) levels of butterfly mixing plus the final projection,
    each a degree-(padded size) polynomial identity in the parameters.
    """
    n_padded = max(butterfly_padding(m), butterfly_padding(n))
    log2 = n_padded.bit_length() - 1
    return Fraction((r + 2) * log2 + 1, len(s))


def _preconditioned(field, a, m, n, u_thetas, v_thetas) -> Blackbox:
    mp = butterfly_padding(m)
    np_ = butterfly_padding(n)
    left = Butterfly(field, m, u_thetas)
    right = Butterfly(field, n, v_thetas)
    return compose(left, padded(a, mp, np_), right)


def _rank_upper_prover(ch, field, a, m, n, r, s, label: str):
    u_th = ch.challenge_nonzero_vector(f"{label}.u", s, butterfly_param_count(m))
    v_th = ch.challenge_nonzero_vector(f"{label}.v", s, butterfly_param_count(n))
    op = _preconditioned(field, a, m, n, u_th, v_th)
    _send_answer(ch, kernel_vector(leading_projection(op, r + 1).to_dense()))


def _rank_upper_verifier(ch, field, a, m, n, r, s, label: str) -> None:
    """Check the prover's kernel witness for the leading (r+1) x (r+1)
    corner of the operator mixed by verifier-drawn butterflies."""
    u_th = ch.challenge_nonzero_vector(f"{label}.u", s, butterfly_param_count(m))
    v_th = ch.challenge_nonzero_vector(f"{label}.v", s, butterfly_param_count(n))
    w = _recv_answer(ch, field, r + 1)
    if not np.any(w != 0):
        raise Reject("ZeroWitness")
    op = _preconditioned(field, a, m, n, u_th, v_th)
    y = matvec(leading_projection(op, r + 1), w, ch.counter)
    if np.any(y != 0):
        raise Reject("CheckFailed:kernel")


def _rank_upper_parts(a, r: int, s: Optional[SampleSet], instance_tag: Optional[bytes]):
    m, n = a.shape
    if m < 1 or n < 1:
        raise DimensionMismatch("operator must be at least 1x1")
    if not 0 <= r < min(m, n):
        raise ValueError("upper-bound claims need 0 <= r < min(m, n)")
    field = a.field
    s = _check_sample_set(field, s)
    params = _u64(field.p) + _u64(s.offset) + _u64(s.size) + _u32(m) + _u32(n) + _u32(r)
    digest = instance_digest(PROTOCOL_RANK_UPPER, (operator_bytes(a, instance_tag),))

    def prover(ch):
        _rank_upper_prover(ch, field, a, m, n, r, s, "rankub")

    def verifier(ch):
        _rank_upper_verifier(ch, field, a, m, n, r, s, "rankub")
        return Verdict.accept(rank_upper_epsilon(m, n, r, s), (HEURISTIC_BUTTERFLY,)), None

    return params, digest, prover, verifier


def rank_upper_certify(
    a,
    r: int,
    source,
    s: Optional[SampleSet] = None,
    instance_tag: Optional[bytes] = None,
    timeout: float = 60.0,
) -> Verdict:
    """Certify rank(a) <= r for r strictly below min(m, n).

    Random butterflies mix the row and column spaces so that, when the
    rank really exceeds r, the leading (r+1) x (r+1) corner of the mixed
    operator is almost surely invertible and no kernel witness exists.
    When the rank is at most r the corner is singular outright, so the
    honest prover always finds a witness.
    """
    return certify(
        PROTOCOL_RANK_UPPER, _rank_upper_parts(a, r, s, instance_tag), source, timeout
    )[0]


def rank_upper_verify(
    a,
    r: int,
    transcript,
    s: Optional[SampleSet] = None,
    instance_tag: Optional[bytes] = None,
) -> Verdict:
    return replay(transcript, PROTOCOL_RANK_UPPER, _rank_upper_parts(a, r, s, instance_tag))[0]


def rank_epsilon(m: int, n: int, r: int, s: SampleSet) -> Fraction:
    eps = Fraction(0)
    if r > 0:
        eps += Fraction(1, len(s))
    if r < min(m, n):
        eps += rank_upper_epsilon(m, n, r, s)
    return eps


def _mixing_thetas(rng, s: SampleSet, count: int) -> list:
    # prover-side draw of invertible switch parameters from S \ {0}
    out = []
    while len(out) < count:
        v = s.offset + rng.randrange(s.size)
        if v != 0:
            out.append(v)
    return out


def _rank_parts(
    a,
    r: int,
    s: Optional[SampleSet],
    instance_tag: Optional[bytes],
    prover_seed: Optional[int] = None,
):
    m, n = a.shape
    if m < 1 or n < 1:
        raise DimensionMismatch("operator must be at least 1x1")
    if not 0 <= r <= min(m, n):
        raise ValueError("rank claims need 0 <= r <= min(m, n)")
    field = a.field
    s = _check_sample_set(field, s)
    params = _u64(field.p) + _u64(s.offset) + _u64(s.size) + _u32(m) + _u32(n) + _u32(r)
    digest = instance_digest(PROTOCOL_RANK, (operator_bytes(a, instance_tag),))

    def prover(ch):
        if r > 0:
            rng = _prover_rng(digest, prover_seed)
            block = None
            for _ in range(DET_MAX_ATTEMPTS):
                u_th = _mixing_thetas(rng, s, butterfly_param_count(m))
                v_th = _mixing_thetas(rng, s, butterfly_param_count(n))
                op = _preconditioned(field, a, m, n, u_th, v_th)
                block = leading_projection(op, r).to_dense()
                if kernel_vector(block) is None:
                    break
            ch.send(TAG_COMMIT, KIND_VEC, u_th)
            ch.send(TAG_COMMIT, KIND_VEC, v_th)
            _prove_solve(ch, "rank.low.b", s, block)
        if r < min(m, n):
            _rank_upper_prover(ch, field, a, m, n, r, s, "rank.up")

    def verifier(ch):
        labels = ()
        if r > 0:
            _, u_th = ch.recv(TAG_COMMIT, (KIND_VEC,), field, count=butterfly_param_count(m))
            _, v_th = ch.recv(TAG_COMMIT, (KIND_VEC,), field, count=butterfly_param_count(n))
            if not ((u_th != 0).all() and (v_th != 0).all()):
                raise Reject("Malformed:zero-theta")
            op = _preconditioned(field, a, m, n, u_th, v_th)
            _check_solve(ch, "rank.low.b", s, leading_projection(op, r))
        if r < min(m, n):
            _rank_upper_verifier(ch, field, a, m, n, r, s, "rank.up")
            labels = (HEURISTIC_BUTTERFLY,)
        return Verdict.accept(rank_epsilon(m, n, r, s), labels), None

    return params, digest, prover, verifier


def rank_certify(
    a,
    r: int,
    source,
    s: Optional[SampleSet] = None,
    instance_tag: Optional[bytes] = None,
    timeout: float = 60.0,
    prover_seed: Optional[int] = None,
) -> Verdict:
    """Certify rank(a) == r by sandwiching it.

    Lower bound: the prover picks and commits its own butterflies, retrying
    until the leading r x r corner of the mixed operator is invertible,
    then solves it at a random target.  No choice of mixing can lift that
    corner past the true rank, so this side stays exact at 1/|S| no matter
    how the parameters were picked.  Upper bound: the verifier-drawn
    kernel-witness check above, with its heuristic bound.
    """
    return certify(
        PROTOCOL_RANK, _rank_parts(a, r, s, instance_tag, prover_seed), source, timeout
    )[0]


def rank_verify(
    a,
    r: int,
    transcript,
    s: Optional[SampleSet] = None,
    instance_tag: Optional[bytes] = None,
) -> Verdict:
    return replay(transcript, PROTOCOL_RANK, _rank_parts(a, r, s, instance_tag))[0]


# -- minimal polynomial of a projected sequence -------------------------------


def minpoly_epsilon(deg_gen: int, deg_num: int, s: SampleSet) -> Fraction:
    """Coprimality spot check plus rational-identity spot check."""
    coprime = Fraction(deg_gen + max(deg_num, 0), len(s))
    identity = Fraction(max(2 * deg_gen - 1, 0), len(s))
    return coprime + identity


def _send_minpoly_package(ch, package: tuple) -> None:
    """Prover-side: commit the generator of the sequence, its numerator and
    their Bezout pair, in that order.

    ``ff.minpoly_package`` computes all four in one extended-Euclid pass
    over the reversed window; each is unique under the degree bounds the
    verifier enforces, so the commitments do not depend on how they were
    found.
    """
    for poly in package:
        ch.send(TAG_COMMIT, KIND_POLY, poly)


def _prove_shifted_solves(ch, field, s, solve_fn) -> None:
    """Answer shifted-system challenges, passing on singular shifts."""
    for attempt in range(SHIFT_DRAWS):
        w = solve_fn(ch.challenge_scalar(f"minpoly.r1.{attempt}", s))
        _send_answer(ch, w)
        if w is not None:
            return


def _evals(field: PrimeField, polys: tuple, x: int, counter: CostCounter) -> list:
    """Each polynomial's value at x, from one table of powers of x; a
    polynomial is its trimmed array of canonical coefficients, low first,
    as ``recv`` gives it.

    Counts one Horner pass, 2 * degree operations, per polynomial.
    """
    powers = _powers(field, x, max(len(coeffs) for coeffs in polys))
    out = []
    for coeffs in polys:
        counter.add(2 * max(len(coeffs) - 1, 0))
        out.append(_dot(field, coeffs, powers[: len(coeffs)]))
    return out


def _verify_minpoly_exchange(
    ch,
    field: PrimeField,
    s: SampleSet,
    operator,
    u: np.ndarray,
    v: np.ndarray,
    n: int,
    full_degree: bool,
):
    """Shared verifier flow.  Returns the committed generator and numerator.

    Degree checks force the numerator strictly below the generator and
    bound the Bezout cofactors; the first challenge spot-checks the
    Bezout identity (hence coprimality); the second binds the pair to the
    operator through one linear solve the verifier can check with a
    single matrix-vector product.
    """
    counter = ch.counter

    def committed():
        # each committed polynomial has degree at most n; recv has checked
        # every coefficient against [0, p), and the wire format that it is
        # trimmed, so its degree is its length less one
        _, coeffs = ch.recv(TAG_COMMIT, (KIND_POLY,), field, count=n + 1)
        return coeffs

    gen_c = committed()
    gen = Poly.from_canonical(field, gen_c)
    if gen.is_zero or not gen.is_monic:
        raise Reject("DegreeViolation")
    if gen.degree > n:
        raise Reject("DegreeViolation")
    if full_degree and gen.degree != n:
        raise Reject("DegreeDeficient")
    num_c = committed()
    num = Poly.from_canonical(field, num_c)
    if num.degree >= gen.degree:
        raise Reject("DegreeViolation")
    phi_c = committed()
    if len(phi_c) - 1 > max(num.degree - 1, 0):
        raise Reject("DegreeViolation")
    psi_c = committed()
    if len(psi_c) - 1 > max(gen.degree - 1, 0):
        raise Reject("DegreeViolation")

    r0 = ch.challenge_scalar("minpoly.r0", s)
    at_gen, at_num, at_phi, at_psi = _evals(field, (gen_c, num_c, phi_c, psi_c), r0, counter)
    lhs = (at_phi * at_gen + at_psi * at_num) % field.p
    counter.add(3)
    if lhs != 1:
        raise Reject("BezoutFail")

    for attempt in range(SHIFT_DRAWS):
        r1 = ch.challenge_scalar(f"minpoly.r1.{attempt}", s)
        kind, w = ch.recv(TAG_RESPONSE, (KIND_VEC, KIND_EMPTY), field, count=n)
        if kind == KIND_EMPTY:
            continue
        shifted = (r1 * w - matvec(operator, w, counter)) % field.p
        counter.add(2 * n)
        if not np.array_equal(shifted, v):
            raise Reject("CheckFailed:resolvent")
        uw = _dot(field, u, w)
        counter.add(2 * n)
        at_gen, right = _evals(field, (gen_c, num_c), r1, counter)
        left = uw * at_gen % field.p
        counter.add(1)
        if left != right:
            raise Reject("CheckFailed:spotcheck")
        return gen, num
    raise Reject("SingularShift")


def _minpoly_parts(a, u, v, s: Optional[SampleSet], instance_tag: Optional[bytes]):
    n = _square_dims(a)
    field = a.field
    s = _check_sample_set(field, s)
    u_arr = field.arr(list(u))
    v_arr = field.arr(list(v))
    if len(u_arr) != n or len(v_arr) != n:
        raise DimensionMismatch("projection vectors must match the operator")
    params = _u64(field.p) + _u64(s.offset) + _u64(s.size) + _u32(n)
    vectors = (encode_payload(KIND_VEC, u_arr), encode_payload(KIND_VEC, v_arr))
    digest = instance_digest(PROTOCOL_MINPOLY, (operator_bytes(a, instance_tag), *vectors))

    def prover(ch):
        dense = a.to_dense()
        seq = projected_sequence(field, a, u_arr, v_arr, 2 * n)
        _send_minpoly_package(ch, minpoly_package(field, seq))
        ch.challenge_scalar("minpoly.r0", s)

        def solve_shift(r1):
            shifted = (-dense.a) % field.p
            idx = np.arange(n)
            shifted[idx, idx] = (shifted[idx, idx] + r1) % field.p
            return solve_dense(DenseMatrix(field, shifted), v_arr)

        _prove_shifted_solves(ch, field, s, solve_shift)

    def verifier(ch):
        gen, num = _verify_minpoly_exchange(
            ch, field, s, a, u_arr, v_arr, n, full_degree=False
        )
        return Verdict.accept(minpoly_epsilon(gen.degree, num.degree, s)), gen

    return params, digest, prover, verifier


def minpoly_certify(
    a,
    u,
    v,
    source,
    s: Optional[SampleSet] = None,
    instance_tag: Optional[bytes] = None,
    timeout: float = 60.0,
):
    """Certify the minimal generator of the sequence i -> u . (A^i v).

    Returns (verdict, generator); the generator is None on rejection.
    """
    return certify(PROTOCOL_MINPOLY, _minpoly_parts(a, u, v, s, instance_tag), source, timeout)


def minpoly_verify(
    a,
    u,
    v,
    transcript,
    s: Optional[SampleSet] = None,
    instance_tag: Optional[bytes] = None,
):
    return replay(transcript, PROTOCOL_MINPOLY, _minpoly_parts(a, u, v, s, instance_tag))


# -- determinant --------------------------------------------------------------


def _shift_solver(field: PrimeField, operator, gen: Poly, checkpoints: np.ndarray):
    """Honest responder for shifted systems when gen annihilates v.

    (r I - B)^{-1} v equals q(B) v / gen(r) with q the quotient of gen by
    (x - r) and gen(r) the remainder, so matrix-vector products solve the
    system without any elimination.  Row m of ``checkpoints`` holds
    C_m = B^(mk) v for k = ``krylov_stride(n)``, as ``projected_sequence``
    keeps them.  With Q[j, m] = q[mk + j], q(B) v = sum_j B^j W[j] for
    W = Q C, which Horner's rule over j evaluates in k - 1 products,
    forming each row W[j] when it is added (Paterson and Stockmeyer, SIAM
    J. Comput. 2(1), 1973).
    """
    p = field.p
    rows, n = checkpoints.shape
    stride = krylov_stride(n)

    def solve(r1: int):
        quot, rem = gen.divmod_by(Poly(field, [-r1, 1]))
        at_r1 = rem.coeff(0)
        if at_r1 == 0:
            return None
        q = field.zeros(rows * stride)
        q[: len(quot.coeffs)] = quot.coeffs
        coeffs = q.reshape(rows, stride).T  # Q

        def w_row(j: int) -> np.ndarray:
            return _mul_mod(field, coeffs[j : j + 1], checkpoints)[0]

        w = w_row(stride - 1)
        for j in range(stride - 2, -1, -1):
            w = _reduce(operator._apply(w) + w_row(j), p)
        return _reduce(w * field.inv(at_r1), p)

    return solve


def det_prover_flow(ch, field: PrimeField, operator, s: SampleSet, rng: Random, n: int):
    """Prover half of the determinant exchange on an open channel.

    Reused by the integer and polynomial lifts, which run it over a field
    chosen mid-session.
    """
    p = field.p
    found = None
    for _ in range(DET_MAX_ATTEMPTS):
        scale = [rng.randrange(1, p) for _ in range(n)]
        u = [rng.randrange(p) for _ in range(n)]
        v = [rng.randrange(p) for _ in range(n)]
        # a matrix scales its entries: a sparse D·A keeps A's pattern, and a
        # dense one splits into limb planes once, on its second Krylov step
        scaled = operator.scale_rows(field.arr(scale))
        u_arr, v_arr = field.arr(u), field.arr(v)
        checkpoints = krylov_checkpoints(field, n)
        seq = projected_sequence(field, scaled, u_arr, v_arr, 2 * n, checkpoints)
        package = minpoly_package(field, seq)
        if package[0].degree == n:
            found = (scale, u_arr, v_arr, scaled, package, checkpoints)
            break
    if found is None:
        ch.send(TAG_COMMIT, KIND_EMPTY)
        return
    scale, u_arr, v_arr, scaled, package, checkpoints = found
    for vec in (scale, u_arr, v_arr):
        ch.send(TAG_COMMIT, KIND_VEC, vec)
    _send_minpoly_package(ch, package)
    ch.challenge_scalar("minpoly.r0", s)
    _prove_shifted_solves(ch, field, s, _shift_solver(field, scaled, package[0], checkpoints))


def det_verifier_flow(ch, field: PrimeField, operator, s: SampleSet, n: int):
    """Verifier half of the determinant exchange.

    Returns the certified determinant and its error bound.
    """
    p = field.p
    kind, scale = ch.recv(TAG_COMMIT, (KIND_VEC, KIND_EMPTY), field, count=n)
    if kind == KIND_EMPTY:
        raise Reject("DegreeDeficient")
    if not (scale != 0).all():
        raise Reject("CheckFailed:scaling")
    _, u_arr = ch.recv(TAG_COMMIT, (KIND_VEC,), field, count=n)
    _, v_arr = ch.recv(TAG_COMMIT, (KIND_VEC,), field, count=n)
    scaled = compose(diagonal_scaling(field, scale), operator)
    gen, num = _verify_minpoly_exchange(
        ch, field, s, scaled, u_arr, v_arr, n, full_degree=True
    )
    # gen is the characteristic polynomial of the scaled operator, so
    # det(scaled) = (-1)^n gen(0); unwind the scaling afterwards
    det_scaled = gen.coeff(0)
    if n % 2 == 1:
        det_scaled = (-det_scaled) % p
    scale_det = _prod(field, scale)
    ch.counter.add(n + 2)
    value = det_scaled * field.inv(scale_det) % p
    return value, minpoly_epsilon(n, num.degree, s)


def _det_parts(
    a,
    s: Optional[SampleSet],
    instance_tag: Optional[bytes],
    prover_seed: Optional[int],
):
    n = _square_dims(a)
    field = a.field
    s = _check_sample_set(field, s)
    params = _u64(field.p) + _u64(s.offset) + _u64(s.size) + _u32(n)
    digest = instance_digest(PROTOCOL_DET, (operator_bytes(a, instance_tag),))

    def prover(ch):
        det_prover_flow(ch, field, a, s, _prover_rng(digest, prover_seed), n)

    def verifier(ch):
        value, eps = det_verifier_flow(ch, field, a, s, n)
        return Verdict.accept(eps), value

    return params, digest, prover, verifier


def det_certify(
    a,
    source,
    s: Optional[SampleSet] = None,
    instance_tag: Optional[bytes] = None,
    prover_seed: Optional[int] = None,
    timeout: float = 60.0,
):
    """Certify the determinant of a square operator.

    Returns (verdict, determinant); the value is None on rejection.

    The prover scales rows by random nonzero values until the projected
    sequence of the scaled operator has a full-degree minimal generator,
    which is then the characteristic polynomial of the scaled operator;
    its constant term yields the determinant up to sign and the known
    scaling.  The verifier never sees the matrix entries, only the
    committed polynomials and one checked linear solve.
    """
    return certify(PROTOCOL_DET, _det_parts(a, s, instance_tag, prover_seed), source, timeout)


def det_verify(
    a,
    transcript,
    s: Optional[SampleSet] = None,
    instance_tag: Optional[bytes] = None,
):
    return replay(transcript, PROTOCOL_DET, _det_parts(a, s, instance_tag, None))
