"""Certificates for dense matrix products, product chains, and inverses.

The workhorse is the probabilistic product check: to validate A@B = C the
verifier draws a challenge, builds the vector of its powers
v = (1, r, r^2, ...), and tests A(Bv) = Cv with three matrix-vector
products.  A wrong product survives only if r is a root of a nonzero
polynomial of degree below the column count, so the error rate is
(n-1)/|S| over a sample set S.  The zero-one variant draws k random
{0,1} vectors for error 2^-k instead, and checks them as one block of k
columns: three block products, not 3k matrix-vector products.

Nothing here needs a prover message: the claimed product is part of the
instance, so transcripts carry challenges only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .errors import BrokenReference, DimensionMismatch, FieldMismatch, NotSquare
from .ff import PrimeField, SampleSet, _check_sample_set, _powers
from .la import CostCounter, DenseMatrix, matvec
from .proto import (
    Reject,
    Verdict,
    certify,
    instance_digest,
    matrix_chunks,
    replay,
    _u32,
    _u64,
)

GEOMETRIC = "geometric"
ZERO_ONE = "zero-one"

PROTOCOL_MATMUL = "vlac.matmul.v1"
PROTOCOL_CHAIN = "vlac.chain.v1"
PROTOCOL_INVERSE = "vlac.inverse.v1"

DEFAULT_ZERO_ONE_ROUNDS = 32


def dense_bytes(m: DenseMatrix) -> bytes:
    """Canonical instance encoding of a dense matrix, joined: the bytes of
    the ``matrix_chunks(m, b"D")`` that ``instance_digest`` hashes."""
    return bytes(matrix_chunks(m, b"D"))


def _require_same_field(*ms) -> PrimeField:
    field = ms[0].field
    for m in ms[1:]:
        if m.field != field:
            raise FieldMismatch("operands live over different moduli")
    return field


def _geometric_vector(field: PrimeField, r: int, n: int, counter: CostCounter) -> np.ndarray:
    if n:
        counter.add(n - 1)
    return _powers(field, r, n)


def _check_product(a, b, c, v: np.ndarray, counter: CostCounter, reason: str) -> None:
    """Test a(bv) = cv for a vector or a block of columns v; raise
    Reject(reason) when it fails."""
    inner = matvec(b, v, counter)
    left = matvec(a, inner, counter)
    right = matvec(c, v, counter)
    if not np.array_equal(left, right):
        raise Reject(reason)


def _variant_code(variant: str) -> int:
    if variant == GEOMETRIC:
        return 0
    if variant == ZERO_ONE:
        return 1
    raise ValueError(f"unknown product-check variant {variant!r}")


def matmul_epsilon(variant: str, cols: int, s: SampleSet, rounds: int) -> Fraction:
    if variant == GEOMETRIC:
        return Fraction(max(cols - 1, 0), len(s))
    return Fraction(1, 2**rounds)


def _matmul_parts(
    a: DenseMatrix,
    b: DenseMatrix,
    c: DenseMatrix,
    s: SampleSet | None,
    variant: str,
    rounds: int,
):
    field = _require_same_field(a, b, c)
    if a.cols != b.rows or c.rows != a.rows or c.cols != b.cols:
        raise DimensionMismatch(
            f"product shapes {a.shape}x{b.shape} vs claim {c.shape}"
        )
    s = _check_sample_set(field, s)
    code = _variant_code(variant)
    if variant == ZERO_ONE and rounds < 1:
        raise ValueError("zero-one variant needs at least one round")
    params = _u64(field.p) + bytes([code]) + _u64(s.offset) + _u64(s.size) + _u32(
        rounds if variant == ZERO_ONE else 0
    )
    digest = instance_digest(
        PROTOCOL_MATMUL, (matrix_chunks(a, b"D"), matrix_chunks(b, b"D"), matrix_chunks(c, b"D"))
    )

    def prover(ch):
        # nothing to claim beyond the instance; walk the challenge
        # schedule so hash-compiled transcripts record it
        if variant == GEOMETRIC:
            ch.challenge_scalar("product.r", s)
        else:
            bits = SampleSet(field, 2)
            for t in range(rounds):
                ch.challenge_vector(f"product.v.{t}", bits, c.cols)

    def verifier(ch):
        if variant == GEOMETRIC:
            r = ch.challenge_scalar("product.r", s)
            v = _geometric_vector(field, r, c.cols, ch.counter)
            _check_product(a, b, c, v, ch.counter, "CheckFailed:product")
        else:
            bits = SampleSet(field, 2)
            vs = [ch.challenge_vector(f"product.v.{t}", bits, c.cols) for t in range(rounds)]
            block = np.array(vs, dtype=field.dtype).T  # column t is round t's vector
            _check_product(a, b, c, block, ch.counter, "CheckFailed:product")
        return Verdict.accept(matmul_epsilon(variant, c.cols, s, rounds)), None

    return params, digest, prover, verifier


def matmul_certify(
    a: DenseMatrix,
    b: DenseMatrix,
    c: DenseMatrix,
    source,
    s: SampleSet | None = None,
    variant: str = GEOMETRIC,
    rounds: int = DEFAULT_ZERO_ONE_ROUNDS,
    timeout: float = 60.0,
) -> Verdict:
    """Check the claim a @ b = c without recomputing the product."""
    return certify(PROTOCOL_MATMUL, _matmul_parts(a, b, c, s, variant, rounds), source, timeout)[0]


def matmul_verify(
    a: DenseMatrix,
    b: DenseMatrix,
    c: DenseMatrix,
    transcript,
    s: SampleSet | None = None,
    variant: str = GEOMETRIC,
    rounds: int = DEFAULT_ZERO_ONE_ROUNDS,
) -> Verdict:
    """Replay a recorded product-check transcript against the instance."""
    return replay(transcript, PROTOCOL_MATMUL, _matmul_parts(a, b, c, s, variant, rounds))[0]


@dataclass(frozen=True)
class Literal:
    """A factor given outright."""

    matrix: DenseMatrix


@dataclass(frozen=True)
class Ref:
    """A factor that is the product claimed by an earlier link."""

    index: int


FactorSource = Union[Literal, Ref]


@dataclass(frozen=True)
class MatMulClaim:
    """One link of a product chain: left @ right = product."""

    left: FactorSource
    right: FactorSource
    product: DenseMatrix


def _resolve(claims: list[MatMulClaim], i: int, side: FactorSource) -> DenseMatrix:
    if isinstance(side, Literal):
        return side.matrix
    if isinstance(side, Ref):
        if not 0 <= side.index < i:
            raise BrokenReference(
                f"link {i} references product {side.index}, which is not an earlier link"
            )
        return claims[side.index].product
    raise TypeError(f"factor source must be Literal or Ref, got {type(side).__name__}")


def _side_part(side: FactorSource):
    if isinstance(side, Literal):
        return matrix_chunks(side.matrix, b"LD")
    return b"R" + _u32(side.index)


def chain_epsilon(claims: list[MatMulClaim], s: SampleSet) -> Fraction:
    return sum(
        (Fraction(max(cl.product.cols - 1, 0), len(s)) for cl in claims),
        Fraction(0),
    )


def _chain_parts(claims: list[MatMulClaim], s: SampleSet | None):
    if not claims:
        # an empty chain asserts nothing, so it holds vacuously
        digest = instance_digest(PROTOCOL_CHAIN, ())
        params = _u64(0) if s is None else _u64(s.field.p) + _u64(s.offset) + _u64(s.size)
        params += _u32(0)

        def prover(ch):
            pass

        def verifier(ch):
            return Verdict.accept(Fraction(0)), None

        return params, digest, prover, verifier
    resolved = []
    for i, cl in enumerate(claims):
        left = _resolve(claims, i, cl.left)
        right = _resolve(claims, i, cl.right)
        field = _require_same_field(left, right, cl.product)
        if left.cols != right.rows or cl.product.rows != left.rows or cl.product.cols != right.cols:
            raise DimensionMismatch(f"link {i} shapes do not compose")
        resolved.append((left, right, cl.product))
    field = resolved[0][2].field
    _require_same_field(*(pr for _, _, pr in resolved))
    s = _check_sample_set(field, s)

    parts = []
    for cl in claims:
        parts.append(_side_part(cl.left))
        parts.append(_side_part(cl.right))
        parts.append(matrix_chunks(cl.product, b"D"))
    digest = instance_digest(PROTOCOL_CHAIN, parts)
    params = _u64(field.p) + _u64(s.offset) + _u64(s.size) + _u32(len(claims))

    def prover(ch):
        for i in range(len(claims)):
            ch.challenge_scalar(f"chain.{i}.r", s)

    def verifier(ch):
        for i, (left, right, product) in enumerate(resolved):
            r = ch.challenge_scalar(f"chain.{i}.r", s)
            v = _geometric_vector(field, r, product.cols, ch.counter)
            _check_product(left, right, product, v, ch.counter, f"CheckFailed:chain.{i}")
        return Verdict.accept(chain_epsilon(claims, s)), None

    return params, digest, prover, verifier


def chain_certify(
    claims: list[MatMulClaim],
    source,
    s: SampleSet | None = None,
    timeout: float = 60.0,
) -> Verdict:
    """Check every link of a product chain; the error bound is the union
    bound over the per-link product checks."""
    return certify(PROTOCOL_CHAIN, _chain_parts(claims, s), source, timeout)[0]


def chain_verify(
    claims: list[MatMulClaim],
    transcript,
    s: SampleSet | None = None,
) -> Verdict:
    return replay(transcript, PROTOCOL_CHAIN, _chain_parts(claims, s))[0]


def inverse_epsilon(n: int, s: SampleSet) -> Fraction:
    return Fraction(max(n - 1, 0), len(s))


def _inverse_parts(a: DenseMatrix, w: DenseMatrix, s: SampleSet | None):
    field = _require_same_field(a, w)
    if a.rows != a.cols:
        raise NotSquare("inverse claims need a square matrix")
    if w.rows != a.rows or w.cols != a.cols:
        raise DimensionMismatch("claimed inverse has the wrong shape")
    s = _check_sample_set(field, s)
    n = a.rows
    digest = instance_digest(
        PROTOCOL_INVERSE, (matrix_chunks(a, b"D"), matrix_chunks(w, b"D"))
    )
    params = _u64(field.p) + _u64(s.offset) + _u64(s.size)

    def prover(ch):
        ch.challenge_scalar("inverse.r", s)

    def verifier(ch):
        r = ch.challenge_scalar("inverse.r", s)
        v = _geometric_vector(field, r, n, ch.counter)
        left = matvec(a, matvec(w, v, ch.counter), ch.counter)
        if not np.array_equal(left, v):
            raise Reject("CheckFailed:inverse")
        return Verdict.accept(inverse_epsilon(n, s)), None

    return params, digest, prover, verifier


def inverse_certify(
    a: DenseMatrix,
    w: DenseMatrix,
    source,
    s: SampleSet | None = None,
    timeout: float = 60.0,
) -> Verdict:
    """Check that w is the two-sided inverse of a.

    One product check suffices: a is square, so a @ w = I already forces
    w = a^{-1}.  The identity never has to be materialized because
    I v = v.
    """
    return certify(PROTOCOL_INVERSE, _inverse_parts(a, w, s), source, timeout)[0]


def inverse_verify(
    a: DenseMatrix,
    w: DenseMatrix,
    transcript,
    s: SampleSet | None = None,
) -> Verdict:
    return replay(transcript, PROTOCOL_INVERSE, _inverse_parts(a, w, s))[0]
