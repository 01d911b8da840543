"""Determinants over the integers and over polynomial rings.

Both lifts follow the same commit-then-reduce shape: the prover commits
to the full answer, the verifier draws a random evaluation point (a
word-sized prime for integer matrices, a field element for polynomial
matrices), and a field determinant certificate settles the reduced
instance.  A wrong committed answer survives only if the draw lands on
one of the few points where the wrong and true answers collide, and a
size bound on the commitment caps how many such points exist.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import isqrt, prod
from typing import Optional, Sequence

import numpy as np

from .certs_sparse import _evals, _prover_rng, _square_dims, det_prover_flow, det_verifier_flow
from .errors import DimensionMismatch, FieldMismatch, NotSquare
from .ff import (
    MAX_MODULUS_BITS,
    Poly,
    PrimeField,
    full_sample_set,
    is_probable_prime,
    word_dtype,
)
from .la import DenseMatrix, det_stack, int_array, stack_cap
from .proto import (
    KIND_BIGINT,
    KIND_POLY,
    TAG_COMMIT,
    Reject,
    Verdict,
    certify,
    encode_payload,
    instance_digest,
    replay,
    _u32,
    _u64,
)

PROTOCOL_INTDET = "vlac.intdet.v1"
PROTOCOL_POLYDET = "vlac.polydet.v1"

DEFAULT_PRIME_BITS = 62

# The CRT primes are the prover's own and appear in no transcript.  The
# first primes above 2^29 run on int64 with a dot_chunk() of 31, so
# la.det_stack reduces the trailing block of a 64 x 64 stack twice, not
# once per column; 28 and 30 bits measured slower on that stack.
CRT_PRIME_BITS = 29

# bits -> the first primes above 2**bits found so far; grown on demand
_CRT_PRIMES: dict[int, list[int]] = {}
_CRT_PRIMES_LOCK = threading.Lock()


class IntMatrix:
    """Square-friendly integer matrix with arbitrary-size entries.

    ``a`` is a C-ordered int64 array when every entry fits, else an
    ``object`` array of exact Python ints (the rule of ``la.int_array``).
    """

    __slots__ = ("a",)

    def __init__(self, data):
        if isinstance(data, np.ndarray) and data.ndim == 2 and data.dtype == np.int64:
            self.a = np.ascontiguousarray(data)
            return
        rows = data.tolist() if isinstance(data, np.ndarray) else data
        width = len(rows[0]) if len(rows) else 0
        if any(len(row) != width for row in rows):
            raise DimensionMismatch("ragged rows")
        self.a = int_array([v for row in rows for v in row]).reshape(len(rows), width)

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def reduce(self, field: PrimeField) -> DenseMatrix:
        """The matrix mod p, reduced once."""
        return DenseMatrix._of(field, (self.a % field.p).astype(field.dtype, copy=False))

    def encode(self) -> bytes:
        head = b"I" + _u32(self.rows) + _u32(self.cols)
        if self.a.dtype == object:
            return head + b"".join(encode_payload(KIND_BIGINT, v) for v in self.a.flat)
        return head + _bigint_records(self.a)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and np.array_equal(self.a, other.a)

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols})"


def _bigint_records(a: np.ndarray) -> bytes:
    """encode_payload(KIND_BIGINT, v) of every int64 entry, joined.

    Each record is a sign byte, a ``<u4`` byte count and the minimal
    little-endian magnitude.  All records are laid out at their widest,
    13 bytes, and a mask keeps the bytes each one uses.
    """
    v = a.reshape(-1)
    neg = v < 0
    u = v.view(np.uint64)
    mag = np.where(neg, np.uint64(0) - u, u)  # exact for -2^63 too
    length = np.zeros(len(v), dtype=np.uint32)
    for b in range(8):
        length += (mag >> np.uint64(8 * b)) != 0
    rec = np.zeros((len(v), 13), dtype=np.uint8)
    rec[:, 0] = neg
    rec[:, 1:5] = length.astype("<u4").view(np.uint8).reshape(-1, 4)
    rec[:, 5:] = mag.astype("<u8").view(np.uint8).reshape(-1, 8)
    keep = np.arange(13) < 5 + length[:, None].astype(np.int64)
    return rec[keep].tobytes()


def hadamard_bound(m: IntMatrix) -> int:
    """Integer bound on |det|: the product of row norms, rounded up.

    The square of the determinant is at most the product of the row
    norm squares, so the bound is computed exactly in integers and only
    the final square root is rounded.  Row squares are summed in int64
    when no sum can reach 2^63, and multiplied in Python ints.
    """
    a = m.a
    if a.dtype == np.int64 and a.size and m.cols * max(int(a.max()), -int(a.min())) ** 2 >= 2**63:
        a = a.astype(object)
    row_sq = (a * a).sum(axis=1).tolist()
    if 0 in row_sq:
        return 0
    square = prod(row_sq)
    root = isqrt(square)
    if root * root < square:
        root += 1
    return root


def lower_bound_primes(bits: int) -> int:
    """Primes in [2**(bits-1), 2**bits): at least x / (3 ln 2x) of them.

    Rationalized with ln 2 < 2.0796/3 per bit so the bound stays an exact
    integer computation.
    """
    return (1 << (bits - 1)) * 10000 // (20796 * bits)


def intdet_epsilon(bound: int, bits: int, eps_field: Fraction) -> Fraction:
    """Chance a wrong committed determinant survives the prime draw."""
    if bound == 0:
        return eps_field
    gap_bits = (2 * bound).bit_length()
    bad = -(-gap_bits // (bits - 1))
    return Fraction(bad, lower_bound_primes(bits)) + eps_field


def _crt_primes(bits: int, bound: int) -> list[int]:
    """The first primes above 2**bits whose product exceeds 2 * bound."""
    with _CRT_PRIMES_LOCK:
        known = _CRT_PRIMES.setdefault(bits, [])
        primes, product = [], 1
        while product < 2 * bound + 1:
            if len(primes) == len(known):
                candidate = known[-1] + 2 if known else (1 << bits) + 1
                while not is_probable_prime(candidate):
                    candidate += 2
                known.append(candidate)
            primes.append(known[len(primes)])
            product *= primes[-1]
        return primes


def int_det_crt(m: IntMatrix, bits: int = CRT_PRIME_BITS) -> int:
    """Exact integer determinant by Chinese remaindering word-prime images.

    Prover-side.  Takes the first primes above 2**bits until their product
    covers twice the Hadamard bound.  The matrix is reduced once into
    stacks of at most ``la.stack_cap(n)`` slices, one per prime, in int64
    when the primes are int64-safe (the default 29 bits) and the entries
    fit, ``object`` otherwise, and ``la.det_stack`` eliminates the slices
    of each stack together.  Garner's incremental recombination then
    lifts the images to the symmetric residue.
    """
    if m.rows != m.cols:
        raise NotSquare("determinant needs a square matrix")
    if m.rows == 0:
        return 1
    bound = hadamard_bound(m)
    if bound == 0:
        return 0
    primes = _crt_primes(bits, bound)
    residue, modulus = 0, 1
    cap = stack_cap(m.rows)
    for lo in range(0, len(primes), cap):
        batch = primes[lo : lo + cap]
        dtype = word_dtype(batch[-1])
        stack = (m.a % np.array(batch, dtype=dtype)[:, None, None]).astype(dtype, copy=False)
        for p, r in zip(batch, det_stack(stack, batch)):
            # combine: find x = residue (mod modulus), x = r (mod p)
            t = (r - residue) % p * pow(modulus % p, -1, p) % p
            residue += modulus * t
            modulus *= p
    if residue > modulus // 2:
        residue -= modulus
    return residue


def _intdet_parts(m: IntMatrix, bits: int, prover_seed: Optional[int]):
    n = _square_dims(m)
    if not 16 <= bits <= MAX_MODULUS_BITS - 1:
        raise ValueError("prime size out of range")
    params = _u32(n) + _u32(bits)
    digest = instance_digest(PROTOCOL_INTDET, (m.encode(),))
    bound = hadamard_bound(m)

    def prover(ch):
        rng = _prover_rng(digest, prover_seed)
        value = int_det_crt(m)
        ch.send(TAG_COMMIT, KIND_BIGINT, value)
        q = ch.challenge_prime("intdet.q", bits)
        field = PrimeField(q)
        det_prover_flow(ch, field, m.reduce(field), full_sample_set(field), rng, n)

    def verifier(ch):
        # |claimed| <= bound takes at most this many 8-byte words
        _, claimed = ch.recv(TAG_COMMIT, (KIND_BIGINT,), count=(bound.bit_length() + 63) // 64)
        if abs(claimed) > bound:
            raise Reject("CommitmentOutOfBounds")
        q = ch.challenge_prime("intdet.q", bits)
        field = PrimeField(q)
        s = full_sample_set(field)
        value, eps_field = det_verifier_flow(ch, field, m.reduce(field), s, n)
        if claimed % q != value:
            raise Reject("CheckFailed:lift")
        return Verdict.accept(intdet_epsilon(bound, bits, eps_field)), claimed

    return params, digest, prover, verifier


def intdet_certify(
    m: IntMatrix,
    source,
    bits: int = DEFAULT_PRIME_BITS,
    prover_seed: Optional[int] = None,
    timeout: float = 60.0,
):
    """Certify the determinant of an integer matrix.

    Returns (verdict, determinant); the value is None on rejection.  The
    prover commits the integer answer first; the verifier checks it
    against the Hadamard bound, draws a random prime of the agreed size,
    and settles the reduced claim with the field certificate.
    """
    return certify(PROTOCOL_INTDET, _intdet_parts(m, bits, prover_seed), source, timeout)


def intdet_verify(m: IntMatrix, transcript, bits: int = DEFAULT_PRIME_BITS):
    return replay(transcript, PROTOCOL_INTDET, _intdet_parts(m, bits, None))


class PolyMatrix:
    """Square matrix of polynomials over one prime field."""

    __slots__ = ("field", "entries")

    def __init__(self, field: PrimeField, entries: Sequence[Sequence[Poly]]):
        self.field = field
        rows = [list(row) for row in entries]
        width = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != width:
                raise DimensionMismatch("ragged rows")
            for e in row:
                if not isinstance(e, Poly):
                    raise TypeError("entries must be polynomials")
                if e.field != field:
                    raise FieldMismatch("entry over a different field")
        self.entries = rows

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def max_degree(self) -> int:
        return max(
            (e.degree for row in self.entries for e in row if not e.is_zero),
            default=0,
        )

    def evaluate(self, x: int) -> DenseMatrix:
        vals = [[e(x) for e in row] for row in self.entries]
        return DenseMatrix(self.field, vals)

    def encode(self) -> bytes:
        out = [b"P", _u64(self.field.p), _u32(self.rows), _u32(self.cols)]
        for row in self.entries:
            for e in row:
                out.append(encode_payload(KIND_POLY, e))
        return b"".join(out)

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols}, GF({self.field.p}))"


def poly_det_interp(m: PolyMatrix) -> Poly:
    """Exact determinant polynomial by evaluation and interpolation.

    Prover-side: the determinant has degree at most n * max entry degree,
    so that many point evaluations followed by Lagrange interpolation
    recover it.  The evaluations are built by Horner's rule as stacks of
    at most ``la.stack_cap(n)`` slices, and ``la.det_stack`` eliminates
    each stack at once.
    """
    field = m.field
    p = field.p
    if m.rows != m.cols:
        raise NotSquare("determinant needs a square matrix")
    n = m.rows
    bound = n * m.max_degree
    if bound + 1 > p:
        raise ValueError("field too small to interpolate the determinant")
    coeffs = field.zeros((m.max_degree + 1, n, n))
    for i, row in enumerate(m.entries):
        for j, e in enumerate(row):
            coeffs[: len(e.coeffs), i, j] = e.coeffs
    xs = list(range(bound + 1))
    ys = []
    cap = stack_cap(n)
    for lo in range(0, len(xs), cap):
        x = field.arr(xs[lo : lo + cap])[:, None, None]
        stack = np.repeat(coeffs[-1:], len(x), axis=0)
        for c in coeffs[:-1][::-1]:
            stack = (stack * x % p + c) % p
        ys += det_stack(stack, [p] * len(x))
    return _lagrange(field, xs, ys)


def _lagrange(field: PrimeField, xs: list[int], ys: list[int]) -> Poly:
    p = field.p
    total = Poly.zero(field)
    # running product prod_(x - x_j) maintained by synthetic division
    master = Poly.one(field)
    for x in xs:
        master = master * Poly(field, [(-x) % p, 1])
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        quot, _ = master.divmod_by(Poly(field, [(-xi) % p, 1]))
        denom = quot(xi)
        total = total + quot.scale(yi * field.inv(denom) % p)
    return total


def polydet_epsilon(n: int, deg_bound: int, s_size: int, eps_field: Fraction) -> Fraction:
    return Fraction(n * deg_bound, s_size) + eps_field


def _polydet_parts(m: PolyMatrix, deg_bound: Optional[int], prover_seed: Optional[int]):
    n = _square_dims(m)
    field = m.field
    if deg_bound is None:
        deg_bound = m.max_degree
    if deg_bound < m.max_degree:
        raise ValueError("degree bound below an actual entry degree")
    s = full_sample_set(field)
    params = _u64(field.p) + _u32(n) + _u32(deg_bound)
    digest = instance_digest(PROTOCOL_POLYDET, (m.encode(),))

    def prover(ch):
        rng = _prover_rng(digest, prover_seed)
        f = poly_det_interp(m)
        ch.send(TAG_COMMIT, KIND_POLY, f)
        alpha = ch.challenge_scalar("polydet.alpha", s)
        det_prover_flow(ch, field, m.evaluate(alpha), s, rng, n)

    def verifier(ch):
        _, f_coeffs = ch.recv(TAG_COMMIT, (KIND_POLY,), field, count=n * deg_bound + 1)
        f = Poly(field, f_coeffs)
        if f.degree > n * deg_bound:
            raise Reject("DegreeOutOfBounds")
        alpha = ch.challenge_scalar("polydet.alpha", s)
        value, eps_field = det_verifier_flow(ch, field, m.evaluate(alpha), s, n)
        if _evals(field, (f,), alpha, ch.counter) != [value]:
            raise Reject("CheckFailed:lift")
        return Verdict.accept(polydet_epsilon(n, deg_bound, len(s), eps_field)), f

    return params, digest, prover, verifier


def polydet_certify(
    m: PolyMatrix,
    source,
    deg_bound: Optional[int] = None,
    prover_seed: Optional[int] = None,
    timeout: float = 60.0,
):
    """Certify the determinant of a polynomial matrix.

    Returns (verdict, determinant polynomial); None on rejection.  The
    committed polynomial is checked at a random point against a field
    determinant certificate for the evaluated matrix; two distinct
    polynomials of degree at most n*d agree on at most n*d points.
    """
    return certify(PROTOCOL_POLYDET, _polydet_parts(m, deg_bound, prover_seed), source, timeout)


def polydet_verify(m: PolyMatrix, transcript, deg_bound: Optional[int] = None):
    return replay(transcript, PROTOCOL_POLYDET, _polydet_parts(m, deg_bound, None))
