"""Word-sized prime fields GF(p), dense polynomials over them, and the
sequence machinery (Berlekamp-Massey, numerator reconstruction, the
extended gcd) that the certificate protocols are built on.

Scalars are canonical Python ints in [0, p).  Keeping them as plain ints
lets the matrix layer batch arithmetic through numpy without boxing.

The provers take a sequence window's whole minimal-polynomial package
(generator, numerator and their Bezout pair) from ``minpoly_package``:
one extended-Euclid pass on (x^N, reversed window) that stops halfway
down.  ``berlekamp_massey``, ``numerator_from_sequence``, ``generates``
and ``poly_xgcd`` give the same polynomials one at a time.  No prover
calls them and ``vlac`` does not export them: they stay here as the
references the tests hold ``minpoly_package`` to, and the benchmark's
tracer looks them up by name.

The sequence and gcd kernels, and ``Poly`` product and division, run on
coefficient arrays of ``field.dtype``: one path for both word dtypes.
Over int64 every operand is canonical, so one product is below
p^2 < 2^63.  ``_dot`` reduces each product before summing, so its sum
stays below len * p < 2^63.  ``_sub_mul`` subtracts at most ``dot_chunk()``
unreduced products from a canonical coefficient between reductions, and
reduces with ``_reduce``'s floor division; ``_mul_arrays`` is one
``_sub_mul`` from zero.  Over ``object`` arrays the same numpy calls
carry exact Python ints and cannot overflow; ``_dot`` there sums one
``np.dot`` and reduces once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BothZero,
    DivisionByZero,
    EvenModulus,
    FieldMismatch,
    GeneratorMismatch,
    NotPrime,
)

MAX_MODULUS_BITS = 63  # scalars must serialize as one little-endian u64

# Deterministic Miller-Rabin witness set, exact for n < 3.317e24 (covers the
# full u64 range, so the advertised error bound 2**-100 is met with room).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic below 2**64."""
    if n < 2:
        return False
    if n == 2:
        return True
    if n % 2 == 0:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def word_dtype(p: int):
    """int64 when products of residues mod p cannot wrap it, else object."""
    return np.int64 if (p - 1) * (p - 1) < 2**63 else object


class PrimeField:
    """GF(p) for an odd word-sized prime p."""

    __slots__ = ("p", "dtype", "_chunk")

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 0:
            raise NotPrime(f"modulus must be a positive integer, got {p!r}")
        if p.bit_length() > MAX_MODULUS_BITS:
            raise ValueError(f"modulus must fit in {MAX_MODULUS_BITS} bits")
        if p == 2 or (p > 2 and p % 2 == 0):
            raise EvenModulus("even moduli are not supported")
        if not is_probable_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p
        self.dtype = word_dtype(p)
        if self.dtype is np.int64:
            self._chunk = (2**63 - 1) // ((p - 1) * (p - 1))
        else:
            self._chunk = 0  # object arrays never overflow

    # -- scalar arithmetic ------------------------------------------------

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise DivisionByZero("inverse of 0")
        return pow(a, -1, self.p)

    # -- array helpers -----------------------------------------------------

    def arr(self, values) -> np.ndarray:
        """Canonical numpy vector/matrix over this field."""
        a = np.array(values, dtype=self.dtype)
        return a % self.p

    def zeros(self, shape) -> np.ndarray:
        if self.dtype is object:
            z = np.zeros(shape, dtype=object)
            z += 0  # force Python ints, not numpy zeros of float
            return z
        return np.zeros(shape, dtype=np.int64)

    def dot_chunk(self) -> int:
        """How many unreduced int64 products may be summed safely."""
        return self._chunk

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


def field_new(p: int) -> PrimeField:
    """Validate p and build GF(p).  Raises NotPrime / EvenModulus."""
    return PrimeField(p)


def _check_same_field(a: PrimeField, b: PrimeField) -> None:
    if a.p != b.p:
        raise FieldMismatch(f"GF({a.p}) vs GF({b.p})")


@dataclass(frozen=True)
class SampleSet:
    """Contiguous challenge range {offset, ..., offset+size-1} inside GF(p).

    Soundness bounds divide by |S|, so the size is kept explicit instead of
    implicitly meaning "the whole field".
    """

    field: PrimeField
    size: int
    offset: int = 0

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("sample set needs at least two elements")
        if self.offset < 0 or self.offset + self.size > self.field.p:
            raise ValueError("sample set must lie inside [0, p)")

    def __contains__(self, x: int) -> bool:
        return self.offset <= x < self.offset + self.size

    def __len__(self) -> int:
        return self.size


def full_sample_set(field: PrimeField) -> SampleSet:
    return SampleSet(field, field.p, 0)


def _check_sample_set(field: PrimeField, s: SampleSet | None) -> SampleSet:
    """The sample set a protocol draws from: s, or the whole field."""
    if s is None:
        return full_sample_set(field)
    if s.field != field:
        raise FieldMismatch("sample set drawn from a different field")
    return s


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


class Poly:
    """Dense univariate polynomial over GF(p), coefficients low-first.

    The coefficient list is always trimmed: its last entry is nonzero, and
    the zero polynomial is the empty list.  ``degree`` returns -1 for the
    zero polynomial (a stand-in for "minus infinity"; callers that feed
    degrees into soundness formulas must clamp).
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs: Sequence[int]):
        self.field = field
        p = field.p
        c = [int(v) % p for v in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = c

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field: PrimeField) -> "Poly":
        return cls(field, [])

    @classmethod
    def one(cls, field: PrimeField) -> "Poly":
        return cls(field, [1])

    @classmethod
    def x(cls, field: PrimeField) -> "Poly":
        return cls(field, [0, 1])

    @classmethod
    def constant(cls, field: PrimeField, c: int) -> "Poly":
        return cls(field, [c])

    @classmethod
    def from_canonical(cls, field: PrimeField, coeffs: np.ndarray) -> "Poly":
        """A polynomial from an array of entries already in [0, p), such as
        a received payload that has been range-checked: no reduction, and
        one ``tolist``, so its coefficients are Python ints."""
        poly = cls.__new__(cls)
        poly.field = field
        c = coeffs.tolist()
        while c and c[-1] == 0:
            c.pop()
        poly.coeffs = c
        return poly

    # -- structure ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and other.field.p == self.field.p
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field.p, tuple(self.coeffs)))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        _check_same_field(self.field, other.field)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = (out[i] + v) % self.field.p
        return Poly(self.field, out)

    def __neg__(self) -> "Poly":
        p = self.field.p
        return Poly(self.field, [-v % p for v in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        _check_same_field(self.field, other.field)
        field = self.field
        a, b = _residues(field, self.coeffs), _residues(field, other.coeffs)
        return Poly(field, _mul_arrays(field, a, b))

    def scale(self, c: int) -> "Poly":
        p = self.field.p
        c %= p
        return Poly(self.field, [v * c % p for v in self.coeffs])

    def divmod_by(self, den: "Poly") -> tuple["Poly", "Poly"]:
        _check_same_field(self.field, den.field)
        if den.is_zero:
            raise DivisionByZero("polynomial division by zero")
        field = self.field
        num, d = _residues(field, self.coeffs), _residues(field, den.coeffs)
        q = _quotient(field, num, d)
        # num - q*d vanishes from degree deg d up: compute only below it
        rem = _sub_mul(field, num, q, d, min(len(num), len(d) - 1))
        return Poly(field, q), Poly(field, rem)

    def __call__(self, x: int) -> int:
        """Horner evaluation at a scalar."""
        p = self.field.p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc

    # -- presentation -----------------------------------------------------------

    def __repr__(self) -> str:
        if self.is_zero:
            return f"Poly(0 mod {self.field.p})"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("x" if c == 1 else f"{c}*x")
            else:
                terms.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
        return f"Poly({' + '.join(terms)} mod {self.field.p})"


def poly_xgcd(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended gcd: returns monic d and cofactors (s, t) with s*f + t*g = d.

    Degree bounds when d is a proper divisor of both: deg s < deg g - deg d
    and deg t < deg f - deg d.  They make the pair unique, which is what
    the coprimality rounds of the minimal-polynomial certificate rely on.
    """
    _check_same_field(f.field, g.field)
    if f.is_zero and g.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    field = f.field
    p = field.p
    d, _, rows, _, _ = _euclid(field, _residues(field, f.coeffs), _residues(field, g.coeffs), 0)
    lead_inv = pow(int(d[-1]), -1, p)
    return tuple(Poly(field, c * lead_inv % p) for c in (d, rows[0], rows[1]))


# ---------------------------------------------------------------------------
# Linearly recurrent sequences
# ---------------------------------------------------------------------------


def generates(gen: Poly, seq: Sequence[int]) -> bool:
    """Does the monic polynomial drive the full window as a recurrence?

    Checks sum_j gen[j] * seq[k+j] = 0 for every window position k.  With
    gen = 1 this degenerates to "every term is zero", which is exactly the
    convention used for the zero sequence.
    """
    field = gen.field
    m = gen.degree
    if m < 0:
        raise GeneratorMismatch("zero polynomial cannot generate anything")
    n = len(seq)
    if m > n:
        raise GeneratorMismatch("window shorter than the claimed generator degree")
    # window k of the recurrence is coefficient m + k of reverse(gen) * seq
    windows = _mul_arrays(field, _residues(field, gen.coeffs[::-1]), _residues(field, seq))
    return not windows[m:n].any()


def berlekamp_massey(field: PrimeField, seq: Sequence[int]) -> Poly:
    """Monic minimal generator of the given sequence window.

    The zero sequence yields the constant 1 (degree 0), which keeps the
    downstream certificate protocols total.
    """
    p = field.p
    s = _residues(field, seq)
    # connection polynomial, high-order-first; zero past conn_len
    conn = field.zeros(len(s) + 2)
    prev = field.zeros(len(s) + 2)  # its copy from before the last length change
    conn[0] = prev[0] = 1
    conn_len = prev_len = 1
    length = 0
    gap = 1  # steps since the last length change
    prev_disc = 1
    for n in range(len(s)):
        w = min(length, conn_len - 1)
        d = (int(s[n]) + _dot(field, conn[1 : w + 1], s[n - w : n][::-1])) % p
        if d == 0:
            gap += 1
            continue
        coef = d * pow(prev_disc, -1, p) % p
        grow = 2 * length <= n
        if grow:
            saved = conn[:conn_len].copy()
        conn[gap : gap + prev_len] = (conn[gap : gap + prev_len] - coef * prev[:prev_len]) % p
        conn_len = max(conn_len, gap + prev_len)
        if grow:
            length = n + 1 - length
            prev[: len(saved)] = saved
            prev_len = len(saved)
            prev_disc = d
            gap = 1
        else:
            gap += 1
    # conn encodes s[k+L] + conn[1]*s[k+L-1] + ... + conn[L]*s[k] = 0;
    # reversing (with zero padding up to L) gives the monic generator.
    return Poly(field, conn[: length + 1][::-1])


def numerator_from_sequence(gen: Poly, seq: Sequence[int]) -> Poly:
    """Numerator polynomial matching a generator and its sequence window.

    With H the monic generator of degree m, the generating function of the
    sequence equals num/H for num[j] = sum_k H[j+1+k] * seq[k]; the result
    has degree < m.  Raises GeneratorMismatch when H does not actually
    drive the window.
    """
    field = gen.field
    m = gen.degree
    if m < 0:
        raise GeneratorMismatch("generator must be nonzero")
    if len(seq) < m:
        raise GeneratorMismatch("window shorter than generator degree")
    if not generates(gen, seq):
        raise GeneratorMismatch("polynomial does not generate the sequence")
    h = _residues(field, gen.coeffs)
    s = _residues(field, seq)
    return Poly(field, [_dot(field, h[j + 1 :], s[: m - j]) for j in range(m)])


def minpoly_package(field: PrimeField, seq: Sequence[int]) -> tuple[Poly, Poly, Poly, Poly]:
    """(gen, num, phi, psi) for a sequence window, in one extended-Euclid pass.

    gen is the monic minimal generator (what ``berlekamp_massey`` returns),
    num its numerator (what ``numerator_from_sequence`` returns), and
    phi*gen + psi*num = 1 with deg phi < deg num and deg psi < deg gen
    (what ``poly_xgcd(gen, num)`` returns as cofactors).  Each of the four
    is unique under those bounds.

    With N = len(seq) and S = sum_i seq[i] x^(N-1-i) the reversed window,
    Euclid runs on (x^N, S) and stops at the first remainder r_k of degree
    below N - N//2.  Its cofactors satisfy s_k x^N + t_k S = r_k, so
    t_k S = -s_k x^N + r_k: with lc the leading coefficient of t_k,
    gen = t_k / lc, num = -s_k / lc, and the window recurrence holds
    exactly when deg r_k < deg t_k (Dornstetter 1987; von zur Gathen and
    Gerhard, Modern Computer Algebra, ch. 5 and 12).  The cofactor rows
    before it satisfy s_{k-1} t_k - s_k t_{k-1} = (-1)^k, which gives
    phi = (-1)^k lc s_{k-1} and psi = (-1)^k lc t_{k-1}.  The zero window
    gives (1, 0, 1, 0).

    Raises GeneratorMismatch when the window has no generator of degree at
    most N//2; a Krylov window of length 2n from an n x n operator always
    has one.
    """
    p = field.p
    total = len(seq)
    top = field.zeros(total + 1)
    top[total] = 1
    window = _trim_arr(_residues(field, seq)[::-1].copy())
    _, rem, before, last, steps = _euclid(field, top, window, total - total // 2)
    t = _trim_arr(last[1])
    if len(rem) >= len(t):
        raise GeneratorMismatch("window has no generator of degree at most len(seq) // 2")
    lc = int(t[-1])
    inv = pow(lc, -1, p)
    sign = -lc if steps % 2 else lc
    return (
        Poly(field, t * inv % p),
        Poly(field, -last[0] * inv % p),
        Poly(field, sign * before[0] % p),
        Poly(field, sign * before[1] % p),
    )


# ---------------------------------------------------------------------------
# Coefficient-array kernels (int64 or object; see the module docstring)
# ---------------------------------------------------------------------------


def _residues(field: PrimeField, values: Sequence[int]) -> np.ndarray:
    """Canonical coefficient array of ``field.dtype``."""
    p = field.p
    return np.array([int(v) % p for v in values], dtype=field.dtype)


def _dot(field: PrimeField, a: np.ndarray, b: np.ndarray) -> int:
    """sum a[i] * b[i] mod p for canonical vectors: the one dot product."""
    if field.dtype is object:
        return int(np.dot(a, b)) % field.p if len(a) else 0
    return int((a * b % field.p).sum()) % field.p


def _prod(field: PrimeField, a: np.ndarray) -> int:
    """prod a[i] mod p for a canonical vector, multiplied in pairs: each
    pass multiplies the first half by the second, entry by entry, and
    reduces, so no int64 product passes (p - 1)^2."""
    p = field.p
    while len(a) > 1:
        half = len(a) // 2
        head = a[:half] * a[half : 2 * half] % p
        if len(a) % 2:
            head[0] = head[0] * a[-1] % p
        a = head
    return int(a[0]) if len(a) else 1


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place.  An int64 array of 1024 entries or more takes
    x - (x // p) p: numpy divides it by a scalar with libdivide, up to 6x
    faster than its remainder, which costs fewer calls on smaller arrays.
    The floor division is exact, and where the product or the difference
    wraps int64 the result, which lies in [0, p), is still exact."""
    if x.size < 1024 or x.dtype.hasobject:
        x %= p
    else:
        x -= x // p * p
    return x


def _powers(field: PrimeField, x: int, count: int) -> np.ndarray:
    """x^0, ..., x^(count - 1) mod p, the table doubling at each step."""
    p = field.p
    out = field.zeros(count)
    if count:
        out[0] = 1
    size, step = 1, x % p  # step is x^size
    while size < count:
        grow = min(size, count - size)
        out[size : size + grow] = out[:grow] * step % p
        size += grow
        step = step * step % p
    return out


def _trim_arr(a: np.ndarray) -> np.ndarray:
    n = len(a)
    while n > 0 and a[n - 1] == 0:
        n -= 1
    return a[:n]


def _mul_arrays(field: PrimeField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two canonical coefficient arrays, reduced mod p: one
    ``_sub_mul`` from zero, a b = 0 - (-a) b, one slice update per
    coefficient of the shorter operand."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 0:
        return field.zeros(0)
    size = len(a) + len(b) - 1
    return _sub_mul(field, field.zeros(size), (-a % field.p).tolist(), b, size)


def _sub_mul(
    field: PrimeField, x: np.ndarray, q: Sequence[int], y: np.ndarray, size: int
) -> np.ndarray:
    """x - q*y on the first ``size`` coefficients, reduced, written over x.

    Returns the view x[..., :size]; x must be at least that wide.  x and y
    may be stacks of rows, coefficients along the last axis.  The products
    c*y of the short q (Python ints) are subtracted unreduced,
    ``dot_chunk()`` of them between reductions, so a degree-one quotient
    costs one reduction over int64 below 2^31 and over object arrays.
    """
    p = field.p
    out = x[..., :size]
    budget = field.dot_chunk() or len(q)
    pending = 0
    for j, c in enumerate(q[:size]):
        if c:
            if pending == budget:
                _reduce(out, p)
                pending = 0
            seg = out[..., j : j + y.shape[-1]]
            seg -= c * y[..., : seg.shape[-1]]
            pending += 1
    return _reduce(out, p) if pending else out


def _quotient(field: PrimeField, num: np.ndarray, den: np.ndarray) -> list:
    """Quotient of canonical arrays, as Python ints; den is trimmed.

    A quotient of degree d depends only on the top d + 1 coefficients of
    num and the top d + 1 of den, so the long division runs on those.
    When den's top has two coefficients, e_1 x^(m-1) + lead x^m (every
    degree-one quotient, and every division by a linear polynomial), it is
    one pass over Python ints: q_k = c_k / lead + r q_(k + 1) for c the top
    of num and r = -e_1 / lead.  A longer top subtracts each c q_k x^k den
    as one numpy slice update.
    """
    p = field.p
    d = len(num) - len(den)
    if d < 0:
        return []
    low = max(len(den) - 1 - d, 0)
    den = den[low:]
    dd = len(den) - 1
    inv_lead = pow(int(den[-1]), -1, p)
    if dd <= 1:
        r = -int(den[0]) * inv_lead % p if dd else 0
        q = [0] * (d + 1)
        acc = 0
        for k, c in zip(range(d, -1, -1), reversed(num[len(num) - d - 1 :].tolist())):
            acc = (c * inv_lead + r * acc) % p
            q[k] = acc
        return q
    rem = num[low:].copy()
    q = [0] * (d + 1)
    for k in range(d, -1, -1):
        c = int(rem[dd + k]) * inv_lead % p
        if c:
            q[k] = c
            seg = rem[k : k + dd + 1]
            seg -= c * den
            seg %= p
    return q


def _euclid(field: PrimeField, r0: np.ndarray, r1: np.ndarray, stop: int):
    """Extended Euclid on trimmed arrays a = r0, b = r1 until deg r1 < stop.

    Returns (r0, r1, rows0, rows1, steps): the last two remainders, their
    cofactor rows (rows[0] * a + rows[1] * b = r, both cofactors in one
    array so a step updates them together) and the number of divisions.
    Each step writes the new remainder and rows over the older pair, so
    r0 and r1 are overwritten.  A cofactor has at most max(deg a, deg b)
    + 1 coefficients, so two row buffers of max(deg a, deg b) + 2, zero
    past each pair's length, hold every pair.
    """
    width = max(len(r0), len(r1)) + 1
    rows0 = field.zeros((2, width))
    rows1 = field.zeros((2, width))
    rows0[0, 0] = rows1[1, 0] = 1
    len0 = len1 = 1
    steps = 0
    while len(r1) > stop:
        q = _quotient(field, r0, r1)
        # r0 - q*r1 vanishes from degree deg r1 up: compute only below it
        r0, r1 = r1, _trim_arr(_sub_mul(field, r0, q, r1, len(r1) - 1))
        size = max(len0, len1 + len(q) - 1)
        _sub_mul(field, rows0, q, rows1[:, :len1], size)
        rows0, rows1, len0, len1 = rows1, rows0, len1, size
        steps += 1
    return r0, r1, rows0[:, :len0], rows1[:, :len1], steps
