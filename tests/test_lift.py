"""Integer and polynomial determinant lifting."""

import sys
import threading
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from vlac.errors import DimensionMismatch, FieldMismatch, NotSquare
from vlac import lift
from vlac.ff import Poly, PrimeField, field_new, is_probable_prime
from vlac.la import DenseMatrix
from vlac.matrixmarket import parse_matrix_market
from vlac.lift import (
    DEFAULT_PRIME_BITS,
    PROTOCOL_INTDET,
    PROTOCOL_POLYDET,
    IntMatrix,
    PolyMatrix,
    _intdet_parts,
    _polydet_parts,
    hadamard_bound,
    int_det_crt,
    intdet_certify,
    intdet_epsilon,
    intdet_verify,
    lower_bound_primes,
    poly_det_interp,
    polydet_certify,
    polydet_epsilon,
    polydet_verify,
    random_prime,
)
from vlac.oracle import brute_det_field, brute_det_int, brute_det_poly
from vlac.proto import (
    KIND_BIGINT,
    KIND_POLY,
    TAG_COMMIT,
    FiatShamirSource,
    InteractiveSource,
    run_session,
)


def rand_int_matrix(rng, n, lo, hi):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


# -- bounds and oracles -------------------------------------------------------------


def test_hadamard_hand_values():
    assert hadamard_bound(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 1
    assert hadamard_bound(IntMatrix([[3, 4], [4, -3]])) == 25
    assert hadamard_bound(IntMatrix([[0, 0], [1, 1]])) == 0
    assert hadamard_bound(IntMatrix([[1, 1], [1, 1]])) == 2


def test_hadamard_dominates_det():
    rng = Random(1)
    for _ in range(50):
        m = rand_int_matrix(rng, 5, -10, 10)
        assert abs(brute_det_int([list(r) for r in m.a])) <= hadamard_bound(m)


def test_int_det_crt_matches_bareiss():
    rng = Random(2)
    for _ in range(60):
        n = rng.randrange(1, 6)
        m = rand_int_matrix(rng, n, -30, 30)
        assert int_det_crt(m) == brute_det_int([list(r) for r in m.a])


def _first_primes_covering(bits, bound):
    # the search int_det_crt runs without the kept primes
    primes, product, candidate = [], 1, (1 << bits) + 1
    while product < 2 * bound + 1:
        while not is_probable_prime(candidate):
            candidate += 2
        primes.append(candidate)
        product *= candidate
        candidate += 2
    return primes


def test_crt_primes_keep_count_and_order():
    # growing, then shrinking, then growing again past what is kept
    for bits in (31, 20):
        for bound in (1, 10**5, 10**40, 10**9, 1, 10**60):
            assert lift._crt_primes(bits, bound) == _first_primes_covering(bits, bound)


def test_crt_primes_concurrent_growth():
    # every thread grows the same kept list at once; a lost or doubled
    # append would hand some thread a wrong or repeated prime
    bits, bound = 40, 1 << (40 * 30)
    want = _first_primes_covering(bits, bound)
    lift._CRT_PRIMES.pop(bits, None)
    start = threading.Barrier(6)
    results, errors = [], []

    def worker(i):
        try:
            start.wait(timeout=30)
            for b in (bound >> (40 * (i % 3)), bound, bound >> 400):
                results.append(lift._crt_primes(bits, b))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads) and not errors
    assert len(results) == 6 * 3
    for primes in results:
        assert primes == want[: len(primes)]
    assert lift._CRT_PRIMES[bits] == want


def test_int_matrix_reduce_matches_dense_constructor():
    rng = Random(12)
    rows = [[rng.randint(-(2**40), 2**40) for _ in range(5)] for _ in range(4)]
    wide = [row[:] for row in rows]
    wide[1][2] = -(2**70) - 3  # past int64: the object path
    for data in (rows, wide, [[0]], [[-1]]):
        m = IntMatrix(data)
        for p in (3, 536870909, 3037000493, 3037000507, (1 << 61) - 1):
            field = field_new(p)
            got = m.reduce(field)
            want = DenseMatrix(field, m.a % p)
            assert got == want
            assert got.a.dtype == want.a.dtype
            assert [type(v) for v in got.a.flat] == [type(v) for v in want.a.flat]


def test_int_matrix_validation():
    with pytest.raises(DimensionMismatch):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        IntMatrix([[1], [2, 3]])
    with pytest.raises(ValueError):
        IntMatrix([[1, "x"]])


def test_int_matrix_from_arrays_holds_python_ints():
    """A no-modulus array file with one entry past int64 parses to an object
    array; the matrix equals its list form, with int() applied to every entry."""
    rng = Random(5)
    rows = [[rng.randint(-100, 100) for _ in range(7)] for _ in range(6)]
    rows[2][3] = 2**63 + 5
    # array files list entries down the columns
    text = "%%MatrixMarket matrix array integer general\n6 7\n" + "\n".join(
        str(rows[i][j]) for j in range(7) for i in range(6)) + "\n"
    parsed = parse_matrix_market(text).matrix
    assert parsed.a.dtype == object
    assert parsed == IntMatrix(rows) and parsed.a.tolist() == rows
    for m in (parsed, IntMatrix(rows), IntMatrix(np.array(rows, dtype=object))):
        assert all(type(v) is int for v in m.a.flat)
    # int() semantics: numpy scalars, bools and integral strings become ints
    odd = np.array([[np.int64(3), True], ["-12", 2**70]], dtype=object)
    m = IntMatrix(odd)
    assert m.a.tolist() == [[3, 1], [-12, 2**70]]
    assert all(type(v) is int for v in m.a.flat)
    assert IntMatrix([]).shape == (0, 0) and IntMatrix([[], []]).shape == (2, 0)
    with pytest.raises(NotSquare):
        int_det_crt(IntMatrix([[1, 2, 3], [4, 5, 6]]))


def test_lifting_consistency_with_random_primes():
    """The quotient map commutes with the determinant."""
    rng = Random(3)
    src = InteractiveSource(17)
    for _ in range(100):
        n = rng.randrange(1, 5)
        m = rand_int_matrix(rng, n, -50, 50)
        d = brute_det_int([list(r) for r in m.a])
        for _ in range(5):
            p = random_prime(16, src)
            field = PrimeField(p)
            assert d % p == brute_det_field(field, m.reduce(field))


def test_random_prime_contract():
    src = FiatShamirSource()
    src.begin("t", b"", bytes(32))
    p = random_prime(16, src)
    assert 32768 <= p < 65536
    assert all(p % d for d in range(2, 1000) if d > 1)

    def fresh(label):
        s = FiatShamirSource()
        s.begin("t", b"", bytes(32))
        return random_prime(16, s, label)

    assert fresh("a") == fresh("a")
    assert fresh("a") != fresh("b")


def test_prime_count_lower_bound_sanity():
    # exact count of 16-bit primes is 3030; the estimate must stay below
    assert 0 < lower_bound_primes(16) <= 3030
    assert lower_bound_primes(62) > lower_bound_primes(48) > lower_bound_primes(32)


# -- integer determinant certificates -------------------------------------------------


def test_intdet_hand_values():
    verdict, value = intdet_certify(IntMatrix([[2, 1], [1, 1]]), InteractiveSource(0))
    assert verdict.accepted and value == 1

    verdict, value = intdet_certify(
        IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]]), InteractiveSource(1)
    )
    assert verdict.accepted and value == -3

    verdict, value = intdet_certify(IntMatrix([[-7]]), InteractiveSource(2))
    assert verdict.accepted and value == -7


def test_intdet_zero_row():
    verdict, value = intdet_certify(IntMatrix([[0, 0], [3, 4]]), InteractiveSource(3))
    assert verdict.accepted and value == 0


def test_intdet_huge_entries():
    big = 10**29
    m = IntMatrix([[big, 3], [7, -big]])
    verdict, value = intdet_certify(m, InteractiveSource(4))
    assert verdict.accepted
    assert value == -(10**58) - 21


def test_intdet_matches_oracle_sweep():
    rng = Random(5)
    for trial in range(200):
        m = rand_int_matrix(rng, 6, -9, 9)
        verdict, value = intdet_certify(m, InteractiveSource(trial), prover_seed=trial)
        assert verdict.accepted, verdict.reason
        assert value == brute_det_int([list(r) for r in m.a])


def test_intdet_transcript_round_trip():
    m = IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    verdict, value = intdet_certify(m, FiatShamirSource(), prover_seed=9)
    assert verdict.accepted and value == -3
    replay, rvalue = intdet_verify(m, verdict.transcript)
    assert replay.accepted and rvalue == -3
    other = IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 11]])
    wrong, _ = intdet_verify(other, verdict.transcript)
    assert not wrong.accepted and wrong.reason == "InstanceDigestMismatch"


def test_intdet_epsilon_monotone_in_prime_size():
    m = IntMatrix([[12, -7, 3], [0, 5, 9], [4, 4, -2]])
    bounds = []
    for i, bits in enumerate((32, 48, 62)):
        verdict, _ = intdet_certify(m, InteractiveSource(i), bits=bits)
        assert verdict.accepted
        bounds.append(verdict.error_bound)
    assert bounds[0] > bounds[1] > bounds[2]
    assert bounds[2] < Fraction(1, 2**40)


def test_intdet_epsilon_formula_shape():
    eps = intdet_epsilon(bound=100, bits=16, eps_field=Fraction(1, 7))
    # 2*bound has 8 bits -> one bad prime at most; denominator is the
    # interval's prime-count floor
    assert eps == Fraction(1, lower_bound_primes(16)) + Fraction(1, 7)
    assert intdet_epsilon(0, 16, Fraction(1, 7)) == Fraction(1, 7)


def test_intdet_commitment_out_of_bounds():
    m = IntMatrix([[2, 1], [1, 1]])
    params, digest, _, verifier = _intdet_parts(m, DEFAULT_PRIME_BITS, None)

    def cheat(ch):
        ch.send(TAG_COMMIT, KIND_BIGINT, hadamard_bound(m) + 1)
        ch.challenge_prime("intdet.q", DEFAULT_PRIME_BITS)

    verdict, _, _ = run_session(
        PROTOCOL_INTDET, params, digest, cheat, verifier, InteractiveSource(0)
    )
    assert not verdict.accepted
    assert verdict.reason == "CommitmentOutOfBounds"


def test_intdet_commitment_binding_monte_carlo():
    """Shifted commitments survive only when the drawn prime divides the shift."""
    from vlac.certs_sparse import _prover_rng, det_prover_flow
    from vlac.ff import full_sample_set

    rng = Random(7)
    n, bits = 4, 16
    m = rand_int_matrix(rng, n, -9, 9)
    true_det = brute_det_int([list(r) for r in m.a])
    bound = hadamard_bound(m)
    params, digest, _, verifier = _intdet_parts(m, bits, None)

    hits, trials = 0, 1000
    for t in range(trials):
        k = 0
        while k == 0:
            k = rng.randint(-2 * bound, 2 * bound)
        claimed = true_det + k
        if abs(claimed) > bound:
            claimed = true_det - k  # keep the commitment inside the bound
            k = -k
            if abs(claimed) > bound:
                continue

        def cheat(ch, claimed=claimed):
            ch.send(TAG_COMMIT, KIND_BIGINT, claimed)
            q = ch.challenge_prime("intdet.q", bits)
            field = PrimeField(q)
            det_prover_flow(
                ch, field, m.reduce(field), full_sample_set(field),
                _prover_rng(digest, t), n,
            )

        verdict, _, _ = run_session(
            PROTOCOL_INTDET, params, digest, cheat, verifier, InteractiveSource(t)
        )
        hits += verdict.accepted
    eps = float(intdet_epsilon(bound, bits, Fraction(0)))
    sigma = (trials * eps * (1 - eps)) ** 0.5
    assert hits <= trials * eps + 3 * sigma


# -- polynomial determinant certificates ----------------------------------------------


def test_poly_det_interp_matches_cofactor(gf101):
    rng = Random(11)
    for _ in range(20):
        n = rng.randrange(1, 4)
        entries = [
            [
                Poly(gf101, [rng.randrange(101) for _ in range(rng.randrange(1, 3))])
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        m = PolyMatrix(gf101, entries)
        assert poly_det_interp(m) == brute_det_poly(entries, gf101)


def test_polydet_hand_values(gf101, gf10007):
    x = Poly.x(gf101)
    zero = Poly.zero(gf101)
    verdict, f = polydet_certify(
        PolyMatrix(gf101, [[x, zero], [zero, x]]), InteractiveSource(0)
    )
    assert verdict.accepted
    assert f == Poly(gf101, [0, 0, 1])

    x7 = Poly.x(gf10007)
    one7 = Poly.one(gf10007)
    verdict, f = polydet_certify(
        PolyMatrix(gf10007, [[x7, one7], [one7, x7]]), InteractiveSource(1)
    )
    assert verdict.accepted
    assert f == Poly(gf10007, [10006, 0, 1])
    assert verdict.error_bound == Fraction(8, 10007)


def test_polydet_matches_pointwise_oracle(gf10007):
    rng = Random(13)
    n, d = 4, 2
    for trial in range(10):
        entries = [
            [
                Poly(gf10007, [rng.randrange(10007) for _ in range(d + 1)])
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        m = PolyMatrix(gf10007, entries)
        verdict, f = polydet_certify(m, InteractiveSource(trial), prover_seed=trial)
        assert verdict.accepted, verdict.reason
        assert f.degree <= n * d
        for x in range(9):  # nine points pin a degree-8 polynomial
            assert f(x) == brute_det_field(gf10007, m.evaluate(x))


def test_polydet_transcript_round_trip(gf101):
    x = Poly.x(gf101)
    one = Poly.one(gf101)
    m = PolyMatrix(gf101, [[x, one], [one, x]])
    verdict, f = polydet_certify(m, FiatShamirSource(), prover_seed=3)
    assert verdict.accepted
    replay, rf = polydet_verify(m, verdict.transcript)
    assert replay.accepted and rf == f


def test_polydet_degree_bound_guards(gf101):
    x = Poly.x(gf101)
    m = PolyMatrix(gf101, [[x * x, Poly.zero(gf101)], [Poly.zero(gf101), x]])
    assert m.max_degree == 2
    with pytest.raises(ValueError):
        polydet_certify(m, InteractiveSource(0), deg_bound=1)


def test_polydet_rejects_overdegree_commitment(gf101):
    from vlac.ff import full_sample_set

    x = Poly.x(gf101)
    m = PolyMatrix(gf101, [[x, Poly.zero(gf101)], [Poly.zero(gf101), x]])
    params, digest, _, verifier = _polydet_parts(m, None, None)
    s = full_sample_set(gf101)

    def cheat(ch):
        ch.send(TAG_COMMIT, KIND_POLY, [0, 0, 0, 1])  # degree 3 > n*d = 2
        ch.challenge_scalar("polydet.alpha", s)

    verdict, _, _ = run_session(
        PROTOCOL_POLYDET, params, digest, cheat, verifier, InteractiveSource(0)
    )
    assert not verdict.accepted
    assert verdict.reason == "DegreeOutOfBounds"


def test_polydet_cheating_polynomial_rate(gf101):
    """A forged determinant polynomial survives only at collision points."""
    from vlac.certs_sparse import _prover_rng, det_prover_flow
    from vlac.ff import full_sample_set

    x = Poly.x(gf101)
    one = Poly.one(gf101)
    m = PolyMatrix(gf101, [[x, one], [one, x]])
    true_f = brute_det_poly(m.entries, gf101)
    # difference (x-3)(x-7) vanishes at exactly two sample points, so the
    # observed rate should sit near 2/101, inside the declared bound
    forged = true_f + Poly(gf101, [21, 91, 1])
    params, digest, _, verifier = _polydet_parts(m, None, None)
    s = full_sample_set(gf101)

    hits, trials = 0, 400
    for t in range(trials):
        def cheat(ch):
            ch.send(TAG_COMMIT, KIND_POLY, forged)
            alpha = ch.challenge_scalar("polydet.alpha", s)
            det_prover_flow(ch, gf101, m.evaluate(alpha), s, _prover_rng(digest, t), 2)

        verdict, _, _ = run_session(
            PROTOCOL_POLYDET, params, digest, cheat, verifier, InteractiveSource(t)
        )
        hits += verdict.accepted
    eps = float(polydet_epsilon(2, 1, 101, Fraction(0)))
    sigma = (trials * eps * (1 - eps)) ** 0.5
    assert hits <= trials * eps + 3 * sigma


def test_polydet_epsilon_formula():
    assert polydet_epsilon(4, 2, 10007, Fraction(1, 9)) == Fraction(8, 10007) + Fraction(1, 9)


def test_poly_matrix_validation(gf101, gf10007):
    x = Poly.x(gf101)
    with pytest.raises(DimensionMismatch):
        PolyMatrix(gf101, [[x, x], [x]])
    with pytest.raises(FieldMismatch):
        PolyMatrix(gf101, [[Poly.x(gf10007)]])
    with pytest.raises(TypeError):
        PolyMatrix(gf101, [[7]])
    with pytest.raises(NotSquare):
        polydet_certify(PolyMatrix(gf101, [[x, x]]), InteractiveSource(0))
