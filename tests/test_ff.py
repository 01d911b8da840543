"""Field, polynomial, and sequence-generator layer."""

from itertools import product
from random import Random

import pytest

from vlac.errors import BothZero, DivisionByZero, EvenModulus, GeneratorMismatch, NotPrime
from vlac.ff import (
    Poly,
    SampleSet,
    berlekamp_massey,
    field_new,
    full_sample_set,
    is_probable_prime,
    numerator_from_sequence,
    poly_xgcd,
)
from vlac.oracle import brute_det_poly, projected_powers
from vlac.proto import FiatShamirSource, InteractiveSource


def naive_mul(f: Poly, g: Poly) -> list[int]:
    """Schoolbook convolution, trimmed; independent of Poly.__mul__."""
    p = f.field.p
    if f.is_zero or g.is_zero:
        return []
    out = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = (out[i + j] + a * b) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def naive_recurrence_holds(p: int, coeffs: list[int], seq: list[int]) -> bool:
    """Plain check that the monic polynomial generates the window."""
    d = len(coeffs) - 1
    if d > len(seq):
        return False
    for k in range(len(seq) - d):
        if sum(c * seq[k + j] for j, c in enumerate(coeffs)) % p:
            return False
    return True


# -- field construction ---------------------------------------------------------


def test_field_new_accepts_prime():
    assert field_new(101).p == 101
    assert field_new(3).p == 3


def test_field_new_rejects_composite():
    with pytest.raises(NotPrime):
        field_new(91)


def test_field_new_rejects_even():
    with pytest.raises(EvenModulus):
        field_new(2)


def test_probable_prime_spot_checks():
    assert is_probable_prime(536870909)
    assert not is_probable_prime(536870911)  # 13 * 41295301


# -- scalar arithmetic ----------------------------------------------------------


def test_scalar_arith_hand_values(gf101):
    assert gf101.inv(2) == 51


def test_inv_zero_raises(gf101):
    with pytest.raises(DivisionByZero):
        gf101.inv(0)


def test_field_axioms_randomized(gf101, gf10007):
    rng = Random(7)
    for field in (gf101, gf10007):
        p = field.p
        for _ in range(200):
            a = rng.randrange(1, p)
            assert a * field.inv(a) % p == 1


# -- polynomial evaluation ------------------------------------------------------


def test_poly_eval_hand_values():
    gf7 = field_new(7)
    f = Poly(gf7, [1, 0, 1])  # x^2 + 1
    assert f(3) == 3
    assert Poly.zero(gf7)(5) == 0


def test_poly_eval_matches_power_sum(gf101):
    rng = Random(11)
    for _ in range(20):
        coeffs = [rng.randrange(101) for _ in range(21)]
        f = Poly(gf101, coeffs)
        x = rng.randrange(101)
        want = sum(c * pow(x, i, 101) for i, c in enumerate(coeffs)) % 101
        assert f(x) == want


# -- extended gcd ---------------------------------------------------------------


def test_xgcd_hand_values(gf101):
    f = Poly(gf101, [100, 0, 1])  # x^2 - 1
    g = Poly(gf101, [100, 1])  # x - 1
    d, s, t = poly_xgcd(f, g)
    assert d == g
    assert s.is_zero
    assert t == Poly.one(gf101)

    d, s, t = poly_xgcd(Poly.x(gf101), Poly(gf101, [100, 1]))
    assert d == Poly.one(gf101)
    assert s == Poly.one(gf101)
    assert t == Poly.constant(gf101, 100)


def test_xgcd_rejects_two_zeros(gf101):
    with pytest.raises(BothZero):
        poly_xgcd(Poly.zero(gf101), Poly.zero(gf101))


def test_xgcd_identity_and_degree_bounds(gf101, gf10007):
    rng = Random(23)
    for field in (gf101, gf10007):
        p = field.p
        for _ in range(60):
            f = Poly(field, [rng.randrange(p) for _ in range(rng.randrange(1, 9))])
            g = Poly(field, [rng.randrange(p) for _ in range(rng.randrange(1, 9))])
            if f.is_zero and g.is_zero:
                continue
            d, s, t = poly_xgcd(f, g)
            assert d.is_zero or d.is_monic
            lhs = Poly(field, naive_mul(s, f)) + Poly(field, naive_mul(t, g))
            assert lhs == d
            if not f.is_zero and not g.is_zero and d.degree < min(f.degree, g.degree):
                assert s.degree < g.degree - d.degree + 1
                assert t.degree < f.degree - d.degree + 1


def test_xgcd_random_coprime_pairs(gf101):
    rng = Random(31)
    hits = 0
    while hits < 25:
        f = Poly(gf101, [rng.randrange(101) for _ in range(6)])
        g = Poly(gf101, [rng.randrange(101) for _ in range(5)])
        d, s, t = poly_xgcd(f, g)
        if d != Poly.one(gf101):
            continue
        hits += 1
        lhs = Poly(gf101, naive_mul(s, f)) + Poly(gf101, naive_mul(t, g))
        assert lhs == Poly.one(gf101)


# -- sequence generators --------------------------------------------------------


def test_bm_constant_sequence(gf101):
    assert berlekamp_massey(gf101, [1, 1, 1, 1]) == Poly(gf101, [100, 1])


def test_bm_fibonacci(gf101):
    # x^2 - x - 1
    got = berlekamp_massey(gf101, [1, 1, 2, 3, 5, 8])
    assert got == Poly(gf101, [100, 100, 1])


def test_bm_zero_sequence(gf101):
    got = berlekamp_massey(gf101, [0, 0, 0])
    assert got == Poly.one(gf101)
    assert got.degree == 0


def test_bm_divides_charpoly(gf101):
    rng = Random(41)
    n = 6
    for _ in range(10):
        a = [[rng.randrange(101) for _ in range(n)] for _ in range(n)]
        u = [rng.randrange(101) for _ in range(n)]
        v = [rng.randrange(101) for _ in range(n)]
        seq = projected_powers(gf101, a, u, v, 2 * n)
        h = berlekamp_massey(gf101, seq)
        # charpoly by cofactor expansion of xI - A, an independent route
        entries = [
            [
                Poly(gf101, [(-a[i][j]) % 101, 1] if i == j else [(-a[i][j]) % 101])
                for j in range(n)
            ]
            for i in range(n)
        ]
        charpoly = brute_det_poly(entries, gf101)
        _, rem = charpoly.divmod_by(h)
        assert rem.is_zero


def test_bm_minimal_exhaustively_over_gf5():
    gf5 = field_new(5)
    for seq in product(range(5), repeat=4):
        seq = list(seq)
        gen = berlekamp_massey(gf5, seq)
        d = gen.degree
        assert gen.is_monic or gen.is_zero is False
        assert naive_recurrence_holds(5, gen.coeffs, seq)
        # nothing strictly smaller may generate the same window
        for smaller in range(d):
            found = any(
                naive_recurrence_holds(5, list(tail) + [1], seq)
                for tail in product(range(5), repeat=smaller)
            )
            assert not found, (seq, gen.coeffs, smaller)


def test_numerator_constant_series(gf101):
    h = numerator_from_sequence(Poly(gf101, [100, 1]), [7, 7, 7, 7])
    assert h == Poly.constant(gf101, 7)


def test_numerator_nilpotent_series(gf101):
    h = numerator_from_sequence(Poly(gf101, [0, 0, 1]), [2, 1, 0, 0])
    assert h == Poly(gf101, [1, 2])


def test_numerator_rejects_non_generator(gf101):
    with pytest.raises(GeneratorMismatch):
        numerator_from_sequence(Poly(gf101, [100, 1]), [1, 2, 3])


def test_numerator_matches_resolvent_series(gf101):
    """h(x) = H(x) * u^T (xI - A)^{-1} v away from eigenvalues."""
    from vlac.oracle import _solve_field

    rng = Random(53)
    n = 5
    p = 101
    for _ in range(8):
        a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        u = [rng.randrange(p) for _ in range(n)]
        v = [rng.randrange(p) for _ in range(n)]
        seq = projected_powers(gf101, a, u, v, 2 * n)
        big_h = berlekamp_massey(gf101, seq)
        small_h = numerator_from_sequence(big_h, seq)
        checked = 0
        x = 0
        while checked < 5 and x < p:
            rows = [
                [((x if i == j else 0) - a[i][j]) % p for j in range(n)]
                for i in range(n)
            ]
            w = _solve_field(p, rows, [vi % p for vi in v])
            x += 1
            if w is None:
                continue  # x collided with an eigenvalue
            resolvent = sum(ui * wi for ui, wi in zip(u, w)) % p
            assert small_h(x - 1) == big_h(x - 1) * resolvent % p
            checked += 1
        assert checked == 5


# -- sampling -------------------------------------------------------------------


def test_sample_set_bounds(gf101):
    s = SampleSet(gf101, 101)
    assert len(s) == 101
    assert 0 in s and 100 in s and 101 not in s
    with pytest.raises(ValueError):
        SampleSet(gf101, 1)
    with pytest.raises(ValueError):
        SampleSet(gf101, 102)
    with pytest.raises(ValueError):
        SampleSet(gf101, 101, offset=1)


def test_sample_stays_in_range(gf101):
    src = InteractiveSource(3)
    s = SampleSet(gf101, 10, offset=5)
    for _ in range(200):
        v = src.draw_scalar("sample", s)
        assert 5 <= v < 15


def test_sample_fs_determinism(gf101):
    s = full_sample_set(gf101)

    def fresh():
        src = FiatShamirSource()
        src.begin("test.sample", b"params", b"\x00" * 32)
        return src

    a, b = fresh(), fresh()
    assert [a.draw_scalar("r", s) for _ in range(10)] == [
        b.draw_scalar("r", s) for _ in range(10)
    ]


def test_sample_uniformity_five_sigma(gf10007):
    src = InteractiveSource(12345)
    s = SampleSet(gf10007, 16)
    n = 100_000
    counts = [0] * 16
    for _ in range(n):
        counts[src.draw_scalar("sample", s)] += 1
    expect = n / 16
    sigma = (n * (1 / 16) * (15 / 16)) ** 0.5
    for c in counts:
        assert abs(c - expect) <= 5 * sigma
