"""Product, product-chain, and inverse certificates."""

from fractions import Fraction
from random import Random

import numpy as np
import pytest

from vlac.certs_dense import (
    GEOMETRIC,
    ZERO_ONE,
    Literal,
    MatMulClaim,
    Ref,
    chain_certify,
    chain_epsilon,
    chain_verify,
    inverse_certify,
    inverse_epsilon,
    inverse_verify,
    matmul_certify,
    matmul_epsilon,
    matmul_verify,
)
from vlac.errors import BrokenReference, DimensionMismatch
from vlac.ff import SampleSet, field_new, full_sample_set
from vlac.la import DenseMatrix, dense_matmul, invert_dense
from vlac.proto import FiatShamirSource, InteractiveSource, fs_prove, verify_recorded

from vlac import certs_dense


class ScriptedSource:
    """Interactive source that replays a fixed list of drawn values."""

    kind = "interactive"

    def __init__(self, values):
        self.values = list(values)

    def begin(self, protocol_id, params, digest):
        pass

    def absorb(self, data):
        pass

    def draw_uint(self, label, bound):
        v = self.values.pop(0)
        assert 0 <= v < bound
        return v


def eye(field, n):
    return DenseMatrix(field, [[int(i == j) for j in range(n)] for i in range(n)])


def rand_dense(field, rng, rows, cols):
    return DenseMatrix(
        field, [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)]
    )


def corrupt_one_entry(m: DenseMatrix, rng) -> DenseMatrix:
    i = rng.randrange(m.rows)
    j = rng.randrange(m.cols)
    out = DenseMatrix(m.field, m.a.copy())
    out.a[i, j] = (out.a[i, j] + rng.randrange(1, m.field.p)) % m.field.p
    return out


# -- single product check ---------------------------------------------------------


def test_identity_product_accepts(gf101):
    i2 = eye(gf101, 2)
    v = matmul_certify(i2, i2, i2, InteractiveSource(0))
    assert v.accepted
    assert v.error_bound == Fraction(1, 101)
    assert v.heuristics == ()


def test_fixed_challenge_hand_reject(gf101):
    """A=B=I, C=[[1,1],[0,1]]: the probe v=(1,1) sees Cv=(2,1) != (1,1)."""
    i2 = eye(gf101, 2)
    c = DenseMatrix(gf101, [[1, 1], [0, 1]])
    v = matmul_certify(i2, i2, c, ScriptedSource([1]))
    assert not v.accepted
    assert v.reason == "CheckFailed:product"
    # r=0 probes v=(1,0), which misses the corrupted column
    v = matmul_certify(i2, i2, c, ScriptedSource([0]))
    assert v.accepted


def test_zero_product_accepts(gf101):
    rng = Random(1)
    a = rand_dense(gf101, rng, 3, 3)
    z = DenseMatrix(gf101, [[0] * 3] * 3)
    assert matmul_certify(a, z, z, InteractiveSource(2)).accepted


def test_product_vs_oracle_products(gf101):
    rng = Random(3)
    for trial in range(50):
        a = rand_dense(gf101, rng, 8, 8)
        b = rand_dense(gf101, rng, 8, 8)
        v = matmul_certify(a, b, dense_matmul(a, b), InteractiveSource(trial))
        assert v.accepted
        assert v.error_bound == Fraction(7, 101)


def test_rectangular_shapes(gf101):
    rng = Random(5)
    a = rand_dense(gf101, rng, 2, 5)
    b = rand_dense(gf101, rng, 5, 3)
    v = matmul_certify(a, b, dense_matmul(a, b), InteractiveSource(7))
    assert v.accepted
    assert v.error_bound == Fraction(2, 101)  # (cols(C) - 1) / |S|
    with pytest.raises(DimensionMismatch):
        matmul_certify(a, a, a, InteractiveSource(0))


def test_epsilon_formulas(gf101, gf10007):
    s101 = full_sample_set(gf101)
    assert matmul_epsilon(GEOMETRIC, 16, s101, 0) == Fraction(15, 101)
    assert matmul_epsilon(GEOMETRIC, 1, s101, 0) == Fraction(0)
    assert matmul_epsilon(ZERO_ONE, 16, s101, 7) == Fraction(1, 128)
    assert matmul_epsilon(GEOMETRIC, 4, full_sample_set(gf10007), 0) == Fraction(3, 10007)


def test_mode_independence(gf101):
    rng = Random(9)
    a = rand_dense(gf101, rng, 4, 4)
    b = rand_dense(gf101, rng, 4, 4)
    c = dense_matmul(a, b)
    live = matmul_certify(a, b, c, InteractiveSource(11))
    hashed = matmul_certify(a, b, c, FiatShamirSource())
    assert live.accepted and hashed.accepted
    assert live.error_bound == hashed.error_bound
    assert live.heuristics == ()
    assert hashed.heuristics == ("fiat-shamir",)


def test_transcript_round_trip(gf101):
    rng = Random(13)
    a = rand_dense(gf101, rng, 4, 4)
    b = rand_dense(gf101, rng, 4, 4)
    c = dense_matmul(a, b)
    verdict = matmul_certify(a, b, c, FiatShamirSource())
    replay = matmul_verify(a, b, c, verdict.transcript)
    assert replay.accepted
    assert replay.error_bound == verdict.error_bound
    # same transcript against a different instance binds to its digest
    other = matmul_verify(a, b, corrupt_one_entry(c, rng), verdict.transcript)
    assert not other.accepted
    assert other.reason == "InstanceDigestMismatch"


def test_geometric_cheat_rate_within_bound(gf101, gf10007):
    """Single-entry corruption: empirical acceptance stays under ε + 3σ."""
    rng = Random(17)
    for field, n, trials in ((gf101, 4, 800), (gf101, 16, 500), (gf10007, 4, 400)):
        eps = float(matmul_epsilon(GEOMETRIC, n, full_sample_set(field), 0))
        hits = 0
        a = rand_dense(field, rng, n, n)
        b = rand_dense(field, rng, n, n)
        c = dense_matmul(a, b)
        for t in range(trials):
            bad = corrupt_one_entry(c, rng)
            if matmul_certify(a, b, bad, InteractiveSource(t)).accepted:
                hits += 1
        sigma = (trials * eps * (1 - eps)) ** 0.5
        assert hits <= trials * eps + 3 * sigma + 1e-9


def test_zero_one_variant(gf101):
    rng = Random(19)
    a = rand_dense(gf101, rng, 6, 6)
    b = rand_dense(gf101, rng, 6, 6)
    c = dense_matmul(a, b)
    v = matmul_certify(a, b, c, InteractiveSource(3), variant=ZERO_ONE, rounds=7)
    assert v.accepted
    assert v.error_bound == Fraction(1, 128)
    # cheat acceptance is exactly 2^-k per trial: all k probes must miss
    hits = 0
    trials = 600
    for t in range(trials):
        bad = corrupt_one_entry(c, rng)
        got = matmul_certify(
            a, b, bad, InteractiveSource(t), variant=ZERO_ONE, rounds=3
        )
        hits += got.accepted
    eps = 1 / 8
    sigma = (trials * eps * (1 - eps)) ** 0.5
    assert hits <= trials * eps + 3 * sigma


# (rows of a, inner size, cols of b, verifier_ops of three rounds)
ZERO_ONE_EDGE_SHAPES = [
    (1, 1, 1, 18),
    (2, 0, 3, 36),
    (0, 2, 2, 24),
    (2, 2, 0, 24),
    (0, 0, 0, 0),
    (3, 1, 2, 66),
]


@pytest.mark.parametrize("m, k, n, ops", ZERO_ONE_EDGE_SHAPES)
@pytest.mark.parametrize("source", ["interactive", "fiat-shamir"])
def test_zero_one_block_check_on_edge_shapes(m, k, n, ops, source):
    gf3 = field_new(3)
    rng = Random(100 * m + 10 * k + n)

    def rand(rows, cols):
        entries = [[rng.randrange(3) for _ in range(cols)] for _ in range(rows)]
        return DenseMatrix(gf3, np.array(entries, dtype=np.int64).reshape(rows, cols))

    a, b = rand(m, k), rand(k, n)
    src = InteractiveSource(1) if source == "interactive" else FiatShamirSource()
    v = matmul_certify(a, b, dense_matmul(a, b), src, variant=ZERO_ONE, rounds=3)
    assert v.accepted
    assert v.error_bound == Fraction(1, 8)
    assert v.verifier_ops == ops  # mu of a, b and c, once per round


def test_zero_one_block_check_reads_every_round(gf101):
    """A=B=I, C=[[1,1],[0,1]]: only a vector with a 1 in entry 1 sees the
    wrong entry, and only the last of three rounds draws one."""
    i2 = eye(gf101, 2)
    c = DenseMatrix(gf101, [[1, 1], [0, 1]])
    v = matmul_certify(i2, i2, c, ScriptedSource([1, 0, 1, 0, 0, 1]), variant=ZERO_ONE, rounds=3)
    assert not v.accepted
    assert v.reason == "CheckFailed:product"
    v = matmul_certify(i2, i2, c, ScriptedSource([1, 0, 1, 0, 1, 0]), variant=ZERO_ONE, rounds=3)
    assert v.accepted


def test_verifier_never_multiplies_matrices(gf101):
    """Op count stays linear in the stored entries, far below one matmul."""
    rng = Random(23)
    for n in (4, 16, 64):
        a = rand_dense(gf101, rng, n, n)
        b = rand_dense(gf101, rng, n, n)
        c = dense_matmul(a, b)
        v = matmul_certify(a, b, c, InteractiveSource(n))
        assert v.accepted
        budget = 8 * (a.nnz + b.nnz + c.nnz + n)
        assert 0 < v.verifier_ops <= budget
        assert v.verifier_ops < 2 * n * n * n  # sanity: no hidden matmul


# -- product chains ---------------------------------------------------------------


def test_chain_identity_links(gf101):
    i2 = eye(gf101, 2)
    claims = [
        MatMulClaim(Literal(i2), Literal(i2), i2),
        MatMulClaim(Literal(i2), Ref(0), i2),
    ]
    v = chain_certify(claims, InteractiveSource(1))
    assert v.accepted
    assert v.error_bound == Fraction(2, 101)


def test_chain_epsilon_is_exact_sum(gf101):
    rng = Random(29)
    s = full_sample_set(gf101)
    mats = [rand_dense(gf101, rng, k, k) for k in (3, 5, 8)]
    claims = [MatMulClaim(Literal(m), Literal(m), dense_matmul(m, m)) for m in mats]
    assert chain_epsilon(claims, s) == Fraction(2 + 4 + 7, 101)
    v = chain_certify(claims, InteractiveSource(2))
    assert v.accepted
    assert v.error_bound == Fraction(13, 101)


def test_chain_empty_is_vacuous(gf101):
    assert chain_epsilon([], full_sample_set(gf101)) == Fraction(0)
    v = chain_certify([], InteractiveSource(0))
    assert v.accepted
    assert v.error_bound == Fraction(0)
    fs = chain_certify([], FiatShamirSource())
    assert fs.accepted and chain_verify([], fs.transcript).accepted


def test_chain_broken_reference(gf101):
    i2 = eye(gf101, 2)
    with pytest.raises(BrokenReference):
        chain_certify(
            [MatMulClaim(Literal(i2), Ref(0), i2)], InteractiveSource(0)
        )
    with pytest.raises(BrokenReference):
        chain_certify(
            [
                MatMulClaim(Literal(i2), Literal(i2), i2),
                MatMulClaim(Ref(5), Literal(i2), i2),
            ],
            InteractiveSource(0),
        )


def test_chain_through_references(gf101):
    rng = Random(31)
    a = rand_dense(gf101, rng, 4, 4)
    b = rand_dense(gf101, rng, 4, 4)
    c = rand_dense(gf101, rng, 4, 4)
    p1 = dense_matmul(b, c)
    p2 = dense_matmul(a, p1)
    claims = [
        MatMulClaim(Literal(b), Literal(c), p1),
        MatMulClaim(Literal(a), Ref(0), p2),
    ]
    v = chain_certify(claims, InteractiveSource(3))
    assert v.accepted
    fs = chain_certify(claims, FiatShamirSource())
    assert chain_verify(claims, fs.transcript).accepted


def test_chain_one_corrupted_link(gf101):
    rng = Random(37)
    trials, hits = 400, 0
    a = rand_dense(gf101, rng, 8, 8)
    b = rand_dense(gf101, rng, 8, 8)
    c = rand_dense(gf101, rng, 8, 8)
    p1, p2, p3 = dense_matmul(a, b), dense_matmul(b, c), dense_matmul(c, a)
    for t in range(trials):
        goods = [
            MatMulClaim(Literal(a), Literal(b), p1),
            MatMulClaim(Literal(b), Literal(c), p2),
            MatMulClaim(Literal(c), Literal(a), p3),
        ]
        k = rng.randrange(3)
        bad = corrupt_one_entry(goods[k].product, rng)
        goods[k] = MatMulClaim(goods[k].left, goods[k].right, bad)
        v = chain_certify(goods, InteractiveSource(t))
        hits += v.accepted
        if not v.accepted:
            assert v.reason.startswith("CheckFailed:chain.")
    eps = 7 / 101  # only the corrupted link can be fooled
    sigma = (trials * eps * (1 - eps)) ** 0.5
    assert hits <= trials * eps + 3 * sigma


# -- inverse certificates ----------------------------------------------------------


def test_inverse_hand_values(gf101):
    a = DenseMatrix(gf101, [[2, 1], [1, 1]])
    w = DenseMatrix(gf101, [[1, 100], [100, 2]])  # [[1,-1],[-1,2]]
    v = inverse_certify(a, w, InteractiveSource(0))
    assert v.accepted
    assert v.error_bound == Fraction(1, 101)


def test_inverse_rejects_wrong_claim_always(gf101):
    # A*A differs from I in both probe coordinates, so no challenge saves it
    a = DenseMatrix(gf101, [[2, 1], [1, 1]])
    for seed in range(30):
        assert not inverse_certify(a, a, InteractiveSource(seed)).accepted


def test_inverse_from_elimination(gf101):
    rng = Random(41)
    done = 0
    while done < 25:
        a = rand_dense(gf101, rng, 8, 8)
        w = invert_dense(a)
        if w is None:
            continue
        done += 1
        v = inverse_certify(a, w, InteractiveSource(done))
        assert v.accepted
        assert v.error_bound == inverse_epsilon(8, full_sample_set(gf101))


def test_inverse_transcript_round_trip(gf101):
    a = DenseMatrix(gf101, [[2, 1], [1, 1]])
    w = DenseMatrix(gf101, [[1, 100], [100, 2]])
    verdict = inverse_certify(a, w, FiatShamirSource())
    assert verdict.accepted
    assert inverse_verify(a, w, verdict.transcript).accepted
    swapped = inverse_verify(w, a, verdict.transcript)
    assert not swapped.accepted and swapped.reason == "InstanceDigestMismatch"


def test_inverse_shape_guards(gf101):
    a = DenseMatrix(gf101, [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(Exception):
        inverse_certify(a, a, InteractiveSource(0))


def test_custom_sample_set_window(gf101):
    # narrow sample windows widen the declared error accordingly
    s = SampleSet(gf101, 11, offset=3)
    i2 = eye(gf101, 2)
    v = matmul_certify(i2, i2, i2, InteractiveSource(0), s=s)
    assert v.accepted
    assert v.error_bound == Fraction(1, 11)
