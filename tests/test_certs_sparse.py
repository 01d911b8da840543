"""Blackbox certificates: nonsingularity, rank bounds, minimal polynomial,
and determinant."""

import math
from fractions import Fraction
from random import Random

import pytest

from vlac.certs_sparse import (
    DET_MAX_ATTEMPTS,
    HEURISTIC_BUTTERFLY,
    PROTOCOL_DET,
    PROTOCOL_MINPOLY,
    PROTOCOL_NONSINGULAR,
    PROTOCOL_RANK,
    PROTOCOL_RANK_UPPER,
    SHIFT_DRAWS,
    _det_parts,
    _minpoly_parts,
    _nonsingular_parts,
    _rank_parts,
    _rank_upper_parts,
    det_certify,
    det_verify,
    minpoly_certify,
    minpoly_epsilon,
    minpoly_verify,
    nonsingular_certify,
    nonsingular_epsilon,
    nonsingular_verify,
    rank_certify,
    rank_epsilon,
    rank_upper_certify,
    rank_upper_epsilon,
    rank_upper_verify,
    rank_verify,
)
from vlac.ff import Poly, SampleSet, berlekamp_massey, full_sample_set, poly_xgcd
from vlac.la import DenseMatrix, SparseMatrix, butterfly_param_count, solve_dense
from vlac.oracle import (
    brute_det_field,
    brute_minpoly_fuv,
    brute_rank,
    projected_powers,
)
from vlac.proto import (
    KIND_EMPTY,
    KIND_POLY,
    KIND_VEC,
    TAG_COMMIT,
    TAG_RESPONSE,
    FiatShamirSource,
    InteractiveSource,
    run_session,
)


class ScriptedSource:
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


def rand_rank(field, rng, n, r):
    """Random n x n matrix of rank exactly r."""
    while True:
        if r == 0:
            return DenseMatrix(field, [[0] * n] * n)
        left = rand_dense(field, rng, n, r)
        right = rand_dense(field, rng, r, n)
        a = DenseMatrix(field, left.a @ right.a % field.p)
        if brute_rank(field, a) == r:
            return a


def ops_budget(c, mu, n):
    return c * (mu + n * max(math.ceil(math.log2(n)), 0) + n) if n > 1 else c * (mu + 1)


# -- nonsingularity ---------------------------------------------------------------


def test_nonsingular_identity(gf101):
    v = nonsingular_certify(eye(gf101, 3), InteractiveSource(0))
    assert v.accepted
    assert v.error_bound == Fraction(1, 101)
    assert v.heuristics == ()


def test_nonsingular_zero_rejects(gf101):
    z = DenseMatrix(gf101, [[0, 0], [0, 0]])
    # any nonzero target misses the zero image; force one with a script
    v = nonsingular_certify(z, ScriptedSource([1, 0]))
    assert not v.accepted
    assert v.reason == "ProverFailed"


def test_nonsingular_honest_runs(gf101):
    rng = Random(1)
    done = 0
    while done < 60:
        a = rand_dense(gf101, rng, 8, 8)
        if brute_det_field(gf101, a) == 0:
            continue
        done += 1
        v = nonsingular_certify(a, InteractiveSource(done))
        assert v.accepted
        assert v.verifier_ops <= ops_budget(8, a.mu, 8)


def test_nonsingular_sparse_blackbox(gf101):
    s = SparseMatrix(gf101, 4, 4, [(i, i, i + 1) for i in range(4)])
    v = nonsingular_certify(s, InteractiveSource(5))
    assert v.accepted
    assert v.verifier_ops <= ops_budget(8, s.mu, 4)


def test_nonsingular_transcript_round_trip(gf101):
    a = DenseMatrix(gf101, [[2, 1], [1, 1]])
    verdict = nonsingular_certify(a, FiatShamirSource())
    assert verdict.accepted
    assert nonsingular_verify(a, verdict.transcript).accepted
    other = nonsingular_verify(eye(gf101, 2), verdict.transcript)
    assert not other.accepted and other.reason == "InstanceDigestMismatch"


def test_nonsingular_cheat_rate(gf101):
    """Singular matrix, prover answers with a random vector."""
    rng = Random(3)
    a = rand_rank(gf101, rng, 4, 2)
    params, digest, _, verifier = _nonsingular_parts(a, None, None)

    hits, trials = 0, 600
    for t in range(trials):
        def cheat(ch):
            ch.challenge_vector("nonsingular.b", full_sample_set(gf101), 4)
            ch.send(TAG_RESPONSE, KIND_VEC, [rng.randrange(101) for _ in range(4)])

        verdict, _, _ = run_session(
            PROTOCOL_NONSINGULAR, params, digest, cheat, verifier, InteractiveSource(t)
        )
        hits += verdict.accepted
    eps = 1 / 101
    sigma = (trials * eps * (1 - eps)) ** 0.5
    assert hits <= trials * eps + 3 * sigma


def test_nonsingular_solving_cheat_rate(gf101):
    """Singular matrix, prover solves whenever the target is consistent."""
    rng = Random(5)
    a = rand_rank(gf101, rng, 3, 2)  # image is a 1/101 slice of targets
    params, digest, _, verifier = _nonsingular_parts(a, None, None)

    def cheat(ch):
        target = ch.challenge_vector("nonsingular.b", full_sample_set(gf101), 3)
        w = solve_dense(a, gf101.arr(target))
        if w is None:
            ch.send(TAG_RESPONSE, KIND_EMPTY)
        else:
            ch.send(TAG_RESPONSE, KIND_VEC, [int(x) for x in w])

    hits, trials = 0, 800
    for t in range(trials):
        verdict, _, _ = run_session(
            PROTOCOL_NONSINGULAR, params, digest, cheat, verifier, InteractiveSource(t)
        )
        hits += verdict.accepted
    eps = 1 / 101
    sigma = (trials * eps * (1 - eps)) ** 0.5
    assert hits <= trials * eps + 3 * sigma


# -- rank upper bound --------------------------------------------------------------


def test_rank_upper_zero_matrix(gf101):
    z = DenseMatrix(gf101, [[0, 0], [0, 0]])
    v = rank_upper_certify(z, 0, InteractiveSource(0))
    assert v.accepted
    assert HEURISTIC_BUTTERFLY in v.heuristics
    assert v.error_bound == rank_upper_epsilon(2, 2, 0, full_sample_set(gf101))
    assert v.error_bound == Fraction(3, 101)  # (0+2)*1+1 over GF(101)


def test_rank_upper_rank_one(gf101):
    a = DenseMatrix(gf101, [[1, 2], [2, 4]])
    v = rank_upper_certify(a, 1, InteractiveSource(1))
    assert v.accepted
    assert v.error_bound == Fraction(4, 101)  # (1+2)*1+1


def test_rank_upper_bad_claims(gf101):
    a = DenseMatrix(gf101, [[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        rank_upper_certify(a, 2, InteractiveSource(0))
    with pytest.raises(ValueError):
        rank_upper_certify(a, -1, InteractiveSource(0))


def test_rank_upper_honest_completeness(gf10007):
    rng = Random(7)
    for trial in range(40):
        n = rng.randrange(2, 9)
        r = rng.randrange(0, n)
        a = rand_rank(gf10007, rng, n, r)
        v = rank_upper_certify(a, r, InteractiveSource(trial))
        assert v.accepted, (n, r, v.reason)
        assert v.verifier_ops <= ops_budget(16, a.mu, n)


def test_rank_upper_cheat_monte_carlo(gf101):
    """Honest prover on a false claim wins only on singular corners."""
    a = eye(gf101, 4)
    params, digest, prover, verifier = _rank_upper_parts(a, 2, None, None)
    hits, trials = 0, 1000
    for t in range(trials):
        verdict, _, _ = run_session(
            PROTOCOL_RANK_UPPER, params, digest, prover, verifier, InteractiveSource(t)
        )
        if verdict.accepted:
            hits += 1
        else:
            assert verdict.reason == "ProverFailed"
    eps = float(rank_upper_epsilon(4, 4, 2, full_sample_set(gf101)))
    sigma = (trials * eps * (1 - eps)) ** 0.5
    assert hits <= trials * eps + 3 * sigma


def test_rank_upper_zero_witness_rejected(gf101):
    z = DenseMatrix(gf101, [[0, 0], [0, 0]])
    params, digest, _, verifier = _rank_upper_parts(z, 0, None, None)

    def cheat(ch):
        s = full_sample_set(gf101)
        ch.challenge_nonzero_vector("rankub.u", s, butterfly_param_count(2))
        ch.challenge_nonzero_vector("rankub.v", s, butterfly_param_count(2))
        ch.send(TAG_RESPONSE, KIND_VEC, [0])

    verdict, _, _ = run_session(
        PROTOCOL_RANK_UPPER, params, digest, cheat, verifier, InteractiveSource(0)
    )
    assert not verdict.accepted
    assert verdict.reason == "ZeroWitness"


# -- combined rank ------------------------------------------------------------------


def test_rank_hand_values(gf101):
    s = full_sample_set(gf101)
    d = DenseMatrix(gf101, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    v = rank_certify(d, 2, InteractiveSource(0))
    assert v.accepted
    assert v.error_bound == rank_epsilon(3, 3, 2, s) == Fraction(10, 101)
    assert v.heuristics == (HEURISTIC_BUTTERFLY,)

    z = DenseMatrix(gf101, [[0] * 3] * 3)
    v = rank_certify(z, 0, InteractiveSource(1))
    assert v.accepted
    assert v.error_bound == Fraction(5, 101)  # upper phase only

    full = eye(gf101, 4)
    v = rank_certify(full, 4, InteractiveSource(2))
    assert v.accepted
    assert v.error_bound == Fraction(1, 101)  # lower phase only
    assert v.heuristics == ()


def test_rank_wrong_claims_reject(gf101):
    rng = Random(11)
    a = rand_rank(gf101, rng, 4, 2)
    for r in (0, 1, 3, 4):
        v = rank_certify(a, r, InteractiveSource(r))
        assert not v.accepted, r
    assert rank_certify(a, 2, InteractiveSource(9)).accepted


# Rank-2 diagonals on which the butterfly rank bound fails with certainty:
# a claim of rank 1 is accepted, under the butterfly-preconditioner label,
# at every seed tried and in both modes.  A fix changes the pinned
# transcripts, so it needs a new protocol id.
RANK_TWO_DIAGONALS = [
    pytest.param((1, 0, 1), seed, id=f"101-seed{seed}") for seed in range(5)
] + [
    pytest.param(diagonal, None, id="".join(map(str, diagonal)) + "-fiat-shamir")
    for diagonal in ((1, 0, 1), (1, 0, 1, 0), (1, 0, 0, 0, 1, 0, 0, 0))
]


@pytest.mark.xfail(strict=True, reason="the butterfly rank bound accepts a false rank 1")
@pytest.mark.parametrize("certify", [rank_certify, rank_upper_certify], ids=lambda f: f.__name__)
@pytest.mark.parametrize("diagonal, seed", RANK_TWO_DIAGONALS)
def test_rank_one_claim_on_a_rank_two_diagonal_rejects(gf10007, certify, diagonal, seed):
    n = len(diagonal)
    a = DenseMatrix(gf10007, [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)])
    source = FiatShamirSource() if seed is None else InteractiveSource(seed)
    assert not certify(a, 1, source).accepted


def test_rank_perfect_completeness_sweep(gf101, gf10007):
    rng = Random(13)
    for field in (gf101, gf10007):
        for trial in range(30):
            n = rng.randrange(1, 9)
            r = rng.randrange(0, n + 1)
            a = rand_rank(field, rng, n, r)
            v = rank_certify(a, r, InteractiveSource(trial), prover_seed=trial)
            assert v.accepted, (field.p, n, r, v.reason)
            assert v.verifier_ops <= ops_budget(16, a.mu, n)


def test_rank_lower_cheat_rate(gf101):
    """Claiming one above the true rank: the committed corner stays singular."""
    rng = Random(17)
    a = rand_rank(gf101, rng, 3, 2)
    params, digest, _, verifier = _rank_parts(a, 3, None, None)
    s = full_sample_set(gf101)

    hits, trials = 0, 800
    for t in range(trials):
        def cheat(ch, rng=Random(t)):
            # commit legal mixers, then answer only consistent targets
            from vlac.certs_sparse import _preconditioned
            from vlac.la import leading_projection
            u_th = [rng.randrange(1, 101) for _ in range(butterfly_param_count(3))]
            v_th = [rng.randrange(1, 101) for _ in range(butterfly_param_count(3))]
            ch.send(TAG_COMMIT, KIND_VEC, u_th)
            ch.send(TAG_COMMIT, KIND_VEC, v_th)
            target = ch.challenge_vector("rank.low.b", s, 3)
            op = _preconditioned(gf101, a, 3, 3, u_th, v_th)
            block = leading_projection(op, 3).to_dense()
            w = solve_dense(block, gf101.arr(target))
            if w is None:
                ch.send(TAG_RESPONSE, KIND_EMPTY)
            else:
                ch.send(TAG_RESPONSE, KIND_VEC, [int(x) for x in w])

        verdict, _, _ = run_session(
            PROTOCOL_RANK, params, digest, cheat, verifier, InteractiveSource(t)
        )
        hits += verdict.accepted
    eps = 1 / 101  # lower-bound share of the declared error
    sigma = (trials * eps * (1 - eps)) ** 0.5
    assert hits <= trials * eps + 3 * sigma


def test_rank_rejects_zero_theta_commit(gf101):
    a = eye(gf101, 2)
    params, digest, _, verifier = _rank_parts(a, 2, None, None)
    s = full_sample_set(gf101)

    def cheat(ch):
        ch.send(TAG_COMMIT, KIND_VEC, [0] * butterfly_param_count(2))
        ch.send(TAG_COMMIT, KIND_VEC, [1] * butterfly_param_count(2))
        target = ch.challenge_vector("rank.low.b", s, 2)
        ch.send(TAG_RESPONSE, KIND_VEC, [0, 0])

    verdict, _, _ = run_session(
        PROTOCOL_RANK, params, digest, cheat, verifier, InteractiveSource(0)
    )
    assert not verdict.accepted
    assert verdict.reason == "Malformed:zero-theta"


def test_rank_transcript_round_trip(gf101):
    rng = Random(19)
    a = rand_rank(gf101, rng, 4, 3)
    verdict = rank_certify(a, 3, FiatShamirSource(), prover_seed=7)
    assert verdict.accepted
    replay = rank_verify(a, 3, verdict.transcript)
    assert replay.accepted
    assert replay.error_bound == verdict.error_bound
    wrong = rank_verify(a, 2, verdict.transcript)
    assert not wrong.accepted  # params carry the claimed rank


# -- minimal polynomial --------------------------------------------------------------


def test_minpoly_identity_projection(gf101):
    verdict, gen = minpoly_certify(eye(gf101, 2), [1, 0], [1, 0], InteractiveSource(0))
    assert verdict.accepted
    assert gen == Poly(gf101, [100, 1])
    assert verdict.error_bound == Fraction(2, 101)


def test_minpoly_nilpotent(gf101):
    a = DenseMatrix(gf101, [[0, 1], [0, 0]])
    verdict, gen = minpoly_certify(a, [1, 1], [1, 1], InteractiveSource(1))
    assert verdict.accepted
    assert gen == Poly(gf101, [0, 0, 1])
    assert verdict.error_bound == Fraction(6, 101)
    # the committed numerator is 2x + 1
    num = verdict.transcript.messages[1]
    assert num.kind == KIND_POLY and num.value == [1, 2]


def test_minpoly_matches_oracle(gf10007):
    rng = Random(23)
    for trial in range(200):
        n = rng.randrange(1, 7)
        a = [[rng.randrange(10007) for _ in range(n)] for _ in range(n)]
        u = [rng.randrange(10007) for _ in range(n)]
        v = [rng.randrange(10007) for _ in range(n)]
        verdict, gen = minpoly_certify(
            DenseMatrix(gf10007, a), u, v, InteractiveSource(trial)
        )
        assert verdict.accepted
        assert gen == brute_minpoly_fuv(gf10007, a, u, v)


def test_minpoly_bezout_identity_is_exact(gf101):
    rng = Random(29)
    one = Poly.one(gf101)
    for trial in range(30):
        n = rng.randrange(1, 7)
        a = rand_dense(gf101, rng, n, n)
        u = [rng.randrange(101) for _ in range(n)]
        v = [rng.randrange(101) for _ in range(n)]
        verdict, gen = minpoly_certify(a, u, v, InteractiveSource(trial))
        assert verdict.accepted
        msgs = verdict.transcript.messages
        num = Poly(gf101, msgs[1].value)
        phi = Poly(gf101, msgs[2].value)
        psi = Poly(gf101, msgs[3].value)
        assert (phi * gen + psi * num - one).is_zero
        assert num.degree < gen.degree
        assert phi.degree <= max(num.degree - 1, 0)
        assert psi.degree <= max(gen.degree - 1, 0)


def test_minpoly_epsilon_formula(gf101):
    s = full_sample_set(gf101)
    assert minpoly_epsilon(1, 0, s) == Fraction(2, 101)
    assert minpoly_epsilon(2, 1, s) == Fraction(6, 101)
    assert minpoly_epsilon(4, 3, s) == Fraction(7 + 7, 101)
    assert minpoly_epsilon(1, -1, s) == Fraction(1 + 1, 101)  # zero numerator


def test_minpoly_singular_shift_redraw_then_accept(gf101):
    # eigenvalues 4 and 6; window {4,5}: first shift collides, redraw works
    a = DenseMatrix(gf101, [[4, 0], [0, 6]])
    s = SampleSet(gf101, 2, offset=4)
    verdict, gen = minpoly_certify(
        a, [1, 1], [1, 1], ScriptedSource([0, 0, 1]), s=s
    )
    assert verdict.accepted
    assert gen == Poly(gf101, [24, 91, 1])  # (x-4)(x-6)
    kinds = [m.kind for m in verdict.transcript.messages if m.tag == TAG_RESPONSE]
    assert kinds == [KIND_EMPTY, KIND_VEC]


def test_minpoly_all_shifts_singular_rejects(gf101):
    # every sample value is an eigenvalue, so no shift is solvable
    a = DenseMatrix(gf101, [[4, 0], [0, 5]])
    s = SampleSet(gf101, 2, offset=4)
    draws = [0] * (1 + SHIFT_DRAWS)
    verdict, gen = minpoly_certify(a, [1, 1], [1, 1], ScriptedSource(draws), s=s)
    assert not verdict.accepted
    assert verdict.reason == "SingularShift"
    assert gen is None


def test_minpoly_cheating_generator_rate(gf101):
    """Perturbed generator survives only if the shift hits a root."""
    rng = Random(31)
    n = 4
    a = rand_dense(gf101, rng, n, n)
    u = [rng.randrange(101) for _ in range(n)]
    v = [rng.randrange(101) for _ in range(n)]
    s = full_sample_set(gf101)
    seq = projected_powers(gf101, [list(map(int, row)) for row in a.a], u, v, 2 * n)
    gen = berlekamp_massey(gf101, seq)
    if gen.degree < 2:
        pytest.skip("degenerate instance")
    from vlac.ff import numerator_from_sequence

    num = numerator_from_sequence(gen, seq)
    forged = gen + Poly(gf101, [0, 7])  # shift a low-order coefficient
    g, phi, psi = poly_xgcd(forged, num)
    if g.degree != 0:
        pytest.skip("forged pair not coprime")
    params, digest, _, verifier = _minpoly_parts(a, u, v, None, None)
    u_arr, v_arr = gf101.arr(u), gf101.arr(v)

    import numpy as np

    def cheat(ch):
        ch.send(TAG_COMMIT, KIND_POLY, forged)
        ch.send(TAG_COMMIT, KIND_POLY, num)
        ch.send(TAG_COMMIT, KIND_POLY, phi)
        ch.send(TAG_COMMIT, KIND_POLY, psi)
        ch.challenge_scalar("minpoly.r0", s)
        for attempt in range(SHIFT_DRAWS):
            r1 = ch.challenge_scalar(f"minpoly.r1.{attempt}", s)
            shifted = (-a.a) % 101
            idx = np.arange(n)
            shifted[idx, idx] = (shifted[idx, idx] + r1) % 101
            w = solve_dense(DenseMatrix(gf101, shifted), v_arr)
            if w is None:
                ch.send(TAG_RESPONSE, KIND_EMPTY)
                continue
            ch.send(TAG_RESPONSE, KIND_VEC, [int(x) for x in w])
            return

    hits, trials = 0, 500
    for t in range(trials):
        verdict, _, _ = run_session(
            PROTOCOL_MINPOLY, params, digest, cheat, verifier, InteractiveSource(t)
        )
        hits += verdict.accepted
    eps = float(minpoly_epsilon(gen.degree, num.degree, s))
    sigma = (trials * eps * (1 - eps)) ** 0.5
    assert hits <= trials * eps + 3 * sigma


def test_minpoly_verifier_ops_bound(gf101):
    rng = Random(37)
    for n in (2, 8, 16):
        a = rand_dense(gf101, rng, n, n)
        u = [rng.randrange(101) for _ in range(n)]
        v = [rng.randrange(101) for _ in range(n)]
        verdict, _ = minpoly_certify(a, u, v, InteractiveSource(n))
        assert verdict.accepted
        assert verdict.verifier_ops <= ops_budget(8, a.mu, n)


# -- determinant --------------------------------------------------------------------


def test_det_hand_values(gf101):
    verdict, value = det_certify(eye(gf101, 2), InteractiveSource(0))
    assert verdict.accepted and value == 1

    a = DenseMatrix(gf101, [[2, 1], [1, 1]])
    verdict, value = det_certify(a, InteractiveSource(1))
    assert verdict.accepted and value == 1
    assert verdict.error_bound == Fraction(6, 101)

    singular = DenseMatrix(gf101, [[1, 2], [2, 4]])
    verdict, value = det_certify(singular, InteractiveSource(2))
    assert verdict.accepted and value == 0


def test_det_matches_oracle(gf10007):
    rng = Random(41)
    for trial in range(100):
        n = rng.randrange(1, 9)
        a = rand_dense(gf10007, rng, n, n)
        verdict, value = det_certify(a, InteractiveSource(trial), prover_seed=trial)
        assert verdict.accepted, (n, verdict.reason)
        assert value == brute_det_field(gf10007, a)


def test_det_sign_small_sizes(gf10007):
    rng = Random(43)
    for n in (1, 2, 3):
        for trial in range(30):
            a = rand_dense(gf10007, rng, n, n)
            verdict, value = det_certify(
                a, InteractiveSource(100 * n + trial), prover_seed=trial
            )
            assert verdict.accepted
            assert value == brute_det_field(gf10007, a)


def test_det_sparse_operator(gf101):
    tri = SparseMatrix(
        gf101, 4, 4, [(i, i, 2) for i in range(4)] + [(0, 3, 5)]
    )
    verdict, value = det_certify(tri, InteractiveSource(3))
    assert verdict.accepted
    assert value == 16
    assert verdict.verifier_ops <= ops_budget(8, tri.mu, 4)


def test_det_transcript_round_trip(gf101):
    a = DenseMatrix(gf101, [[2, 1], [1, 1]])
    verdict, value = det_certify(a, FiatShamirSource(), prover_seed=5)
    assert verdict.accepted and value == 1
    replay, rvalue = det_verify(a, verdict.transcript)
    assert replay.accepted and rvalue == 1


def test_det_cheating_constant_rate(gf101):
    """Shifting the committed generator's constant term forges the value."""
    rng = Random(47)
    n = 3
    a = rand_dense(gf101, rng, n, n)
    if brute_det_field(gf101, a) == 0:
        a.a[0, 0] = (a.a[0, 0] + 1) % 101
    params, digest, _, verifier = _det_parts(a, None, None, None)
    s = full_sample_set(gf101)

    import numpy as np
    from vlac.certs_sparse import _shift_solver, krylov_checkpoints, projected_sequence
    from vlac.ff import numerator_from_sequence
    from vlac.la import compose, diagonal_scaling

    def make_cheat(seed):
        local = Random(seed)

        def cheat(ch):
            for _ in range(DET_MAX_ATTEMPTS):
                scale = [local.randrange(1, 101) for _ in range(n)]
                u = gf101.arr([local.randrange(101) for _ in range(n)])
                v = gf101.arr([local.randrange(101) for _ in range(n)])
                scaled = compose(diagonal_scaling(gf101, scale), a)
                checkpoints = krylov_checkpoints(gf101, n)
                seq = projected_sequence(gf101, scaled, u, v, 2 * n, checkpoints)
                gen = berlekamp_massey(gf101, seq)
                if gen.degree != n:
                    continue
                num = numerator_from_sequence(gen, seq)
                forged = gen + Poly.one(gf101)  # wrong constant term
                g, phi, psi = poly_xgcd(forged, num)
                if g.degree != 0:
                    continue
                ch.send(TAG_COMMIT, KIND_VEC, scale)
                ch.send(TAG_COMMIT, KIND_VEC, [int(x) for x in u])
                ch.send(TAG_COMMIT, KIND_VEC, [int(x) for x in v])
                ch.send(TAG_COMMIT, KIND_POLY, forged)
                ch.send(TAG_COMMIT, KIND_POLY, num)
                ch.send(TAG_COMMIT, KIND_POLY, phi)
                ch.send(TAG_COMMIT, KIND_POLY, psi)
                ch.challenge_scalar("minpoly.r0", s)
                solver = _shift_solver(gf101, scaled, gen, checkpoints)
                for attempt in range(SHIFT_DRAWS):
                    r1 = ch.challenge_scalar(f"minpoly.r1.{attempt}", s)
                    w = solver(r1)
                    if w is None:
                        ch.send(TAG_RESPONSE, KIND_EMPTY)
                        continue
                    ch.send(TAG_RESPONSE, KIND_VEC, [int(x) for x in w])
                    return
                return
            ch.send(TAG_COMMIT, KIND_EMPTY)

        return cheat

    hits, trials = 0, 400
    true_det = brute_det_field(gf101, a)
    for t in range(trials):
        verdict, value = None, None
        verdict, value_pair = run_session(
            PROTOCOL_DET, params, digest, make_cheat(t), verifier, InteractiveSource(t)
        )[:2]
        if verdict.accepted:
            hits += 1
            assert value_pair != true_det  # when the cheat lands, the value is wrong
    eps = float(minpoly_epsilon(n, n - 1, s))
    sigma = (trials * eps * (1 - eps)) ** 0.5
    assert hits <= trials * eps + 3 * sigma


def test_det_degree_deficient_when_prover_gives_up(gf101):
    """A prover that cannot reach full degree must be rejected, not believed."""
    a = eye(gf101, 3)
    params, digest, _, verifier = _det_parts(a, None, None, None)

    def quitter(ch):
        ch.send(TAG_COMMIT, KIND_EMPTY)

    verdict, _, _ = run_session(
        PROTOCOL_DET, params, digest, quitter, verifier, InteractiveSource(0)
    )
    assert not verdict.accepted
    assert verdict.reason == "DegreeDeficient"
