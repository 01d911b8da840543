"""Acceptance gate.

Each test covers one release criterion end to end and prints a single
PASS/FAIL line with the measured numbers, bypassing output capture so the
lines always show up in the run log.
"""

import math
import time
from fractions import Fraction
from random import Random

from vlac.bench import (
    bench_matmul,
    random_nonsingular,
    random_rank_deficient,
    random_sparse,
)
from vlac.certs_dense import (
    ZERO_ONE,
    Literal,
    MatMulClaim,
    Ref,
    chain_certify,
    chain_verify,
    inverse_certify,
    inverse_verify,
    matmul_certify,
    matmul_verify,
)
from vlac.certs_sparse import (
    det_certify,
    det_verify,
    minpoly_certify,
    minpoly_verify,
    nonsingular_certify,
    nonsingular_verify,
    rank_certify,
    rank_verify,
)
from vlac.errors import VlacError
from vlac.ff import Poly, field_new, numerator_from_sequence
from vlac.la import DenseMatrix, dense_matmul, invert_dense
from vlac.lift import (
    IntMatrix,
    PolyMatrix,
    _intdet_parts,
    hadamard_bound,
    intdet_certify,
    intdet_verify,
    lower_bound_primes,
    polydet_certify,
    polydet_verify,
)
from vlac.oracle import (
    brute_det_field,
    brute_det_int,
    brute_minpoly_fuv,
    brute_rank,
    projected_powers,
)
from vlac.proto import (
    KIND_BIGINT,
    KIND_SCALAR,
    KIND_UINT,
    KIND_VEC,
    TAG_CHALLENGE,
    TAG_COMMIT,
    FiatShamirSource,
    InteractiveSource,
    Message,
    Transcript,
    fs_prove,
    transcript_deserialize,
    transcript_serialize,
    verify_recorded,
)

GF101 = field_new(101)
GF10007 = field_new(10007)


def announce(capsys, line: str) -> None:
    with capsys.disabled():
        print(line, flush=True)


def rnd_dense(field, rows, cols, rng) -> DenseMatrix:
    return DenseMatrix(
        field, [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)]
    )


def rnd_square_low_corank(field, n, rng) -> DenseMatrix:
    # the determinant protocol certifies corank 0 and 1; corank 2 has no
    # full-degree generator, so honest instances stay inside that domain
    while True:
        a = rnd_dense(field, n, n, rng)
        if brute_rank(field, a) >= n - 1:
            return a


def pad_pow2(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


# -- 1: perfect completeness ------------------------------------------------------


def test_1_completeness(capsys):
    start = time.perf_counter()
    trials = 1000
    counts = {}

    def field_for(trial):
        return GF101 if trial % 2 else GF10007

    def run(name, make):
        ok = 0
        for trial in range(trials):
            ok += bool(make(trial))
        counts[name] = ok

    def mk_matmul(trial):
        rng = Random(1000 + trial)
        f = field_for(trial)
        m, k, n = (rng.randint(1, 16) for _ in range(3))
        a, b = rnd_dense(f, m, k, rng), rnd_dense(f, k, n, rng)
        v = matmul_certify(a, b, dense_matmul(a, b), InteractiveSource(trial))
        return v.accepted

    def mk_nonsingular(trial):
        rng = Random(2000 + trial)
        a = random_nonsingular(field_for(trial), rng.randint(1, 16), rng)
        return nonsingular_certify(a, InteractiveSource(trial)).accepted

    def mk_rank(trial):
        rng = Random(3000 + trial)
        f = field_for(trial)
        m, n = rng.randint(1, 16), rng.randint(1, 16)
        if trial % 3:
            a = rnd_dense(f, m, n, rng)
        else:
            a = random_rank_deficient(f, m, n, rng.randint(0, min(m, n)), rng)
        r = brute_rank(f, a)
        return rank_certify(a, r, InteractiveSource(trial), prover_seed=trial).accepted

    def mk_minpoly(trial):
        rng = Random(4000 + trial)
        f = field_for(trial)
        n = rng.randint(1, 16)
        a = rnd_dense(f, n, n, rng)
        u = [rng.randrange(f.p) for _ in range(n)]
        v = [rng.randrange(f.p) for _ in range(n)]
        verdict, _ = minpoly_certify(a, u, v, InteractiveSource(trial))
        return verdict.accepted

    def mk_det(trial):
        rng = Random(5000 + trial)
        f = field_for(trial)
        a = rnd_square_low_corank(f, rng.randint(1, 16), rng)
        verdict, _ = det_certify(a, InteractiveSource(trial), prover_seed=trial)
        return verdict.accepted

    def mk_intdet(trial):
        rng = Random(6000 + trial)
        n = rng.randint(1, 10)
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        verdict, _ = intdet_certify(m, InteractiveSource(trial), prover_seed=trial)
        return verdict.accepted

    def mk_polydet(trial):
        rng = Random(7000 + trial)
        f = field_for(trial)
        n, d = rng.randint(1, 8), rng.randint(0, 2)
        entries = [
            [Poly(f, [rng.randrange(f.p) for _ in range(d + 1)]) for _ in range(n)]
            for _ in range(n)
        ]
        verdict, _ = polydet_certify(
            PolyMatrix(f, entries), InteractiveSource(trial), prover_seed=trial
        )
        return verdict.accepted

    for name, make in (
        ("matmul", mk_matmul),
        ("nonsingular", mk_nonsingular),
        ("rank", mk_rank),
        ("minpoly", mk_minpoly),
        ("det", mk_det),
        ("intdet", mk_intdet),
        ("polydet", mk_polydet),
    ):
        run(name, make)

    elapsed = time.perf_counter() - start
    ok = all(v == trials for v in counts.values()) and elapsed < 120
    detail = ", ".join(f"{k} {v}/{trials}" for k, v in counts.items())
    announce(
        capsys,
        f"1 completeness: {'PASS' if ok else 'FAIL'} ({detail}; {elapsed:.1f}s)",
    )
    assert ok, counts


# -- 2: oracle equivalence --------------------------------------------------------


def test_2_oracle_equivalence(capsys):
    start = time.perf_counter()
    big = field_new(536870909)
    det_ok = rank_ok = minpoly_ok = 0

    for t in range(200):
        rng = Random(20000 + t)
        a = rnd_square_low_corank(big, rng.randint(1, 8), rng)
        verdict, value = det_certify(a, InteractiveSource(t), prover_seed=t)
        det_ok += verdict.accepted and value == brute_det_field(big, a)

    for t in range(200):
        rng = Random(21000 + t)
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        if t % 2:
            a = rnd_dense(big, m, n, rng)
        else:
            a = random_rank_deficient(big, m, n, rng.randint(0, min(m, n)), rng)
        r = brute_rank(big, a)
        rank_ok += rank_certify(a, r, InteractiveSource(t), prover_seed=t).accepted

    for t in range(200):
        rng = Random(22000 + t)
        n = rng.randint(1, 8)
        a = rnd_dense(GF10007, n, n, rng)
        u = [rng.randrange(10007) for _ in range(n)]
        v = [rng.randrange(10007) for _ in range(n)]
        verdict, gen = minpoly_certify(a, u, v, InteractiveSource(t))
        minpoly_ok += verdict.accepted and gen == brute_minpoly_fuv(GF10007, a, u, v)

    elapsed = time.perf_counter() - start
    ok = det_ok == rank_ok == minpoly_ok == 200 and elapsed < 60
    announce(
        capsys,
        f"2 oracle equivalence: {'PASS' if ok else 'FAIL'} "
        f"(det {det_ok}/200, rank {rank_ok}/200, minpoly {minpoly_ok}/200; "
        f"{elapsed:.1f}s)",
    )
    assert ok


# -- 3: product-check soundness ----------------------------------------------------


def _corrupted_product(rng, n):
    a = rnd_dense(GF101, n, n, rng)
    b = rnd_dense(GF101, n, n, rng)
    c = dense_matmul(a, b)
    rows = c.a.tolist()
    i, j = rng.randrange(n), rng.randrange(n)
    rows[i][j] = (rows[i][j] + rng.randint(1, 100)) % 101
    return a, b, DenseMatrix(GF101, rows)


def test_3_product_check_soundness(capsys):
    n, trials = 16, 10_000
    rng = Random(30)
    geo = 0
    for _ in range(trials):
        a, b, bad = _corrupted_product(rng, n)
        geo += matmul_certify(a, b, bad, FiatShamirSource()).accepted
    geo_rate = geo / trials
    geo_limit = 15 / 101 + 3 * math.sqrt(0.15 * 0.85 / trials)

    zo = 0
    for _ in range(trials):
        a, b, bad = _corrupted_product(rng, n)
        v = matmul_certify(a, b, bad, FiatShamirSource(), variant=ZERO_ONE, rounds=7)
        zo += v.accepted
    zo_rate = zo / trials
    p = 2**-7
    zo_limit = p + 3 * math.sqrt(p * (1 - p) / trials)

    ok = geo_rate <= geo_limit and zo_rate <= zo_limit
    announce(
        capsys,
        f"3 product-check soundness: {'PASS' if ok else 'FAIL'} "
        f"(geometric {geo_rate:.4f} <= {geo_limit:.4f}, "
        f"zero-one {zo_rate:.4f} <= {zo_limit:.4f}; {trials} trials each)",
    )
    assert ok


# -- 4: lifting soundness -----------------------------------------------------------


def test_4_lifting_soundness(capsys):
    rng = Random(40)
    n, bits, trials = 6, 62, 1000
    m = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
    true_det = brute_det_int([list(r) for r in m.a])
    bound = hadamard_bound(m)
    params, digest, _, verifier = _intdet_parts(m, bits, None)
    from vlac.certs_sparse import _prover_rng, det_prover_flow
    from vlac.ff import PrimeField, full_sample_set
    from vlac.lift import PROTOCOL_INTDET

    accepts = 0
    for t in range(trials):
        k = 0
        while k == 0:
            k = rng.randint(-2 * bound, 2 * bound)

        def cheat(ch, claimed=true_det + k, t=t):
            ch.send(TAG_COMMIT, KIND_BIGINT, claimed)
            q = ch.challenge_prime("intdet.q", bits)
            f = PrimeField(q)
            det_prover_flow(ch, f, m.reduce(f), full_sample_set(f), _prover_rng(digest, t), n)

        transcript = fs_prove(PROTOCOL_INTDET, params, digest, cheat)
        verdict, _ = verify_recorded(
            transcript, PROTOCOL_INTDET, digest, params, verifier
        )
        accepts += verdict.accepted

    honest, _ = intdet_certify(m, InteractiveSource(4), bits=bits)
    eps = honest.error_bound
    sigma = math.sqrt(trials * float(eps) * (1 - float(eps)))
    ok = honest.accepted and accepts <= trials * float(eps) + 3 * sigma
    ok = ok and eps < Fraction(1, 2**40)
    announce(
        capsys,
        f"4 lifting soundness: {'PASS' if ok else 'FAIL'} "
        f"({accepts}/{trials} cheating accepts; declared eps = {eps} < 2^-40)",
    )
    assert ok


# -- 5: verifier cheapness -----------------------------------------------------------


def test_5_verifier_cheapness(capsys):
    start = time.perf_counter()
    # the prover time of one sample moves by up to 40 % from run to run,
    # so the gate holds the median ratio of three
    runs = [bench_matmul(n=1024, seed=seed) for seed in (1, 2, 3)]
    ratios = sorted(r.ratio for r in runs)
    ratio_ok = all(r.accepted for r in runs) and ratios[1] <= 0.05

    big = field_new(536870909)
    n = 4096
    a = random_sparse(big, n, 10, Random(1))
    verdict, value = det_certify(a, FiatShamirSource(), prover_seed=1)
    budget = 8 * (a.mu + n * math.ceil(math.log2(n)) + n)
    ops_ok = verdict.accepted and value is not None and verdict.verifier_ops <= budget

    elapsed = time.perf_counter() - start
    ok = ratio_ok and ops_ok and elapsed < 300
    announce(
        capsys,
        f"5 verifier cheapness: {'PASS' if ok else 'FAIL'} "
        f"(matmul n=1024 median ratio {ratios[1]:.4f} <= 0.05 of "
        f"{', '.join(f'{x:.4f}' for x in ratios)}; sparse det n=4096 ops "
        f"{verdict.verifier_ops} <= {budget}; {elapsed:.1f}s)",
    )
    assert ok


# -- 6: transcript integrity ----------------------------------------------------------


def _fs_suite():
    """One honest hash-compiled run per protocol, with its replay closure."""
    rng = Random(60)
    f = GF101
    a = rnd_dense(f, 4, 4, rng)
    b = rnd_dense(f, 4, 4, rng)
    c = dense_matmul(a, b)
    w = invert_dense(random_nonsingular(f, 4, rng))
    aw = invert_dense(w)
    claims = [
        MatMulClaim(Literal(a), Literal(b), c),
        MatMulClaim(Ref(0), Literal(a), dense_matmul(c, a)),
    ]
    rank_a = random_rank_deficient(f, 5, 4, 2, rng)
    assert brute_rank(f, rank_a) == 2
    u = [rng.randrange(101) for _ in range(4)]
    v = [rng.randrange(101) for _ in range(4)]
    det_a = rnd_square_low_corank(f, 4, rng)
    im = IntMatrix([[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)])
    x = Poly.x(f)
    pm = PolyMatrix(
        f,
        [
            [x, Poly.one(f), Poly.zero(f)],
            [Poly.one(f), x, Poly.one(f)],
            [Poly.zero(f), Poly.one(f), x],
        ],
    )

    fs = FiatShamirSource
    out = []
    out.append(("matmul", matmul_certify(a, b, c, fs()).transcript,
                lambda t: matmul_verify(a, b, c, t)))
    out.append(("chain", chain_certify(claims, fs()).transcript,
                lambda t: chain_verify(claims, t)))
    out.append(("inverse", inverse_certify(aw, w, fs()).transcript,
                lambda t: inverse_verify(aw, w, t)))
    out.append(("nonsingular", nonsingular_certify(aw, fs()).transcript,
                lambda t: nonsingular_verify(aw, t)))
    out.append(("rank", rank_certify(rank_a, 2, fs(), prover_seed=6).transcript,
                lambda t: rank_verify(rank_a, 2, t)))
    out.append(("minpoly", minpoly_certify(det_a, u, v, fs())[0].transcript,
                lambda t: minpoly_verify(det_a, u, v, t)[0]))
    out.append(("det", det_certify(det_a, fs(), prover_seed=6)[0].transcript,
                lambda t: det_verify(det_a, t)[0]))
    out.append(("intdet", intdet_certify(im, fs(), prover_seed=6)[0].transcript,
                lambda t: intdet_verify(im, t)[0]))
    out.append(("polydet", polydet_certify(pm, fs(), prover_seed=6)[0].transcript,
                lambda t: polydet_verify(pm, t)[0]))
    return out


def _bumped_challenge(msg: Message, modulus: int) -> Message:
    if msg.kind == KIND_SCALAR:
        value = (msg.value + 1) % modulus
    elif msg.kind == KIND_UINT:
        value = msg.value + 2
    elif msg.kind == KIND_VEC:
        vec = list(msg.value)
        vec[0] = (vec[0] + 1) % modulus
        value = vec
    else:
        raise AssertionError(f"unexpected challenge kind {msg.kind}")
    return Message(msg.role, msg.tag, msg.kind, value)


def test_6_transcript_integrity(capsys):
    rng = Random(61)
    suite = _fs_suite()
    problems = []

    for name, transcript, verify in suite:
        replay = verify(transcript)
        if not (replay.accepted and replay.error_bound is not None):
            problems.append(f"{name}: replay rejected ({replay.reason})")
            continue
        again = verify(transcript)
        if (again.accepted, again.error_bound) != (replay.accepted, replay.error_bound):
            problems.append(f"{name}: replay not deterministic")

        data = transcript_serialize(transcript)
        for _ in range(500):
            bad = bytearray(data)
            bad[rng.randrange(len(bad))] ^= rng.randint(1, 255)
            try:
                mutated = transcript_deserialize(bytes(bad))
            except VlacError:
                continue
            try:
                verdict = verify(mutated)
            except VlacError:
                continue
            if verdict.accepted:
                problems.append(f"{name}: corruption accepted")
                break

        idx = next(
            i for i, m in enumerate(transcript.messages) if m.tag == TAG_CHALLENGE
        )
        msgs = list(transcript.messages)
        msgs[idx] = _bumped_challenge(msgs[idx], 101)
        swapped = Transcript(
            transcript.protocol_id,
            transcript.mode,
            transcript.instance_digest,
            transcript.params,
            msgs,
        )
        verdict = verify(swapped)
        if verdict.accepted or verdict.reason != "ChallengeMismatch":
            problems.append(f"{name}: substituted challenge gave {verdict.reason}")

    ok = not problems
    announce(
        capsys,
        f"6 transcript integrity: {'PASS' if ok else 'FAIL'} "
        f"({len(suite)} protocols, 500 corruptions each"
        f"{'; ' + '; '.join(problems) if problems else ''})",
    )
    assert ok, problems


# -- 7: error accounting ---------------------------------------------------------------


def test_7_error_accounting(capsys):
    checked = []
    mismatches = []

    def expect(name, declared, formula):
        checked.append(name)
        if declared != formula:
            mismatches.append(f"{name}: declared {declared} != {formula}")

    for n, p in ((4, 101), (16, 10007)):
        f = field_new(p)
        rng = Random(70 + n)
        a = rnd_dense(f, n, n, rng)
        b = rnd_dense(f, n, n, rng)
        c = dense_matmul(a, b)
        tag = f"n={n},p={p}"

        v = matmul_certify(a, b, c, InteractiveSource(0))
        expect(f"matmul[{tag}]", v.error_bound, Fraction(n - 1, p))

        v = matmul_certify(a, b, c, InteractiveSource(0), variant=ZERO_ONE, rounds=7)
        expect(f"matmul-zero-one[{tag}]", v.error_bound, Fraction(1, 2**7))

        claims = [
            MatMulClaim(Literal(a), Literal(b), c),
            MatMulClaim(Ref(0), Literal(a), dense_matmul(c, a)),
        ]
        v = chain_certify(claims, InteractiveSource(0))
        expect(f"chain[{tag}]", v.error_bound, Fraction(2 * (n - 1), p))

        nonsing = random_nonsingular(f, n, rng)
        w = invert_dense(nonsing)
        v = inverse_certify(nonsing, w, InteractiveSource(0))
        expect(f"inverse[{tag}]", v.error_bound, Fraction(n - 1, p))

        v = nonsingular_certify(nonsing, InteractiveSource(0))
        expect(f"nonsingular[{tag}]", v.error_bound, Fraction(1, p))

        r = n - 2
        while True:
            ra = random_rank_deficient(f, n, n, r, rng)
            if brute_rank(f, ra) == r:
                break
        v = rank_certify(ra, r, InteractiveSource(0), prover_seed=7)
        layers = int(math.log2(pad_pow2(n)))
        expect(
            f"rank[{tag}]",
            v.error_bound,
            Fraction((r + 2) * layers + 1, p) + Fraction(1, p),
        )

        u = [rng.randrange(p) for _ in range(n)]
        vv = [rng.randrange(p) for _ in range(n)]
        verdict, gen = minpoly_certify(a, u, vv, InteractiveSource(0))
        oracle_gen = brute_minpoly_fuv(f, a, u, vv)
        seq = projected_powers(f, a, u, vv, 2 * n)
        dh = numerator_from_sequence(oracle_gen, seq).degree
        dg = oracle_gen.degree
        assert gen == oracle_gen
        expect(
            f"minpoly[{tag}]",
            verdict.error_bound,
            Fraction(dg + max(dh, 0), p) + Fraction(max(2 * dg - 1, 0), p),
        )

        verdict, _ = det_certify(a, InteractiveSource(0), prover_seed=7)
        expect(f"det[{tag}]", verdict.error_bound, Fraction(4 * n - 2, p))

        im = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        verdict, _ = intdet_certify(im, InteractiveSource(0), bits=62)
        q = next(
            m.value
            for m in verdict.transcript.messages
            if m.tag == TAG_CHALLENGE and m.kind == KIND_UINT
        )
        bound = hadamard_bound(im)
        need = max(1, math.ceil((2 * bound).bit_length() / 61)) if bound else 0
        expect(
            f"intdet[{tag}]",
            verdict.error_bound,
            Fraction(need, lower_bound_primes(62)) + Fraction(4 * n - 2, q),
        )

        x = Poly.x(f)
        entries = [
            [x if i == j else Poly(f, [rng.randrange(1, p)]) for j in range(n)]
            for i in range(n)
        ]
        verdict, _ = polydet_certify(
            PolyMatrix(f, entries), InteractiveSource(0), prover_seed=7
        )
        expect(
            f"polydet[{tag}]",
            verdict.error_bound,
            Fraction(n, p) + Fraction(4 * n - 2, p),
        )

    ok = not mismatches
    announce(
        capsys,
        f"7 error accounting: {'PASS' if ok else 'FAIL'} "
        f"({len(checked)} closed forms matched symbolically"
        f"{'; ' + '; '.join(mismatches) if mismatches else ''})",
    )
    assert ok, mismatches


# -- 8: determinant sign -----------------------------------------------------------------


def test_8_determinant_sign(capsys):
    ok_runs = 0
    total = 0
    for n in range(1, 9):
        for t in range(100):
            rng = Random(80000 + 100 * n + t)
            a = rnd_square_low_corank(GF101, n, rng)
            total += 1
            verdict, value = det_certify(
                a, InteractiveSource(total), prover_seed=total
            )
            ok_runs += verdict.accepted and value == brute_det_field(GF101, a)
    ok = ok_runs == total
    announce(
        capsys,
        f"8 determinant sign: {'PASS' if ok else 'FAIL'} "
        f"({ok_runs}/{total} signed matches over sizes 1..8)",
    )
    assert ok
