"""Golden Fiat-Shamir transcripts: one pinned SHA-256 per protocol instance.

Each case builds a small fixed instance, runs the hash-compiled protocol
with a fixed prover seed, and hashes the serialized transcript.  Any change
to challenge derivation, prover randomness, message order or payload
encoding shows up here as a changed hash, so a kernel or refactor change
that claims to keep transcripts byte-identical can prove it.  A second pin
covers what the transcript does not hold: each verdict's error bound,
heuristic labels and verifier operation count.
"""

import hashlib
from fractions import Fraction
from random import Random

import pytest

from vlac.certs_dense import (
    GEOMETRIC,
    PROTOCOL_CHAIN,
    PROTOCOL_INVERSE,
    PROTOCOL_MATMUL,
    ZERO_ONE,
    Literal,
    MatMulClaim,
    Ref,
    chain_certify,
    inverse_certify,
    matmul_certify,
)
from vlac.certs_sparse import (
    PROTOCOL_DET,
    PROTOCOL_MINPOLY,
    PROTOCOL_NONSINGULAR,
    PROTOCOL_RANK,
    PROTOCOL_RANK_UPPER,
    det_certify,
    minpoly_certify,
    nonsingular_certify,
    rank_certify,
    rank_upper_certify,
)
from vlac.ff import Poly, field_new
from vlac.la import DenseMatrix, SparseMatrix, dense_matmul, invert_dense
from vlac.lift import (
    PROTOCOL_INTDET,
    PROTOCOL_POLYDET,
    IntMatrix,
    PolyMatrix,
    intdet_certify,
    polydet_certify,
)
from vlac.proto import FiatShamirSource, transcript_serialize

P_SMALL = 10007
P_DET = 536870909
P_WORD = 3037000493  # largest prime whose products (p-1)^2 fit int64
P_BIG = 3037000507  # first prime past it: object dtype

SEED = 11


def _dense(p, n, rng, cols=None):
    cols = n if cols is None else cols
    return DenseMatrix(field_new(p), [[rng.randrange(p) for _ in range(cols)] for _ in range(n)])


def _sparse(p, n, per_row, rng):
    # nonzero diagonal plus a few random off-diagonal entries per row
    triples = []
    for i in range(n):
        cols = {i}
        while len(cols) < min(per_row, n):
            cols.add(rng.randrange(n))
        triples += [(i, j, rng.randrange(1, p)) for j in sorted(cols)]
    return SparseMatrix(field_new(p), n, n, triples)


def _low_rank(p, n, r, rng):
    return dense_matmul(_dense(p, n, rng, r), _dense(p, r, rng, n))


def _run_matmul(variant):
    rng = Random(1)
    a, b = _dense(P_SMALL, 6, rng), _dense(P_SMALL, 6, rng)
    return matmul_certify(a, b, dense_matmul(a, b), FiatShamirSource(), variant=variant, rounds=8)


def _run_chain():
    rng = Random(2)
    a, b, c = (_dense(P_WORD, 5, rng) for _ in range(3))
    ab = dense_matmul(a, b)
    claims = [
        MatMulClaim(Literal(a), Literal(b), ab),
        MatMulClaim(Ref(0), Literal(c), dense_matmul(ab, c)),
    ]
    return chain_certify(claims, FiatShamirSource())


def _run_inverse():
    rng = Random(3)
    while True:
        a = _dense(P_BIG, 5, rng)
        w = invert_dense(a)
        if w is not None:
            return inverse_certify(a, w, FiatShamirSource())


def _run_nonsingular():
    return nonsingular_certify(_sparse(P_SMALL, 12, 3, Random(4)), FiatShamirSource())


def _run_rank():
    a = _low_rank(P_WORD, 8, 5, Random(5))
    return rank_certify(a, 5, FiatShamirSource(), prover_seed=SEED)


def _run_rank_upper():
    a = _low_rank(P_SMALL, 8, 3, Random(6))
    return rank_upper_certify(a, 3, FiatShamirSource())


def _run_minpoly():
    rng = Random(7)
    a = _sparse(P_BIG, 10, 3, rng)
    u = [rng.randrange(P_BIG) for _ in range(10)]
    v = [rng.randrange(P_BIG) for _ in range(10)]
    return minpoly_certify(a, u, v, FiatShamirSource())[0]


def _run_det(build):
    verdict, _ = det_certify(build(), FiatShamirSource(), prover_seed=SEED)
    return verdict


def _run_intdet():
    rng = Random(8)
    m = IntMatrix([[rng.randrange(-100, 101) for _ in range(6)] for _ in range(6)])
    return intdet_certify(m, FiatShamirSource(), prover_seed=SEED)[0]


def _run_polydet():
    rng = Random(9)
    field = field_new(P_BIG)
    entries = [
        [Poly(field, [rng.randrange(P_BIG) for _ in range(3)]) for _ in range(3)]
        for _ in range(3)
    ]
    return polydet_certify(PolyMatrix(field, entries), FiatShamirSource(), prover_seed=SEED)[0]


CASES = {
    "matmul-geometric": lambda: _run_matmul(GEOMETRIC),
    "matmul-zero-one": lambda: _run_matmul(ZERO_ONE),
    "chain": _run_chain,
    "inverse": _run_inverse,
    "nonsingular": _run_nonsingular,
    "rank": _run_rank,
    "rank-upper": _run_rank_upper,
    "minpoly": _run_minpoly,
    "det-sparse-p29": lambda: _run_det(lambda: _sparse(P_DET, 24, 4, Random(10))),
    "det-sparse-p10007": lambda: _run_det(lambda: _sparse(P_SMALL, 20, 3, Random(11))),
    "det-sparse-pbig": lambda: _run_det(lambda: _sparse(P_BIG, 16, 3, Random(12))),
    "det-dense-pword": lambda: _run_det(lambda: _dense(P_WORD, 10, Random(13))),
    "intdet": _run_intdet,
    "polydet": _run_polydet,
}

# name: (protocol id, SHA-256 of the serialized transcript)
GOLDEN = {
    "chain": (
        PROTOCOL_CHAIN,
        "2f68f3cced0a3fbf352e9bd9a693fc78b695c9398329461aa8f8ffde35a7a60f",
    ),
    "det-dense-pword": (
        PROTOCOL_DET,
        "76b0ed17da05359a21e694822722e4aef328c2fe84587a64429a88b59eeb2b4b",
    ),
    "det-sparse-p10007": (
        PROTOCOL_DET,
        "e5b3ba61f7e50dbbcfd98bd64901996b8e131502c4c63e386f664f30d5c939e2",
    ),
    "det-sparse-p29": (
        PROTOCOL_DET,
        "d315956ae941a7e2215eecb6c7d28cee7b21b84515a799794dd3a45e160606ed",
    ),
    "det-sparse-pbig": (
        PROTOCOL_DET,
        "3b60967776d7d64988f0950587dd12a8c742b0a4155b8172f804e14ac8f5a8ff",
    ),
    "intdet": (
        PROTOCOL_INTDET,
        "d719899a1e4938646766846ea1181ff7a4d341b703d9cf334801ff9c7bb4b33c",
    ),
    "inverse": (
        PROTOCOL_INVERSE,
        "ad29960073a91e7eefbe4ec5473e3691bdbd8072859252e00387e0383421faf5",
    ),
    "matmul-geometric": (
        PROTOCOL_MATMUL,
        "8ebc7f35df434660b1b3c741c9296aac47922b4e3d68d1185d76eb19bf4f0269",
    ),
    "matmul-zero-one": (
        PROTOCOL_MATMUL,
        "d7ae05de926597592f46ff95ba2e11763886ac4a6e5d2f4f325427c32506a761",
    ),
    "minpoly": (
        PROTOCOL_MINPOLY,
        "f06de4b1f2f4d3e613ec04ea2084ce57ade35fa398ed4d23b4e35bdea51d2993",
    ),
    "nonsingular": (
        PROTOCOL_NONSINGULAR,
        "da636d05584e904b7c12653c38d649b56c201dca16dbcce2573bef010a04f2f0",
    ),
    "polydet": (
        PROTOCOL_POLYDET,
        "46376f9da2c429e6c3c03730e45ce69e3f32f8aa519aadaeec7554e60805a572",
    ),
    "rank": (
        PROTOCOL_RANK,
        "9e3c276a4477eba7b7205e5f2c284a7ff39fcbba15adefce5b753eda7b8bcc72",
    ),
    "rank-upper": (
        PROTOCOL_RANK_UPPER,
        "00af7f0c2a056907f4551295d4705fbef16b0494eb7afdd38caff25c6e1d9d22",
    ),
}


def test_every_protocol_id_is_pinned():
    assert {pid for pid, _ in GOLDEN.values()} == {
        PROTOCOL_MATMUL, PROTOCOL_CHAIN, PROTOCOL_INVERSE, PROTOCOL_NONSINGULAR,
        PROTOCOL_RANK, PROTOCOL_RANK_UPPER, PROTOCOL_MINPOLY, PROTOCOL_DET,
        PROTOCOL_INTDET, PROTOCOL_POLYDET,
    }
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_transcript(name):
    protocol_id, expected = GOLDEN[name]
    verdict = CASES[name]()
    assert verdict.accepted, verdict.reason
    assert verdict.transcript.protocol_id == protocol_id
    digest = hashlib.sha256(transcript_serialize(verdict.transcript)).hexdigest()
    assert digest == expected


# name: (error bound numerator, denominator, heuristics, verifier ops)
VERDICTS = {
    "chain": (8, 3037000493, ("fiat-shamir",), 308),
    "det-dense-pword": (38, 3037000493, ("fiat-shamir",), 376),
    "det-sparse-p10007": (78, 10007, ("fiat-shamir",), 476),
    "det-sparse-p29": (94, 536870909, ("fiat-shamir",), 620),
    "det-sparse-pbig": (62, 3037000507, ("fiat-shamir",), 380),
    "intdet": (
        2993602109291702187,
        46500572342941654504200624967350866,
        ("fiat-shamir",),
        176,
    ),
    "inverse": (4, 3037000507, ("fiat-shamir",), 104),
    "matmul-geometric": (5, 10007, ("fiat-shamir",), 221),
    "matmul-zero-one": (1, 256, ("fiat-shamir",), 1728),
    "minpoly": (38, 3037000507, ("fiat-shamir",), 214),
    "nonsingular": (1, 10007, ("fiat-shamir",), 72),
    "polydet": (16, 3037000507, ("fiat-shamir",), 80),
    "rank": (23, 3037000493, ("fiat-shamir", "butterfly-preconditioner"), 448),
    "rank-upper": (16, 10007, ("fiat-shamir", "butterfly-preconditioner"), 224),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_verdict(name):
    numerator, denominator, heuristics, ops = VERDICTS[name]
    verdict = CASES[name]()
    assert verdict.accepted, verdict.reason
    assert verdict.error_bound == Fraction(numerator, denominator)
    assert verdict.heuristics == heuristics
    assert verdict.verifier_ops == ops
