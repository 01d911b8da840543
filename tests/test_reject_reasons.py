"""Every reject reason the certificates can give, each pinned by one row.

A row either runs a cheating prover (an honest prover whose chosen
messages are rewritten before they are sent, or a false claim) against
the public verifier, or tampers with an honest hash-compiled transcript,
and asserts the exact ``verdict.reason``.  Cheating provers run both
hash-compiled and live, and reject the same way in both, the channel's
own checks included; tampered transcripts exist only on replay.
"""

import ast
import dataclasses
import re
from fractions import Fraction
from pathlib import Path

import pytest

import vlac
from vlac.certs_dense import (
    PROTOCOL_CHAIN,
    PROTOCOL_INVERSE,
    PROTOCOL_MATMUL,
    Literal,
    MatMulClaim,
    Ref,
    _chain_parts,
    _inverse_parts,
    _matmul_parts,
    chain_certify,
    chain_verify,
    inverse_certify,
    inverse_verify,
    matmul_certify,
    matmul_verify,
)
from vlac.certs_sparse import (
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
    minpoly_verify,
    nonsingular_certify,
    nonsingular_verify,
    rank_certify,
    rank_upper_certify,
    rank_upper_verify,
    rank_verify,
)
from vlac.ff import Poly, SampleSet, field_new, full_sample_set, poly_xgcd
from vlac.la import DenseMatrix
from vlac.lift import (
    DEFAULT_PRIME_BITS,
    PROTOCOL_INTDET,
    PROTOCOL_POLYDET,
    IntMatrix,
    PolyMatrix,
    _intdet_parts,
    _polydet_parts,
    hadamard_bound,
    intdet_certify,
    intdet_verify,
    polydet_certify,
    polydet_verify,
)
from vlac.proto import (
    KIND_EMPTY,
    KIND_POLY,
    KIND_VEC,
    MODE_INTERACTIVE,
    TAG_COMMIT,
    TAG_RESPONSE,
    FiatShamirSource,
    InteractiveSource,
    Verdict,
    fs_prove,
    run_session,
    verify_recorded,
)

F = field_new(10007)
N = 3
A = DenseMatrix(F, [[2, 7, 1], [5, 3, 8], [4, 6, 9]])  # det -115
RANK2 = DenseMatrix(F, [[1, 2, 3], [2, 4, 6], [5, 1, 7]])
U, V = [1, 2, 3], [4, 5, 6]
WRONG_SQUARE = DenseMatrix(F, (A.a @ A.a + 1) % F.p)  # claimed A·A, every entry off by one
M_INT = IntMatrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]])  # det 18, far below its bound
X = Poly.x(F)
M_POLY = PolyMatrix(F, [[X, Poly.one(F)], [Poly.constant(F, 2), X * X]])

# prover messages counted from 0, in the order each prover sends them
DET_GEN = 3  # scale, u, v, then the generator
INT_FIRST = 1  # the integer and polynomial lifts send their claim first


# -- cheating provers -----------------------------------------------------------


class _Edited:
    """Prover channel that rewrites chosen prover messages before they are
    sent (and, under Fiat-Shamir, absorbed)."""

    def __init__(self, ch, edits: dict):
        self._ch = ch
        self._edits = edits
        self._sent = 0

    def send(self, tag, kind, value=None):
        edit = self._edits.get(self._sent)
        self._sent += 1
        if edit is not None:
            tag, kind, value = edit(tag, kind, value)
        self._ch.send(tag, kind, value)

    def __getattr__(self, name):
        return getattr(self._ch, name)


def edited(prover, edits: dict):
    return lambda ch: prover(_Edited(ch, edits))


def _coeffs(value) -> list:
    return list(value.coeffs if hasattr(value, "coeffs") else value)


def entries(fn):
    """Edit a vector or polynomial message through its entry list."""
    return lambda tag, kind, value: (tag, kind, fn(_coeffs(value)))


def bump(xs: list) -> list:
    """Add one to the first entry (the constant term of a polynomial)."""
    xs = (xs or [0])[:]
    xs[0] = (xs[0] + 1) % F.p
    return xs


def shorten(xs: list) -> list:
    return xs[:-1]


def monomial(degree: int):
    return entries(lambda _: [0] * degree + [1])


def empty(tag, kind, value):
    return tag, KIND_EMPTY, None


def spotcheck_edits(gen_at: int) -> dict:
    """Commit numerator + 1 with a Bezout pair that fits it: the degree and
    Bezout checks pass, and the spot check at the shift then fails."""
    held = {}

    def keep_gen(tag, kind, value):
        held["gen"] = Poly(F, _coeffs(value))
        return tag, kind, value

    def bump_num(tag, kind, value):
        num = Poly(F, _coeffs(value)) + Poly.one(F)
        _, held["phi"], held["psi"] = poly_xgcd(held["gen"], num)
        return tag, kind, num

    return {
        gen_at: keep_gen,
        gen_at + 1: bump_num,
        gen_at + 2: lambda tag, kind, _: (tag, kind, held["phi"]),
        gen_at + 3: lambda tag, kind, _: (tag, kind, held["psi"]),
    }


def _singular_shift_prover(ch):
    """Commit the honest package, then pass on every shifted system."""
    s = full_sample_set(F)
    _, parts, _ = _instance(PROTOCOL_MINPOLY)
    t = fs_prove(PROTOCOL_MINPOLY, parts[0], parts[1], parts[2])
    for m in t.messages[:4]:
        ch.send(m.tag, m.kind, m.value)
    ch.challenge_scalar("minpoly.r0", s)
    for attempt in range(SHIFT_DRAWS):
        ch.challenge_scalar(f"minpoly.r1.{attempt}", s)
        ch.send(TAG_RESPONSE, KIND_EMPTY)


def _instance(protocol_id: str):
    """(protocol id, parts, public verify on a transcript) of the honest
    instance each cheating row edits."""
    if protocol_id == PROTOCOL_NONSINGULAR:
        return protocol_id, _nonsingular_parts(A, None, None), lambda t: nonsingular_verify(A, t)
    if protocol_id == PROTOCOL_RANK_UPPER:
        return protocol_id, _rank_upper_parts(RANK2, 2, None, None), lambda t: rank_upper_verify(RANK2, 2, t)
    if protocol_id == PROTOCOL_RANK:
        return protocol_id, _rank_parts(RANK2, 2, None, None), lambda t: rank_verify(RANK2, 2, t)
    if protocol_id == PROTOCOL_MINPOLY:
        return protocol_id, _minpoly_parts(A, U, V, None, None), lambda t: minpoly_verify(A, U, V, t)
    if protocol_id == PROTOCOL_DET:
        return protocol_id, _det_parts(A, None, None, None), lambda t: det_verify(A, t)
    if protocol_id == PROTOCOL_INTDET:
        return (protocol_id, _intdet_parts(M_INT, DEFAULT_PRIME_BITS, None),
                lambda t: intdet_verify(M_INT, t))
    if protocol_id == PROTOCOL_POLYDET:
        return protocol_id, _polydet_parts(M_POLY, None, None), lambda t: polydet_verify(M_POLY, t)
    raise KeyError(protocol_id)


def _false_claim(protocol_id: str):
    """(protocol id, parts, public verify) of an instance whose claim is
    false, or whose honest prover must give up."""
    if protocol_id == PROTOCOL_MATMUL:
        c = WRONG_SQUARE
        return protocol_id, _matmul_parts(A, A, c, None, "geometric", 1), lambda t: matmul_verify(A, A, c, t)
    if protocol_id == PROTOCOL_CHAIN:
        c = DenseMatrix(F, A.a @ A.a % F.p)
        wrong = DenseMatrix(F, (c.a @ A.a + 1) % F.p)
        claims = [MatMulClaim(Literal(A), Literal(A), c), MatMulClaim(Ref(0), Literal(A), wrong)]
        return protocol_id, _chain_parts(claims, None), lambda t: chain_verify(claims, t)
    if protocol_id == PROTOCOL_INVERSE:
        w = DenseMatrix(F, (A.a + 1) % F.p)
        return protocol_id, _inverse_parts(A, w, None), lambda t: inverse_verify(A, w, t)
    if protocol_id == PROTOCOL_NONSINGULAR:
        return protocol_id, _nonsingular_parts(RANK2, None, None), lambda t: nonsingular_verify(RANK2, t)
    if protocol_id == PROTOCOL_RANK_UPPER:
        return protocol_id, _rank_upper_parts(A, 1, None, None), lambda t: rank_upper_verify(A, 1, t)
    if protocol_id == PROTOCOL_RANK:
        return protocol_id, _rank_parts(RANK2, 3, None, None), lambda t: rank_verify(RANK2, 3, t)
    raise KeyError(protocol_id)


def row(reason: str, slug: str, how):
    return pytest.param(reason, how, id=f"{reason}-{slug}")


SCALE_ZERO = entries(lambda xs: [0] + xs[1:])

# how to cheat is a protocol id alone, for the false claim of _false_claim;
# (protocol id, {message index: edit}) for the honest instance of
# _instance; or a whole prover for the minpoly instance
CHEATS = [
    row("CheckFailed:product", "matmul", PROTOCOL_MATMUL),
    row("CheckFailed:chain.1", "chain", PROTOCOL_CHAIN),
    row("CheckFailed:inverse", "inverse", PROTOCOL_INVERSE),
    row("ProverFailed", "nonsingular", PROTOCOL_NONSINGULAR),
    row("ProverFailed", "rank-upper", PROTOCOL_RANK_UPPER),
    row("ProverFailed", "rank-lower", PROTOCOL_RANK),
    row("ProtocolViolation:unexpected-message", "nonsingular",
        (PROTOCOL_NONSINGULAR, {0: lambda tag, kind, value: (TAG_COMMIT, kind, value)})),
    row("Malformed:scalar-out-of-range", "nonsingular",
        (PROTOCOL_NONSINGULAR, {0: entries(lambda xs: [F.p] + xs[1:])})),
    row("CheckFailed:solve", "nonsingular", (PROTOCOL_NONSINGULAR, {0: entries(bump)})),
    row("CheckFailed:solve", "rank-lower", (PROTOCOL_RANK, {2: entries(bump)})),
    row("Malformed:vector-length", "nonsingular", (PROTOCOL_NONSINGULAR, {0: entries(shorten)})),
    row("Malformed:vector-length", "rank-upper", (PROTOCOL_RANK_UPPER, {0: entries(shorten)})),
    row("Malformed:vector-length", "rank-theta", (PROTOCOL_RANK, {0: entries(shorten)})),
    row("Malformed:vector-length", "minpoly-shift", (PROTOCOL_MINPOLY, {4: entries(shorten)})),
    row("Malformed:vector-length", "det-scale", (PROTOCOL_DET, {0: entries(shorten)})),
    row("Malformed:vector-length", "det-projection", (PROTOCOL_DET, {1: entries(shorten)})),
    row("ZeroWitness", "rank-upper", (PROTOCOL_RANK_UPPER, {0: entries(lambda xs: [0] * len(xs))})),
    row("ZeroWitness", "rank", (PROTOCOL_RANK, {3: entries(lambda xs: [0] * len(xs))})),
    row("CheckFailed:kernel", "rank-upper", (PROTOCOL_RANK_UPPER, {0: entries(bump)})),
    row("Malformed:zero-theta", "rank", (PROTOCOL_RANK, {1: SCALE_ZERO})),
    row("DegreeViolation", "zero-generator", (PROTOCOL_MINPOLY, {0: entries(lambda xs: [])})),
    row("DegreeViolation", "generator-not-monic",
        (PROTOCOL_MINPOLY, {0: entries(lambda xs: [2 * x % F.p for x in xs])})),
    row("DegreeViolation", "generator-above-n", (PROTOCOL_MINPOLY, {0: monomial(N + 1)})),
    row("DegreeViolation", "numerator", (PROTOCOL_MINPOLY, {1: monomial(N)})),
    row("DegreeViolation", "phi", (PROTOCOL_MINPOLY, {2: monomial(N)})),
    row("DegreeViolation", "psi", (PROTOCOL_MINPOLY, {3: monomial(N)})),
    row("DegreeDeficient", "det-gives-up", (PROTOCOL_DET, {0: empty})),
    row("DegreeDeficient", "det-generator", (PROTOCOL_DET, {DET_GEN: monomial(1)})),
    row("BezoutFail", "minpoly", (PROTOCOL_MINPOLY, {2: entries(bump)})),
    row("BezoutFail", "det", (PROTOCOL_DET, {DET_GEN + 2: entries(bump)})),
    row("CheckFailed:resolvent", "minpoly", (PROTOCOL_MINPOLY, {4: entries(bump)})),
    row("CheckFailed:resolvent", "det", (PROTOCOL_DET, {DET_GEN + 4: entries(bump)})),
    row("CheckFailed:spotcheck", "minpoly", (PROTOCOL_MINPOLY, spotcheck_edits(0))),
    row("CheckFailed:spotcheck", "det", (PROTOCOL_DET, spotcheck_edits(DET_GEN))),
    row("SingularShift", "minpoly", _singular_shift_prover),
    row("CheckFailed:scaling", "det", (PROTOCOL_DET, {0: SCALE_ZERO})),
    row("CheckFailed:scaling", "intdet", (PROTOCOL_INTDET, {INT_FIRST: SCALE_ZERO})),
    row("CheckFailed:scaling", "polydet", (PROTOCOL_POLYDET, {INT_FIRST: SCALE_ZERO})),
    row("CommitmentOutOfBounds", "above",
        (PROTOCOL_INTDET, {0: lambda tag, kind, _: (tag, kind, hadamard_bound(M_INT) + 1)})),
    row("CommitmentOutOfBounds", "below",
        (PROTOCOL_INTDET, {0: lambda tag, kind, _: (tag, kind, -hadamard_bound(M_INT) - 1)})),
    row("CheckFailed:lift", "intdet",
        (PROTOCOL_INTDET, {0: lambda tag, kind, value: (tag, kind, value + 1)})),
    row("CheckFailed:lift", "polydet", (PROTOCOL_POLYDET, {0: entries(bump)})),
    row("DegreeOutOfBounds", "polydet", (PROTOCOL_POLYDET, {0: monomial(2 * 2 + 1)})),
]


def _cheat(how):
    """(protocol id, parts, cheating prover, public verify) of a row."""
    if callable(how):
        protocol_id, parts, verify = _instance(PROTOCOL_MINPOLY)
        return protocol_id, parts, how, verify
    if isinstance(how, str):
        protocol_id, parts, verify = _false_claim(how)
        return protocol_id, parts, parts[2], verify
    protocol_id, parts, verify = _instance(how[0])
    return protocol_id, parts, edited(parts[2], how[1]), verify


def _verdict(out) -> Verdict:
    return out[0] if isinstance(out, tuple) else out


@pytest.mark.parametrize("reason, how", CHEATS)
def test_cheating_prover_replayed(reason, how):
    protocol_id, parts, prover, verify = _cheat(how)
    t = fs_prove(protocol_id, parts[0], parts[1], prover)
    verdict = _verdict(verify(t))
    assert not verdict.accepted
    assert verdict.reason == reason


@pytest.mark.parametrize("reason, how", CHEATS)
def test_cheating_prover_live(reason, how):
    protocol_id, parts, prover, _ = _cheat(how)
    params, digest, _, verifier = parts
    verdict, _, _ = run_session(
        protocol_id, params, digest, prover, verifier, InteractiveSource(3), timeout=10
    )
    assert not verdict.accepted
    assert verdict.reason == reason


# -- tampered transcripts --------------------------------------------------------


def _honest_nonsingular():
    # messages: the right-hand side challenge, then the prover's solution
    return nonsingular_certify(A, FiatShamirSource()).transcript


def _with_messages(t, edit):
    msgs = list(t.messages)
    edit(msgs)
    return dataclasses.replace(t, messages=msgs)


def _set(i, **change):
    def edit(msgs):
        msgs[i] = dataclasses.replace(msgs[i], **change)
    return edit


TAMPERS = [
    ("ModeMismatch", lambda t: nonsingular_verify(A, dataclasses.replace(t, mode=MODE_INTERACTIVE))),
    ("ProtocolViolation:protocol-id",
     lambda t: nonsingular_verify(A, dataclasses.replace(t, protocol_id=PROTOCOL_DET))),
    ("InstanceDigestMismatch", lambda t: nonsingular_verify(RANK2, t)),
    ("ParamsMismatch", lambda t: nonsingular_verify(A, t, s=SampleSet(F, 100))),
    ("ProtocolViolation:transcript-truncated",
     lambda t: nonsingular_verify(A, _with_messages(t, lambda msgs: msgs.pop()))),
    ("ProtocolViolation:unexpected-message",
     lambda t: nonsingular_verify(A, _with_messages(t, _set(1, tag=TAG_COMMIT)))),
    ("Malformed:scalar-out-of-range",
     lambda t: nonsingular_verify(A, _with_messages(t, _set(1, value=[F.p] + t.messages[1].value[1:])))),
    ("ProtocolViolation:challenge-slot",
     lambda t: nonsingular_verify(A, _with_messages(t, _set(0, kind=KIND_EMPTY, value=None)))),
    ("ChallengeMismatch",
     lambda t: nonsingular_verify(A, _with_messages(t, _set(0, value=bump(t.messages[0].value))))),
    ("ProtocolViolation:trailing-messages",
     lambda t: nonsingular_verify(A, _with_messages(t, lambda msgs: msgs.append(msgs[-1])))),
]


@pytest.mark.parametrize("reason, verify", TAMPERS, ids=[r for r, _ in TAMPERS])
def test_tampered_transcript(reason, verify):
    t = _honest_nonsingular()
    assert nonsingular_verify(A, t).accepted
    verdict = verify(t)
    assert not verdict.accepted
    assert verdict.reason == reason


def test_honest_instances_accept():
    """The rows above reject because of their edits: unedited, every
    instance they start from is accepted."""
    for protocol_id in (PROTOCOL_NONSINGULAR, PROTOCOL_RANK_UPPER, PROTOCOL_RANK,
                        PROTOCOL_MINPOLY, PROTOCOL_DET, PROTOCOL_INTDET, PROTOCOL_POLYDET):
        _, parts, verify = _instance(protocol_id)
        t = fs_prove(protocol_id, parts[0], parts[1], parts[2])
        assert _verdict(verify(t)).accepted, protocol_id


# -- range edges at the wire -----------------------------------------------------


P_WORD = 3037000493  # largest prime whose products (p-1)^2 fit int64
P_BIG = 3037000507  # first prime past it: object dtype
PROTOCOL_EDGE = "vlac.edge.v1"

# an entry past the field, and the reason; 2^63 is the entry that a cast
# to int64 would turn negative
EDGES = [
    ("p-1", lambda p: p - 1, None),
    ("p", lambda p: p, "Malformed:scalar-out-of-range"),
    ("2^63", lambda p: 2**63, "Malformed:scalar-out-of-range"),
    ("2^64-1", lambda p: 2**64 - 1, "Malformed:scalar-out-of-range"),
]


def _edge_parts(field, kind, value):
    """(params, digest, prover, verifier) of a one-message protocol: the
    prover sends value as a vector or a polynomial, and the verifier
    accepts whatever its channel lets through, returning it."""

    def prover(ch):
        ch.send(TAG_COMMIT, kind, value)

    def verifier(ch):
        _, got = ch.recv(TAG_COMMIT, (kind,), field, count=len(value))
        return Verdict.accept(Fraction(0)), got

    return b"", bytes(32), prover, verifier


@pytest.mark.parametrize("live", [False, True], ids=["replayed", "live"])
@pytest.mark.parametrize("kind", [KIND_VEC, KIND_POLY], ids=["vec", "poly"])
@pytest.mark.parametrize("p", [P_WORD, P_BIG], ids=["int64", "object"])
@pytest.mark.parametrize("entry, reason", [(e, r) for _, e, r in EDGES],
                         ids=[name for name, _, _ in EDGES])
def test_range_edges_at_the_wire(entry, reason, p, kind, live):
    field = field_new(p)
    value = [1, entry(p)]
    params, digest, prover, verifier = _edge_parts(field, kind, value)
    if live:
        verdict, got, _ = run_session(PROTOCOL_EDGE, params, digest, prover, verifier,
                                      InteractiveSource(1), timeout=10)
    else:
        t = fs_prove(PROTOCOL_EDGE, params, digest, prover)
        verdict, got = verify_recorded(t, PROTOCOL_EDGE, digest, params, verifier)
    if reason is not None:
        assert not verdict.accepted
        assert verdict.reason == reason
        return
    assert verdict.accepted
    assert got.dtype == field.dtype
    assert got.tolist() == value
    if field.dtype is object:
        assert all(type(x) is int for x in got)  # Python ints, not numpy scalars


# -- the rows cover every reason -------------------------------------------------


REASON = re.compile(r"^[A-Z][A-Za-z]+(:[a-z][a-z.-]*)?$")
MODULES = ("proto", "certs_dense", "certs_sparse", "lift")


def _source_reasons() -> set:
    """Reason-shaped strings that the verifier modules pass to a call (a
    verdict, an exception, a shared check) or return; an f-string
    contributes its constant prefix."""
    found = set()
    for name in MODULES:
        tree = ast.parse(Path(vlac.__file__).with_name(f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                cands = node.args
            elif isinstance(node, ast.Return) and node.value is not None:
                value = node.value
                cands = value.elts[:1] if isinstance(value, ast.Tuple) else [value]
            else:
                continue
            for cand in cands:
                if isinstance(cand, ast.JoinedStr):
                    cand = cand.values[0]
                if isinstance(cand, ast.Constant) and isinstance(cand.value, str):
                    if REASON.match(cand.value):
                        found.add(cand.value)
    return found


def test_every_reason_has_a_row():
    pinned = {p.values[0] for p in CHEATS} | {r for r, _ in TAMPERS}
    pinned = {re.sub(r"\d+$", "", r) for r in pinned}
    assert _source_reasons() == pinned


# -- public entry points return verdicts -------------------------------------------


DIAG45 = DenseMatrix(F, [[4, 0], [0, 5]])
ZERO = DenseMatrix(F, [[0] * N for _ in range(N)])
PZERO = Poly.zero(F)

# a public certify call on an instance it must reject, and the reason
CERTIFY_REJECTS = [
    (PROTOCOL_MATMUL, "CheckFailed:product",
     lambda src: matmul_certify(A, A, WRONG_SQUARE, src)),
    (PROTOCOL_CHAIN, "CheckFailed:chain.0",
     lambda src: chain_certify([MatMulClaim(Literal(A), Literal(A), A)], src)),
    (PROTOCOL_INVERSE, "CheckFailed:inverse", lambda src: inverse_certify(A, A, src)),
    (PROTOCOL_NONSINGULAR, "ProverFailed", lambda src: nonsingular_certify(RANK2, src)),
    (PROTOCOL_RANK_UPPER, "ProverFailed", lambda src: rank_upper_certify(A, 1, src)),
    (PROTOCOL_RANK, "ProverFailed", lambda src: rank_certify(RANK2, 3, src)),
    # every shift in {4, 5} is an eigenvalue
    (PROTOCOL_MINPOLY, "SingularShift",
     lambda src: minpoly_certify(DIAG45, [1, 1], [1, 1], src, s=SampleSet(F, 2, offset=4))),
    (PROTOCOL_DET, "DegreeDeficient", lambda src: det_certify(ZERO, src)),
    (PROTOCOL_INTDET, "DegreeDeficient",
     lambda src: intdet_certify(IntMatrix([[0, 0], [0, 0]]), src)),
    (PROTOCOL_POLYDET, "DegreeDeficient",
     lambda src: polydet_certify(PolyMatrix(F, [[PZERO, PZERO], [PZERO, PZERO]]), src)),
]


@pytest.mark.parametrize("source", ["interactive", "fiat-shamir"])
@pytest.mark.parametrize("protocol_id, reason, run", CERTIFY_REJECTS,
                         ids=[p for p, _, _ in CERTIFY_REJECTS])
def test_certify_returns_rejecting_verdict(protocol_id, reason, run, source):
    """A rejecting run comes back from the public call as a verdict, with
    nothing raised, in both modes."""
    src = InteractiveSource(1) if source == "interactive" else FiatShamirSource()
    verdict = _verdict(run(src))
    assert isinstance(verdict, Verdict)
    assert not verdict.accepted
    assert verdict.reason == reason
    assert verdict.transcript.protocol_id == protocol_id
