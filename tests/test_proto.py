"""Wire format, challenge sources, transcripts, and session plumbing."""

import dataclasses
import hashlib
import socket
import struct
import time
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from vlac.errors import (
    Malformed,
    ProtocolViolation,
    Timeout,
    TransportError,
    VersionUnsupported,
    VlacError,
)
from vlac.certs_dense import dense_bytes
from vlac.certs_sparse import det_certify, det_verify
from vlac.ff import SampleSet, field_new, full_sample_set
from vlac.la import DenseMatrix
from vlac.proto import (
    KIND_BIGINT,
    KIND_EMPTY,
    KIND_POLY,
    KIND_SCALAR,
    KIND_UINT,
    KIND_VEC,
    HELLO_OK,
    MAX_HELLO,
    MODE_FIAT_SHAMIR,
    MODE_INTERACTIVE,
    ROLE_PROVER,
    ROLE_VERIFIER,
    TAG_CHALLENGE,
    TAG_COMMIT,
    TAG_RESPONSE,
    _REC_MESSAGE,
    FiatShamirSource,
    InteractiveSource,
    Message,
    Reject,
    SocketTransport,
    Transcript,
    Verdict,
    accept_hello,
    decode_message,
    decode_payload,
    draw_prime,
    encode_payload,
    fs_prove,
    hello_frame,
    instance_digest,
    _parse_frame,
    matrix_chunks,
    offer_hello,
    run_session,
    serve_session,
    transcript_deserialize,
    transcript_serialize,
    verify_recorded,
)

from test_golden import CASES as GOLDEN_CASES

DIGEST = bytes(range(32))

ALL_KINDS = [
    (KIND_EMPTY, None),
    (KIND_SCALAR, 17),
    (KIND_UINT, 1 << 40),
    (KIND_VEC, [0, 1, 2**63, 5]),
    (KIND_POLY, [3, 0, 1]),
    (KIND_BIGINT, -(10**30)),
    (KIND_BIGINT, 0),
]


# -- payload codec --------------------------------------------------------------


def test_payload_round_trip_all_kinds():
    for kind, value in ALL_KINDS:
        blob = encode_payload(kind, value)
        back = decode_payload(kind, blob)
        assert back == value
        assert encode_payload(kind, back) == blob


def test_payload_rejects_trailing_bytes():
    blob = encode_payload(KIND_SCALAR, 5)
    with pytest.raises(Malformed):
        decode_payload(KIND_SCALAR, blob + b"\x00")


def test_payload_rejects_truncation():
    for kind, value in ALL_KINDS:
        if kind == KIND_EMPTY:
            continue
        blob = encode_payload(kind, value)
        for cut in range(len(blob)):
            with pytest.raises(Malformed):
                decode_payload(kind, blob[:cut])


def test_payload_canonical_forms_rejected():
    # trailing zero coefficient
    with pytest.raises(Malformed):
        decode_payload(KIND_POLY, encode_payload(KIND_VEC, [1, 0])[:])
    # negative zero big integer
    with pytest.raises(Malformed):
        decode_payload(KIND_BIGINT, b"\x01" + b"\x00\x00\x00\x00")
    # big integer with padding byte
    with pytest.raises(Malformed):
        decode_payload(KIND_BIGINT, b"\x00" + (2).to_bytes(4, "little") + b"\x07\x00")


def test_dense_matrix_encoding(gf101):
    m = DenseMatrix(gf101, [[1, 2], [3, 4]])
    assert dense_bytes(m) == b"D" + struct.pack("<II4Q", 2, 2, 1, 2, 3, 4)


def test_matrix_encoding_is_the_same_for_every_array_layout():
    rows = [[5, 0, 7], [2**62, 1, 9]]
    want = (b"D" + (2).to_bytes(4, "little") + (3).to_bytes(4, "little")
            + b"".join(v.to_bytes(8, "little") for row in rows for v in row))
    a = np.array(rows, dtype=np.int64)
    for value in (a, a.astype(object), np.asfortranarray(a), a.T.copy().T):
        assert bytes(matrix_chunks(value, b"D")) == want
    # an int64 entry reads as its two's-complement u64, as a cast gives
    assert bytes(matrix_chunks(np.array([[-1]])))[8:] == b"\xff" * 8
    assert bytes(matrix_chunks(np.zeros((0, 4), dtype=np.int64))) == b"\0\0\0\0\x04\0\0\0"


def test_message_round_trip():
    for kind, value in ALL_KINDS:
        m = Message(ROLE_PROVER, TAG_COMMIT, kind, value)
        assert decode_message(m.encode()) == m


def test_message_rejects_bad_header():
    good = Message(ROLE_PROVER, TAG_COMMIT, KIND_SCALAR, 1).encode()
    with pytest.raises(Malformed):
        decode_message(good[:2])
    with pytest.raises(Malformed):
        decode_message(bytes([9]) + good[1:])
    with pytest.raises(Malformed):
        decode_message(good[:1] + bytes([9]) + good[2:])
    with pytest.raises(Malformed):
        decode_message(good[:2] + bytes([99]) + good[3:])


# Message records that carry a code no protocol sends: kinds 5 and 7 and
# tag 3 are unassigned.
UNASSIGNED_CODES = [
    pytest.param(bytes([ROLE_PROVER, TAG_COMMIT, 5]) + struct.pack("<IIQ", 1, 1, 1), id="kind5"),
    pytest.param(bytes([ROLE_PROVER, TAG_COMMIT, 7]) + b"\x01\x02", id="kind7"),
    pytest.param(bytes([ROLE_PROVER, 3, KIND_SCALAR]) + struct.pack("<Q", 1), id="tag3"),
]


def with_first_message(t: Transcript, raw: bytes) -> bytes:
    """``t`` serialized with the record of its first message holding ``raw``."""
    head = transcript_serialize(
        Transcript(t.protocol_id, t.mode, t.instance_digest, t.params, []))
    rest = transcript_serialize(
        Transcript(t.protocol_id, t.mode, t.instance_digest, t.params, t.messages[1:]))
    return head + bytes([_REC_MESSAGE]) + struct.pack("<I", len(raw)) + raw + rest[len(head):]


@pytest.mark.parametrize("raw", UNASSIGNED_CODES)
def test_unassigned_codes_are_malformed(raw):
    with pytest.raises(Malformed):
        decode_message(raw)
    t = sample_transcript()
    assert transcript_deserialize(with_first_message(t, t.messages[0].encode())) == t
    with pytest.raises(Malformed):
        transcript_deserialize(with_first_message(t, raw))


# -- transcripts ----------------------------------------------------------------


def sample_transcript() -> Transcript:
    msgs = [Message(ROLE_PROVER, TAG_COMMIT, kind, value) for kind, value in ALL_KINDS]
    msgs.append(Message(ROLE_VERIFIER, TAG_CHALLENGE, KIND_SCALAR, 42))
    msgs.append(Message(ROLE_PROVER, TAG_RESPONSE, KIND_VEC, [7, 8]))
    return Transcript("vlac.sample.v1", MODE_FIAT_SHAMIR, DIGEST, b"params", msgs)


def test_transcript_round_trip():
    t = sample_transcript()
    blob = transcript_serialize(t)
    back = transcript_deserialize(blob)
    assert back == t
    assert transcript_serialize(back) == blob


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_fs_prover_records_what_its_bytes_decode_to(name):
    """The hash-compiled prover's in-memory transcript, which ``certify``
    replays, is what its serialization reads back as: every protocol id."""
    t = GOLDEN_CASES[name]().transcript
    assert transcript_deserialize(transcript_serialize(t)) == t


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_kept_bytes_are_what_the_value_encodes_to(name):
    """A decoded message encodes as the bytes it was read from, and those
    are the bytes its value encodes to."""
    blob = transcript_serialize(GOLDEN_CASES[name]().transcript)
    for m in transcript_deserialize(blob).messages:
        assert m.raw is not None
        assert m.encode() == Message(m.role, m.tag, m.kind, m.value).encode()


def test_a_replaced_message_encodes_its_new_value():
    m = decode_message(Message(ROLE_PROVER, TAG_RESPONSE, KIND_VEC, [7, 8]).encode())
    moved = dataclasses.replace(m, value=[7, 9])
    assert moved.raw is None
    assert moved.encode() == Message(ROLE_PROVER, TAG_RESPONSE, KIND_VEC, [7, 9]).encode()
    assert decode_message(moved.encode()) == moved
    with pytest.raises(TypeError):
        Message(ROLE_PROVER, TAG_RESPONSE, KIND_VEC, [7, 8], raw=m.raw)


def test_replay_reads_a_replaced_vector_not_its_old_bytes():
    """A transcript whose last response has one entry bumped through
    ``dataclasses.replace`` rejects as the bumped bytes would: the verifier
    reads the new value, not the bytes the old one was decoded from."""
    field = field_new(10007)
    a = DenseMatrix(field, [[2, 7, 1], [5, 3, 8], [4, 6, 9]])
    honest = det_certify(a, FiatShamirSource())[0].transcript
    t = transcript_deserialize(transcript_serialize(honest))
    assert det_verify(a, t)[0].accepted
    msgs = list(t.messages)
    m = msgs[-1]
    assert m.kind == KIND_VEC and m.raw is not None
    msgs[-1] = dataclasses.replace(m, value=[(m.value[0] + 1) % field.p] + m.value[1:])
    forged = Transcript(t.protocol_id, t.mode, t.instance_digest, t.params, msgs)
    verdict, _ = det_verify(a, forged)
    assert verdict.reason == "CheckFailed:resolvent"
    verdict, _ = det_verify(a, transcript_deserialize(transcript_serialize(forged)))
    assert verdict.reason == "CheckFailed:resolvent"


def test_transcript_rejects_bad_magic():
    blob = transcript_serialize(sample_transcript())
    with pytest.raises(Malformed):
        transcript_deserialize(b"XLAC" + blob[4:])


def test_transcript_rejects_future_version():
    blob = transcript_serialize(sample_transcript())
    with pytest.raises(VersionUnsupported):
        transcript_deserialize(blob[:4] + b"\xff\x7f" + blob[6:])


def test_transcript_rejects_truncation():
    # cuts inside a record raise; a cut at a message-record boundary can
    # only parse as a transcript with strictly fewer messages, which the
    # replay layer then rejects as truncated
    t = sample_transcript()
    blob = transcript_serialize(t)
    parsed_short = 0
    for cut in range(len(blob)):
        try:
            back = transcript_deserialize(blob[:cut])
        except Malformed:
            continue
        parsed_short += 1
        assert len(back.messages) < len(t.messages)
        assert back.messages == t.messages[: len(back.messages)]
    assert parsed_short == len(t.messages)


def test_transcript_byte_flip_fuzz_exhaustive():
    """Any single corrupted byte is either rejected or changes the content."""
    t = sample_transcript()
    blob = transcript_serialize(t)
    for i in range(len(blob)):
        for delta in (0x01, 0x80, 0xFF):
            bad = bytearray(blob)
            bad[i] ^= delta
            try:
                back = transcript_deserialize(bytes(bad))
            except VlacError:
                continue
            assert back != t, f"byte {i} xor {delta:#x} was silently absorbed"


# -- instance digests -----------------------------------------------------------


def test_instance_digest_binds_everything():
    base = instance_digest("p.v1", (b"aa", b"b"))
    assert len(base) == 32
    assert instance_digest("p.v1", (b"aa", b"b")) == base
    assert instance_digest("p.v2", (b"aa", b"b")) != base
    assert instance_digest("p.v1", (b"b", b"aa")) != base
    assert instance_digest("p.v1", (b"a", b"ab")) != base  # length prefixed
    assert instance_digest("p.v1", (b"aab",)) != base


def _layouts():
    """The same kind of matrix held in different ways, each with its
    entries as the encoding reads them."""
    base = np.array([[5, 0, 7], [2**40, 1, 9]], dtype=np.int64)
    negative = np.array([[-1, 3], [-(2**63), 2**63 - 1]], dtype=np.int64)
    small, big = field_new(10007), field_new(3037000507)
    transposed = DenseMatrix.__new__(DenseMatrix)
    transposed.field, transposed.a = small, base.T % small.p
    assert transposed.a.flags.f_contiguous and not transposed.a.flags.c_contiguous
    return [
        pytest.param(DenseMatrix(small, base), base % small.p, id="c-ordered"),
        pytest.param(transposed, base.T % small.p, id="transposed"),
        pytest.param(base.T, base.T, id="transposed-array"),
        pytest.param(negative, negative, id="negative-int64"),
        pytest.param(DenseMatrix(big, base.astype(object)), base % big.p, id="object"),
        pytest.param(np.zeros((0, 3), dtype=np.int64), np.zeros((0, 3)), id="empty"),
    ]


@pytest.mark.parametrize("value, entries", _layouts())
def test_streamed_digest_equals_the_joined_encoding(value, entries):
    rows, cols = entries.shape
    joined = b"D" + struct.pack("<II", rows, cols) + b"".join(
        struct.pack("<Q", int(v) % 2**64) for v in entries.reshape(-1))
    part = matrix_chunks(value, b"D")
    assert len(part) == len(joined)
    assert bytes(part) == joined
    if isinstance(value, DenseMatrix):
        assert dense_bytes(value) == joined
    for parts in ((part,), (b"x", part, part)):
        plain = tuple(joined if p is part else p for p in parts)
        want = hashlib.sha256(b"vlac.instance.v1" + struct.pack("<I", 4) + b"p.v1")
        for p in plain:
            want.update(struct.pack("<I", len(p)) + p)
        assert instance_digest("p.v1", parts) == instance_digest("p.v1", plain)
        assert instance_digest("p.v1", parts) == want.digest()


# -- challenge sources ----------------------------------------------------------


def bound_fs(pid=b"x", params=b"y") -> FiatShamirSource:
    src = FiatShamirSource()
    src.begin(pid.decode() if isinstance(pid, bytes) else pid, params, DIGEST)
    return src


def test_fs_requires_binding():
    src = FiatShamirSource()
    with pytest.raises(ProtocolViolation):
        src.draw_uint("x", 10)
    src.begin("p", b"", DIGEST)
    with pytest.raises(ProtocolViolation):
        src.begin("p", b"", DIGEST)


def test_fs_deterministic_and_message_bound(gf101):
    s = full_sample_set(gf101)
    a, b = bound_fs(), bound_fs()
    assert [a.draw_scalar("r", s) for _ in range(8)] == [
        b.draw_scalar("r", s) for _ in range(8)
    ]
    c, d = bound_fs(), bound_fs()
    c.absorb(b"message-1")
    d.absorb(b"message-2")
    assert [c.draw_scalar("r", s) for _ in range(4)] != [
        d.draw_scalar("r", s) for _ in range(4)
    ]


def test_fs_draws_fold_into_state(gf101):
    s = full_sample_set(gf101)
    src = bound_fs()
    seen = [src.draw_scalar("r", s) for _ in range(50)]
    assert len(set(seen)) > 1  # same label, fresh state each draw


def test_fs_labels_separate_domains(gf10007):
    s = full_sample_set(gf10007)
    assert bound_fs().draw_scalar("left", s) != bound_fs().draw_scalar("right", s)


def test_fs_uniformity(gf101):
    src = bound_fs()
    s = full_sample_set(gf101)
    n = 10_000
    counts = [0] * 101
    for _ in range(n):
        counts[src.draw_scalar("u", s)] += 1
    expect = n / 101
    sigma = (n * (1 / 101) * (100 / 101)) ** 0.5
    assert all(abs(c - expect) <= 5 * sigma for c in counts)


def _reference_draw(state: bytes, label: str, bound: int) -> tuple[int, bytes]:
    """One draw as the hash chain defines it: the first u64 of
    SHA-256(state, "C", label, counter) below the largest multiple of bound,
    reduced mod bound, and the state that draw leaves."""
    tag = struct.pack("<I", len(label.encode())) + label.encode()
    threshold = (1 << 64) // bound * bound
    ctr = 0
    while True:
        block = hashlib.sha256(state + b"C" + tag + struct.pack("<I", ctr)).digest()
        for off in range(0, 32, 8):
            u = int.from_bytes(block[off : off + 8], "little")
            if u < threshold:
                val = u % bound
                return val, hashlib.sha256(state + b"D" + tag + struct.pack("<Q", val)).digest()
        ctr += 1


def test_fs_draws_match_the_chain_definition():
    src = bound_fs()
    state = src._state
    bounds = (1, 2, 3, 10007, 2**63 + 5, 2**64)
    for i in range(300):
        label = ("r", "minpoly.r0", "ü")[i % 3]
        bound = bounds[i % len(bounds)]
        want, state = _reference_draw(state, label, bound)
        assert src.draw_uint(label, bound) == want
        assert src._state == state


def _reference_vector(state: bytes, label: str, s: SampleSet, count: int, nonzero: bool):
    """A vector challenge as the chain defines it: entry i is drawn under
    label.i, and in a nonzero vector a zero is drawn again under the same
    label.  Returns the entries, the state they leave and the redraws."""
    out, redraws = [], 0
    for i in range(count):
        val, state = _reference_draw(state, f"{label}.{i}", s.size)
        while nonzero and s.offset + val == 0:
            redraws += 1
            val, state = _reference_draw(state, f"{label}.{i}", s.size)
        out.append(s.offset + val)
    return out, state, redraws


@pytest.mark.parametrize("size, offset", [(2, 0), (11, 3)])
@pytest.mark.parametrize("nonzero", [False, True])
def test_fs_vector_challenges_match_the_chain_definition(gf101, size, offset, nonzero):
    s = SampleSet(gf101, size, offset)
    src = FiatShamirSource()
    got = []

    def prover(ch):
        draw = ch.challenge_nonzero_vector if nonzero else ch.challenge_vector
        got.append(draw("v", s, 40))

    fs_prove("vlac.toy.v1", b"p", DIGEST, prover, src)
    start = bound_fs("vlac.toy.v1", b"p")._state
    want, state, redraws = _reference_vector(start, "v", s, 40, nonzero)
    assert got == [want]
    assert src._state == state
    if nonzero and offset == 0:
        assert redraws > 0  # the zeros were there to redraw


@pytest.mark.parametrize("seed", [0, 5, 12])
def test_seeded_interactive_challenges_follow_the_rng(gf101, seed):
    s, bits = SampleSet(gf101, 11, offset=3), SampleSet(gf101, 2)

    def walk(ch):
        return [
            ch.challenge_scalar("r", s),
            ch.challenge_vector("v", s, 6),
            ch.challenge_nonzero_vector("z", bits, 8),
            ch.challenge_vector("w", s, 3),
        ]

    got = []

    def verifier(ch):
        got.extend(walk(ch))
        return Verdict.accept(Fraction(0)), None

    source = InteractiveSource(seed)
    verdict, _, _ = run_session("vlac.toy.v1", b"p", DIGEST, walk, verifier, source)
    assert verdict.accepted
    rng = Random(seed)
    nonzero, zeros = [], 0
    scalar = 3 + rng.randrange(11)
    vector = [3 + rng.randrange(11) for _ in range(6)]
    for _ in range(8):
        v = rng.randrange(2)
        while v == 0:
            zeros += 1
            v = rng.randrange(2)
        nonzero.append(v)
    after = [3 + rng.randrange(11) for _ in range(3)]
    assert zeros > 0
    assert got == [scalar, vector, nonzero, after]


def test_interactive_source_seeded(gf101):
    s = full_sample_set(gf101)
    a, b = InteractiveSource(99), InteractiveSource(99)
    assert [a.draw_scalar("", s) for _ in range(10)] == [
        b.draw_scalar("", s) for _ in range(10)
    ]


def test_draw_prime_properties():
    src = bound_fs()
    for bits in (16, 20, 62):
        p = draw_prime(src, f"q{bits}", bits)
        assert 1 << (bits - 1) <= p < 1 << bits
        assert p % 2 == 1
        assert all(p % d for d in range(3, 1000, 2) if d * d <= p)
    with pytest.raises(ValueError):
        draw_prime(src, "q", 15)
    with pytest.raises(ValueError):
        draw_prime(src, "q", 63)
    assert draw_prime(bound_fs(), "q", 32) == draw_prime(bound_fs(), "q", 32)


# -- a toy protocol for session and replay tests ---------------------------------


def toy_parts(field, s, secret, cheat=False):
    pid = "vlac.toy.v1"
    params = b"toy-params"
    digest = instance_digest(pid, (secret.to_bytes(8, "little"),))

    def prover(ch):
        ch.send(TAG_COMMIT, KIND_SCALAR, secret)
        r = ch.challenge_scalar("toy.r", s)
        answer = secret * r % field.p
        ch.send(TAG_RESPONSE, KIND_VEC, [answer + (1 if cheat else 0)])

    def verifier(ch):
        _, claim = ch.recv(TAG_COMMIT, (KIND_SCALAR,), field)
        r = ch.challenge_scalar("toy.r", s)
        _, resp = ch.recv(TAG_RESPONSE, (KIND_VEC,), field)
        if resp != [claim * r % field.p]:
            raise Reject("CheckFailed:toy")
        return Verdict.accept(Fraction(1, len(s))), None

    return pid, params, digest, prover, verifier


def toy_transcript(gf101, secret=21, cheat=False) -> tuple:
    pid, params, digest, prover, verifier = toy_parts(
        gf101, full_sample_set(gf101), secret, cheat
    )
    t = fs_prove(pid, params, digest, prover)
    return pid, params, digest, verifier, t


def test_live_session_accepts(gf101):
    pid, params, digest, prover, verifier = toy_parts(
        gf101, full_sample_set(gf101), 21
    )
    verdict, _, transcript = run_session(
        pid, params, digest, prover, verifier, InteractiveSource(5)
    )
    assert verdict.accepted
    assert verdict.error_bound == Fraction(1, 101)
    assert transcript.mode == MODE_INTERACTIVE
    assert [m.tag for m in transcript.messages] == [
        TAG_COMMIT,
        TAG_CHALLENGE,
        TAG_RESPONSE,
    ]


def test_live_session_rejects_cheat_sometimes(gf101):
    # a wrong response survives only when the challenge hits a blind spot
    accepted = 0
    for seed in range(40):
        pid, params, digest, prover, verifier = toy_parts(
            gf101, full_sample_set(gf101), 21, cheat=True
        )
        verdict, _, _ = run_session(
            pid, params, digest, prover, verifier, InteractiveSource(seed)
        )
        accepted += verdict.accepted
    assert accepted == 0  # secret*r+1 == secret*r is never true


def test_session_wrong_tag_is_violation(gf101):
    s = full_sample_set(gf101)

    def prover(ch):
        ch.send(TAG_RESPONSE, KIND_SCALAR, 1)

    def verifier(ch):
        ch.recv(TAG_COMMIT, (KIND_SCALAR,), gf101)
        return Verdict.accept(Fraction(0)), None

    verdict, _, transcript = run_session(
        "vlac.toy.v1", b"", DIGEST, prover, verifier, InteractiveSource(1)
    )
    # a decodable but wrong prover message rejects as it does on replay
    assert not verdict.accepted
    assert verdict.reason == "ProtocolViolation:unexpected-message"
    assert verdict.transcript is transcript
    assert transcript.messages[-1] == Message(ROLE_PROVER, TAG_RESPONSE, KIND_SCALAR, 1)


def test_session_prover_crash_surfaces(gf101):
    def prover(ch):
        raise RuntimeError("prover exploded")

    def verifier(ch):
        ch.recv(TAG_COMMIT, (KIND_SCALAR,), gf101)
        return Verdict.accept(Fraction(0)), None

    with pytest.raises(ProtocolViolation, match="aborted"):
        run_session("vlac.toy.v1", b"", DIGEST, prover, verifier, InteractiveSource(1))


def test_session_silent_prover_ends_the_session_at_once(gf101):
    def prover(ch):
        return  # sends nothing, exits

    def verifier(ch):
        ch.recv(TAG_COMMIT, (KIND_SCALAR,), gf101)
        return Verdict.accept(Fraction(0)), None

    start = time.monotonic()
    with pytest.raises(TransportError, match="closed"):
        run_session(
            "vlac.toy.v1", b"", DIGEST, prover, verifier, InteractiveSource(1),
            timeout=5,
        )
    assert time.monotonic() - start < 2


def test_session_refuses_a_message_over_its_frame_limit(gf101):
    def prover(ch):
        ch.send(TAG_COMMIT, KIND_VEC, [1] * 10_000)

    def verifier(ch):
        ch.recv(TAG_COMMIT, (KIND_VEC,), gf101, count=4)
        return Verdict.accept(Fraction(0)), None

    with pytest.raises(TransportError, match=r"frame of \d+ bytes refused"):
        run_session("vlac.toy.v1", b"", DIGEST, prover, verifier, InteractiveSource(1))


def test_socket_transport_timeout():
    a, b = socket.socketpair()
    tr = SocketTransport(a, timeout=0.05)
    try:
        with pytest.raises(Timeout):
            tr.recv_frame()
    finally:
        tr.close()
        b.close()


def test_socket_transport_restores_its_timeout_after_a_deadline_read():
    a, b = socket.socketpair()
    tr = SocketTransport(a, timeout=30)
    try:
        b.sendall(struct.pack(">I", 2) + b"hi")
        assert tr.recv_frame(100, time.monotonic() + 5) == b"hi"
        assert a.gettimeout() == 30
        with pytest.raises(Timeout):
            tr.recv_frame(100, time.monotonic() + 0.05)
        assert a.gettimeout() == 30
    finally:
        tr.close()
        b.close()


def _hello_pair():
    a, b = socket.socketpair()
    return SocketTransport(a, timeout=10), SocketTransport(b, timeout=10)


@pytest.mark.parametrize("frame, reason", [
    (b"\x00" + hello_frame("vlac.toy.v1", b"", DIGEST)[1:], "expected a handshake frame"),
    (hello_frame("vlac.toy.v1", b"", DIGEST)[:-1], "unreadable handshake"),
    (hello_frame("vlac.toy.v1", b"", DIGEST) + b"x", "oversized handshake"),
])
def test_accept_hello_refuses_a_malformed_hello(frame, reason):
    client, server = _hello_pair()
    try:
        client.send_frame(frame)
        with pytest.raises(ProtocolViolation, match=f"^{reason}$"):
            accept_hello(server, "vlac.toy.v1", b"", DIGEST)
    finally:
        client.close()
        server.close()


@pytest.mark.parametrize("reply, error, text", [
    (HELLO_OK, None, None),
    (b"\x01instance or protocol mismatch", ProtocolViolation, "instance or protocol mismatch"),
    (b"\x02NO", TransportError, "unreadable handshake reply"),
    (b"", TransportError, "unreadable handshake reply"),
])
def test_offer_hello_reads_the_reply(reply, error, text):
    client, server = _hello_pair()
    try:
        server.send_frame(reply)
        if error is None:
            offer_hello(client, "vlac.toy.v1", b"", DIGEST)
        else:
            with pytest.raises(error, match=f"^{text}$"):
                offer_hello(client, "vlac.toy.v1", b"", DIGEST)
        assert server.recv_frame(MAX_HELLO) == hello_frame("vlac.toy.v1", b"", DIGEST)
    finally:
        client.close()
        server.close()


class FrameQueue:
    """A transport half that hands out the given frames and keeps what
    is sent to it."""

    def __init__(self, *frames: bytes):
        self.inbox = list(frames)
        self.sent = []

    def send_frame(self, data: bytes) -> None:
        self.sent.append(data)

    def recv_frame(self, limit: int) -> bytes:
        return self.inbox.pop(0)


# one verifier frame no honest draw could give, and the prover's call
# that waits for it; a 10-element sample set and a 16-bit prime
BAD_CHALLENGES = {
    "prover-role": (ROLE_PROVER, KIND_SCALAR, 3, lambda ch, s: ch.challenge_scalar("c", s)),
    "wrong-kind": (ROLE_VERIFIER, KIND_UINT, 3, lambda ch, s: ch.challenge_scalar("c", s)),
    "scalar-outside": (ROLE_VERIFIER, KIND_SCALAR, 10, lambda ch, s: ch.challenge_scalar("c", s)),
    "vector-short": (ROLE_VERIFIER, KIND_VEC, [1, 2, 3],
                     lambda ch, s: ch.challenge_vector("c", s, 4)),
    "vector-entry-outside": (ROLE_VERIFIER, KIND_VEC, [1, 2, 10, 3],
                             lambda ch, s: ch.challenge_vector("c", s, 4)),
    "nonzero-vector-zero": (ROLE_VERIFIER, KIND_VEC, [1, 0, 2, 3],
                            lambda ch, s: ch.challenge_nonzero_vector("c", s, 4)),
    "prime-composite": (ROLE_VERIFIER, KIND_UINT, 3 * 10923,  # 2^15 + 1
                        lambda ch, s: ch.challenge_prime("c", 16)),
    "prime-bit-short": (ROLE_VERIFIER, KIND_UINT, 32749,  # prime below 2^15
                        lambda ch, s: ch.challenge_prime("c", 16)),
}


@pytest.mark.parametrize("row", sorted(BAD_CHALLENGES))
def test_live_prover_refuses_a_challenge_no_draw_could_give(gf101, row):
    role, kind, value, wait = BAD_CHALLENGES[row]
    s = SampleSet(gf101, 10)
    tr = FrameQueue(b"\x00" + Message(role, TAG_CHALLENGE, kind, value).encode())
    with pytest.raises(ProtocolViolation):
        serve_session(tr, lambda ch: wait(ch, s))
    assert len(tr.sent) == 1
    with pytest.raises(ProtocolViolation, match="peer aborted"):
        _parse_frame(tr.sent[0])


# -- hash-compiled replay binding -------------------------------------------------


def test_replay_round_trip(gf101):
    pid, params, digest, verifier, t = toy_transcript(gf101)
    blob = transcript_serialize(t)
    verdict, _ = verify_recorded(
        transcript_deserialize(blob), pid, digest, params, verifier
    )
    assert verdict.accepted
    assert verdict.error_bound == Fraction(1, 101)


def test_replay_rejects_wrong_binding(gf101):
    pid, params, digest, verifier, t = toy_transcript(gf101)

    verdict, _ = verify_recorded(t, "vlac.other.v1", digest, params, verifier)
    assert not verdict.accepted and "protocol-id" in verdict.reason

    verdict, _ = verify_recorded(t, pid, bytes(32), params, verifier)
    assert not verdict.accepted and verdict.reason == "InstanceDigestMismatch"

    verdict, _ = verify_recorded(t, pid, digest, b"other", verifier)
    assert not verdict.accepted and verdict.reason == "ParamsMismatch"

    live = Transcript(pid, MODE_INTERACTIVE, digest, params, t.messages)
    verdict, _ = verify_recorded(live, pid, digest, params, verifier)
    assert not verdict.accepted and verdict.reason == "ModeMismatch"


def test_replay_rejects_substituted_challenge(gf101):
    pid, params, digest, verifier, t = toy_transcript(gf101)
    msgs = list(t.messages)
    ch = msgs[1]
    assert ch.tag == TAG_CHALLENGE
    msgs[1] = Message(ch.role, ch.tag, ch.kind, (ch.value + 1) % 101)
    forged = Transcript(pid, t.mode, digest, params, msgs)
    verdict, _ = verify_recorded(forged, pid, digest, params, verifier)
    assert not verdict.accepted
    assert verdict.reason == "ChallengeMismatch"


def test_replay_rejects_truncated_and_padded(gf101):
    pid, params, digest, verifier, t = toy_transcript(gf101)

    short = Transcript(pid, t.mode, digest, params, t.messages[:-1])
    verdict, _ = verify_recorded(short, pid, digest, params, verifier)
    assert not verdict.accepted and "truncated" in verdict.reason

    extra = Transcript(
        pid, t.mode, digest, params,
        t.messages + [Message(ROLE_PROVER, TAG_COMMIT, KIND_EMPTY, None)],
    )
    verdict, _ = verify_recorded(extra, pid, digest, params, verifier)
    assert not verdict.accepted and "trailing" in verdict.reason


def test_replay_rejects_cheating_transcript(gf101):
    # forging the response after the challenge is already fixed cannot work
    pid, params, digest, verifier, t = toy_transcript(gf101, cheat=True)
    verdict, _ = verify_recorded(t, pid, digest, params, verifier)
    assert not verdict.accepted
    assert verdict.reason == "CheckFailed:toy"


def test_replay_reject_keeps_ops_and_transcript():
    """A fault the replay channel finds is reported like any other reject:
    with the operations the verifier counted before it, and with the
    transcript it was found in."""
    field = field_new(10007)
    a = DenseMatrix(field, [[2, 7, 1], [5, 3, 8], [4, 6, 9]])
    honest = det_certify(a, FiatShamirSource())[0]
    t = honest.transcript

    def with_messages(msgs):
        return Transcript(t.protocol_id, t.mode, t.instance_digest, t.params, msgs)

    # every check passes before the extra message is found
    padded = with_messages(t.messages + t.messages[-1:])
    verdict, _ = det_verify(a, padded)
    assert verdict.reason == "ProtocolViolation:trailing-messages"
    assert verdict.transcript is padded
    assert verdict.verifier_ops == honest.verifier_ops > 0

    # the last challenge comes after the Bezout check and before the solve check
    msgs = list(t.messages)
    last = max(i for i, m in enumerate(msgs) if m.tag == TAG_CHALLENGE)
    m = msgs[last]
    msgs[last] = Message(m.role, m.tag, m.kind, (m.value + 1) % field.p)
    forged = with_messages(msgs)
    verdict, _ = det_verify(a, forged)
    assert verdict.reason == "ChallengeMismatch"
    assert verdict.transcript is forged
    assert 0 < verdict.verifier_ops < honest.verifier_ops


def test_replay_out_of_range_scalar_rejected(gf101):
    pid, params, digest, verifier, t = toy_transcript(gf101)
    msgs = list(t.messages)
    msgs[0] = Message(ROLE_PROVER, TAG_COMMIT, KIND_SCALAR, 101)
    forged = Transcript(pid, t.mode, digest, params, msgs)
    verdict, _ = verify_recorded(forged, pid, digest, params, verifier)
    assert not verdict.accepted
    assert verdict.reason.startswith("Malformed") or verdict.reason.startswith(
        "ChallengeMismatch"
    )


@pytest.mark.parametrize("kind, value", [
    (KIND_VEC, [3, 101, 4]),
    (KIND_POLY, [1, 2**64 - 1]),
])
def test_replay_out_of_field_entry_rejected(gf101, kind, value):
    """An entry past p in a recorded vector or polynomial is caught
    before the verifier reads the message."""
    def verifier(ch):
        ch.recv(TAG_COMMIT, (kind,), gf101)
        return Verdict.accept(Fraction(0)), None

    pid, params, digest = "vlac.one.v1", b"", bytes(32)
    forged = Transcript(pid, MODE_FIAT_SHAMIR, digest, params,
                        [Message(ROLE_PROVER, TAG_COMMIT, kind, value)])
    back = transcript_deserialize(transcript_serialize(forged))
    verdict, _ = verify_recorded(back, pid, digest, params, verifier)
    assert not verdict.accepted
    assert verdict.reason == "Malformed:scalar-out-of-range"


@pytest.mark.parametrize("kind, value", [
    (KIND_VEC, [-1]),
    (KIND_VEC, [2**64]),
    (KIND_POLY, [1, 0]),
])
def test_replay_of_a_message_with_no_encoding_rejects(gf101, kind, value):
    """A message built in memory whose value has no wire encoding is
    refused like an entry past p, not raised out of the verify call."""
    def verifier(ch):
        ch.recv(TAG_COMMIT, (kind,), gf101)
        return Verdict.accept(Fraction(0)), None

    pid, params, digest = "vlac.one.v1", b"", bytes(32)
    forged = Transcript(pid, MODE_FIAT_SHAMIR, digest, params,
                        [Message(ROLE_PROVER, TAG_COMMIT, kind, value)])
    verdict, _ = verify_recorded(forged, pid, digest, params, verifier)
    assert not verdict.accepted
    assert verdict.reason == "Malformed:scalar-out-of-range"
