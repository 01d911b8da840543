"""Session engine for the certificate protocols.

A protocol is written once as a pair of functions, a prover and a
verifier, that talk through a channel.  The channel decides where
challenges come from:

* live interactive sessions draw them from a seeded RNG and ship them to
  the prover over a framed socket transport (one end of a socket pair
  in process, a TCP connection across hosts);
* hash-compiled (Fiat-Shamir) runs derive them from a SHA-256 chain over
  the instance digest and every prover message so far, so the prover can
  run alone and leave a self-contained transcript;
* replay verification re-derives every challenge from the recorded
  prefix and rejects on the first disagreement.

A verifier refuses by raising ``Reject(reason)`` wherever its run finds
the fault, its channel included; it returns only to accept.  The runners
keep the verifier's books: each verifier channel carries a fresh
``CostCounter`` as ``ch.counter``, whose count becomes the verdict's
``verifier_ops``, a ``Reject`` becomes the rejecting verdict, with the
operations counted before it, and accepted verdicts over hash-derived
challenges get the ``fiat-shamir`` heuristic label.

A live frame's first byte is its type: 0 a message, 1 an abort and its
reason, 2 the TCP hello (protocol id, parameters, instance digest) that
``offer_hello`` sends and ``accept_hello`` checks before any proving.

Transcripts serialize to a small tagged binary format (magic ``VLAC``)
with exactly one valid encoding per transcript.
"""

from __future__ import annotations

import functools
import hashlib
import socket
import struct
import threading
import time

import numpy as np
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from random import Random
from typing import Callable, Optional, Sequence

from .errors import (
    Malformed,
    ProtocolViolation,
    Timeout,
    TransportError,
    VersionUnsupported,
)
from .ff import PrimeField, SampleSet, is_probable_prime
from .la import CostCounter

MAGIC = b"VLAC"
VERSION = 1

ROLE_PROVER = 0
ROLE_VERIFIER = 1

TAG_COMMIT = 0
TAG_CHALLENGE = 1
TAG_RESPONSE = 2

KIND_EMPTY = 0
KIND_SCALAR = 1
KIND_UINT = 2
KIND_VEC = 3
KIND_POLY = 4
KIND_BIGINT = 6

MODE_INTERACTIVE = 0
MODE_FIAT_SHAMIR = 1

_REC_PROTOCOL = 0x01
_REC_MODE = 0x02
_REC_DIGEST = 0x03
_REC_PARAMS = 0x04
_REC_MESSAGE = 0x10

_FRAME_MSG = 0
_FRAME_ABORT = 1
FRAME_HELLO = 2
HELLO_OK = b"\x02OK"

# A hello is 41 bytes plus the protocol id and the parameter blob, both short.
MAX_HELLO = 1 << 12
# A server waits at most this long for a client's whole hello, so an idle
# or trickling connection cannot hold a session slot for a round deadline.
HELLO_SECONDS = 5.0

HEURISTIC_FS = "fiat-shamir"

# -- primitive encoders -------------------------------------------------------


def _u16(x: int) -> bytes:
    return struct.pack("<H", x)


_u32 = struct.Struct("<I").pack
_u64 = struct.Struct("<Q").pack


def lp(data: bytes) -> bytes:
    """Length-prefixed blob, used in every hash-domain encoding."""
    return _u32(len(data)) + data


class _Reader:
    __slots__ = ("buf", "pos")

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise Malformed("record truncated")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    @property
    def done(self) -> bool:
        return self.pos == len(self.buf)


# -- message payloads ---------------------------------------------------------


def _u64_block(values) -> bytes:
    """Integers as one block of little-endian u64s, packed in one call.

    struct checks every value against 0 <= v < 2^64 itself, where a numpy
    cast to ``<u8`` wraps a negative value silently on numpy 1.x.
    """
    vals = values.reshape(-1).tolist() if isinstance(values, np.ndarray) else values
    try:
        return struct.pack(f"<{len(vals)}Q", *vals)
    except struct.error as exc:
        raise Malformed(f"entry does not fit a u64: {exc}") from None


def encode_payload(kind: int, value) -> bytes:
    if kind == KIND_EMPTY:
        return b""
    if kind in (KIND_SCALAR, KIND_UINT):
        return _u64(int(value))
    if kind in (KIND_VEC, KIND_POLY):
        vals = value.coeffs if hasattr(value, "coeffs") else value
        if kind == KIND_POLY and len(vals) and vals[-1] == 0:
            raise Malformed("polynomial encoding must be trimmed")
        return _u32(len(vals)) + _u64_block(vals)
    if kind == KIND_BIGINT:
        v = int(value)
        sign = 1 if v < 0 else 0
        mag = abs(v)
        data = mag.to_bytes((mag.bit_length() + 7) // 8, "little") if mag else b""
        return bytes([sign]) + _u32(len(data)) + data
    raise Malformed(f"unknown payload kind {kind}")


_WORD_DTYPES = (np.dtype("<i8"), np.dtype("<u8"))


class Chunks:
    """An encoding kept as the buffers whose concatenation it is.

    ``instance_digest`` hashes the buffers one after another, so a matrix
    is read where it lies rather than joined into a new bytes object
    first.  ``len`` is the joined byte count and ``bytes()`` joins.
    """

    __slots__ = ("bufs", "nbytes")

    def __init__(self, *bufs):
        self.bufs = bufs
        self.nbytes = sum(memoryview(b).nbytes for b in bufs)

    def __len__(self) -> int:
        return self.nbytes

    def __bytes__(self) -> bytes:
        return b"".join(self.bufs)


def matrix_chunks(value, tag: bytes = b"") -> Chunks:
    """The dense instance encoding of ``value``, a ``DenseMatrix`` or a
    2-d array, as the header and the entries: ``tag``, the row and column
    counts as u32s, then every entry in row-major order as a u64.

    A little-endian int64 or u64 array in C order is not copied: its
    entries are a u64 view of its buffer, which holds the same bytes as
    a cast to u64.  Any other array (``object`` for wide fields) is
    packed once.
    """
    arr = value.a if hasattr(value, "a") else value
    rows, cols = arr.shape
    flat = np.ascontiguousarray(arr).reshape(-1)
    if flat.dtype in _WORD_DTYPES:
        body = flat.view(np.uint8)
    else:
        body = _u64_block(flat)
    return Chunks(tag + _u32(rows) + _u32(cols), body)


def decode_payload(kind: int, buf: bytes):
    r = _Reader(buf)
    value = _decode_payload_inner(kind, r)
    if not r.done:
        raise Malformed("payload has trailing bytes")
    return value


def _u64_list(r: _Reader, count: int) -> list[int]:
    # take checks the length before it slices, so a count past the end
    # of the buffer raises without allocating
    return np.frombuffer(r.take(8 * count), "<u8").tolist()


def _decode_payload_inner(kind: int, r: _Reader):
    if kind == KIND_EMPTY:
        return None
    if kind in (KIND_SCALAR, KIND_UINT):
        return r.u64()
    if kind in (KIND_VEC, KIND_POLY):
        vals = _u64_list(r, r.u32())
        if kind == KIND_POLY and vals and vals[-1] == 0:
            raise Malformed("polynomial encoding not canonical")
        return vals
    if kind == KIND_BIGINT:
        sign = r.u8()
        if sign not in (0, 1):
            raise Malformed("bad big-integer sign byte")
        n = r.u32()
        data = r.take(n)
        if n and data[-1] == 0:
            raise Malformed("big-integer encoding not canonical")
        mag = int.from_bytes(data, "little")
        if sign == 1 and mag == 0:
            raise Malformed("negative zero")
        return -mag if sign else mag
    raise Malformed(f"unknown payload kind {kind}")


@dataclass(frozen=True)
class Message:
    """One protocol message.  A decoded message keeps the bytes it was
    decoded from as ``raw``, which only ``decode_message`` sets: a message
    built or ``dataclasses.replace``d from values has none, so its
    ``encode`` encodes its value."""

    role: int
    tag: int
    kind: int
    value: object = None
    raw: Optional[bytes] = dataclass_field(
        default=None, init=False, compare=False, repr=False
    )

    def encode(self) -> bytes:
        if self.raw is not None:
            return self.raw
        return bytes([self.role, self.tag, self.kind]) + encode_payload(
            self.kind, self.value
        )


def decode_message(buf: bytes) -> Message:
    if len(buf) < 3:
        raise Malformed("message record too short")
    role, tag, kind = buf[0], buf[1], buf[2]
    if role not in (ROLE_PROVER, ROLE_VERIFIER):
        raise Malformed(f"bad role byte {role}")
    if tag not in (TAG_COMMIT, TAG_CHALLENGE, TAG_RESPONSE):
        raise Malformed(f"bad tag byte {tag}")
    m = Message(role, tag, kind, decode_payload(kind, buf[3:]))
    # the decode accepts only canonical encodings, so these bytes are what
    # encoding the value would give
    object.__setattr__(m, "raw", bytes(buf))
    return m


# -- transcripts --------------------------------------------------------------


@dataclass
class Transcript:
    protocol_id: str
    mode: int
    instance_digest: bytes
    params: bytes
    messages: list[Message] = dataclass_field(default_factory=list)


def transcript_serialize(t: Transcript) -> bytes:
    out = [MAGIC, _u16(VERSION)]

    def rec(tag: int, payload: bytes):
        out.append(bytes([tag]) + _u32(len(payload)) + payload)

    rec(_REC_PROTOCOL, t.protocol_id.encode())
    rec(_REC_MODE, bytes([t.mode]))
    rec(_REC_DIGEST, t.instance_digest)
    rec(_REC_PARAMS, t.params)
    for m in t.messages:
        rec(_REC_MESSAGE, m.encode())
    return b"".join(out)


def transcript_deserialize(buf: bytes) -> Transcript:
    r = _Reader(buf)
    if r.take(4) != MAGIC:
        raise Malformed("bad magic")
    version = r.u16()
    if version != VERSION:
        raise VersionUnsupported(f"transcript version {version}")

    def record(expected: int) -> bytes:
        tag = r.u8()
        if tag != expected:
            raise Malformed(f"expected record {expected:#x}, found {tag:#x}")
        return r.take(r.u32())

    try:
        protocol_id = record(_REC_PROTOCOL).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise Malformed("protocol id is not valid UTF-8") from exc
    mode_raw = record(_REC_MODE)
    if len(mode_raw) != 1 or mode_raw[0] not in (MODE_INTERACTIVE, MODE_FIAT_SHAMIR):
        raise Malformed("bad mode record")
    digest = record(_REC_DIGEST)
    if len(digest) != 32:
        raise Malformed("instance digest must be 32 bytes")
    params = record(_REC_PARAMS)
    messages = []
    while not r.done:
        tag = r.u8()
        if tag != _REC_MESSAGE:
            raise Malformed(f"unexpected record {tag:#x}")
        messages.append(decode_message(r.take(r.u32())))
    return Transcript(protocol_id, mode_raw[0], digest, params, messages)


def instance_digest(protocol_id: str, parts: Sequence) -> bytes:
    """Digest binding a run to its instance encoding; a part is bytes or
    ``Chunks``, hashed as the bytes it joins to."""
    h = hashlib.sha256(b"vlac.instance.v1")
    h.update(lp(protocol_id.encode()))
    for part in parts:
        h.update(_u32(len(part)))
        for buf in part.bufs if isinstance(part, Chunks) else (part,):
            h.update(buf)
    return h.digest()


# -- challenge sources --------------------------------------------------------


class InteractiveSource:
    """Seeded RNG for live sessions (Python's Mersenne Twister, which is
    stable across platforms, so a seed pins the whole challenge stream)."""

    kind = "interactive"

    def __init__(self, seed: Optional[int] = None):
        self.rng = Random(seed)

    def begin(self, protocol_id: str, params: bytes, digest: bytes) -> None:
        pass

    def absorb(self, data: bytes) -> None:
        pass

    def draw_uint(self, label: str, bound: int) -> int:
        return self.rng.randrange(bound)

    def draw_scalar(self, label: str, s: SampleSet) -> int:
        return s.offset + self.rng.randrange(s.size)


# one SHA-256 block of a draw as four little-endian u64 candidates
_FOUR_U64 = struct.Struct("<4Q").unpack


@functools.lru_cache(maxsize=1024)
def _label_tag(label: str) -> bytes:
    """A draw label as the hash chain encodes it."""
    return lp(label.encode())


class FiatShamirSource:
    """SHA-256 challenge chain.

    The state starts from the protocol id, parameter blob, and instance
    digest; every prover message is absorbed; every draw hashes the state
    with a domain label and splits the digest into little-endian u64
    chunks, rejection-sampled into the requested range.  Each draw folds
    the drawn value back into the state.
    """

    kind = "fiat-shamir"

    def __init__(self):
        self._state: Optional[bytes] = None

    def begin(self, protocol_id: str, params: bytes, digest: bytes) -> None:
        if self._state is not None:
            raise ProtocolViolation("hash chain already bound to an instance")
        h = hashlib.sha256(b"vlac.fs.v1")
        h.update(lp(protocol_id.encode()))
        h.update(lp(params))
        h.update(lp(digest))
        self._state = h.digest()

    def _require_state(self) -> bytes:
        if self._state is None:
            raise ProtocolViolation("hash chain not bound to an instance yet")
        return self._state

    def absorb(self, data: bytes) -> None:
        state = self._require_state()
        self._state = hashlib.sha256(state + b"M" + data).digest()

    def draw_uint(self, label: str, bound: int) -> int:
        state = self._require_state()
        if not (0 < bound <= 1 << 64):
            raise ValueError("draw bound out of range")
        threshold = (1 << 64) // bound * bound
        tag = _label_tag(label)
        prefix = state + b"C" + tag
        ctr = 0
        while True:
            for u in _FOUR_U64(hashlib.sha256(prefix + _u32(ctr)).digest()):
                if u < threshold:
                    val = u % bound
                    self._state = hashlib.sha256(state + b"D" + tag + _u64(val)).digest()
                    return val
            ctr += 1

    def draw_scalar(self, label: str, s: SampleSet) -> int:
        return s.offset + self.draw_uint(label, s.size)


def draw_prime(source, label: str, bits: int) -> int:
    """Uniform-ish odd prime in [2**(bits-1), 2**bits) from a source.

    Candidates are drawn with the low bit forced, then Miller-Rabin
    filtered; the rejection loop is part of the replay contract.
    """
    if not 16 <= bits <= 62:
        raise ValueError("prime size must be between 16 and 62 bits")
    half = 1 << (bits - 1)
    while True:
        x = half + source.draw_uint(label, half)
        x |= 1
        if is_probable_prime(x):
            return x


# -- verdicts -----------------------------------------------------------------


@dataclass
class Verdict:
    """Outcome of one verification run.

    ``error_bound`` is the declared soundness error as an exact rational;
    ``heuristics`` lists every assumption that bound leans on (the
    hash-compiled mode and the butterfly rank bound are the two).
    """

    accepted: bool
    reason: Optional[str]
    error_bound: Fraction
    heuristics: tuple[str, ...] = ()
    verifier_ops: int = 0
    transcript: Optional[Transcript] = dataclass_field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def accept(
        cls, error_bound: Fraction, heuristics: tuple[str, ...] = ()
    ) -> "Verdict":
        return cls(True, None, error_bound, heuristics)

    @classmethod
    def reject(cls, reason: str) -> "Verdict":
        return cls(False, reason, Fraction(0))


class Reject(Exception):
    """Raised by a verifier, or by the live or replayed channel under it,
    to refuse a run with a stable reason; the runner builds the verdict."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# -- transports ---------------------------------------------------------------


MAX_FRAME = 1 << 30


class SocketTransport:
    """One framed, timeout-guarded connection half: one end of the socket
    pair of an in-process session, or a TCP connection.

    A frame is a 4-byte big-endian length followed by that many payload
    bytes, whose first byte is the frame type.  ``recv_seconds``
    accumulates wall time spent blocked on the peer, so a verifier client
    can report how long the remote prover worked versus how long its own
    checks took.
    """

    def __init__(self, sock: socket.socket, timeout: float = 60.0):
        self.sock = sock
        self.timeout = timeout
        self.sock.settimeout(timeout)
        self.recv_seconds = 0.0

    def send_frame(self, data: bytes) -> None:
        try:
            self.sock.sendall(struct.pack(">I", len(data)) + data)
        except socket.timeout:
            raise Timeout("send stalled beyond the round deadline")
        except OSError as exc:
            raise TransportError(f"send failed: {exc}")

    def _recv_exact(self, n: int, deadline: float | None) -> bytes:
        chunks = []
        got = 0
        while got < n:
            try:
                if deadline is not None:
                    # a timeout of 0 would make the socket non-blocking
                    self.sock.settimeout(max(deadline - time.monotonic(), 1e-6))
                part = self.sock.recv(n - got)
            except socket.timeout:
                raise Timeout("peer did not respond within the round deadline")
            except OSError as exc:
                raise TransportError(f"recv failed: {exc}")
            if not part:
                raise TransportError("connection closed mid-frame")
            chunks.append(part)
            got += len(part)
        return b"".join(chunks)

    def recv_frame(self, limit: int = MAX_FRAME, deadline: float | None = None) -> bytes:
        """The next frame's payload; a frame over limit bytes is refused
        unread.  With a deadline (a ``time.monotonic()`` value) the whole
        frame must arrive by then; the next read has the round timeout."""
        start = time.monotonic()
        try:
            (length,) = struct.unpack(">I", self._recv_exact(4, deadline))
            if length > limit:
                raise TransportError(f"frame of {length} bytes refused")
            return self._recv_exact(length, deadline)
        finally:
            self.recv_seconds += time.monotonic() - start
            if deadline is not None:
                self.sock.settimeout(self.timeout)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def _msg_frame(m: Message) -> bytes:
    return bytes([_FRAME_MSG]) + m.encode()


def _abort_frame(reason: str) -> bytes:
    return bytes([_FRAME_ABORT]) + reason.encode()


def _parse_frame(frame: bytes) -> Message:
    if not frame:
        raise TransportError("empty frame")
    if frame[0] == _FRAME_ABORT:
        raise ProtocolViolation(f"peer aborted: {frame[1:].decode(errors='replace')}")
    if frame[0] != _FRAME_MSG:
        raise TransportError(f"unknown frame type {frame[0]}")
    return decode_message(frame[1:])


def hello_frame(protocol_id: str, params: bytes, digest: bytes) -> bytes:
    return bytes([FRAME_HELLO]) + lp(protocol_id.encode()) + lp(params) + digest


def accept_hello(transport, protocol_id: str, params: bytes, digest: bytes) -> None:
    """Server half of the hello: read it within ``min(transport.timeout,
    HELLO_SECONDS)``; answer ``HELLO_OK``, or abort on a mismatch."""
    deadline = time.monotonic() + min(transport.timeout, HELLO_SECONDS)
    frame = transport.recv_frame(MAX_HELLO, deadline)
    if not frame or frame[0] != FRAME_HELLO:
        raise ProtocolViolation("expected a handshake frame")
    r = _Reader(frame[1:])
    try:
        their_id = r.take(r.u32()).decode("utf-8", errors="strict")
        their = (their_id, r.take(r.u32()), r.take(32))
    except (Malformed, UnicodeDecodeError):
        raise ProtocolViolation("unreadable handshake")
    if not r.done:
        raise ProtocolViolation("oversized handshake")
    if their != (protocol_id, params, digest):
        transport.send_frame(_abort_frame("instance or protocol mismatch"))
        raise ProtocolViolation("instance or protocol mismatch")
    transport.send_frame(HELLO_OK)


def offer_hello(transport, protocol_id: str, params: bytes, digest: bytes) -> None:
    """Client half of the hello; an abort raises ``ProtocolViolation(reason)``."""
    transport.send_frame(hello_frame(protocol_id, params, digest))
    reply = transport.recv_frame(MAX_HELLO)
    if reply[:1] == bytes([_FRAME_ABORT]):
        raise ProtocolViolation(reply[1:].decode(errors="replace"))
    if reply != HELLO_OK:
        raise TransportError("unreadable handshake reply")


# -- channels -----------------------------------------------------------------


class _ChallengeChannel:
    """Challenge core of every channel.

    Each challenge method states its draw from the source next to the
    range every such draw lies in, and hands both to ``_challenge``,
    which a subclass may replace: by default the challenge is drawn and
    then passed to ``_drawn``, the subclass's step after the draw (record
    it, match it against a transcript, or send it to the prover), which
    returns the value.
    """

    def __init__(self, source=None):
        self._src = source

    def challenge_scalar(self, label: str, s: SampleSet) -> int:
        return self._challenge(
            KIND_SCALAR, 1, lambda: self._src.draw_scalar(label, s), lambda v: v in s
        )

    def challenge_vector(self, label: str, s: SampleSet, count: int) -> list[int]:
        return self._challenge(
            KIND_VEC,
            count,
            lambda: [self._src.draw_scalar(f"{label}.{i}", s) for i in range(count)],
            lambda v: len(v) == count and all(x in s for x in v),
        )

    def challenge_nonzero_vector(self, label: str, s: SampleSet, count: int) -> list[int]:
        return self._challenge(
            KIND_VEC,
            count,
            lambda: [_draw_nonzero(self._src, f"{label}.{i}", s) for i in range(count)],
            lambda v: len(v) == count and all(x != 0 and x in s for x in v),
        )

    def challenge_prime(self, label: str, bits: int) -> int:
        return self._challenge(
            KIND_UINT,
            1,
            lambda: draw_prime(self._src, label, bits),
            lambda v: 1 << (bits - 1) <= v < 1 << bits and is_probable_prime(v),
        )

    def _challenge(self, kind: int, count: int, draw: Callable, valid: Callable):
        """A challenge of kind with count 8-byte entries, made by draw;
        valid(value) holds for every value draw can give."""
        return self._drawn(kind, draw())


class FSProverChannel(_ChallengeChannel):
    """Prover running alone against the hash chain."""

    def __init__(self, source: FiatShamirSource, transcript: Transcript):
        super().__init__(source)
        self._t = transcript

    def send(self, tag: int, kind: int, value=None) -> None:
        # record what the absorbed bytes decode to, as a replay reads them
        data = Message(ROLE_PROVER, tag, kind, value).encode()
        self._t.messages.append(decode_message(data))
        self._src.absorb(data)

    def _drawn(self, kind: int, value):
        self._t.messages.append(Message(ROLE_VERIFIER, TAG_CHALLENGE, kind, value))
        return value


def _draw_nonzero(source, label: str, s: SampleSet) -> int:
    # zero draws are rejection-resampled; the state advance makes the
    # retry well-defined under replay
    while True:
        v = source.draw_scalar(label, s)
        if v != 0:
            return v


class _VerifierChannel(_ChallengeChannel):
    """Verifier half of a run, live or replayed; a subclass supplies where
    the next prover message comes from (``_next``) and ``_drawn``."""

    def recv(self, tag: int, kinds: tuple[int, ...], field: Optional[PrimeField] = None,
             count: int = 1):
        """The next prover message as (kind, value), refused unless its
        role, tag and kind are the step's, its entries lie in the field and
        a vector holds exactly count entries.  For the other kinds count is
        the most 8-byte entries (coefficients or big-integer words) of an
        honest message; a live channel sizes its frame limit from it.

        A vector or polynomial step must give its field: the value comes
        back as a fresh canonical array of ``field.dtype``, read from the
        message's bytes in one step and range-checked there once, while
        the message's own ``value`` stays a list."""
        m = self._next(count)
        if m.role != ROLE_PROVER or m.tag != tag or m.kind not in kinds:
            raise Reject("ProtocolViolation:unexpected-message")
        try:
            data = m.encode()
        except Malformed:
            # only a message built in memory can fail to encode: an entry
            # outside [0, 2^64), or a polynomial that is not trimmed
            raise Reject("Malformed:scalar-out-of-range") from None
        value = m.value
        if m.kind in (KIND_VEC, KIND_POLY):
            # past the role, tag and kind bytes and the u32 entry count, the
            # entries are little-endian u64s; compare them as u64, since a
            # cast to int64 turns an entry of 2^63 or more negative
            entries = np.frombuffer(data, "<u8", offset=7)
            if (entries >= np.uint64(field.p)).any():
                raise Reject("Malformed:scalar-out-of-range")
            if m.kind == KIND_VEC and len(entries) != count:
                raise Reject("Malformed:vector-length")
            value = entries.astype(field.dtype)
        elif m.kind == KIND_SCALAR and field is not None and not 0 <= value < field.p:
            raise Reject("Malformed:scalar-out-of-range")
        self._src.absorb(data)
        return m.kind, value

    def finish(self) -> None:
        """Check what the run left behind once the verifier has accepted;
        only a replayed transcript can have anything left."""


class ReplayVerifierChannel(_VerifierChannel):
    """Feeds a verifier from a recorded transcript, re-deriving challenges."""

    def __init__(self, source: FiatShamirSource, transcript: Transcript):
        super().__init__(source)
        self._msgs = transcript.messages
        self._pos = 0

    def _next(self, count: int = 1) -> Message:
        # a recorded message is already in memory: count bounds no read
        if self._pos >= len(self._msgs):
            raise Reject("ProtocolViolation:transcript-truncated")
        m = self._msgs[self._pos]
        self._pos += 1
        return m

    def _drawn(self, kind: int, value):
        m = self._next()
        if m.role != ROLE_VERIFIER or m.tag != TAG_CHALLENGE or m.kind != kind:
            raise Reject("ProtocolViolation:challenge-slot")
        if m.value != value:
            raise Reject("ChallengeMismatch")
        return value

    def finish(self) -> None:
        if self._pos != len(self._msgs):
            raise Reject("ProtocolViolation:trailing-messages")


# Past its payload, a message frame holds the frame type and the role,
# tag and kind bytes; the rest leaves room for a short abort reason.
_FRAME_SLACK = 4 + 256


def _frame_limit(count: int) -> int:
    """Largest frame of a message of up to count 8-byte entries: a 4-byte
    length, the entries and the slack above."""
    return 4 + 8 * count + _FRAME_SLACK


class LiveVerifierChannel(_VerifierChannel):
    """Interactive verifier half over a transport; a decoded prover
    message joins the transcript before recv checks it."""

    def __init__(self, source, transport, transcript: Transcript):
        super().__init__(source)
        self._tr = transport
        self._t = transcript

    def _next(self, count: int) -> Message:
        m = _parse_frame(self._tr.recv_frame(_frame_limit(count)))
        self._t.messages.append(m)
        return m

    def _drawn(self, kind: int, value):
        m = Message(ROLE_VERIFIER, TAG_CHALLENGE, kind, value)
        self._t.messages.append(m)
        self._tr.send_frame(_msg_frame(m))
        return value


class LiveProverChannel(_ChallengeChannel):
    """Interactive prover half over a transport: each challenge frame is
    read under a limit sized from the challenge it waits for, and refused
    unless it holds a value the verifier's draw could give."""

    def __init__(self, transport):
        super().__init__()
        self._tr = transport

    def send(self, tag: int, kind: int, value=None) -> None:
        self._tr.send_frame(_msg_frame(Message(ROLE_PROVER, tag, kind, value)))

    def _challenge(self, kind: int, count: int, draw: Callable, valid: Callable):
        m = _parse_frame(self._tr.recv_frame(_frame_limit(count)))
        if m.role != ROLE_VERIFIER or m.tag != TAG_CHALLENGE or m.kind != kind:
            raise ProtocolViolation("expected a challenge")
        if not valid(m.value):
            raise ProtocolViolation("challenge outside what the verifier draws")
        return m.value


# -- session runners ----------------------------------------------------------

DEFAULT_ROUND_TIMEOUT = 60.0


def _run_verifier(verifier_fn: Callable, channel):
    """Call a verifier and do its bookkeeping.

    The channel carries a fresh ``CostCounter`` as ``channel.counter``;
    the verdict reports its count as ``verifier_ops``.  A ``Reject``
    raised by the verifier or its channel, up to and including the
    channel's ``finish``, becomes a rejecting verdict with no result; this
    is the one place that catches it.  An accepted verdict over
    hash-derived challenges is labelled ``fiat-shamir`` ahead of the
    verifier's own heuristics.
    """
    channel.counter = CostCounter()
    try:
        verdict, result = verifier_fn(channel)
        channel.finish()
    except Reject as rej:
        verdict, result = Verdict.reject(rej.reason), None
    verdict.verifier_ops = channel.counter.ops
    if verdict.accepted and channel._src.kind == "fiat-shamir":
        verdict.heuristics = (HEURISTIC_FS,) + verdict.heuristics
    return verdict, result


def run_session(
    protocol_id: str,
    params: bytes,
    digest: bytes,
    prover_fn: Callable,
    verifier_fn: Callable,
    source,
    timeout: float = DEFAULT_ROUND_TIMEOUT,
):
    """Live session with the prover on a worker thread, across a socket
    pair framed and limited as a TCP session is.

    Returns (verdict, result, transcript).  Raises Timeout,
    ProtocolViolation or TransportError if the session itself breaks; a
    wrong prover message, like disbelief, is a rejecting verdict instead.
    """
    verifier_tr, prover_tr = (SocketTransport(s, timeout) for s in socket.socketpair())

    def prover_main():
        try:
            serve_session(prover_tr, prover_fn)
        except BaseException:
            pass  # a prover crash has reached the verifier as an abort
        finally:
            prover_tr.close()  # a verifier still reading fails at once

    worker = threading.Thread(target=prover_main, daemon=True)
    worker.start()
    try:
        return run_remote_session(
            protocol_id, params, digest, verifier_tr, verifier_fn, source
        )
    finally:
        # a prover still waiting on a challenge reads the close and returns
        verifier_tr.close()
        worker.join(timeout=timeout)


def run_remote_session(
    protocol_id: str,
    params: bytes,
    digest: bytes,
    transport,
    verifier_fn: Callable,
    source,
):
    """Verifier side of a live session whose prover sits across a transport."""
    source.begin(protocol_id, params, digest)
    mode = MODE_FIAT_SHAMIR if source.kind == "fiat-shamir" else MODE_INTERACTIVE
    transcript = Transcript(protocol_id, mode, digest, params, [])
    verdict, result = _run_verifier(
        verifier_fn, LiveVerifierChannel(source, transport, transcript)
    )
    verdict.transcript = transcript
    return verdict, result, transcript


def serve_session(transport, prover_fn: Callable) -> None:
    """Prover side of a live session across a transport."""
    try:
        prover_fn(LiveProverChannel(transport))
    except (Timeout, TransportError):
        raise
    except BaseException as exc:
        transport.send_frame(_abort_frame(f"{type(exc).__name__}: {exc}"))
        raise


def fs_prove(
    protocol_id: str,
    params: bytes,
    digest: bytes,
    prover_fn: Callable,
    source: Optional[FiatShamirSource] = None,
) -> Transcript:
    """Run the prover alone against the hash chain; returns the transcript."""
    src = source if source is not None else FiatShamirSource()
    src.begin(protocol_id, params, digest)
    transcript = Transcript(protocol_id, MODE_FIAT_SHAMIR, digest, params, [])
    prover_fn(FSProverChannel(src, transcript))
    return transcript


def verify_recorded(
    transcript: Transcript,
    protocol_id: str,
    digest: bytes,
    params: bytes,
    verifier_fn: Callable,
):
    """Replay a hash-compiled transcript, re-deriving every challenge.

    Accepts only if the transcript binds to the expected instance, every
    recorded challenge matches its re-derivation, every check passes, and
    no messages are left over.
    """
    if transcript.mode != MODE_FIAT_SHAMIR:
        return Verdict.reject("ModeMismatch"), None
    if transcript.protocol_id != protocol_id:
        return Verdict.reject("ProtocolViolation:protocol-id"), None
    if transcript.instance_digest != digest:
        return Verdict.reject("InstanceDigestMismatch"), None
    if transcript.params != params:
        return Verdict.reject("ParamsMismatch"), None
    src = FiatShamirSource()
    src.begin(protocol_id, params, digest)
    verdict, result = _run_verifier(verifier_fn, ReplayVerifierChannel(src, transcript))
    verdict.transcript = transcript
    return verdict, result


def certify(protocol_id: str, parts, source, timeout: float = DEFAULT_ROUND_TIMEOUT):
    """One-shot honest run of a protocol from its ``(params, digest,
    prover, verifier)`` parts: a live session for interactive sources, a
    prove-then-replay round trip for hash-chain sources.  Returns
    (verdict, result)."""
    params, digest, prover, verifier = parts
    if source.kind == "fiat-shamir":
        transcript = fs_prove(protocol_id, params, digest, prover, source)
        return replay(transcript, protocol_id, parts)
    verdict, result, _ = run_session(
        protocol_id, params, digest, prover, verifier, source, timeout
    )
    return verdict, result


def replay(transcript: Transcript, protocol_id: str, parts):
    """Replay a recorded transcript against a protocol's parts; returns
    (verdict, result)."""
    params, digest, _, verifier = parts
    return verify_recorded(transcript, protocol_id, digest, params, verifier)
