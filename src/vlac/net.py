"""TCP hello for live sessions.

A ``vlac delegate`` client opens every connection with a hello frame
(type 2), carrying the protocol id, parameter blob, and instance digest,
so both ends can refuse mismatched delegations before any proving work
happens.  The server answers ``HELLO_OK`` or an abort frame; after that
the connection carries the session's frames over ``proto.SocketTransport``.
"""

from __future__ import annotations

from .errors import Malformed, ProtocolViolation
from .proto import lp, _Reader

FRAME_HELLO = 2
HELLO_OK = b"\x02OK"

# A hello is 41 bytes plus the protocol id and the parameter blob, both short.
MAX_HELLO = 1 << 12
# A client sends its hello as soon as it connects; a server waits at most
# this long for the whole of it, so an idle or trickling connection cannot
# hold a session slot for a whole round deadline.
HELLO_SECONDS = 5.0


def hello_frame(protocol_id: str, params: bytes, digest: bytes) -> bytes:
    return bytes([FRAME_HELLO]) + lp(protocol_id.encode()) + lp(params) + digest


def parse_hello(frame: bytes) -> tuple[str, bytes, bytes]:
    if not frame or frame[0] != FRAME_HELLO:
        raise ProtocolViolation("expected a handshake frame")
    r = _Reader(frame[1:])
    try:
        protocol_id = r.take(r.u32()).decode("utf-8", errors="strict")
        params = r.take(r.u32())
        digest = r.take(32)
    except (Malformed, UnicodeDecodeError):
        raise ProtocolViolation("unreadable handshake")
    if not r.done:
        raise ProtocolViolation("oversized handshake")
    return protocol_id, params, digest
