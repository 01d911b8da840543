"""TCP transport for live sessions.

Frames are a 4-byte big-endian length followed by that many payload
bytes; the payload's first byte is the frame type from the session
layer.  A handshake frame (type 2) opens every connection, carrying the
protocol id, parameter blob, and instance digest so both ends can refuse
mismatched delegations before any proving work happens.
"""

from __future__ import annotations

import socket
import struct
import time

from .errors import Malformed, ProtocolViolation, Timeout, TransportError
from .proto import lp, _Reader

FRAME_HELLO = 2
HELLO_OK = b"\x02OK"

MAX_FRAME = 1 << 30
# A hello is 41 bytes plus the protocol id and the parameter blob, both short.
MAX_HELLO = 1 << 12
# A client sends its hello as soon as it connects; a server waits at most
# this long for the whole of it, so an idle or trickling connection cannot
# hold a session slot for a whole round deadline.
HELLO_SECONDS = 5.0


class SocketTransport:
    """One framed, timeout-guarded connection half.

    ``recv_seconds`` accumulates wall time spent blocked on the peer, so a
    verifier client can report how long the remote prover worked versus
    how long its own checks took.
    """

    def __init__(self, sock: socket.socket, timeout: float = 60.0):
        self.sock = sock
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
        """The next frame's payload; a frame announcing more than limit
        bytes is refused before any of it is read, and with a deadline (a
        ``time.monotonic()`` value) the whole frame must arrive by then."""
        start = time.monotonic()
        try:
            (length,) = struct.unpack(">I", self._recv_exact(4, deadline))
            if length > limit:
                raise TransportError(f"frame of {length} bytes refused")
            return self._recv_exact(length, deadline)
        finally:
            self.recv_seconds += time.monotonic() - start

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


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
