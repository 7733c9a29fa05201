"""Length-prefixed framing for canonical-codec envelopes over sockets.

A TCP stream has no message boundaries, so every frame the process
substrate ships over a socket — the same ``b"net\\0"`` protocol frames
and control tuples it ships over pipes — is wrapped in a 4-byte
big-endian length prefix. The payload bytes themselves stay opaque at
this layer: :class:`~repro.transport.wire.WireEnvelope` /
:class:`~repro.transport.wire.BatchEnvelope` encoding happens above
(:func:`~repro.transport.wire.envelope_to_bytes`), exactly as on the
pipe transport.

Two pieces:

- :class:`FrameDecoder` — incremental, allocation-light reassembly: feed
  it whatever byte chunks the socket yields (split, coalesced, or
  byte-by-byte) and it emits complete payloads in order. Oversized
  length prefixes fail fast (a corrupt or hostile peer cannot make the
  parent buffer gigabytes), and EOF mid-frame is distinguishable from a
  clean boundary so truncation is an error, not a silent drop.
- :class:`SocketConnection` — the framing applied to one TCP socket,
  exposing the :class:`multiprocessing.connection.Connection` surface
  the process substrate already speaks (``send_bytes`` / ``recv_bytes``
  / ``poll`` / ``fileno`` / ``close``), so the pipe and tcp transports
  share every line of router, egress, and worker-loop code.
"""

from __future__ import annotations

import selectors
import socket
import struct
import threading
import time
from collections import deque

from repro.common.errors import TransportError

#: Refuse frames larger than this (4-byte prefix allows 4 GiB; no sane
#: envelope — even a batch — approaches it, so treat it as corruption).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_PREFIX = struct.Struct(">I")
_RECV_CHUNK = 1 << 16


class FrameError(TransportError):
    """A length prefix announced an impossible frame, or EOF split one."""


def encode_frame(payload: bytes) -> bytes:
    """``payload`` wrapped in its 4-byte big-endian length prefix."""
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte transport limit"
        )
    return _PREFIX.pack(len(payload)) + payload


class FrameDecoder:
    """Reassembles length-prefixed frames from an arbitrary chunking."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        """Buffer ``data``; return every frame it completed, in order."""
        self._buffer.extend(data)
        frames: list[bytes] = []
        while True:
            if len(self._buffer) < _PREFIX.size:
                return frames
            (length,) = _PREFIX.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise FrameError(
                    f"length prefix announces {length} bytes, over the "
                    f"{MAX_FRAME_BYTES}-byte transport limit"
                )
            end = _PREFIX.size + length
            if len(self._buffer) < end:
                return frames
            frames.append(bytes(self._buffer[_PREFIX.size:end]))
            del self._buffer[:end]

    @property
    def pending(self) -> int:
        """Bytes buffered toward an incomplete frame (0 at a boundary)."""
        return len(self._buffer)

    def finish(self) -> None:
        """Assert the stream ended on a frame boundary.

        Call at EOF: leftover bytes mean the peer died mid-frame (or the
        stream was truncated), which must surface as an error rather
        than a silently shorter conversation.
        """
        if self._buffer:
            raise FrameError(
                f"stream truncated: EOF with {len(self._buffer)} bytes of "
                "an incomplete frame buffered"
            )


class SocketConnection:
    """One framed TCP socket with the duplex-pipe Connection surface.

    Reads are single-threaded by contract (the substrate's router thread
    or the worker's event loop owns the receiving side), while writes
    take a lock so an egress writer and a shutdown broadcast cannot
    interleave partial frames.
    """

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._decoder = FrameDecoder()
        self._frames: deque[bytes] = deque()
        self._send_lock = threading.Lock()

    def fileno(self) -> int:
        return self._sock.fileno()

    def send_bytes(self, payload: bytes) -> None:
        data = encode_frame(payload)
        with self._send_lock:
            self._sock.sendall(data)

    def recv_bytes(self) -> bytes:
        """The next frame, blocking until one is complete.

        Raises ``EOFError`` on a clean peer close at a frame boundary
        and :class:`FrameError` when the close splits a frame.
        """
        while not self._frames:
            try:
                chunk = self._sock.recv(_RECV_CHUNK)
            except socket.timeout as exc:
                raise TimeoutError("socket read timed out") from exc
            if not chunk:
                self._decoder.finish()
                raise EOFError("peer closed the connection")
            self._frames.extend(self._decoder.feed(chunk))
        return self._frames.popleft()

    def poll(self, timeout: float | None = 0.0) -> bool:
        """True when a complete frame is ready (buffered or readable).

        Mirrors ``Connection.poll``: a decoder-buffered frame counts
        immediately; otherwise wait up to ``timeout`` for socket
        readability and opportunistically drain what arrived. May return
        ``False`` with bytes buffered toward an incomplete frame — those
        keep their socket readable state for the next poll/select.
        """
        if self._frames:
            return True
        with selectors.DefaultSelector() as selector:
            selector.register(self._sock, selectors.EVENT_READ)
            deadline = None
            remaining = timeout
            while True:
                ready = selector.select(remaining)
                if not ready:
                    return bool(self._frames)
                try:
                    chunk = self._sock.recv(_RECV_CHUNK)
                except (BlockingIOError, InterruptedError):
                    chunk = b""
                if chunk:
                    self._frames.extend(self._decoder.feed(chunk))
                else:
                    # EOF: report readable so the next recv_bytes raises
                    # EOFError (or FrameError on a mid-frame truncation)
                    # where the caller's error handling lives.
                    return True
                if self._frames:
                    return True
                # A partial frame arrived; keep waiting out the timeout.
                if timeout is not None:
                    if deadline is None:
                        deadline = time.monotonic() + timeout
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
