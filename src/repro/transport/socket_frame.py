"""Length-prefixed framing: a 4-byte big-endian length, then the bytes.

No substrate uses it — the process substrate's pipes keep message
boundaries — and it remains only for the benchmark's
``transport.frame_roundtrip_us``. :class:`FrameDecoder` reassembles
frames from any chunking, refuses oversized length prefixes, and
reports EOF mid-frame as an error rather than a silent drop.
"""

from __future__ import annotations

import struct

from repro.common.errors import TransportError

#: Refuse frames larger than this (4-byte prefix allows 4 GiB; no sane
#: envelope — even a batch — approaches it, so treat it as corruption).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_PREFIX = struct.Struct(">I")


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
