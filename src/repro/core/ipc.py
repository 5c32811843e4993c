"""Framed worker IPC: checksummed, versioned result-pipe frames.

The parallel crawl ships site results from worker processes to the
supervisor over per-slot pipes.  ``multiprocessing.Connection`` gives
message boundaries, but nothing protects the *content*: a worker dying
mid-write, a buggy allocator scribbling on a buffer, or an injected
fault (``repro.core.faults``) can put garbage or a torn prefix on
the pipe, and a raw ``pickle.loads`` of that poisons the supervisor —
the one process that must survive anything a worker does.

Every message is therefore wrapped in a **frame**:

    MAGIC(4) | version(1) | kind(1) | length(4, BE) | crc32(4, BE) | payload

The CRC covers the version, kind and length fields plus the payload,
so a bit flip anywhere in the frame (header included) fails the
checksum instead of mis-framing the stream.  :class:`FrameDecoder`
recovers from damage by **resynchronizing**: on any corruption it
records a typed :class:`FrameCorruption` and rescans from the next
byte for the magic marker, so a valid frame following (or embedded
after) a corrupt region is still decoded.  Corruption is *reported,
never raised* — the decoder cannot throw on hostile bytes.

Two consumption modes:

* streaming (default) — an incomplete frame tail stays buffered until
  more bytes arrive; :meth:`FrameDecoder.finish` flushes it at EOF,
  reporting the torn tail and salvaging any whole frames inside it.
* message-aligned (``message_aligned=True``, the supervisor's mode) —
  every ``feed`` is one ``recv_bytes`` message and legitimate senders
  never split a frame across messages, so a tail left over after a
  feed is *known* garbage and is resynchronized away immediately.
  Nothing can sit half-decoded forever waiting for bytes that will
  never come.
"""

from __future__ import annotations

import zlib
from typing import List, NamedTuple

__all__ = [
    "FRAME_HEADER_LEN",
    "Frame",
    "FrameCorruption",
    "FrameDecoder",
    "KIND_FAULT",
    "KIND_METRICS",
    "KIND_RESULT",
    "MAGIC",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "encode_frame",
]

#: frame marker; chosen to be vanishingly unlikely in pickled payloads
MAGIC = b"RFRM"

#: bump on any incompatible frame-layout change
PROTOCOL_VERSION = 1

#: a successful site measurement (the payload is a pickled result tuple)
KIND_RESULT = 1
#: a typed worker fault report (pickled dict; see survey's worker loop)
KIND_FAULT = 2
#: a worker metrics snapshot (pickled dict; merged in the supervisor).
#: Decoders that predate this kind ignore unknown kinds, so the frame
#: is backward-safe on the wire.
KIND_METRICS = 3

#: magic + version + kind + length + crc32
FRAME_HEADER_LEN = 14

#: ceiling on a single frame's payload.  Real payloads (measurement +
#: trace tree) are a few MB at most; anything larger is a corrupt or
#: hostile length field and is treated as such without buffering it.
MAX_FRAME_BYTES = 1 << 30


class Frame(NamedTuple):
    kind: int
    payload: bytes


class FrameCorruption(Exception):
    """One detected frame-stream defect (collected, never raised).

    ``reason`` is a stable slug the tests and reports key on:

    * ``bad-magic`` — bytes before (or instead of) a frame marker
    * ``bad-version`` — a marker carrying an unknown protocol version
    * ``oversize`` — a length field past :data:`MAX_FRAME_BYTES`
    * ``bad-crc`` — checksum mismatch (any bit flip lands here)
    * ``truncated`` — the stream ended (or a message boundary passed)
      inside a frame
    """

    def __init__(self, reason: str, detail: str) -> None:
        super().__init__("%s: %s" % (reason, detail))
        self.reason = reason
        self.detail = detail


def encode_frame(payload: bytes, kind: int = KIND_RESULT) -> bytes:
    """Wrap one payload in a checksummed frame."""
    if not 0 <= kind <= 0xFF:
        raise ValueError("frame kind %r out of range" % (kind,))
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(
            "payload of %d bytes exceeds the %d-byte frame cap"
            % (len(payload), MAX_FRAME_BYTES)
        )
    head = (
        bytes((PROTOCOL_VERSION, kind))
        + len(payload).to_bytes(4, "big")
    )
    crc = zlib.crc32(head + payload) & 0xFFFFFFFF
    return MAGIC + head + crc.to_bytes(4, "big") + payload


def _magic_prefix_len(buf: bytes) -> int:
    """Length of the longest proper MAGIC prefix ending the buffer.

    Streaming mode must keep ``...RF`` around — the ``RM`` completing
    the marker may be in the next chunk.
    """
    for keep in range(min(len(buf), len(MAGIC) - 1), 0, -1):
        if buf[-keep:] == MAGIC[:keep]:
            return keep
    return 0


class FrameDecoder:
    """Incremental frame parser with corruption recovery.

    Feed it bytes as they arrive; it returns whole frames and records
    every defect in :attr:`errors` (drain with :meth:`take_errors`).
    It never raises on input bytes, whatever they contain.
    """

    def __init__(
        self,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        message_aligned: bool = False,
    ) -> None:
        self.max_frame_bytes = max_frame_bytes
        self.message_aligned = message_aligned
        self._buffer = bytearray()
        #: accumulated :class:`FrameCorruption` records, oldest first
        self.errors: List[FrameCorruption] = []
        self.frames_decoded = 0
        self.bytes_discarded = 0

    # -- feeding -------------------------------------------------------

    def feed(self, data: bytes) -> List[Frame]:
        """Absorb ``data``; return every frame it completed."""
        self._buffer.extend(data)
        frames = self._drain(flush=False)
        if self.message_aligned and self._buffer:
            # A legitimate sender puts exactly whole frames in each
            # message, so a leftover tail is a torn or garbage frame —
            # resynchronize now rather than let it absorb (and hide)
            # the next message's good frames.
            frames.extend(self._drain(flush=True))
        return frames

    def finish(self) -> List[Frame]:
        """The stream ended: flush the tail, salvaging whole frames."""
        return self._drain(flush=True)

    def take_errors(self) -> List[FrameCorruption]:
        """Drain and return the accumulated corruption records."""
        errors, self.errors = self.errors, []
        return errors

    # -- internals -----------------------------------------------------

    def _note(self, reason: str, detail: str, dropped: int = 0) -> None:
        self.bytes_discarded += dropped
        self.errors.append(FrameCorruption(reason, detail))

    def _drain(self, flush: bool) -> List[Frame]:
        frames: List[Frame] = []
        while True:
            frame = self._next_frame(flush)
            if frame is None:
                break
            frames.append(frame)
        return frames

    def _next_frame(self, flush: bool) -> "Frame | None":
        buf = self._buffer
        while True:
            start = buf.find(MAGIC)
            if start == -1:
                # No marker: discard the garbage, keeping a possible
                # marker prefix split across chunks — in streaming mode
                # the rest may still arrive; at flush a retained prefix
                # is a marker the stream tore through.
                keep = _magic_prefix_len(bytes(buf))
                drop = len(buf) - keep
                if drop:
                    self._note("bad-magic",
                               "%d byte(s) with no frame marker" % drop,
                               dropped=drop)
                    del buf[:drop]
                if flush and buf:
                    self._note("truncated",
                               "stream ended inside a frame marker",
                               dropped=len(buf))
                    del buf[:]
                return None
            if start:
                self._note("bad-magic",
                           "%d byte(s) before the frame marker" % start,
                           dropped=start)
                del buf[:start]
            if len(buf) < FRAME_HEADER_LEN:
                if flush:
                    self._note("truncated",
                               "stream ended inside a frame header",
                               dropped=len(buf))
                    del buf[:]
                return None
            version = buf[4]
            length = int.from_bytes(buf[6:10], "big")
            crc = int.from_bytes(buf[10:14], "big")
            if version != PROTOCOL_VERSION:
                self._note("bad-version",
                           "protocol version %d (this build speaks %d)"
                           % (version, PROTOCOL_VERSION), dropped=1)
                del buf[:1]  # resync: rescan from inside the bad frame
                continue
            if length > self.max_frame_bytes:
                self._note("oversize",
                           "declared payload of %d bytes exceeds the "
                           "%d-byte cap" % (length, self.max_frame_bytes),
                           dropped=1)
                del buf[:1]
                continue
            total = FRAME_HEADER_LEN + length
            if len(buf) < total:
                if not flush:
                    return None  # wait for the rest of the frame
                self._note("truncated",
                           "stream ended %d byte(s) into a %d-byte frame"
                           % (len(buf), total), dropped=1)
                del buf[:1]  # a whole frame may hide inside the tail
                continue
            payload = bytes(buf[FRAME_HEADER_LEN:total])
            computed = zlib.crc32(bytes(buf[4:10]) + payload) & 0xFFFFFFFF
            if computed != crc:
                self._note("bad-crc",
                           "checksum mismatch on a %d-byte frame"
                           % length, dropped=1)
                del buf[:1]
                continue
            kind = buf[5]
            del buf[:total]
            self.frames_decoded += 1
            return Frame(kind=kind, payload=payload)
