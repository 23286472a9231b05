"""Differential, compressed agent→daemon wire protocol.

§3.3: "we use a differential communication protocol designed to only
send out a performance indicator when its data is different from the
value of the previous sampling tick.  In addition, all network
communications are compressed."

A message is the zlib-compressed concatenation of ``(uint16 index,
float32 value)`` pairs for every indicator that changed since the last
tick, prefixed by the tick number.  The decoder keeps the previous
frame per sender and reconstructs the full frame.  Message sizes are
tracked so the Table 2 "average message size per client" row can be
measured on real traffic.

Because the protocol is differential, decoding is *stateful*: a
message only makes sense against the sender's previous frame.  Two
additions keep long-lived daemons honest about that state:

- a **full-frame resync message** (:meth:`DifferentialEncoder.encode_full`)
  carries every indicator with no per-entry indices, re-establishing
  decoder state from scratch.  A decoder that receives a *partial*
  differential message while holding no state raises
  :class:`WireDesyncError` instead of silently patching zeros — the
  reconnect-with-a-stale-encoder failure mode;
- a :class:`DecoderPool` owns one decoder per sender, created on first
  use and **evicted on disconnect**, so a server's decode state stops
  growing with its all-time client count and a reconnecting sender
  always starts from an explicit resync.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional

import numpy as np

_HEADER = struct.Struct("<qH")  # tick number, changed-entry count
#: One changed indicator; a message's entries are one packed array.
_ENTRY = np.dtype([("index", "<u2"), ("value", "<f4")])

#: Header entry-count sentinel marking a full-frame resync message:
#: the payload is ``frame_width`` raw float32 values, no indices.
#: Frame widths are capped below it, so it can never be a real count.
FULL_FRAME = 0xFFFF

#: Values closer than this are "unchanged" — float32 wire precision.
CHANGE_EPS = 1e-7


class WireDesyncError(ValueError):
    """A differential message arrived with no previous-frame state.

    Patching it onto zeros would silently decode garbage (the classic
    reconnect bug: the sender kept its encoder, the receiver lost its
    decoder).  The receiver should request a full-frame resync —
    :meth:`DifferentialEncoder.reset` or
    :meth:`DifferentialEncoder.encode_full` on the sending side.
    """


@dataclass
class WireStats:
    """Cumulative protocol statistics (Table 2 inputs)."""

    messages: int = 0
    raw_bytes: int = 0
    compressed_bytes: int = 0
    entries_sent: int = 0

    @property
    def mean_message_size(self) -> float:
        """Average compressed bytes per message."""
        return self.compressed_bytes / self.messages if self.messages else 0.0

    @property
    def compression_ratio(self) -> float:
        return (
            self.raw_bytes / self.compressed_bytes
            if self.compressed_bytes
            else 1.0
        )


class DifferentialEncoder:
    """Client side: turn PI frames into compact change messages."""

    def __init__(self, frame_width: int):
        # Capped below FULL_FRAME so an all-indicator differential's
        # entry count can never collide with the resync sentinel.
        if frame_width <= 0 or frame_width >= FULL_FRAME:
            raise ValueError(f"frame_width out of range: {frame_width}")
        self.frame_width = int(frame_width)
        # Mirror of the decoder's state: the last *transmitted* values.
        # Diffing against the previous frame instead would let sub-epsilon
        # drift accumulate unsent and desynchronise the decoder.
        self._sent: Optional[np.ndarray] = None
        self.stats = WireStats()

    def encode(self, tick: int, frame: np.ndarray) -> bytes:
        """Encode ``frame`` for ``tick``; first frame is sent in full."""
        frame = np.asarray(frame, dtype=np.float32)
        if frame.shape != (self.frame_width,):
            raise ValueError(
                f"expected frame of shape ({self.frame_width},), got {frame.shape}"
            )
        if self._sent is None:
            changed = np.arange(self.frame_width)
            self._sent = frame.copy()
        else:
            changed = np.flatnonzero(
                np.abs(frame - self._sent) > CHANGE_EPS
            )
            self._sent[changed] = frame[changed]
        entries = np.empty(len(changed), dtype=_ENTRY)
        entries["index"] = changed
        entries["value"] = frame[changed]
        raw = _HEADER.pack(tick, len(changed)) + entries.tobytes()
        return self._finish(raw, len(changed))

    def encode_full(self, tick: int, frame: np.ndarray) -> bytes:
        """Encode ``frame`` as an explicit full-frame resync message.

        Every indicator travels (as raw float32s, no per-entry
        indices), and the decoder re-establishes its state from scratch
        — the message to send after a reconnect, when the receiver may
        have evicted this sender's previous frame.  Also refreshes the
        encoder's own decoder-state mirror, so subsequent differential
        messages diff against what was actually (re)sent.
        """
        frame = np.asarray(frame, dtype=np.float32)
        if frame.shape != (self.frame_width,):
            raise ValueError(
                f"expected frame of shape ({self.frame_width},), got {frame.shape}"
            )
        if self._sent is None:
            self._sent = frame.copy()
        else:
            self._sent[:] = frame
        raw = _HEADER.pack(tick, FULL_FRAME) + frame.tobytes()
        return self._finish(raw, self.frame_width)

    def _finish(self, raw: bytes, entries: int) -> bytes:
        """Compress ``raw`` and account it in the Table 2 statistics."""
        msg = zlib.compress(raw, level=6)
        self.stats.messages += 1
        self.stats.raw_bytes += len(raw)
        self.stats.compressed_bytes += len(msg)
        self.stats.entries_sent += int(entries)
        return msg

    def reset(self) -> None:
        """Forget the decoder-state mirror (forces a full resend)."""
        self._sent = None


class DifferentialDecoder:
    """Daemon side: reconstruct full frames from change messages.

    Mirrors the encoder's Table 2 accounting in :attr:`stats`, so a
    server can measure the §3.3 byte savings on the traffic it actually
    received without trusting the senders' own counters.
    """

    def __init__(self, frame_width: int):
        if frame_width <= 0 or frame_width >= FULL_FRAME:
            raise ValueError(f"frame_width out of range: {frame_width}")
        self.frame_width = int(frame_width)
        self._state = np.zeros(frame_width, dtype=np.float32)
        self._have_state = False
        self.stats = WireStats()

    @property
    def synchronized(self) -> bool:
        """Whether the decoder holds previous-frame state."""
        return self._have_state

    def decode(self, msg: bytes) -> tuple[int, np.ndarray]:
        """Return ``(tick, full_frame)``; raises on malformed input.

        A partial differential message on a decoder with no state
        raises :class:`WireDesyncError` (the caller should request a
        resync); a full-coverage message — explicit
        :data:`FULL_FRAME` resync or a differential touching every
        indicator — (re)establishes state from any starting point.

        A message is validated whole before any of it is applied: a
        rejected one leaves the previous frame, :attr:`synchronized`
        and :attr:`stats` untouched.  Indices must be strictly ascending
        (all the encoder ever emits); a repeated or out-of-order index
        is malformed, not resolved by some assignment order.
        """
        raw = zlib.decompress(msg)
        if len(raw) < _HEADER.size:
            raise ValueError("truncated wire message")
        tick, count = _HEADER.unpack_from(raw, 0)
        if count == FULL_FRAME:
            expect = _HEADER.size + self.frame_width * 4
            if len(raw) != expect:
                raise ValueError(
                    f"malformed full-frame message: {len(raw)} bytes, "
                    f"expected {expect}"
                )
            self._state[:] = np.frombuffer(
                raw, dtype="<f4", count=self.frame_width, offset=_HEADER.size
            )
            return self._account(tick, raw, self.frame_width, len(msg))
        expect = _HEADER.size + count * _ENTRY.itemsize
        if len(raw) != expect:
            raise ValueError(
                f"malformed message: {len(raw)} bytes, expected {expect}"
            )
        if not self._have_state and count < self.frame_width:
            raise WireDesyncError(
                f"differential message ({count} of {self.frame_width} "
                f"indicators) received with no previous-frame state; "
                f"a full-frame resync is required"
            )
        entries = np.frombuffer(raw, dtype=_ENTRY, offset=_HEADER.size)
        index = entries["index"]
        if count:
            if index[-1] >= self.frame_width:
                raise ValueError(
                    f"indicator index {index[-1]} out of range"
                )
            if count > 1 and not (index[1:] > index[:-1]).all():
                raise ValueError("indicator indices not strictly ascending")
            self._state[index] = entries["value"]
        return self._account(tick, raw, count, len(msg))

    def _account(
        self, tick: int, raw: bytes, entries: int, compressed: int
    ) -> tuple[int, np.ndarray]:
        """Mark state established, update stats, hand out the frame."""
        self._have_state = True
        self.stats.messages += 1
        self.stats.raw_bytes += len(raw)
        self.stats.compressed_bytes += int(compressed)
        self.stats.entries_sent += int(entries)
        return tick, self._state.astype(np.float64)


class DecoderPool:
    """Per-sender decoders with explicit lifecycle (the server side).

    One long-lived daemon decodes many senders' differential streams;
    each stream needs its own previous-frame state.  The pool creates a
    :class:`DifferentialDecoder` per sender key on first use and
    **evicts it on disconnect** — without eviction the state grows with
    the all-time sender count, and worse, a *reconnecting* sender would
    silently decode against the frame its previous incarnation left
    behind.  After eviction the fresh decoder accepts nothing but a
    state-establishing message (full frame or all-indicator
    differential), so a stale-encoder reconnect surfaces as
    :class:`WireDesyncError` instead of garbage frames.
    """

    def __init__(self, frame_width: int):
        if frame_width <= 0 or frame_width >= FULL_FRAME:
            raise ValueError(f"frame_width out of range: {frame_width}")
        self.frame_width = int(frame_width)
        self._decoders: Dict[Hashable, DifferentialDecoder] = {}
        #: Decoders dropped via :meth:`evict` (connection-churn counter).
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._decoders)

    def __contains__(self, sender: Hashable) -> bool:
        return sender in self._decoders

    def decoder(self, sender: Hashable) -> DifferentialDecoder:
        """The live decoder for ``sender``, created on first use."""
        dec = self._decoders.get(sender)
        if dec is None:
            dec = self._decoders[sender] = DifferentialDecoder(
                self.frame_width
            )
        return dec

    def decode(self, sender: Hashable, msg: bytes) -> tuple[int, np.ndarray]:
        """Decode ``msg`` against ``sender``'s stream state."""
        return self.decoder(sender).decode(msg)

    def evict(self, sender: Hashable) -> bool:
        """Drop ``sender``'s decode state (call on disconnect).

        Returns whether state existed.  Compressed-byte accounting for
        the §3.3 savings must be read (:meth:`stats`) before parting
        with the decoder, so servers typically fold the per-sender
        stats into their own counters first.
        """
        existed = self._decoders.pop(sender, None) is not None
        if existed:
            self.evictions += 1
        return existed

    def stats(self, sender: Hashable) -> Optional[WireStats]:
        """``sender``'s receive-side :class:`WireStats`, if live."""
        dec = self._decoders.get(sender)
        return dec.stats if dec is not None else None
