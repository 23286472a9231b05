"""Wire-protocol lifecycle: resync messages, desync detection, pools.

The §3.3 protocol is stateful per sender, so a long-lived daemon needs
three guarantees the original encoder/decoder pair did not give:

- an explicit **full-frame resync message** that re-establishes decoder
  state from any starting point (``encode_full``);
- a loud failure (:class:`WireDesyncError`) when a *partial*
  differential message hits a decoder with no previous-frame state —
  the stale-encoder reconnect, which previously decoded garbage
  against zeros;
- per-sender decoder lifecycle (:class:`DecoderPool`): created on
  first use, evicted on disconnect, stats foldable before eviction.

The hypothesis test at the bottom drives random drop/reconnect
sequences through an encoder/pool pair and asserts the client-visible
contract: every frame that decodes, decodes *correctly*, and every
stale-encoder resume raises rather than desynchronising silently.
"""

import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest

from repro.telemetry.wire import (
    FULL_FRAME,
    DecoderPool,
    DifferentialDecoder,
    DifferentialEncoder,
    WireDesyncError,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

W = 7


def _frames(rng, n, width=W):
    frames = rng.normal(size=(n, width))
    # Real PI frames change sparsely; zero some columns per tick.
    frames[:, :: 2] = np.round(frames[:, ::2])
    return frames


class TestEncodeFull:
    def test_round_trips_from_scratch(self):
        rng = np.random.default_rng(0)
        enc, dec = DifferentialEncoder(W), DifferentialDecoder(W)
        frame = rng.normal(size=W)
        tick, out = dec.decode(enc.encode_full(5, frame))
        assert tick == 5
        np.testing.assert_allclose(out, frame.astype(np.float32))
        assert dec.synchronized

    def test_reestablishes_state_mid_stream(self):
        rng = np.random.default_rng(1)
        enc = DifferentialEncoder(W)
        frames = _frames(rng, 4)
        enc.encode(0, frames[0])
        enc.encode(1, frames[1])
        # A decoder that saw nothing: the full frame is self-contained,
        # and subsequent differentials patch onto it correctly.
        dec = DifferentialDecoder(W)
        _, out = dec.decode(enc.encode_full(2, frames[2]))
        np.testing.assert_allclose(out, frames[2].astype(np.float32))
        _, out = dec.decode(enc.encode(3, frames[3]))
        np.testing.assert_allclose(out, frames[3].astype(np.float32))

    def test_refreshes_encoder_mirror(self):
        """After encode_full the next differential diffs against it."""
        rng = np.random.default_rng(2)
        enc = DifferentialEncoder(W)
        frame = rng.normal(size=W)
        enc.encode(0, frame)
        enc.encode_full(1, frame)
        dec = DifferentialDecoder(W)
        dec.decode(enc.encode_full(2, frame))
        # Identical frame → the differential should carry zero entries.
        before = enc.stats.entries_sent
        _, out = dec.decode(enc.encode(3, frame))
        assert enc.stats.entries_sent == before
        np.testing.assert_allclose(out, frame.astype(np.float32))

    def test_width_capped_below_sentinel(self):
        with pytest.raises(ValueError, match="frame_width"):
            DifferentialEncoder(FULL_FRAME)
        with pytest.raises(ValueError, match="frame_width"):
            DifferentialDecoder(FULL_FRAME + 7)


class TestDesyncDetection:
    def test_partial_differential_without_state_raises(self):
        enc = DifferentialEncoder(W)
        first = np.arange(W, dtype=float)
        second = first.copy()
        second[3] += 1.0  # sparse change: a genuinely partial diff
        enc.encode(0, first)  # establishes the *encoder's* mirror
        msg = enc.encode(1, second)  # partial differential
        fresh = DifferentialDecoder(W)
        with pytest.raises(WireDesyncError):
            fresh.decode(msg)
        # The error is sticky-safe: state stays unestablished.
        assert not fresh.synchronized

    def test_all_indicator_differential_establishes_state(self):
        """A first message covering every index is self-contained."""
        enc = DifferentialEncoder(W)
        frame = np.arange(W, dtype=float)
        msg = enc.encode(0, frame)  # first encode covers all indices
        dec = DifferentialDecoder(W)
        tick, out = dec.decode(msg)
        assert tick == 0 and dec.synchronized
        np.testing.assert_allclose(out, frame)

    def test_desync_error_is_value_error(self):
        """Callers catching ValueError for malformed input still work."""
        assert issubclass(WireDesyncError, ValueError)


def _differential(tick, entries):
    """A hand-built differential message: ``[(index, value), ...]``."""
    raw = struct.pack("<qH", tick, len(entries)) + b"".join(
        struct.pack("<Hf", i, v) for i, v in entries
    )
    return zlib.compress(raw)


class TestRejectedMessageLeavesNoTrace:
    """A message the decoder rejects must not have been half-applied."""

    def _synchronized(self):
        enc, dec = DifferentialEncoder(W), DifferentialDecoder(W)
        frame = np.arange(W, dtype=float)
        dec.decode(enc.encode(0, frame))
        return enc, dec, frame

    @pytest.mark.parametrize(
        "entries",
        [
            [(1, 10.0), (2, 20.0), (W, 30.0)],  # in range, in range, out
            [(1, 10.0), (W + 5, 20.0), (3, 30.0)],  # out of range mid-way
            [(2, 10.0), (2, 20.0)],  # repeated index
            [(4, 10.0), (1, 20.0)],  # descending
        ],
    )
    def test_state_and_stats_untouched_then_stream_continues(self, entries):
        enc, dec, frame = self._synchronized()
        state, stats = dec._state.copy(), replace(dec.stats)
        with pytest.raises(ValueError):
            dec.decode(_differential(1, entries))
        assert dec._state.tobytes() == state.tobytes()
        assert dec.stats == stats and dec.synchronized
        # The sender never saw the bad message; its next differential
        # still decodes to the right frame.
        frame[3] += 2.5
        tick, out = dec.decode(enc.encode(2, frame))
        assert tick == 2
        np.testing.assert_array_equal(out, frame)

    def test_rejected_first_message_leaves_decoder_unsynchronized(self):
        dec = DifferentialDecoder(W)
        entries = [(i, 1.0) for i in range(W - 1)] + [(W - 2, 9.0)]
        with pytest.raises(ValueError):
            dec.decode(_differential(0, entries))
        assert not dec.synchronized and dec.stats.messages == 0
        assert not dec._state.any()

    def test_ascending_hand_built_message_is_accepted(self):
        _, dec, frame = self._synchronized()
        _, out = dec.decode(_differential(1, [(0, 7.0), (W - 1, -7.0)]))
        frame[0], frame[W - 1] = 7.0, -7.0
        np.testing.assert_array_equal(out, frame)


class TestDecoderPool:
    def test_create_on_first_use_and_evict(self):
        pool = DecoderPool(W)
        enc = DifferentialEncoder(W)
        frame = np.ones(W)
        assert "a" not in pool and len(pool) == 0
        tick, out = pool.decode("a", enc.encode(0, frame))
        assert tick == 0 and "a" in pool and len(pool) == 1
        assert pool.evict("a") is True
        assert "a" not in pool and len(pool) == 0
        assert pool.evictions == 1
        assert pool.evict("a") is False  # idempotent, not double-counted
        assert pool.evictions == 1

    def test_streams_are_independent(self):
        pool = DecoderPool(W)
        enc_a, enc_b = DifferentialEncoder(W), DifferentialEncoder(W)
        fa, fb = np.full(W, 2.0), np.full(W, 9.0)
        pool.decode("a", enc_a.encode(0, fa))
        pool.decode("b", enc_b.encode(0, fb))
        _, out_a = pool.decode("a", enc_a.encode(1, fa))
        _, out_b = pool.decode("b", enc_b.encode(1, fb))
        np.testing.assert_allclose(out_a, fa)
        np.testing.assert_allclose(out_b, fb)

    def test_reconnect_after_eviction_needs_resync(self):
        """The server-restart bug this PR exists to prevent."""
        pool = DecoderPool(W)
        enc = DifferentialEncoder(W)
        base = np.arange(W, dtype=float)
        frames = [base.copy(), base.copy(), base.copy()]
        frames[1][2] += 1.0  # sparse change: a genuinely partial diff
        frames[2][5] += 1.0
        pool.decode("a", enc.encode(0, frames[0]))
        pool.evict("a")  # the disconnect
        # The sender kept its encoder: its next differential is partial.
        msg = enc.encode(1, frames[1])
        with pytest.raises(WireDesyncError):
            pool.decode("a", msg)
        # Recovery: the sender responds with an explicit full frame.
        _, out = pool.decode("a", enc.encode_full(1, frames[1]))
        np.testing.assert_allclose(out, frames[1].astype(np.float32))
        _, out = pool.decode("a", enc.encode(2, frames[2]))
        np.testing.assert_allclose(out, frames[2].astype(np.float32))

    def test_stats_visible_until_eviction(self):
        pool = DecoderPool(W)
        enc = DifferentialEncoder(W)
        pool.decode("a", enc.encode(0, np.ones(W)))
        stats = pool.stats("a")
        assert stats is not None and stats.messages == 1
        assert stats.compressed_bytes > 0
        pool.evict("a")
        assert pool.stats("a") is None


# -- drop/reconnect property test -------------------------------------------

#: One sender's life as the server sees it: "frame" = deliver the next
#: differential; "drop" = server evicts (client keeps its encoder);
#: "reconnect" = client resets its encoder before the next frame.
_EVENTS = st.lists(
    st.sampled_from(["frame", "drop", "reconnect"]),
    min_size=1,
    max_size=40,
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(events=_EVENTS, seed=st.integers(0, 2**31 - 1))
def test_drop_reconnect_sequences_never_decode_garbage(events, seed):
    """Whatever the churn order, decoded frames are always correct.

    After a server-side drop, a stale encoder's partial differentials
    must raise :class:`WireDesyncError` until the client performs the
    resync handshake (here: ``encode_full`` on the next frame, which is
    what :class:`repro.serve.client.ServeClient` does on RESYNC); a
    client-side reconnect (fresh encoder) is self-synchronising because
    its first message covers every indicator.
    """
    rng = np.random.default_rng(seed)
    pool = DecoderPool(W)
    enc = DifferentialEncoder(W)
    tick = 0
    for event in events:
        if event == "drop":
            pool.evict("c")
        elif event == "reconnect":
            enc.reset()
        else:
            frame = np.round(rng.normal(size=W), 2)
            tick += 1
            try:
                got_tick, out = pool.decode("c", enc.encode(tick, frame))
            except WireDesyncError:
                # The serve RESYNC path: same tick, resent in full.
                got_tick, out = pool.decode(
                    "c", enc.encode_full(tick, frame)
                )
            assert got_tick == tick
            np.testing.assert_allclose(out, frame.astype(np.float32))
