"""Byte-exact oracle for the §3.3 differential wire codec.

The reference below is the codec as it stood before the array-at-once
rewrite, kept verbatim: one ``struct`` call per ``(uint16 index,
float32 value)`` entry on both sides.  Every test drives the reference
pair and :mod:`repro.telemetry.wire` through the same operations and
requires

- ``bytes`` equality of every message (so Table 2's message size and
  compression ratio cannot move),
- ``tobytes()`` equality (and equal dtype) of every decoded frame,
- ``==`` on both sides' :class:`~repro.telemetry.wire.WireStats`.

It was cut on the per-entry code, where it passes trivially, and must
stay green across any change to the codec.
"""

import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest

from repro import ClusterConfig, EnvConfig
from repro.replaydb.db import CACHE_ONLY
from repro.rl import Hyperparameters
from repro.sim.vec.fleet_env import FleetEnv
from repro.telemetry.wire import (
    CHANGE_EPS,
    FULL_FRAME,
    DifferentialDecoder,
    DifferentialEncoder,
    WireStats,
)
from repro.workloads import RandomReadWrite

_HEADER = struct.Struct("<qH")
_ENTRY = struct.Struct("<Hf")

# inf - inf inside the change test is NaN, and 1e39 rounds to a float32
# inf, on both sides alike.
pytestmark = [
    pytest.mark.filterwarnings("ignore:invalid value encountered"),
    pytest.mark.filterwarnings("ignore:overflow encountered in cast"),
]


# -- the reference: per-entry struct loops, verbatim ------------------------


class ReferenceEncoder:
    def __init__(self, frame_width: int):
        self.frame_width = int(frame_width)
        self._sent = None
        self.stats = WireStats()

    def encode(self, tick, frame):
        frame = np.asarray(frame, dtype=np.float32)
        if frame.shape != (self.frame_width,):
            raise ValueError(frame.shape)
        if self._sent is None:
            changed = np.arange(self.frame_width)
            self._sent = frame.copy()
        else:
            changed = np.flatnonzero(
                np.abs(frame - self._sent) > CHANGE_EPS
            )
            self._sent[changed] = frame[changed]
        parts = [_HEADER.pack(tick, len(changed))]
        for idx in changed:
            parts.append(_ENTRY.pack(int(idx), float(frame[idx])))
        return self._finish(b"".join(parts), len(changed))

    def encode_full(self, tick, frame):
        frame = np.asarray(frame, dtype=np.float32)
        if frame.shape != (self.frame_width,):
            raise ValueError(frame.shape)
        if self._sent is None:
            self._sent = frame.copy()
        else:
            self._sent[:] = frame
        raw = _HEADER.pack(tick, FULL_FRAME) + frame.tobytes()
        return self._finish(raw, self.frame_width)

    def _finish(self, raw, entries):
        msg = zlib.compress(raw, level=6)
        self.stats.messages += 1
        self.stats.raw_bytes += len(raw)
        self.stats.compressed_bytes += len(msg)
        self.stats.entries_sent += int(entries)
        return msg

    def reset(self):
        self._sent = None


class ReferenceDecoder:
    def __init__(self, frame_width: int):
        self.frame_width = int(frame_width)
        self._state = np.zeros(frame_width, dtype=np.float32)
        self._have_state = False
        self.stats = WireStats()

    def decode(self, msg):
        raw = zlib.decompress(msg)
        tick, count = _HEADER.unpack_from(raw, 0)
        if count == FULL_FRAME:
            assert len(raw) == _HEADER.size + self.frame_width * 4
            self._state[:] = np.frombuffer(
                raw, dtype="<f4", count=self.frame_width, offset=_HEADER.size
            )
            return self._account(tick, raw, self.frame_width, len(msg))
        assert len(raw) == _HEADER.size + count * _ENTRY.size
        assert self._have_state or count == self.frame_width
        off = _HEADER.size
        for _ in range(count):
            idx, value = _ENTRY.unpack_from(raw, off)
            if idx >= self.frame_width:
                raise ValueError(f"indicator index {idx} out of range")
            self._state[idx] = value
            off += _ENTRY.size
        return self._account(tick, raw, count, len(msg))

    def _account(self, tick, raw, entries, compressed):
        self._have_state = True
        self.stats.messages += 1
        self.stats.raw_bytes += len(raw)
        self.stats.compressed_bytes += int(compressed)
        self.stats.entries_sent += int(entries)
        return tick, self._state.astype(np.float64).copy()


# -- the comparison ----------------------------------------------------------


def run_both(width, ops):
    """Drive both codec pairs through ``ops``; every byte must agree.

    ``ops`` is a sequence of ``("encode" | "full", tick, frame)`` and
    ``("reset",)``.  Returns the (shared) encoder statistics and the
    per-message entry counts.
    """
    ref_enc, ref_dec = ReferenceEncoder(width), ReferenceDecoder(width)
    enc, dec = DifferentialEncoder(width), DifferentialDecoder(width)
    entries = []
    for step, op in enumerate(ops):
        if op[0] == "reset":
            ref_enc.reset()
            enc.reset()
            continue
        kind, tick, frame = op
        before = enc.stats.entries_sent
        if kind == "full":
            want, got = ref_enc.encode_full(tick, frame), enc.encode_full(tick, frame)
        else:
            want, got = ref_enc.encode(tick, frame), enc.encode(tick, frame)
        assert got == want, f"message {step} differs"
        entries.append(enc.stats.entries_sent - before)
        want_tick, want_frame = ref_dec.decode(want)
        got_tick, got_frame = dec.decode(got)
        assert got_tick == want_tick == tick
        assert got_frame.dtype == want_frame.dtype == np.float64
        assert got_frame.tobytes() == want_frame.tobytes(), (
            f"decoded frame {step} differs"
        )
        # The decoder hands out a frame of its own every time.
        assert not np.shares_memory(got_frame, dec._state)
        assert enc.stats == ref_enc.stats
        assert dec.stats == ref_dec.stats
        assert dec.stats == enc.stats
    return enc.stats, entries


def sparse_walk(seed, n, width, p_change=0.08):
    rng = np.random.default_rng(seed)
    frame = rng.normal(size=width) * 100.0
    out = []
    for _ in range(n):
        frame = frame.copy()
        moved = rng.random(width) < p_change
        frame[moved] += rng.normal(size=int(moved.sum()))
        out.append(frame)
    return out


def as_ops(frames, first_tick=0):
    return [("encode", first_tick + i, f) for i, f in enumerate(frames)]


# -- the cases ---------------------------------------------------------------


def test_seeded_sparse_walk_500_ticks():
    stats, entries = run_both(110, as_ops(sparse_walk(1234, 500, 110)))
    assert stats.messages == 500
    assert entries[0] == 110 and 0 < np.mean(entries[1:]) < 20


def test_all_unchanged_tick_carries_no_entries():
    frame = np.linspace(-3.0, 9.0, 110)
    stats, entries = run_both(110, as_ops([frame, frame, frame.copy()]))
    assert entries == [110, 0, 0]
    assert stats.raw_bytes == _HEADER.size * 3 + 110 * _ENTRY.size


def test_all_changed_tick():
    rng = np.random.default_rng(5)
    frames = [rng.normal(size=110) for _ in range(4)]
    _, entries = run_both(110, as_ops(frames))
    assert entries == [110] * 4


def test_sub_epsilon_drift_stays_unsent():
    # Each step moves every indicator by less than CHANGE_EPS; the diff
    # is taken against the last *transmitted* value, so the drift is
    # sent exactly when it has accumulated past epsilon — identically
    # on both sides.
    base = np.full(16, 0.25)
    frames = [base + k * 0.4 * CHANGE_EPS for k in range(12)]
    _, entries = run_both(16, as_ops(frames))
    assert entries[0] == 16 and entries[1] == 0 and entries[2] == 0
    assert any(e == 16 for e in entries[3:])


def test_encode_full_mid_stream():
    frames = sparse_walk(7, 9, 110)
    ops = as_ops(frames[:4])
    ops.append(("full", 4, frames[4]))
    ops += as_ops(frames[5:], first_tick=5)
    _, entries = run_both(110, ops)
    assert entries[4] == 110


def test_encode_full_as_first_message():
    frames = sparse_walk(8, 3, 7)
    run_both(7, [("full", 0, frames[0])] + as_ops(frames[1:], first_tick=1))


def test_reset_mid_stream_resends_everything():
    frames = sparse_walk(9, 8, 110)
    ops = as_ops(frames[:4]) + [("reset",)] + as_ops(frames[4:], first_tick=4)
    _, entries = run_both(110, ops)
    assert entries[0] == 110 and entries[4] == 110 and entries[5] < 110


@pytest.mark.parametrize("width", [1, 110, 65534])
def test_widths(width):
    n = 30 if width < 1000 else 4
    frames = sparse_walk(width, n, width, p_change=0.3)
    # ... and one tick on which every indicator moves, so the entry
    # count reaches the width (65 534 is the largest count that is not
    # the FULL_FRAME sentinel).
    frames.append(frames[-1] + 1.0)
    _, entries = run_both(width, as_ops(frames))
    assert entries[0] == width and entries[-1] == width


def test_non_finite_and_signed_zero_values():
    nan, inf = float("nan"), float("inf")
    frames = [
        np.array([0.0, -0.0, nan, inf, -inf, 1.0, -1.0, 3e38]),
        np.array([-0.0, 0.0, nan, inf, -inf, 1.0, -1.0, 3e38]),  # unsent
        np.array([1.0, 2.0, 3.0, 4.0, 5.0, nan, inf, -inf]),
        np.array([-0.0, -0.0, -0.0, -0.0, nan, 0.0, 0.0, 0.0]),
        np.array([1e-45, -1e-45, 1e39, -1e39, 5.0, 6.0, 7.0, 8.0]),
    ]
    ops = as_ops(frames)
    ops.append(("full", 9, np.array([nan, -0.0, inf, -inf, 0.0, 1.0, 2.0, 3.0])))
    ops.append(("reset",))
    ops.append(("encode", 10, np.array([-0.0, nan, -inf, inf, 0.0, 1.0, 2.0, 3.0])))
    _, entries = run_both(8, ops)
    assert entries[1] == 0  # ±0.0 and NaN/inf "unchanged" compare equal


def test_float32_input_frames():
    frames = [f.astype(np.float32) for f in sparse_walk(21, 20, 33)]
    run_both(33, as_ops(frames))


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def op_streams(draw):
    width = draw(st.integers(1, 24))
    value = st.floats(width=32, allow_nan=True, allow_infinity=True)
    frame = np.array(
        draw(st.lists(value, min_size=width, max_size=width)), dtype=np.float64
    )
    ops = []
    for tick in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["encode"] * 6 + ["full", "reset"]))
        if kind == "reset":
            ops.append(("reset",))
            kind = "encode"
        frame = frame.copy()
        for idx in draw(st.lists(st.integers(0, width - 1), max_size=4)):
            frame[idx] = draw(value)
        ops.append((kind, tick, frame))
    return width, ops


@given(op_streams())
@settings(max_examples=150, deadline=None)
def test_random_streams_agree(stream):
    width, ops = stream
    run_both(width, ops)


# -- the benchmark's own traffic ---------------------------------------------


def _write_heavy(cluster, seed):
    return RandomReadWrite(
        cluster, read_fraction=0.1, instances_per_client=5, seed=seed
    )


def test_bench_message_stream_seed_42():
    """``serve_frozen``'s frames: 2 clients × 1 750 ticks off one fleet.

    205.95 compressed bytes per message at ratio 1.49104 is what
    ``python3 -m bench --workload serve_frozen --trace 1`` prints as
    ``telemetry.bytes_per_msg`` / ``telemetry.compression_ratio``.
    """
    hp = Hyperparameters(
        hidden_layer_size=64,
        exploration_ticks=800,
        sampling_ticks_per_observation=10,
        adam_learning_rate=5e-4,
        discount_rate=0.9,
        target_network_update_rate=0.02,
    )
    config = EnvConfig(
        cluster=ClusterConfig(n_servers=2, n_clients=5),
        workload_factory=_write_heavy,
        hp=hp,
        seed=42,
    )
    fleet = FleetEnv(replace(config, db_path=CACHE_ONLY), n_envs=2)
    fleet.reset()
    fleet.run_chunk(1750 - hp.sampling_ticks_per_observation)
    messages = raw = compressed = 0
    for i in range(2):
        packed = fleet.records_since_packed(-1, env_index=i)
        assert len(packed) == 1750
        stats, _ = run_both(
            packed.frames.shape[1],
            [("encode", int(t), f) for t, f in zip(packed.ticks, packed.frames)],
        )
        messages += stats.messages
        raw += stats.raw_bytes
        compressed += stats.compressed_bytes
    fleet.close()
    assert messages == 3500
    assert round(compressed / messages, 2) == 205.95
    assert round(raw / compressed, 5) == 1.49104
