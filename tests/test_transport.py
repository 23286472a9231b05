"""The transport layer under a microscope (framing, media, codecs).

The collection stack's load-bearing property is that **both byte
media behave identically**: a forked worker over a pipe and an
in-process loopback pair must frame, reassemble, reject and close
exactly the same way, because they share one
:class:`~repro.transport.base.StreamTransport` /
:class:`~repro.transport.framing.FrameDecoder` implementation.  The
hypothesis properties here feed *arbitrary byte splits* — half a
prefix, coalesced frames, one byte per chunk — through every medium
and require identical message streams out.

The hypothesis runs are derandomized so the tier-1 suite stays
deterministic; bump ``max_examples`` locally when hunting.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replaydb.records import PackedRecords
from repro.transport import (
    MAX_PAYLOAD,
    MSG_CMD,
    FrameDecoder,
    LoopbackTransport,
    PipeTransport,
    ProtocolError,
    TransportClosedError,
    decode_command,
    decode_error,
    decode_reply,
    decode_sections,
    encode_command,
    encode_error,
    encode_frame,
    encode_reply,
    encode_sections,
    loopback_pair,
    pipe_pair,
)
from repro.transport.framing import PREFIX

SETTINGS = dict(max_examples=25, deadline=None, derandomize=True)

TRANSPORTS = ["loopback", "pipe"]


def make_pair(kind: str, max_payload: int = MAX_PAYLOAD):
    """A connected (a, b) transport pair of the requested medium."""
    if kind == "loopback":
        return loopback_pair(max_payload=max_payload)
    if kind == "pipe":
        a, b = pipe_pair()
        a._decoder.max_payload = max_payload
        b._decoder.max_payload = max_payload
        return a, b
    raise AssertionError(kind)


def chunked(data: bytes, cuts) -> list:
    """Split ``data`` at the (sorted, deduplicated) cut offsets."""
    points = sorted({c % (len(data) + 1) for c in cuts} | {0, len(data)})
    return [
        data[lo:hi]
        for lo, hi in zip(points, points[1:])
        if hi > lo  # empty chunks read as EOF on pipes/queues
    ]


# --------------------------------------------------------------------------
# Framing properties: every medium, every byte split
# --------------------------------------------------------------------------

frames_st = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=255),
        st.binary(max_size=120),
    ),
    min_size=1,
    max_size=6,
)
cuts_st = st.lists(st.integers(min_value=0, max_value=10_000), max_size=12)


@pytest.mark.parametrize("kind", TRANSPORTS)
@settings(**SETTINGS)
@given(frames=frames_st, cuts=cuts_st)
def test_any_byte_split_reassembles_identically(kind, frames, cuts):
    """Frames survive arbitrary chunking on every medium, in order."""
    wire = b"".join(encode_frame(t, p) for t, p in frames)
    a, b = make_pair(kind)
    try:
        for chunk in chunked(wire, cuts):
            a._write_bytes(chunk)
        got = [b.recv() for _ in frames]
        assert got == frames
    finally:
        a.close()
        b.close()


@settings(**SETTINGS)
@given(frames=frames_st, cuts=cuts_st)
def test_frame_decoder_matches_oracle(frames, cuts):
    """The incremental decoder equals decode-everything-at-once."""
    wire = b"".join(encode_frame(t, p) for t, p in frames)
    decoder = FrameDecoder()
    out = []
    for chunk in chunked(wire, cuts):
        out.extend(decoder.feed(chunk))
    assert out == frames
    assert decoder.at_boundary and decoder.buffered == 0


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_truncated_final_frame_is_a_protocol_error(kind):
    """EOF mid-frame is corruption, not a clean goodbye."""
    a, b = make_pair(kind)
    whole = encode_frame(7, b"payload bytes")
    a._write_bytes(whole[: len(whole) - 3])
    a.close()
    with pytest.raises(ProtocolError, match="mid-frame"):
        b.recv()
    b.close()


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_clean_eof_between_frames_is_transport_closed(kind):
    """EOF at a frame boundary delivers the frame, then a clean close."""
    a, b = make_pair(kind)
    a.send(3, b"last words")
    a.close()
    assert b.recv() == (3, b"last words")
    with pytest.raises(TransportClosedError):
        b.recv()
    assert b.closed
    b.close()


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_oversized_frame_rejected_before_buffering(kind):
    """A length prefix beyond the cap raises on every medium.

    The bogus prefix claims a huge payload that is never sent — the
    decoder must reject it from the prefix alone, not try to buffer.
    """
    cap = 64
    a, b = make_pair(kind, max_payload=cap)
    a._write_bytes(PREFIX.pack(MSG_CMD, cap + 1))
    with pytest.raises(ProtocolError, match="exceeds cap"):
        b.recv()
    with pytest.raises(ProtocolError):
        a.send(MSG_CMD, b"x" * (cap + 1))
    a.close()
    b.close()


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_close_is_idempotent_and_fences_send(kind):
    a, b = make_pair(kind)
    a.close()
    a.close()  # second close is a no-op
    assert a.closed
    with pytest.raises(TransportClosedError):
        a.send(1, b"too late")
    b.close()
    b.close()


@pytest.mark.parametrize("kind", TRANSPORTS)
@pytest.mark.parametrize("how", ["recv_eof", "send_failure"])
def test_close_releases_the_medium_after_the_peer_went_away(kind, how):
    """Regression: once the peer was gone (EOF on recv, a failed write
    on send), ``close()`` returned early and never released this
    side's medium — one leaked descriptor per crashed peer."""
    a, b = make_pair(kind)
    released = []
    release = a._close_medium
    a._close_medium = lambda: (released.append(True), release())
    b.close()
    if how == "recv_eof":
        with pytest.raises(TransportClosedError):
            a.recv()
    else:

        def broken_write(data):
            raise BrokenPipeError("peer went away")

        a._write_bytes = broken_write
        with pytest.raises(TransportClosedError):
            a.send(1, b"into the void")
    assert a.closed
    a.close()
    a.close()
    assert released == [True]  # exactly once, even after the peer left


# --------------------------------------------------------------------------
# Section codec: raw buffers, not pickles
# --------------------------------------------------------------------------


def test_sections_round_trip_arrays_byte_exact():
    arrays = {
        "obs": np.linspace(-1.0, 1.0, 7),
        "ticks": np.arange(5, dtype=np.int64),
        "frames": np.arange(10, dtype=np.float64).reshape(5, 2),
    }
    payload = encode_sections(
        {"cmd": "x", "k": 3}, arrays, blobs={"raw": b"\x00\xffblob"}
    )
    meta, got, blobs = decode_sections(payload)
    assert meta == {"cmd": "x", "k": 3}
    assert blobs == {"raw": b"\x00\xffblob"}
    for name, arr in arrays.items():
        assert got[name].dtype == arr.dtype
        assert got[name].shape == arr.shape
        assert got[name].tobytes() == arr.tobytes()
        assert not got[name].flags.writeable  # zero-copy view


@pytest.mark.parametrize(
    "mangle",
    [
        lambda p: p[:3],  # shorter than the header-length word
        lambda p: p[:6],  # header overruns payload
        lambda p: p[:4] + b"\xff" + p[5:],  # header is not JSON
        lambda p: p[: len(p) - 1],  # final array buffer truncated
    ],
)
def test_sections_reject_corruption(mangle):
    payload = encode_sections({"a": 1}, {"x": np.arange(4.0)})
    with pytest.raises(ProtocolError):
        decode_sections(mangle(payload))


# --------------------------------------------------------------------------
# Command / reply / error codecs
# --------------------------------------------------------------------------


def test_command_round_trips_strip_master_only_pieces():
    out_buffer = np.empty(3)  # must never cross the boundary
    cmd, env, data = decode_command(
        encode_command("step", 2, (np.int64(4), out_buffer, 17))
    )
    assert (cmd, env) == ("step", 2)
    assert data == (4, None, 17)

    cmd, env, data = decode_command(
        encode_command("run_chunk", 0, (None, 25, None, out_buffer))
    )
    assert (cmd, env) == ("run_chunk", 0)
    assert data == (None, 25, None, None)

    assert decode_command(encode_command("reset", 1, True)) == (
        "reset",
        1,
        True,
    )
    assert decode_command(encode_command("records", 3, 99)) == (
        "records",
        3,
        99,
    )
    assert decode_command(encode_command("close", 5)) == ("close", 5, None)
    assert decode_command(
        encode_command("commit", 0, {"note": [11, 22]})
    ) == ("commit", 0, {"note": [11, 22]})


def test_call_command_json_fast_path_and_pickle_fallback():
    cmd, _env, (name, args, kwargs) = decode_command(
        encode_command("call", 0, ("env_method", ("a", 2), {"flag": True}))
    )
    assert (cmd, name, args, kwargs) == (
        "call",
        "env_method",
        ("a", 2),
        {"flag": True},
    )
    # Non-JSON arguments take the flagged trusted-peer pickle path.
    arr = np.arange(3)
    _cmd, _env, (_name, args, _kwargs) = decode_command(
        encode_command("call", 0, ("env_method", (arr,), {}))
    )
    assert np.array_equal(args[0], arr)


def _packed(n: int = 4, frame_dim: int = 2) -> PackedRecords:
    return PackedRecords(
        ticks=np.arange(n, dtype=np.int64),
        frames=np.arange(n * frame_dim, dtype=np.float64).reshape(
            n, frame_dim
        ),
        actions=np.arange(n, dtype=np.int64) % 3,
        rewards=np.linspace(0.0, 1.0, n),
    )


def test_reply_round_trips_packed_records_byte_exact():
    packed = _packed()
    obs = np.linspace(0.0, 5.0, 6)
    cmd, (got_obs, reward, info, got) = decode_reply(
        encode_reply("step", (obs, 0.125, {"tick": 9}, packed))
    )
    assert cmd == "step"
    assert got_obs.tobytes() == obs.tobytes()
    assert reward == 0.125 and info == {"tick": 9}
    for name in ("ticks", "frames", "actions", "rewards"):
        assert getattr(got, name).tobytes() == getattr(
            packed, name
        ).tobytes(), name

    cmd, got = decode_reply(encode_reply("records", packed))
    assert cmd == "records" and len(got) == len(packed)
    cmd, got = decode_reply(encode_reply("records", None))
    assert cmd == "records" and got is None

    rewards = np.linspace(-1.0, 1.0, 5)
    cmd, (got_r, got_obs, got_p) = decode_reply(
        encode_reply("run_chunk", (rewards, obs, None))
    )
    assert got_r.tobytes() == rewards.tobytes()
    assert got_obs.tobytes() == obs.tobytes()
    assert got_p is None


def test_call_reply_kinds():
    for value in ({"a": 1}, [1, 2], "text", None, 3.5):
        assert decode_reply(encode_reply("call", value)) == ("call", value)
    arr = np.arange(6.0).reshape(2, 3)
    _cmd, got = decode_reply(encode_reply("call", arr))
    assert got.tobytes() == arr.tobytes() and got.shape == arr.shape
    obj = {("tuple", "key"): 1}  # not JSON-able -> pickle kind
    assert decode_reply(encode_reply("call", obj)) == ("call", obj)


def test_error_codec_carries_picklable_exceptions_whole():
    try:
        raise ValueError("knob 3 out of range")
    except ValueError as exc:
        env, text, got = decode_error(encode_error(exc, "text form", 3))
    assert env == 3 and text == "text form"
    assert isinstance(got, ValueError) and str(got) == "knob 3 out of range"


def test_error_codec_falls_back_to_text_for_unpicklable():
    class Hostage(Exception):
        def __reduce__(self):
            raise TypeError("not today")

    env, text, got = decode_error(
        encode_error(Hostage("boom"), "Hostage: boom\n[worker traceback]", 1)
    )
    assert got is None  # the blob was dropped, not sent broken
    assert env == 1 and "Hostage: boom" in text


def test_error_codec_rejects_lying_picklers():
    class Liar(Exception):
        """Pickles fine, explodes on load — must not cross as a blob."""

        def __reduce__(self):
            return (_raise_on_load, ())

    env, _text, got = decode_error(encode_error(Liar("x"), "Liar: x", 0))
    assert got is None and env == 0


def _raise_on_load():
    raise RuntimeError("surprise at unpickle time")


def test_pickle_sanity_for_liar_helper():
    # The helper really does blow up at load time (guards the test above).
    blob = pickle.dumps((_raise_on_load, ()))
    fn, args = pickle.loads(blob)
    with pytest.raises(RuntimeError):
        fn(*args)


# --------------------------------------------------------------------------
# Transports carry codec traffic end to end
# --------------------------------------------------------------------------


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_codec_payloads_cross_every_medium(kind):
    a, b = make_pair(kind)
    try:
        packed = _packed(n=6, frame_dim=3)
        a.send(MSG_CMD, encode_command("records", 1, 42))
        msg_type, payload = b.recv()
        assert msg_type == MSG_CMD
        assert decode_command(payload) == ("records", 1, 42)
        b.send(0x21, encode_reply("records", packed))
        _t, payload = a.recv()
        _cmd, got = decode_reply(payload)
        assert got.frames.tobytes() == packed.frames.tobytes()
    finally:
        a.close()
        b.close()
