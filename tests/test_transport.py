"""The wire formats under a microscope (serve framing, the fork pipe).

Two media, two kinds of test, one parameter: ``loopback`` keeps both
ends in this process, ``pipe`` puts an OS pipe in between.

- Framing: :func:`~repro.serve.protocol.read_message` is the
  serve daemon's reader of network input, where bytes arrive in any
  split.  The hypothesis properties feed *arbitrary byte splits* — half
  a prefix, coalesced frames, one byte per chunk — into an
  ``asyncio.StreamReader`` (``loopback``) or through an OS pipe the
  event loop reads (``pipe``), and require the same message stream out.
- The fork channel: a forked worker's commands and replies are whole
  ``multiprocessing`` pipe messages, each a pickled pair built by
  :mod:`repro.transport.codec`.  Its message form, close and crash
  paths run against the far end of the pipe held by the test itself
  (``loopback``) or by a real forked worker (``pipe``).

The hypothesis runs are derandomized so the tier-1 suite stays
deterministic; bump ``max_examples`` locally when hunting.
"""

import asyncio
import multiprocessing
import os
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.env.vector import _RemoteChannel
from repro.env.worker import WorkerCrashError
from repro.replaydb.records import PackedRecords
from repro.serve.protocol import (
    MAX_PAYLOAD,
    PREFIX,
    ProtocolError,
    pack_message,
    read_message,
)
from repro.transport import decode_reply, encode_reply

SETTINGS = dict(max_examples=25, deadline=None, derandomize=True)

MEDIA = ["loopback", "pipe"]


def chunked(data: bytes, cuts) -> list:
    """Split ``data`` at the (sorted, deduplicated) cut offsets."""
    points = sorted({c % (len(data) + 1) for c in cuts} | {0, len(data)})
    return [
        data[lo:hi]
        for lo, hi in zip(points, points[1:])
        if hi > lo  # an empty write would carry nothing
    ]


async def _read_all(reader, max_payload):
    """Every frame ``reader`` yields, and the error that ended it."""
    frames = []
    while True:
        try:
            frames.append(await read_message(reader, max_payload))
        except Exception as exc:
            return frames, exc


def read_stream(kind: str, chunks, max_payload: int = MAX_PAYLOAD):
    """``(frames, error)`` read by :func:`read_message` from
    ``chunks`` written one at a time, then EOF, over medium ``kind``."""

    async def main():
        reader = asyncio.StreamReader()
        pipe = None
        if kind == "loopback":
            write, eof = reader.feed_data, reader.feed_eof
        else:
            rfd, wfd = os.pipe()
            pipe, _ = await asyncio.get_running_loop().connect_read_pipe(
                lambda: asyncio.StreamReaderProtocol(reader),
                os.fdopen(rfd, "rb", buffering=0),
            )

            def write(chunk):
                os.write(wfd, chunk)

            def eof():
                os.close(wfd)

        task = asyncio.ensure_future(_read_all(reader, max_payload))
        try:
            for chunk in chunks:
                write(chunk)
                await asyncio.sleep(0)  # the reader may see this chunk alone
            eof()
            return await task
        finally:
            if pipe is not None:
                pipe.close()

    return asyncio.run(main())


def oracle(wire: bytes) -> list:
    """Decode a whole byte string at once, prefix by prefix."""
    out, offset = [], 0
    while offset < len(wire):
        msg_type, length = PREFIX.unpack_from(wire, offset)
        offset += PREFIX.size
        out.append((msg_type, wire[offset : offset + length]))
        offset += length
    return out


# --------------------------------------------------------------------------
# Framing properties: the serve reader, every medium, every byte split
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


@pytest.mark.parametrize("kind", MEDIA)
@settings(**SETTINGS)
@given(frames=frames_st, cuts=cuts_st)
def test_any_byte_split_reassembles_identically(kind, frames, cuts):
    """Frames survive arbitrary chunking on every medium, in order."""
    wire = b"".join(pack_message(t, p) for t, p in frames)
    got, end = read_stream(kind, chunked(wire, cuts))
    assert got == frames
    assert isinstance(end, asyncio.IncompleteReadError) and not end.partial


@settings(**SETTINGS)
@given(frames=frames_st, cuts=cuts_st)
def test_frame_decoder_matches_oracle(frames, cuts):
    """The incremental reader equals decode-everything-at-once."""
    wire = b"".join(pack_message(t, p) for t, p in frames)
    got, end = read_stream("loopback", chunked(wire, cuts))
    assert got == oracle(wire) == frames
    assert isinstance(end, asyncio.IncompleteReadError) and not end.partial


@pytest.mark.parametrize("kind", MEDIA)
def test_truncated_final_frame_is_a_protocol_error(kind):
    """EOF mid-frame is a truncated frame, not a clean goodbye: the
    reader raises with the partial payload in hand (serve drops that
    peer) and never returns a short frame."""
    whole = pack_message(7, b"payload bytes")
    got, end = read_stream(kind, [whole[: len(whole) - 3]])
    assert got == []
    assert isinstance(end, asyncio.IncompleteReadError)
    assert end.partial == whole[PREFIX.size : len(whole) - 3]


@pytest.mark.parametrize("kind", MEDIA)
def test_clean_eof_between_frames_is_transport_closed(kind):
    """EOF at a frame boundary delivers the frame, then a clean close:
    end of stream with no partial bytes."""
    got, end = read_stream(kind, [pack_message(3, b"last words")])
    assert got == [(3, b"last words")]
    assert isinstance(end, asyncio.IncompleteReadError)
    assert end.partial == b""


@pytest.mark.parametrize("kind", MEDIA)
def test_oversized_frame_rejected_before_buffering(kind):
    """A length prefix beyond the cap raises on every medium.

    The bogus prefix claims a payload that is never sent — the reader
    must reject it from the prefix alone; reading on would end in
    ``IncompleteReadError`` instead.
    """
    cap = 64
    got, end = read_stream(kind, [PREFIX.pack(0x20, cap + 1)], cap)
    assert got == []
    assert isinstance(end, ProtocolError) and "exceeds cap" in str(end)
    with pytest.raises(ProtocolError):
        pack_message(0x20, b"x" * (cap + 1), cap)


# --------------------------------------------------------------------------
# The fork channel: close and crash paths
# --------------------------------------------------------------------------


class _Env:
    """Minimal Environment for the worker end of a fork channel."""

    def records_since_packed(self, since):
        return _packed(n=6, frame_dim=3)

    def explode(self):
        raise ValueError("knob 3 out of range")

    def hang(self):
        time.sleep(60)

    def close(self):
        pass


def make_channel(kind: str):
    """A fork channel and the worker end of its pipe.

    ``pipe``: a forked worker serves :func:`serve_env_session` on the
    worker end (returned as ``None``).  ``loopback``: the test holds the
    worker end itself, and the channel's process is a child that has
    already exited.
    """
    context = multiprocessing.get_context("fork")
    if kind == "pipe":
        return _RemoteChannel.fork(_Env, context, []), None
    master_end, worker_end = context.Pipe()
    proc = context.Process(target=int, daemon=True)
    proc.start()
    proc.join()  # its copies of both ends are closed again
    return _RemoteChannel(master_end, proc), worker_end


@pytest.mark.parametrize("kind", MEDIA)
def test_close_is_idempotent_and_fences_send(kind):
    ch, worker_end = make_channel(kind)
    ch.close()
    ch.close()  # second close is a no-op
    assert ch.conn.closed and ch._proc.exitcode is not None
    with pytest.raises(WorkerCrashError, match="cannot submit 'reset'"):
        ch.submit(0, "reset", True)
    if worker_end is not None:
        with pytest.raises(EOFError):  # the worker sees the hang-up
            worker_end.recv_bytes()
        worker_end.close()


@pytest.mark.parametrize("kind", MEDIA)
@pytest.mark.parametrize("how", ["recv_eof", "send_failure"])
def test_close_releases_the_medium_after_the_peer_went_away(kind, how):
    """Once the worker is gone (EOF on recv, a failed write on send),
    the channel raises :class:`WorkerCrashError` naming the env and the
    command, and ``close()`` still releases its pipe end and reaps the
    process."""

    def peer_goes_away():
        if worker_end is not None:
            worker_end.close()
        else:
            ch._proc.kill()
            ch._proc.join(timeout=5)

    ch, worker_end = make_channel(kind)
    if how == "recv_eof":
        ch.submit(2, "call", ("hang", (), {}))
        if worker_end is not None:
            worker_end.recv_bytes()  # the command arrived
        peer_goes_away()
        with pytest.raises(WorkerCrashError, match="env 2") as excinfo:
            ch.result()
        assert "went away during 'call'" in str(excinfo.value)
    else:
        peer_goes_away()
        with pytest.raises(WorkerCrashError, match="cannot submit 'records'"):
            ch.submit(2, "records", 0)
    ch.close()
    ch.close()
    assert ch.conn.closed and ch._proc.exitcode is not None


# --------------------------------------------------------------------------
# Replies over the channel: arrays whole, garbage a worker crash
# --------------------------------------------------------------------------


def loopback_reply(payload: bytes):
    """What a loopback channel's ``result()`` makes of one reply message
    sent by the worker end, for a ``run_chunk`` submitted to env 3."""
    ch, worker_end = make_channel("loopback")
    try:
        ch.submit(3, "run_chunk", (None, 5, None))
        worker_end.recv_bytes()
        worker_end.send_bytes(payload)
        return ch.result()
    finally:
        ch.close()
        worker_end.close()


def test_sections_round_trip_arrays_byte_exact():
    """Reply arrays keep dtype, shape and bytes across the channel,
    whatever their layout on the worker side."""
    arrays = {
        "obs": np.linspace(-1.0, 1.0, 7),
        "ticks": np.arange(5, dtype=np.int64),
        "frames": np.arange(10, dtype=np.float64).reshape(5, 2),
        "narrow": np.arange(6, dtype=np.float32).reshape(2, 3).T,
        "flags": np.array([True, False]),
    }
    got = loopback_reply(encode_reply("call", arrays))
    assert got.keys() == arrays.keys()
    for name, arr in arrays.items():
        assert got[name].dtype == arr.dtype
        assert got[name].shape == arr.shape
        assert got[name].tobytes() == arr.tobytes()


@pytest.mark.parametrize(
    "mangle",
    [
        lambda p: b"",  # an empty message
        lambda p: p[: len(p) // 2],  # cut off mid-pickle
        lambda p: b"\xff" + p[1:],  # not a pickle at all
        lambda p: pickle.dumps(None),  # a pickle, but not a pair
    ],
)
def test_sections_reject_corruption(mangle):
    """A reply that does not decode is a :class:`WorkerCrashError`
    naming the env and the command, never a bare decoding error."""
    reply = encode_reply("run_chunk", (np.zeros(5), np.zeros(3), None))
    with pytest.raises(WorkerCrashError) as excinfo:
        loopback_reply(mangle(reply))
    assert excinfo.value.env_index == 3
    assert "unreadable reply to 'run_chunk'" in str(excinfo.value)
    assert "env 3" in str(excinfo.value)


# --------------------------------------------------------------------------
# The message form: commands, replies and errors as pickled pairs
# --------------------------------------------------------------------------


def test_command_round_trips_strip_master_only_pieces():
    """The ``out=`` buffer is a keyword of ``submit``, never part of a
    payload, so it cannot cross: the worker sees exactly the payload."""
    out_buffer = np.empty(3)  # must never cross the boundary
    ch, worker_end = make_channel("loopback")
    try:
        sent = [
            ("step", (4, 17)),
            ("run_chunk", (None, 25, None)),
            ("reset", True),
            ("records", 99),
            ("close", None),
            ("commit", {"note": [11, 22]}),
        ]
        for cmd, payload in sent:
            ch.submit(2, cmd, payload, out=out_buffer)
            assert decode_reply(worker_end.recv_bytes()) == (cmd, payload)
    finally:
        ch.close()
        worker_end.close()
    assert decode_reply(encode_reply("step", (np.int64(4), 17))) == (
        "step",
        (4, 17),
    )


def test_call_command_json_fast_path_and_pickle_fallback():
    """A ``call`` command's arguments come back as they went in: a tuple
    stays a tuple, an array keeps its bytes."""
    cmd, (name, args, kwargs) = decode_reply(
        encode_reply("call", ("env_method", ("a", 2), {"flag": True}))
    )
    assert (cmd, name, args, kwargs) == (
        "call",
        "env_method",
        ("a", 2),
        {"flag": True},
    )
    assert type(args) is tuple
    arr = np.arange(3)
    _cmd, (_name, args, _kwargs) = decode_reply(
        encode_reply("call", ("env_method", (arr,), {}))
    )
    assert np.array_equal(args[0], arr) and args[0].dtype == arr.dtype


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
        want = getattr(packed, name)
        assert getattr(got, name).dtype == want.dtype, name
        assert getattr(got, name).tobytes() == want.tobytes(), name

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
    """Any picklable result comes back equal and of the same type: the
    kinds JSON would bend (tuples, int and tuple dict keys) included."""
    values = (
        {"a": 1},
        [1, 2],
        "text",
        None,
        3.5,
        ("env", 1),
        {1: ("tick", 0)},
        {("tuple", "key"): 1},
    )
    for value in values:
        cmd, got = decode_reply(encode_reply("call", value))
        assert cmd == "call" and got == value and type(got) is type(value)
    arr = np.arange(6.0).reshape(2, 3)
    _cmd, got = decode_reply(encode_reply("call", arr))
    assert got.tobytes() == arr.tobytes() and got.shape == arr.shape


def test_error_codec_carries_picklable_exceptions_whole():
    try:
        raise ValueError("knob 3 out of range")
    except ValueError as exc:
        status, got = decode_reply(encode_reply(None, exc))
    assert status is None
    assert isinstance(got, ValueError) and str(got) == "knob 3 out of range"


def test_error_codec_falls_back_to_text_for_unpicklable():
    class Hostage(Exception):
        def __reduce__(self):
            raise TypeError("not today")

    try:
        raise Hostage("boom")
    except Hostage as exc:
        status, text = decode_reply(encode_reply(None, exc))
    assert status is None
    assert isinstance(text, str)  # the exception was dropped, not sent broken
    assert text.startswith("Hostage: boom\n[worker traceback]\n")
    assert "raise Hostage" in text  # the worker-side traceback


def test_error_codec_rejects_lying_picklers():
    class Liar(Exception):
        """Pickles fine, explodes on load — must not cross whole."""

        def __reduce__(self):
            return (_raise_on_load, ())

    status, got = decode_reply(encode_reply(None, Liar("x")))
    assert status is None and got.startswith("Liar: x")


def _raise_on_load():
    raise RuntimeError("surprise at unpickle time")


def test_pickle_sanity_for_liar_helper():
    # The helper really does blow up at load time (guards the test above).
    blob = pickle.dumps((_raise_on_load, ()))
    fn, args = pickle.loads(blob)
    with pytest.raises(RuntimeError):
        fn(*args)


# --------------------------------------------------------------------------
# Messages cross a real pipe
# --------------------------------------------------------------------------


@pytest.mark.parametrize("kind", MEDIA)
def test_codec_payloads_cross_every_medium(kind):
    """One command per pipe message, one reply per pipe message; an
    error reply re-raises the worker's exception in the master."""
    ch, worker_end = make_channel(kind)
    try:
        packed = _packed(n=6, frame_dim=3)
        ch.submit(1, "records", 42)
        if worker_end is not None:
            assert decode_reply(worker_end.recv_bytes()) == ("records", 42)
            worker_end.send_bytes(encode_reply("records", packed))
        got = ch.result()
        assert got.frames.tobytes() == packed.frames.tobytes()

        ch.submit(1, "call", ("explode", (), {}))
        if worker_end is not None:
            worker_end.recv_bytes()
            exc = ValueError("knob 3 out of range")
            worker_end.send_bytes(encode_reply(None, exc))
        with pytest.raises(ValueError, match="knob 3 out of range"):
            ch.result()
    finally:
        ch.close()
        if worker_end is not None:
            worker_end.close()
