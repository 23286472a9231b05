"""Binary codecs for the worker command set and its replies.

The vectorized collection stack speaks a small request/response
vocabulary — ``reset`` / ``step`` / ``run_chunk`` / ``records`` /
``call`` / ``commit`` / ``close`` — between the master and its forked
workers, one ``multiprocessing`` pipe message per command or reply
(see :mod:`repro.env.worker`).  This module defines how each message
becomes payload bytes:

- a little JSON header (command name, env index, scalar fields, array
  descriptors), then
- the raw array buffers, concatenated in descriptor order.

NumPy data — observations, reward vectors and every
:class:`~repro.replaydb.records.PackedRecords` column — crosses the
wire as raw C-contiguous buffers described by ``(name, dtype, shape)``
descriptors, *not* pickles: byte-exact and allocation-light.  Only
the cold paths keep a pickle escape hatch (``call`` arguments and
replies, and step ``info`` dicts, can be arbitrary Python objects, and
exceptions travel whole when they can); those blobs are flagged in the
header and are trusted-peer-only, which the worker topology guarantees
(every worker is forked by the master).  A value takes the JSON path
only when JSON gives it back equal, so tuples and int dict keys come
back as they went in.

Wire layout of one payload::

    uint32 header_len | header JSON (UTF-8) | buffer 0 | buffer 1 | ...
"""

from __future__ import annotations

import json
import pickle
import struct
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.replaydb.records import PackedRecords
from repro.transport.framing import ProtocolError

__all__ = [
    "MSG_OK",
    "MSG_ERR",
    "encode_sections",
    "decode_sections",
    "encode_command",
    "decode_command",
    "encode_reply",
    "decode_reply",
    "encode_error",
    "decode_error",
]

#: The status byte that leads every worker reply: a result, or an
#: error (distinct from the serve-protocol message types).
MSG_OK = 0x21
MSG_ERR = 0x22

_HEAD_LEN = struct.Struct("<I")

#: Commands whose payload and reply are an optional JSON ``data`` field.
_DATA_CMDS = ("commit", "close")


# --------------------------------------------------------------------------
# Section layer: JSON header + raw buffers
# --------------------------------------------------------------------------


def encode_sections(
    meta: dict,
    arrays: Optional[Dict[str, np.ndarray]] = None,
    blobs: Optional[Dict[str, bytes]] = None,
) -> bytes:
    """Pack a JSON header plus named raw buffers into one payload.

    ``arrays`` travel as C-contiguous memory described by
    ``(name, dtype, shape)`` descriptors in the header; ``blobs`` as
    opaque byte strings.  Order is the descriptor order, so decode
    needs no per-buffer length prefixes.
    """
    header = dict(meta)
    buffers = []
    descs = []
    for name, arr in (arrays or {}).items():
        a = np.ascontiguousarray(arr)
        descs.append([name, a.dtype.str, list(a.shape)])
        buffers.append(a.tobytes())
    header["__arrays__"] = descs
    blob_descs = []
    for name, blob in (blobs or {}).items():
        blob_descs.append([name, len(blob)])
        buffers.append(blob)
    header["__blobs__"] = blob_descs
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return b"".join([_HEAD_LEN.pack(len(head)), head] + buffers)


def decode_sections(
    payload: bytes,
) -> Tuple[dict, Dict[str, np.ndarray], Dict[str, bytes]]:
    """Inverse of :func:`encode_sections`: ``(meta, arrays, blobs)``.

    Decoded arrays are read-only views over the payload bytes (zero
    copy); callers that mutate must copy first.
    """
    if len(payload) < _HEAD_LEN.size:
        raise ProtocolError("section payload too short for a header")
    (head_len,) = _HEAD_LEN.unpack_from(payload, 0)
    end = _HEAD_LEN.size + head_len
    if end > len(payload):
        raise ProtocolError("section header overruns the payload")
    try:
        header = json.loads(payload[_HEAD_LEN.size : end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed section header: {exc}") from exc
    arrays: Dict[str, np.ndarray] = {}
    offset = end
    for name, dtype, shape in header.pop("__arrays__", []):
        dt = np.dtype(dtype)
        count = int(np.prod(shape)) if shape else 1
        nbytes = dt.itemsize * count
        if offset + nbytes > len(payload):
            raise ProtocolError(f"array section {name!r} overruns payload")
        arrays[name] = np.frombuffer(
            payload, dtype=dt, count=count, offset=offset
        ).reshape(shape)
        offset += nbytes
    blobs: Dict[str, bytes] = {}
    for name, nbytes in header.pop("__blobs__", []):
        if offset + nbytes > len(payload):
            raise ProtocolError(f"blob section {name!r} overruns payload")
        blobs[name] = payload[offset : offset + nbytes]
        offset += nbytes
    return header, arrays, blobs


def _put_packed(
    arrays: Dict[str, np.ndarray], packed: Optional[PackedRecords]
) -> bool:
    """Stage a :class:`PackedRecords` block as four raw array sections."""
    if packed is None:
        return False
    arrays["pr_ticks"] = packed.ticks
    arrays["pr_frames"] = packed.frames
    arrays["pr_actions"] = packed.actions
    arrays["pr_rewards"] = packed.rewards
    return True


def _take_packed(
    meta: dict, arrays: Dict[str, np.ndarray]
) -> Optional[PackedRecords]:
    """Rebuild the staged :class:`PackedRecords` block (or ``None``)."""
    if not meta.get("packed"):
        return None
    return PackedRecords(
        ticks=arrays["pr_ticks"],
        frames=arrays["pr_frames"],
        actions=arrays["pr_actions"],
        rewards=arrays["pr_rewards"],
    )


def _jsonable(obj: Any) -> bool:
    """True when JSON gives ``obj`` back equal: no tuple turns into a
    list and no int dict key into a string on the way."""
    try:
        return json.loads(json.dumps(obj)) == obj
    except (TypeError, ValueError):
        return False


# --------------------------------------------------------------------------
# Commands (master -> worker)
# --------------------------------------------------------------------------


def encode_command(cmd: str, env: int, payload: Any = None) -> bytes:
    """Payload bytes for one worker command addressed to env ``env``.

    ``payload`` is the same object :func:`repro.env.worker.exec_env_cmd`
    takes, minus master-side-only pieces (the ``out=`` buffer never
    crosses a process boundary).
    """
    meta: dict = {"cmd": cmd, "env": int(env)}
    blobs: Dict[str, bytes] = {}
    if cmd == "reset":
        meta["want"] = bool(payload)
    elif cmd == "step":
        action, _out, since = payload
        meta["action"] = int(action)
        meta["since"] = None if since is None else int(since)
    elif cmd == "run_chunk":
        action, k, since, _out = payload
        meta["action"] = None if action is None else int(action)
        meta["k"] = int(k)
        meta["since"] = None if since is None else int(since)
    elif cmd == "records":
        meta["since"] = int(payload)
    elif cmd == "call":
        name, args, kwargs = payload
        meta["name"] = name
        if _jsonable([list(args), kwargs]):
            meta["args"] = list(args)
            meta["kwargs"] = kwargs
        else:
            # Cold path: env_method with non-JSON arguments (numpy
            # scalars, callables).  Trusted-peer pickle, flagged.
            blobs["call"] = pickle.dumps((tuple(args), kwargs))
    elif cmd in _DATA_CMDS:
        if payload is not None:
            meta["data"] = payload
    else:
        raise ProtocolError(f"unknown worker command {cmd!r}")
    return encode_sections(meta, blobs=blobs)


def decode_command(payload: bytes) -> Tuple[str, int, Any]:
    """``(cmd, env, exec_payload)`` from command payload bytes."""
    meta, _arrays, blobs = decode_sections(payload)
    cmd = meta.get("cmd")
    env = int(meta.get("env", 0))
    if cmd == "reset":
        return cmd, env, bool(meta["want"])
    if cmd == "step":
        return cmd, env, (int(meta["action"]), None, meta["since"])
    if cmd == "run_chunk":
        return cmd, env, (meta["action"], int(meta["k"]), meta["since"], None)
    if cmd == "records":
        return cmd, env, int(meta["since"])
    if cmd == "call":
        if "call" in blobs:
            args, kwargs = pickle.loads(blobs["call"])
        else:
            args, kwargs = tuple(meta["args"]), meta["kwargs"]
        return cmd, env, (meta["name"], args, kwargs)
    if cmd in _DATA_CMDS:
        return cmd, env, meta.get("data")
    raise ProtocolError(f"unknown worker command {cmd!r}")


# --------------------------------------------------------------------------
# Replies (worker -> master)
# --------------------------------------------------------------------------


def encode_reply(cmd: str, result: Any) -> bytes:
    """Payload bytes for the reply to one ``cmd``.

    The hot-path replies (``step`` / ``run_chunk`` / ``reset`` /
    ``records``) are fully binary: observations, reward vectors and
    :class:`PackedRecords` columns as raw buffers.  ``call`` replies
    fall back to pickle for arbitrary objects.
    """
    meta: dict = {"cmd": cmd}
    arrays: Dict[str, np.ndarray] = {}
    blobs: Dict[str, bytes] = {}
    if cmd == "reset":
        obs, packed = result
        arrays["obs"] = np.asarray(obs)
        meta["packed"] = _put_packed(arrays, packed)
    elif cmd == "step":
        obs, reward, info, packed = result
        arrays["obs"] = np.asarray(obs)
        arrays["reward"] = np.asarray([reward], dtype=np.float64)
        meta["packed"] = _put_packed(arrays, packed)
        if _jsonable(info):
            meta["info"] = info
        else:
            blobs["info"] = pickle.dumps(info)
    elif cmd == "run_chunk":
        rewards, obs, packed = result
        arrays["rewards"] = np.asarray(rewards, dtype=np.float64)
        arrays["obs"] = np.asarray(obs)
        meta["packed"] = _put_packed(arrays, packed)
    elif cmd == "records":
        meta["packed"] = _put_packed(arrays, result)
    elif cmd == "call":
        if isinstance(result, np.ndarray):
            arrays["value"] = result
            meta["kind"] = "array"
        elif _jsonable(result):
            meta["kind"] = "json"
            meta["value"] = result
        else:
            meta["kind"] = "pickle"
            blobs["value"] = pickle.dumps(result)
    elif cmd in _DATA_CMDS:
        if result is not None:
            meta["data"] = result
    else:
        raise ProtocolError(f"unknown worker command {cmd!r}")
    return encode_sections(meta, arrays, blobs)


def decode_reply(payload: bytes) -> Tuple[str, Any]:
    """``(cmd, result)`` from reply payload bytes.

    Array data comes back as read-only views over the payload; the
    master copies observations into its own buffers anyway (the
    fan-in path), so no extra copies are added here.
    """
    meta, arrays, blobs = decode_sections(payload)
    cmd = meta.get("cmd")
    if cmd == "reset":
        return cmd, (arrays["obs"], _take_packed(meta, arrays))
    if cmd == "step":
        info = (
            pickle.loads(blobs["info"]) if "info" in blobs else meta["info"]
        )
        return cmd, (
            arrays["obs"],
            float(arrays["reward"][0]),
            info,
            _take_packed(meta, arrays),
        )
    if cmd == "run_chunk":
        return cmd, (
            arrays["rewards"],
            arrays["obs"],
            _take_packed(meta, arrays),
        )
    if cmd == "records":
        return cmd, _take_packed(meta, arrays)
    if cmd == "call":
        kind = meta.get("kind")
        if kind == "array":
            return cmd, arrays["value"]
        if kind == "pickle":
            return cmd, pickle.loads(blobs["value"])
        return cmd, meta.get("value")
    if cmd in _DATA_CMDS:
        return cmd, meta.get("data")
    raise ProtocolError(f"unknown reply command {cmd!r}")


# --------------------------------------------------------------------------
# Errors (worker -> master)
# --------------------------------------------------------------------------


def encode_error(exc: BaseException, text: str, env: int) -> bytes:
    """Payload bytes for an error reply.

    ``exc`` rides whole when it pickles (the master re-raises it
    verbatim); ``text`` is the always-available fallback carrying type,
    message and worker traceback for the wrapper error.
    """
    meta = {"env": int(env), "text": text}
    blobs: Dict[str, bytes] = {}
    try:
        blob = pickle.dumps(exc)
        pickle.loads(blob)  # must survive the round trip, not just dump
        blobs["exc"] = blob
    except Exception:
        pass
    return encode_sections(meta, blobs=blobs)


def decode_error(payload: bytes) -> Tuple[int, str, Optional[BaseException]]:
    """``(env, text, exception-or-None)`` from an error payload."""
    meta, _arrays, blobs = decode_sections(payload)
    exc = None
    if "exc" in blobs:
        try:
            exc = pickle.loads(blobs["exc"])
        except Exception:  # pragma: no cover - defensive
            exc = None
    return int(meta.get("env", -1)), meta.get("text", ""), exc
