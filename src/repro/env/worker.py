"""The worker side of vectorized collection.

One environment command set, one executor, one serve loop.
:func:`exec_env_cmd` runs a single command against a single environment
(the in-process ``serial`` backend calls it directly);
:func:`serve_env_session` runs the request/response loop for one env in
a forked worker, over its end of a ``multiprocessing`` pipe.

Wire format: the pipe already delivers whole messages, so there is no
second framing.  A command is one pipe message holding the pickled
``(cmd, payload)``, a reply one holding the pickled ``(cmd, result)``;
both ends build and read them with :mod:`repro.transport.codec`.

Error discipline: an exception inside a command crosses back whole
when it survives a pickle round trip (the master re-raises it
verbatim); otherwise its type, message and worker traceback travel as
text and surface as a :class:`WorkerCrashError` — never as a bare
``EOFError`` from a pipe that died with the secret.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.env.protocol import Environment
from repro.replaydb.records import PackedRecords
from repro.transport.codec import decode_reply, encode_reply

__all__ = [
    "WorkerCrashError",
    "exec_env_cmd",
    "serve_env_session",
]


class WorkerCrashError(RuntimeError):
    """A collection worker failed in a way its exception couldn't cross.

    Two flavours, one error: the worker raised something unpicklable
    (the message carries the original type, message and full worker
    traceback), or the worker process vanished mid-command (the message
    says which command died).  ``env_index`` is the sub-environment
    index, so a crash in a 16-env fleet names the culprit.
    """

    def __init__(self, message: str, *, env_index: Optional[int] = None):
        super().__init__(message)
        self.env_index = env_index


def fetch_packed(env: Environment, since: int) -> PackedRecords:
    """New replay records after ``since``, in packed array form.

    Uses the backend's native packed feed when it has one; otherwise
    packs the object-form ``records_since`` so any Environment with a
    record feed can join a fan-in fleet.
    """
    fn = getattr(env, "records_since_packed", None)
    if fn is not None:
        return fn(since)
    return PackedRecords.from_records(env.records_since(since), env.frame_dim)


def chunk_rewards(
    env: Environment, action: Optional[int], k: int
) -> np.ndarray:
    """Advance ``k`` ticks (``action`` per tick, or none); per-tick rewards.

    Prefers the backend's ``run_chunk`` (which skips the per-tick
    observation builds nobody reads during chunked collection); the
    fallback per-tick loop is byte-identical, just slower.
    """
    fn = getattr(env, "run_chunk", None)
    if fn is not None:
        return np.asarray(fn(k, action=action))
    if action is None:
        return np.asarray(env.run_ticks(k))
    rewards = np.empty(k)
    for j in range(k):
        _obs, rewards[j], _info = env.step(action)
    return rewards


def exec_env_cmd(
    env: Environment,
    cmd: str,
    payload: Any,
    out: Optional[np.ndarray] = None,
) -> Any:
    """One worker command against one environment — every backend runs
    exactly this, so serial and fork stay behaviourally identical.

    Replies that advance ticks carry the new replay records inline
    (``since`` is the master's last-synced tick, or ``None`` when
    fan-in is off), collapsing the old step-then-fetch double
    round-trip into one.  ``out`` is where ``step`` and ``run_chunk``
    write the observation; only an in-process channel has one to give.
    """
    if cmd == "reset":
        want_records = payload
        obs = env.reset()
        packed = fetch_packed(env, -1) if want_records else None
        return obs, packed
    if cmd == "step":
        action, since = payload
        obs, reward, info = env.step(action, out=out)
        packed = fetch_packed(env, since) if since is not None else None
        return obs, reward, info, packed
    if cmd == "run_chunk":
        action, k, since = payload
        rewards = chunk_rewards(env, action, k)
        obs = env.current_observation(out=out)
        packed = fetch_packed(env, since) if since is not None else None
        return rewards, obs, packed
    if cmd == "records":
        return fetch_packed(env, payload)
    if cmd == "call":
        name, args, kwargs = payload
        return getattr(env, name)(*args, **kwargs)
    if cmd == "commit":
        fn = getattr(env, "commit_replay", None)
        if fn is not None:
            fn()
        return None
    if cmd == "close":
        env.close()
        return None
    raise ValueError(f"unknown worker command {cmd!r}")


def serve_env_session(env: Environment, conn) -> None:
    """Serve the worker command loop for ``env`` over the pipe ``conn``.

    Runs until the master closes the environment (the normal goodbye)
    or hangs up its end of the pipe (``EOFError`` or ``OSError`` from
    the pipe).  A command failure is replied as an error reply and the
    loop keeps serving — one bad ``env_method`` must not take down the
    worker.  On exit, the environment is closed if it is still open and
    ``conn`` is closed.
    """
    closed = False
    try:
        while not closed:
            try:
                message = conn.recv_bytes()
            except (EOFError, OSError):
                return  # master hung up; finally reaps the env
            try:
                cmd, payload = decode_reply(message)
                closed = cmd == "close"
                reply = encode_reply(cmd, exec_env_cmd(env, cmd, payload))
            except Exception as exc:  # surface remote failures
                reply = encode_reply(None, exc)
            try:
                conn.send_bytes(reply)
            except OSError:  # pragma: no cover - master hung up
                return
    finally:
        if not closed:
            try:
                env.close()
            except Exception:  # pragma: no cover - teardown
                pass
        conn.close()
