"""The worker side of vectorized collection, medium-agnostic.

One environment command set, one executor, one serve loop — whatever
carries the bytes.  :func:`exec_env_cmd` runs a single command against
a single environment (the in-process ``serial`` backend calls it
directly); :func:`serve_env_session` runs the framed request/response
loop over any :class:`~repro.transport.base.Transport`, serving one
env (a forked worker over its pipe) or many (a shard host over a TCP
socket) with identical semantics.

Error discipline: an exception inside a command crosses back whole
when it pickles (the master re-raises it verbatim); otherwise its
type, message and worker traceback travel as text and surface as a
:class:`WorkerCrashError` — never as a bare ``EOFError`` from a pipe
that died with the secret.
"""

from __future__ import annotations

import traceback
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.env.protocol import Environment
from repro.replaydb.records import PackedRecords
from repro.transport.base import Transport, TransportClosedError
from repro.transport.codec import (
    MSG_CMD,
    MSG_ERR,
    MSG_OK,
    decode_command,
    encode_error,
    encode_reply,
)
from repro.transport.framing import ProtocolError

__all__ = [
    "WorkerCrashError",
    "exec_env_cmd",
    "serve_env_session",
]


class WorkerCrashError(RuntimeError):
    """A collection worker failed in a way its exception couldn't cross.

    Two flavours, one error: the worker raised something unpicklable
    (the message carries the original type, message and full worker
    traceback), or the worker process/host vanished mid-command (the
    message says which command died).  ``env_index`` is the global
    sub-environment index and ``shard`` the shard address when the
    worker lived on one — so a crash in a 2×8 fleet names the culprit.
    """

    def __init__(
        self,
        message: str,
        *,
        env_index: Optional[int] = None,
        shard: Optional[str] = None,
    ):
        super().__init__(message)
        self.env_index = env_index
        self.shard = shard


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


def exec_env_cmd(env: Environment, cmd: str, payload: Any) -> Any:
    """One worker command against one environment — every backend runs
    exactly this, so serial, fork and sharded stay behaviourally
    identical.

    Replies that advance ticks carry the new replay records inline
    (``since`` is the master's last-synced tick, or ``None`` when
    fan-in is off), collapsing the old step-then-fetch double
    round-trip into one.
    """
    if cmd == "reset":
        want_records = payload
        obs = env.reset()
        packed = fetch_packed(env, -1) if want_records else None
        return obs, packed
    if cmd == "step":
        action, out, since = payload
        obs, reward, info = env.step(action, out=out)
        packed = fetch_packed(env, since) if since is not None else None
        return obs, reward, info, packed
    if cmd == "run_chunk":
        action, k, since, out = payload
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
    raise ValueError(f"unknown worker command {cmd!r}")  # pragma: no cover


def _error_text(exc: BaseException) -> str:
    """The text fallback an unpicklable exception travels as."""
    return (
        f"{type(exc).__name__}: {exc}\n"
        f"[worker traceback]\n{traceback.format_exc()}"
    )


def serve_env_session(
    envs: Sequence[Environment], transport: Transport
) -> None:
    """Serve the worker command loop for ``envs`` over ``transport``.

    Runs until every environment has been closed by the master (the
    normal goodbye) or the master's side of the transport goes away.
    A command failure is replied as an error frame and the loop keeps
    serving — one bad ``env_method`` must not take down a shard that
    seven other clusters live on.  On exit, every still-open
    environment is closed and the transport is drained then closed.
    """
    open_envs: List[bool] = [True] * len(envs)
    try:
        while any(open_envs):
            try:
                msg_type, payload = transport.recv()
            except (TransportClosedError, ProtocolError):
                return  # master vanished; finally reaps the envs
            env_i = -1
            try:
                if msg_type != MSG_CMD:
                    raise ProtocolError(
                        f"unexpected message type {msg_type} on the worker "
                        f"command channel"
                    )
                cmd, env_i, data = decode_command(payload)
                if cmd == "close":
                    if 0 <= env_i < len(envs) and open_envs[env_i]:
                        open_envs[env_i] = False
                        envs[env_i].close()
                    transport.send(MSG_OK, encode_reply("close", None))
                    continue
                if cmd == "snapshot":
                    # A shard-level barrier: all prior commands have
                    # been applied; reply with the live topology the
                    # master folds into its session snapshot.
                    transport.send(
                        MSG_OK,
                        encode_reply(
                            "snapshot",
                            {
                                "n_envs": len(envs),
                                "open": int(sum(open_envs)),
                            },
                        ),
                    )
                    continue
                if not 0 <= env_i < len(envs):
                    raise IndexError(
                        f"env index {env_i} out of range 0..{len(envs) - 1}"
                    )
                result = exec_env_cmd(envs[env_i], cmd, data)
            except Exception as exc:  # surface remote failures
                try:
                    transport.send(
                        MSG_ERR, encode_error(exc, _error_text(exc), env_i)
                    )
                except TransportClosedError:  # pragma: no cover - race
                    return
            else:
                transport.send(MSG_OK, encode_reply(cmd, result))
    except TransportClosedError:  # pragma: no cover - master went away
        pass
    finally:
        for i, env in enumerate(envs):
            if open_envs[i]:
                try:
                    env.close()
                except Exception:  # pragma: no cover - teardown
                    pass
        transport.close()
