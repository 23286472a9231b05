"""Shard hosts: remote fractions of a vectorized collection fleet.

A shard host owns ``K`` sub-environments on whatever machine it runs
on and serves the same worker command loop a forked worker serves —
over a TCP socket instead of a pipe.  The collection master
(:class:`~repro.env.vector.VectorEnv` with ``backend="shards"``)
connects to each shard, assigns it a contiguous slice of the globally
derived :func:`~repro.env.vector.vector_seeds` sequence, and fans
every shard's :class:`~repro.replaydb.records.PackedRecords` stream
into one shared replay DB — so a 2×8 sharded fleet produces exactly
the replay stream a 16-env fork fleet produces.

Handshake (framed worker-channel messages, see
:mod:`repro.transport.codec`)::

    master → shard   hello   {"proto": 1}
    shard  → master  ok      {"proto": 1, "n_envs": K}
    master → shard   attach  {"seeds": [s_0, ..., s_{K-1}]}
    shard  → master  ok      {"n_envs": K}
    ...              the plain worker command loop ...

Seeds travel master → shard (not the reverse) because env ``i``'s
stream must depend only on ``(base_seed, global index i)``, never on
which shard happens to host it — the placement-independence contract
the golden-digest tests pin.
"""

from __future__ import annotations

import logging
from typing import Callable, List

from repro.env.protocol import Environment
from repro.env.worker import serve_env_session
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
from repro.transport.tcp import SocketListener
from repro.util.validation import check_positive

__all__ = ["SHARD_PROTO", "ShardHost"]

#: Version of the shard handshake; a master/shard mismatch is refused
#: at hello time rather than desynchronising mid-session.
SHARD_PROTO = 1

logger = logging.getLogger(__name__)

#: A per-env factory: global seed in, live environment out.
EnvBuilderFn = Callable[[int], Environment]


class ShardHost:
    """One remote fraction of a collection fleet, behind a TCP listener.

    Parameters
    ----------
    env_builder:
        ``seed -> Environment`` factory; called once per hosted env at
        attach time with the master-assigned global seeds.
    n_envs:
        How many sub-environments this shard hosts.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port — read the
        resolved one back from :attr:`address` (the CLI prints it).
    """

    def __init__(
        self,
        env_builder: EnvBuilderFn,
        n_envs: int,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        check_positive("n_envs", n_envs)
        self._env_builder = env_builder
        self.n_envs = int(n_envs)
        self._listener = SocketListener(host=host, port=port)

    @property
    def address(self) -> str:
        """The bound ``host:port`` masters connect to."""
        return self._listener.address

    @property
    def port(self) -> int:
        """The bound port (resolved when constructed with ``port=0``)."""
        return self._listener.port

    def _expect_cmd(self, transport: Transport, expected: str):
        """The next inbound frame, which must be command ``expected``."""
        msg_type, payload = transport.recv()
        if msg_type != MSG_CMD:
            raise ProtocolError(
                f"expected a {expected!r} command frame, got message type "
                f"{msg_type}"
            )
        cmd, _env, data = decode_command(payload)
        if cmd != expected:
            raise ProtocolError(
                f"expected {expected!r} during the shard handshake, got "
                f"{cmd!r}"
            )
        return data

    def serve_connection(self, transport: Transport) -> None:
        """Handshake one master and serve its session to completion.

        A failed handshake — a protocol mismatch, a master that went
        away, or an env builder that raised — is replied as an error
        frame (the master re-raises it) and ends only this connection;
        the host keeps accepting masters.
        """
        envs: List[Environment] = []
        try:
            hello = self._expect_cmd(transport, "hello") or {}
            proto = int(hello.get("proto", -1))
            if proto != SHARD_PROTO:
                raise ProtocolError(
                    f"shard speaks proto {SHARD_PROTO}, master sent "
                    f"{proto}"
                )
            transport.send(
                MSG_OK,
                encode_reply(
                    "hello", {"proto": SHARD_PROTO, "n_envs": self.n_envs}
                ),
            )
            attach = self._expect_cmd(transport, "attach") or {}
            seeds = attach.get("seeds")
            if not isinstance(seeds, list) or len(seeds) != self.n_envs:
                raise ProtocolError(
                    f"attach carries {0 if seeds is None else len(seeds)} "
                    f"seed(s) for a shard of {self.n_envs} env(s)"
                )
            for seed in seeds:
                envs.append(self._env_builder(int(seed)))
            transport.send(
                MSG_OK, encode_reply("attach", {"n_envs": self.n_envs})
            )
        except Exception as exc:
            logger.warning("shard handshake failed: %s", exc)
            for env in envs:
                try:
                    env.close()
                except Exception:  # pragma: no cover - teardown
                    pass
            try:
                if not transport.closed:
                    transport.send(
                        MSG_ERR,
                        encode_error(
                            exc, f"{type(exc).__name__}: {exc}", env=-1
                        ),
                    )
            except (TransportClosedError, ProtocolError, OSError):
                pass
            transport.close()
            return
        logger.info(
            "shard %s attached: %d env(s), seeds %s",
            self.address,
            self.n_envs,
            seeds,
        )
        serve_env_session(envs, transport)

    def serve_forever(self, once: bool = False) -> None:
        """Accept masters until the listener is closed.

        Sessions are served one at a time — a shard's envs belong to
        exactly one master — but a finished (or crashed) master can be
        replaced by simply reconnecting, unless ``once`` is set.
        Closing the listener from another thread stops the loop.
        """
        while True:
            try:
                transport = self._listener.accept()
            except TransportClosedError:
                return
            self.serve_connection(transport)
            if once:
                self.close()
                return

    def close(self) -> None:
        """Stop accepting masters (idempotent)."""
        self._listener.close()

    def __enter__(self) -> "ShardHost":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
