"""Resumable collection sessions: the one collect loop.

:func:`run_collect_session` is the one loop behind ``repro collect``
(plain, ``--train`` and ``--snapshot-every``), ``repro resume`` and
:func:`repro.train.loop.train_collect`: it collects monitoring ticks in
chunks (optionally with continuous training, one burst per chunk),
maintains the chained rollout digest, and can write a full
:class:`~repro.snapshot.core.SessionSnapshot` at tick boundaries —
from which the same loop in a *different interpreter* continues with
a byte-identical remaining-ticks trajectory.

Determinism contract: a resumed session extends the uninterrupted
run's rollout digest exactly.  For *training* state this additionally
requires the resumed run to use the same ``chunk`` (the trainer
bursts once per chunk) and the same step budget — the loop records
both in the session section so ``repro resume`` cannot get them wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.snapshot.core import RolloutDigest, SessionSnapshot, SnapshotError
from repro.snapshot.layers import (
    capture_agent,
    capture_trainer,
    restore_agent,
    restore_trainer,
)
from repro.util.validation import check_positive

__all__ = [
    "CollectOutcome",
    "build_session_snapshot",
    "restore_session_state",
    "run_collect_session",
    "snapshot_path",
]


def snapshot_path(snapshot_dir: Union[str, Path], done_ticks: int) -> Path:
    """The canonical artifact path for a boundary at ``done_ticks``."""
    return Path(snapshot_dir) / f"snapshot-{int(done_ticks):08d}.npz"


@dataclass
class CollectOutcome:
    """What one (possibly resumed) collection session produced."""

    #: Per-env per-tick rewards for the ticks *this* session ran —
    #: ``(n_envs, total_ticks - start_tick)``.
    rewards: np.ndarray
    #: The chained rollout digest over the *whole* run (prefix included).
    digest: RolloutDigest
    #: First tick index this session ran (0 for a fresh run).
    start_tick: int
    #: Total ticks the run spans.
    total_ticks: int
    #: Snapshot artifacts written, in order.
    snapshots: List[Path] = field(default_factory=list)
    #: Trainer stats, when the session trained.
    trainer_stats: Optional[object] = None


def build_session_snapshot(
    venv,
    done_ticks: int,
    total_ticks: int,
    digest: RolloutDigest,
    *,
    agent=None,
    loop=None,
) -> SessionSnapshot:
    """Compose every live layer into one artifact."""
    snap = SessionSnapshot()
    session = {
        "done_ticks": int(done_ticks),
        "total_ticks": int(total_ticks),
        "digest": digest.hexdigest,
        "backend": venv.backend,
        "n_envs": int(venv.n_envs),
        "tick_stride": int(venv.tick_stride),
        "has_agent": agent is not None,
        "has_trainer": loop is not None,
        "trainer": (
            None
            if loop is None
            else {"train_ratio": float(loop.config.train_ratio)}
        ),
    }
    snap.put("session", meta=session)
    env = venv.snapshot()
    snap.put("env", meta=env["meta"], arrays=env["arrays"])
    if agent is not None:
        meta, arrays = capture_agent(agent)
        snap.put("agent", meta=meta, arrays=arrays)
    if loop is not None:
        meta, arrays = capture_trainer(loop)
        snap.put("trainer", meta=meta, arrays=arrays)
    return snap


def restore_session_state(
    snap: SessionSnapshot,
    venv,
    *,
    agent=None,
    loop=None,
) -> tuple:
    """Apply a session artifact onto freshly built objects.

    Restores the env (listeners already attached hear the replayed
    record stream), then the agent and trainer accounting, then every
    RNG stream state — construction before stream overwrite, always.
    Returns ``(done_ticks, total_ticks, digest)``.
    """
    session = snap.section("session")
    if int(session["n_envs"]) != venv.n_envs:
        raise SnapshotError(
            f"session has n_envs={session['n_envs']}, env has {venv.n_envs}"
        )
    if session["has_agent"] and agent is None:
        raise SnapshotError(
            "snapshot carries agent state but no agent was provided"
        )
    if session["has_trainer"] and loop is None:
        raise SnapshotError(
            "snapshot carries trainer state but no trainer was provided"
        )
    if agent is not None and session["has_agent"]:
        restore_agent(agent, snap.section("agent"), snap.section_arrays("agent"))
    if loop is not None and session["has_trainer"]:
        restore_trainer(
            loop, snap.section("trainer"), snap.section_arrays("trainer")
        )
    venv.restore(
        {"meta": snap.section("env"), "arrays": snap.section_arrays("env")}
    )
    return (
        int(session["done_ticks"]),
        int(session["total_ticks"]),
        RolloutDigest(session["digest"]),
    )


def run_collect_session(
    venv,
    n_ticks: int,
    *,
    chunk: Optional[int] = None,
    agent=None,
    trainer_config=None,
    sampler_seed: Optional[int] = None,
    snapshot_every: Optional[int] = None,
    snapshot_dir: Optional[Union[str, Path]] = None,
    resume_from: Optional[SessionSnapshot] = None,
) -> CollectOutcome:
    """Collect until tick ``n_ticks``, ``chunk`` ticks per collect call.

    Without ``trainer_config`` this is ``venv.collect`` plus the
    rollout digest; with it, ``agent`` trains against the shared
    fan-in DB, one burst per chunk and a drain at the end.  With
    ``snapshot_every`` a snapshot lands in ``snapshot_dir`` at every
    multiple of it.  With ``resume_from`` the env/agent/trainer are
    restored first and collection continues from the captured tick to
    ``n_ticks``, the run's new total.
    """
    check_positive("n_ticks", n_ticks)
    if chunk is None:
        chunk = n_ticks
    check_positive("chunk", chunk)
    if snapshot_every is not None:
        check_positive("snapshot_every", snapshot_every)
        if snapshot_dir is None:
            raise ValueError("snapshot_every needs a snapshot_dir")

    loop = None
    if trainer_config is not None:
        if agent is None:
            raise ValueError("training a collect session needs an agent")
        if venv.shared_db is None:
            raise ValueError(
                "training a collect session needs a VectorEnv with a "
                "shared fan-in DB (shared_db_path must not be None)"
            )
        from repro.train.loop import TrainerLoop

        loop = TrainerLoop(
            agent,
            replace(trainer_config, interleave_ticks=chunk),
            sampler=venv.make_sampler(seed=sampler_seed),
        )

    if resume_from is not None:
        start, _, digest = restore_session_state(
            resume_from, venv, agent=agent, loop=loop
        )
    else:
        start, digest = 0, RolloutDigest()
    if n_ticks < start:
        raise SnapshotError(
            f"cannot run to tick {n_ticks}: snapshot is already at "
            f"tick {start} (pick an earlier snapshot)"
        )
    rewards = np.empty((venv.n_envs, n_ticks - start))
    snapshots: List[Path] = []

    def write_snapshot(done: int) -> None:
        Path(snapshot_dir).mkdir(parents=True, exist_ok=True)
        snap = build_session_snapshot(
            venv, done, n_ticks, digest, agent=agent, loop=loop
        )
        # The resolved chunk is the trainer's burst cadence: a resumed
        # run must reuse it to stay byte-identical.
        snap.section("session")["chunk"] = int(chunk)
        snapshots.append(snap.save(snapshot_path(snapshot_dir, done)))

    try:
        if resume_from is None:
            venv.reset()
        done = start
        while done < n_ticks:
            upto = n_ticks
            if snapshot_every is not None:
                boundary = (done // snapshot_every + 1) * snapshot_every
                upto = min(upto, boundary)
            while done < upto:
                k = min(chunk, upto - done)
                block = venv.collect(k, chunk=k)
                rewards[:, done - start : done - start + k] = block
                digest.update(block)
                if loop is not None:
                    loop.notify_ticks(k)
                done += k
            if snapshot_every is not None and done % snapshot_every == 0:
                write_snapshot(done)
        if loop is not None:
            loop.drain()
    finally:
        if loop is not None:
            loop.stop()
    return CollectOutcome(
        rewards=rewards,
        digest=digest,
        start_tick=start,
        total_ticks=n_ticks,
        snapshots=snapshots,
        trainer_stats=loop.stats if loop is not None else None,
    )
