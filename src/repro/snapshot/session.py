"""Resumable collection sessions: the snapshot-aware collect loop.

This is the orchestration layer behind ``repro collect
--snapshot-every``, ``repro resume`` and ``repro replay``: one loop
that collects monitoring ticks (optionally with continuous training,
mirroring :func:`repro.train.loop.train_collect`'s cadence exactly),
maintains the chained rollout digest, and writes a full
:class:`~repro.snapshot.core.SessionSnapshot` at every tick boundary —
from which an identical loop in a *different interpreter* continues
with a byte-identical remaining-ticks trajectory.

Determinism contract: a resumed session extends the uninterrupted
run's rollout digest exactly.  For *training* state this additionally
requires the resumed run to use the same ``chunk`` (the trainer
bursts once per chunk) and the same step budget — the CLI persists
both in the session section so ``repro resume`` cannot get them wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.snapshot.core import (
    RolloutDigest,
    SessionSnapshot,
    SnapshotError,
    rng_state,
    set_rng_state,
)
from repro.snapshot.layers import (
    capture_agent,
    capture_trainer,
    restore_agent,
    restore_trainer,
)

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
    sampler=None,
    session_extra: Optional[dict] = None,
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
    }
    if session_extra:
        session.update(session_extra)
    snap.put("session", meta=session)
    env = venv.snapshot()
    snap.put("env", meta=env["meta"], arrays=env["arrays"])
    if agent is not None:
        meta, arrays = capture_agent(agent)
        snap.put("agent", meta=meta, arrays=arrays)
    if loop is not None:
        meta, arrays = capture_trainer(loop)
        if sampler is not None:
            meta["sampler_rng"] = rng_state(sampler.rng)
        snap.put("trainer", meta=meta, arrays=arrays)
    return snap


def restore_session_state(
    snap: SessionSnapshot,
    venv,
    *,
    agent=None,
    loop=None,
    sampler=None,
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
        meta = snap.section("trainer")
        restore_trainer(
            loop, meta, snap.section_arrays("trainer")
        )
        if sampler is not None and "sampler_rng" in meta:
            set_rng_state(sampler.rng, meta["sampler_rng"])
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
    stop_at: Optional[int] = None,
    session_extra: Optional[dict] = None,
) -> CollectOutcome:
    """Collect ``n_ticks`` monitoring ticks, snapshotting at boundaries.

    Without ``trainer_config`` this is ``venv.collect`` plus digest and
    snapshots; with it, the loop mirrors
    :func:`~repro.train.loop.train_collect` (listener attached before
    reset, one burst per chunk, drain at the end).  With
    ``resume_from`` the env/agent/trainer are restored first and
    collection continues from the captured tick; ``stop_at`` ends the
    session early at a boundary (the ``repro replay`` time-travel
    path).
    """
    if n_ticks < 1:
        raise ValueError(f"n_ticks must be >= 1, got {n_ticks}")
    if chunk is None:
        chunk = n_ticks
    if snapshot_every is not None and snapshot_every < 1:
        raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every}")
    if snapshot_every is not None and snapshot_dir is None:
        raise ValueError("snapshot_every needs a snapshot_dir")

    loop = None
    sampler = None
    if trainer_config is not None:
        if agent is None:
            raise ValueError("training a collect session needs an agent")
        if venv.shared_db is None:
            raise ValueError(
                "training a collect session needs a shared fan-in DB"
            )
        # Mirror train_collect exactly — one burst per chunk, same
        # streams — so snapshotted and plain runs are comparable.
        from repro.train.loop import TrainerLoop

        trainer_config = replace(trainer_config, interleave_ticks=chunk)
        sampler = venv.make_sampler(seed=sampler_seed)
        loop = TrainerLoop(agent, trainer_config, sampler=sampler)

    if resume_from is not None:
        start, total, digest = restore_session_state(
            resume_from,
            venv,
            agent=agent,
            loop=loop,
            sampler=sampler,
        )
        total = max(total, n_ticks)
    else:
        start, total, digest = 0, n_ticks, RolloutDigest()
    target = total if stop_at is None else min(stop_at, total)
    if target < start:
        raise SnapshotError(
            f"cannot run to tick {target}: snapshot is already at "
            f"tick {start} (pick an earlier snapshot)"
        )
    rewards = np.empty((venv.n_envs, target - start))
    snapshots: List[Path] = []

    def write_snapshot(done: int) -> None:
        Path(snapshot_dir).mkdir(parents=True, exist_ok=True)
        snap = build_session_snapshot(
            venv,
            done,
            total,
            digest,
            agent=agent,
            loop=loop,
            sampler=sampler,
            session_extra=session_extra,
        )
        snapshots.append(snap.save(snapshot_path(snapshot_dir, done)))

    try:
        if resume_from is None:
            venv.reset()
        done = start
        while done < target:
            upto = target
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
        total_ticks=total,
        snapshots=snapshots,
        trainer_stats=loop.stats if loop is not None else None,
    )
