"""Per-layer capture/restore helpers for session snapshots.

Each pair of functions maps one mutable layer of a running session onto
``(meta, arrays)`` — the currency of
:class:`~repro.snapshot.core.SessionSnapshot` sections — and back.  The
restore side follows one rule everywhere: **rebuild object graphs
normally, then overwrite every RNG stream's captured state last**,
because :func:`~repro.util.rng.derive_rng` draws salt from its parent
(construction itself consumes generator state).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.nn.checkpoint import checkpoint_from_bytes, checkpoint_to_bytes
from repro.snapshot.core import SnapshotError, rng_state, set_rng_state
from repro.train.loop import BACKENDS

__all__ = [
    "capture_agent",
    "restore_agent",
    "capture_trainer",
    "restore_trainer",
    "capture_replay",
    "restore_replay",
]


# -- agent (networks + optimizer + epsilon + RNG + counters) -------------------
def capture_agent(agent) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Everything a :class:`~repro.rl.agent.DQNAgent` mutates.

    The online network rides in an :mod:`repro.nn.checkpoint` blob
    *with* optimizer state (Adam moments included); the target network
    gets its own blob so the slow tracking copy survives byte-identically
    rather than being re-cloned from the online weights.
    """
    eps = agent.epsilon
    meta = {
        "epsilon": {
            "value": float(eps._value),
            "ticks": int(eps.ticks),
            "bumps": int(eps.bumps),
        },
        "rng": rng_state(agent.rng),
        "train_steps": int(agent.train_steps),
        "actions_taken": int(agent.actions_taken),
        "random_actions_taken": int(agent.random_actions_taken),
    }
    arrays = {
        "online": np.frombuffer(
            checkpoint_to_bytes(agent.online.net, optimizer=agent.optimizer),
            dtype=np.uint8,
        ),
        "target": np.frombuffer(
            checkpoint_to_bytes(agent.target.net), dtype=np.uint8
        ),
        "loss_history": np.asarray(list(agent.loss_history), dtype=np.float64),
    }
    return meta, arrays


def restore_agent(agent, meta: dict, arrays: Dict[str, np.ndarray]) -> None:
    """Overwrite ``agent``'s mutable state with a captured one.

    ``agent`` must be freshly built from the same config (dims, loss,
    optimizer class); this swaps its networks, optimizer state, epsilon
    schedule, counters and RNG stream in place.
    """
    net, _ = checkpoint_from_bytes(
        arrays["online"].tobytes(), optimizer=agent.optimizer
    )
    target_net, _ = checkpoint_from_bytes(arrays["target"].tobytes())
    # Pass the captured target explicitly: adopt_network without one
    # re-clones the online weights, which breaks byte-identity.
    agent.adopt_network(net, target_net=target_net)
    eps = meta["epsilon"]
    agent.epsilon._value = float(eps["value"])
    agent.epsilon.ticks = int(eps["ticks"])
    agent.epsilon.bumps = int(eps["bumps"])
    set_rng_state(agent.rng, meta["rng"])
    agent.train_steps = int(meta["train_steps"])
    agent.actions_taken = int(meta["actions_taken"])
    agent.random_actions_taken = int(meta["random_actions_taken"])
    agent.loss_history.clear()
    agent.loss_history.extend(float(x) for x in arrays["loss_history"])


# -- trainer loop (debt/pending/stats) -----------------------------------------
def capture_trainer(loop) -> Tuple[dict, Dict[str, np.ndarray]]:
    """The :class:`~repro.train.loop.TrainerLoop` accounting state.

    Agent weights/optimizer ride in the agent section; this captures
    the *cadence* — fractional training debt, pending ticks, and the
    stats counters — so a resumed run fires its next SGD step at the
    same tick the uninterrupted run would have.
    """
    stats = loop.stats
    meta = {
        "pending_ticks": float(loop._pending_ticks),
        "debt": float(loop._debt),
        "steps_attempted": int(stats.steps_attempted),
    }
    arrays = {"losses": np.asarray(stats.losses, dtype=np.float64)}
    return meta, arrays


def restore_trainer(loop, meta: dict, arrays: Dict[str, np.ndarray]) -> None:
    """Restore a freshly built loop's accounting from a capture.

    Keys only older captures carry are ignored, except an old
    ``backend`` naming a trainer that no longer exists.
    """
    backend = meta.get("backend", "serial")
    if backend not in BACKENDS:
        raise SnapshotError(
            f"snapshot was trained by the retired {backend!r} trainer "
            f"backend; valid: {BACKENDS}"
        )
    loop._pending_ticks = float(meta["pending_ticks"])
    loop._debt = float(meta["debt"])
    stats = loop.stats
    stats.steps_attempted = int(meta["steps_attempted"])
    stats.losses[:] = [float(x) for x in arrays["losses"]]


# -- replay frontier + cache rows ----------------------------------------------
def capture_replay(db, spans) -> Tuple[dict, Dict[str, np.ndarray]]:
    """The :class:`~repro.replaydb.TickSpans` frontiers plus every
    cached row under them, packed per block.

    Used by the serve resume path, where the replay cache is fed by
    remote telemetry and cannot be regenerated by replaying a
    simulator.
    """
    tops = [int(t) for t in spans.tops()]
    meta = {"tops": tops, "stride": int(spans.tick_stride)}
    arrays: Dict[str, np.ndarray] = {}
    for i, top in enumerate(tops):
        if top < 0:
            continue
        packed = db.cache.records_between(
            i * spans.tick_stride, i * spans.tick_stride + top
        )
        arrays[f"ticks{i}"] = packed.ticks
        arrays[f"frames{i}"] = packed.frames
        arrays[f"actions{i}"] = packed.actions
        arrays[f"rewards{i}"] = packed.rewards
    return meta, arrays


def restore_replay(db, spans, meta: dict, arrays: Dict[str, np.ndarray]) -> None:
    """Refill ``db``'s cache and ``spans``' frontiers from a capture."""
    tops = meta["tops"]
    if len(tops) != len(spans.tops()):
        raise SnapshotError(
            f"span geometry mismatch: snapshot has {len(tops)} blocks, "
            f"live spans have {len(spans.tops())}"
        )
    if int(meta["stride"]) != int(spans.tick_stride):
        raise SnapshotError(
            f"tick-stride mismatch: snapshot has {meta['stride']}, "
            f"live spans have {spans.tick_stride}"
        )
    db.clear()
    spans.reset()
    for i, top in enumerate(tops):
        if top < 0:
            continue
        key = f"ticks{i}"
        if key in arrays and len(arrays[key]):
            db.put_many(
                arrays[key],
                arrays[f"frames{i}"],
                arrays[f"rewards{i}"],
                actions=arrays[f"actions{i}"],
            )
        spans.observe_top(i, int(top))
