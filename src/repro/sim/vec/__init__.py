"""Struct-of-arrays fleet simulation backend (``"sim-lustre-vec"``).

The reference backend simulates one cluster as a discrete-event object
graph — a heap of ~6,000 events per tick.  That is the right tool for
*fidelity*, and the wrong one for *fleets*: one cluster runs at ~90
ticks/s on a core (``python3 -m bench --workload des_session``), and
every collection backend ultimately runs N independent event loops.

This package trades event-level fidelity for fleet-level throughput:
the state of N clusters lives in shared numpy arrays — one
``(n_envs, n_clients, n_servers)`` block per per-OSC quantity, ``(n_envs,)``
vectors for tick clocks, rewards and tunables — and one
:func:`~repro.sim.vec.physics.tick_all` call advances the entire fleet
with array ops.  The cluster model is a *tick-level fluid
approximation* of the same machinery (elevator-scheduled HDD service
with queue-collapse overhead, token-bucket rate limiting,
window-limited concurrency, write-back caching, NIC caps), emitting
the same 11-PI frame layout, scaling and clipping as
:mod:`repro.telemetry.indicators` and the same throughput reward.

Equivalence contract (what the golden tests pin):

- a fleet of N is byte-identical, env by env, to N independent
  ``FleetEnv(n_envs=1)`` runs built with the same derived seeds —
  observations, rewards and packed replay records, scenarios included;
- rollouts are byte-identical across interpreter invocations (pinned
  blake2b digests, like the reference scenario golden traces);
- chunked and per-tick stepping are byte-identical.

The vec backend is *not* event-for-event equal to the reference
simulator (a data-dependent event interleaving cannot be replayed as
array math); the two backends are separate models of the same cluster
that agree on interfaces, observation layout and qualitative response
surfaces.  docs/ARCHITECTURE.md § "Simulation backends" records where
each is authoritative.
"""

from repro.sim.vec.config import FleetConfig
from repro.sim.vec.fleet_env import FleetEnv, FleetSlot, make_fleet_env
from repro.sim.vec.state import FleetState

__all__ = [
    "FleetConfig",
    "FleetEnv",
    "FleetSlot",
    "FleetState",
    "make_fleet_env",
]
