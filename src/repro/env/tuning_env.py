"""Gym-style environment over the simulated Lustre cluster.

One ``step`` is one action tick (Table 1: one second): the chosen
action is checked/broadcast/recorded, the simulation advances a tick,
monitoring agents sample and ship their PI frames through the real wire
codec into the Interface Daemon, the objective is measured, and the new
stacked observation comes back.

The environment rebuilds the entire target system on ``reset`` from its
config and seed, so experiment scripts get independent, reproducible
runs; Figure 4's "two weeks later, system state has drifted" sessions
are resets with a different ``perturb_seed``, which re-seeds workload
file placement — new object ids land elsewhere on the platters, giving
the different on-disk layout/fragmentation the paper perturbs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.core.actions import ActionSpace, TunableParameter, lustre_parameters
from repro.core.checker import ActionChecker
from repro.core.control import ControlAgent
from repro.core.interface_daemon import InterfaceDaemon
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import PackedRecords, TickRecord
from repro.replaydb.sampler import MinibatchSampler
from repro.rl.hyperparams import Hyperparameters
from repro.scenarios.scenario import Scenario, ScenarioRuntime
from repro.sim.engine import Simulator
from repro.telemetry.indicators import frame_width
from repro.telemetry.monitor import MonitoringAgent
from repro.telemetry.reward import Objective, ThroughputObjective, TickRewardSource
from repro.util.rng import derive_rng, ensure_rng
from repro.workloads.base import Workload

#: Builds the workload for a fresh cluster; second arg is a seed.
WorkloadFactory = Callable[[Cluster, int], Workload]


@dataclass
class EnvConfig:
    """Everything needed to (re)build the tuning environment."""

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    workload_factory: Optional[WorkloadFactory] = None
    parameters: Optional[List[TunableParameter]] = None
    hp: Hyperparameters = field(default_factory=Hyperparameters)
    objective_factory: Callable[[], Objective] = ThroughputObjective
    #: Probability that a monitoring message is lost each tick.
    drop_probability: float = 0.0
    db_path: str = ":memory:"
    replay_capacity: int = 250_000
    seed: int = 0
    #: Extra seed folded into workload placement only (Figure 4).
    perturb_seed: int = 0
    #: Append server-side PIs to every observation (§6 future work).
    include_server_pis: bool = False
    #: Append date/time features for cyclical workloads (§3.1).
    include_time_features: bool = False
    #: Calendar instant of simulated t=0, in seconds (see timefeat).
    time_epoch_offset: float = 0.0
    #: Inject §4.2-style background network interference.
    enable_noise: bool = False
    #: Scheduled fault/perturbation timeline (repro.scenarios); the
    #: runtime is rebuilt on every reset with a stream derived from
    #: ``seed``, so scenario runs replay bit-identically.
    scenario: Optional[Scenario] = None

    @property
    def extra_frame_width(self) -> int:
        """PI columns after the clients': server PIs, time features."""
        width = 0
        if self.include_server_pis:
            from repro.telemetry.server_monitor import server_frame_width

            width += self.cluster.n_servers * server_frame_width()
        if self.include_time_features:
            from repro.telemetry.timefeat import time_feature_width

            width += time_feature_width()
        return width

    @property
    def frame_width(self) -> int:
        """Width of one cluster-wide PI frame: every client's PIs, then
        :attr:`extra_frame_width`."""
        return (
            frame_width(self.cluster.n_servers) * self.cluster.n_clients
            + self.extra_frame_width
        )

    @property
    def action_space(self) -> ActionSpace:
        """The discrete actions over ``parameters``, by default the
        Lustre knobs at the cluster's configured values."""
        return ActionSpace(
            self.parameters
            or lustre_parameters(
                window_default=self.cluster.max_rpcs_in_flight,
                rate_default=self.cluster.io_rate_limit,
            )
        )


class StorageTuningEnv:
    """reset()/step() driver over the simulated target system."""

    def __init__(self, config: EnvConfig):
        if config.workload_factory is None:
            raise ValueError("EnvConfig.workload_factory is required")
        self.config = config
        self.hp = config.hp
        self.action_space = config.action_space
        self.checker = ActionChecker()
        self._client_fw = frame_width(config.cluster.n_servers)
        self._extra_fw = config.extra_frame_width
        self._cluster_fw = config.frame_width
        # Populated by reset():
        self.sim: Optional[Simulator] = None
        self.cluster: Optional[Cluster] = None
        self.workload: Optional[Workload] = None
        self.daemon: Optional[InterfaceDaemon] = None
        self.db: Optional[ReplayDB] = None
        self.reward_source: Optional[TickRewardSource] = None
        self.monitors: List[MonitoringAgent] = []
        self.scenario_runtime: Optional[ScenarioRuntime] = None
        self.tick = 0
        self._drop_rng = None

    # -- dimensions ------------------------------------------------------
    @property
    def n_actions(self) -> int:
        """Size of the discrete action vocabulary."""
        return self.action_space.n_actions

    @property
    def frame_dim(self) -> int:
        """Width of one cluster-wide PI frame."""
        return self._cluster_fw

    @property
    def obs_dim(self) -> int:
        """Flattened observation: S ticks × cluster frame width."""
        return self.hp.sampling_ticks_per_observation * self._cluster_fw

    @property
    def is_started(self) -> bool:
        """Whether a live target system exists (reset() has run)."""
        return self.sim is not None

    # -- lifecycle ----------------------------------------------------------
    def reset(self) -> np.ndarray:
        """Build a fresh target system and warm one observation window."""
        cfg = self.config
        root = ensure_rng(cfg.seed)
        self.sim = Simulator()
        self.cluster = Cluster(self.sim, cfg.cluster)
        wl_seed = int(
            derive_rng(
                ensure_rng(cfg.seed), "workload", cfg.perturb_seed
            ).integers(2**31)
        )
        self.workload = cfg.workload_factory(self.cluster, wl_seed)
        self.workload.start()
        self.db = ReplayDB(
            self._cluster_fw,
            path=cfg.db_path,
            cache_capacity=cfg.replay_capacity,
        )
        controls = [ControlAgent(c) for c in self.cluster.clients]
        self.server_monitors = []
        provider = None
        if self._extra_fw > 0:
            if cfg.include_server_pis:
                from repro.telemetry.server_monitor import ServerMonitoringAgent

                self.server_monitors = [
                    ServerMonitoringAgent(
                        self.sim, s, tick_length=self.hp.sampling_tick_length
                    )
                    for s in self.cluster.servers
                ]

            def provider(tick: int):
                import numpy as _np

                parts = [
                    agent.sample_frame(tick) for agent in self.server_monitors
                ]
                if cfg.include_time_features:
                    from repro.telemetry.timefeat import time_features

                    parts.append(
                        time_features(
                            self.sim.now, epoch_offset=cfg.time_epoch_offset
                        )
                    )
                return _np.concatenate(parts) if parts else _np.empty(0)

        self.daemon = InterfaceDaemon(
            n_clients=cfg.cluster.n_clients,
            client_frame_width=self._client_fw,
            db=self.db,
            action_space=self.action_space,
            control_agents=controls,
            checker=self.checker,
            obs_ticks=self.hp.sampling_ticks_per_observation,
            extra_frame_width=self._extra_fw,
            extra_frame_provider=provider,
        )
        self.monitors = [
            MonitoringAgent(
                self.sim,
                client,
                sink=self.daemon.ingest,
                tick_length=self.hp.sampling_tick_length,
                autostart=False,
            )
            for client in self.cluster.clients
        ]
        self.reward_source = TickRewardSource(
            self.cluster,
            cfg.objective_factory(),
            tick_length=self.hp.sampling_tick_length,
        )
        self.noise = None
        if cfg.enable_noise:
            from repro.cluster.noise import NoiseTraffic

            self.noise = NoiseTraffic(
                self.cluster, seed=derive_rng(root, "noise")
            )
        self._drop_rng = derive_rng(root, "drops")
        self.scenario_runtime = None
        if cfg.scenario is not None:
            # Derived from this environment's own seed: replica i of a
            # vectorized fleet perturbs on a stream that depends only
            # on (base_seed, i), never on the fleet size.  The key is
            # deliberately name-free so composing scenarios (which
            # renames, e.g. "a+b") cannot re-shuffle the event streams
            # of the timeline that was already there.
            self.scenario_runtime = ScenarioRuntime(
                cfg.scenario, self, derive_rng(root, "scenario")
            )
        self.tick = 0
        # Warm-up: collect a full observation window under NULL actions.
        # Under heavy monitoring-message loss every warm-up tick can be
        # dropped; keep warming (bounded) until at least one cluster
        # frame reached the daemon.
        warm = self.hp.sampling_ticks_per_observation
        for _ in range(warm):
            self._advance_one_tick()
        extra_budget = max(50, 10 * warm)
        while self.daemon.ticks_stored == 0 and extra_budget > 0:
            self._advance_one_tick()
            extra_budget -= 1
        obs = self.daemon.current_observation()
        if obs is None:
            raise RuntimeError(
                "warm-up failed: no complete monitoring frame reached the "
                "Interface Daemon (drop_probability too high?)"
            )
        return obs

    def _require_reset(self) -> None:
        if self.sim is None:
            raise RuntimeError("call reset() before stepping the environment")

    def _advance_one_tick(self) -> float:
        self.tick += 1
        if self.scenario_runtime is not None:
            # Perturbations land before the tick's interval runs, so
            # tick ``t``'s I/O (and its monitoring frame) already sees
            # an event scheduled ``at_tick=t``.
            self.scenario_runtime.on_tick(self.tick)
        self.sim.run(until=self.tick * self.hp.sampling_tick_length)
        for monitor in self.monitors:
            msg = monitor.sample_once(self.tick)
            monitor.ticks_sampled += 1
            if (
                self.config.drop_probability > 0.0
                and self._drop_rng.random() < self.config.drop_probability
            ):
                # Message lost on the control network: the decoder never
                # sees it, so the next message must carry full state.
                monitor.ticks_dropped += 1
                monitor.encoder.reset()
                continue
            self.daemon.ingest(monitor.client.client_id, msg)
        self.daemon.finish_tick(self.tick)
        reward = self.reward_source.sample()
        self.daemon.set_reward(self.tick, reward)
        return reward

    def step(
        self, action: int, out: Optional[np.ndarray] = None
    ) -> tuple[np.ndarray, float, dict]:
        """Perform ``action``, advance one tick, observe and reward.

        ``out``, when given, receives the new stacked observation in
        place (and is returned) — collection loops pass a preallocated
        buffer so the hot path never reallocates.
        """
        self._require_reset()
        effect = self.daemon.perform_action(self.tick, action)
        reward = self._advance_one_tick()
        obs = self.daemon.current_observation(out=out)
        info = {
            "tick": self.tick,
            "effect": effect,
            "params": self.daemon.parameter_values(),
            "reward": reward,
        }
        return obs, reward, info

    def current_observation(
        self, out: Optional[np.ndarray] = None
    ) -> Optional[np.ndarray]:
        """Stacked observation ending at the newest stored tick.

        Part of the :class:`~repro.env.protocol.Environment` surface so
        drivers never reach into ``env.daemon`` directly.
        """
        self._require_reset()
        return self.daemon.current_observation(out=out)

    def records_since(self, after_tick: int) -> List["TickRecord"]:
        """Replay records with ``tick > after_tick``, oldest first.

        The incremental feed :class:`~repro.env.vector.VectorEnv` drains
        to fan many clusters' experience into one shared Replay DB.
        Warm-up ticks are included (they are valid replay input); ticks
        dropped on the monitoring network are simply absent.
        """
        self._require_reset()
        cache = self.db.cache
        if cache.max_tick is None:
            return []
        lo = max(after_tick + 1, cache.min_tick or 0)
        return [
            cache.get(t)
            for t in range(lo, cache.max_tick + 1)
            if cache.has(t)
        ]

    def records_since_packed(self, after_tick: int) -> "PackedRecords":
        """:meth:`records_since` in column-packed array form.

        Field-for-field identical content, but shipped as one
        ``(k, frame_dim)`` frame block plus tick/action/reward vectors —
        the transport the vectorized fan-in hot path uses so a worker
        reply costs four array pickles instead of k object pickles.
        """
        self._require_reset()
        cache = self.db.cache
        if cache.max_tick is None:
            return PackedRecords.empty(self.frame_dim)
        return cache.records_between(after_tick + 1, cache.max_tick)

    def commit_replay(self) -> None:
        """Flush the durable replay store (a session-checkpoint hook).

        The per-record writers never commit; sessions call this at
        segment boundaries so a crash mid-run cannot lose the whole
        store Figure 4's multi-session reload depends on.
        """
        if self.db is not None:
            self.db.commit()

    # -- baseline/measurement helpers ----------------------------------------
    def run_chunk(self, k: int, action: Optional[int] = None) -> np.ndarray:
        """Advance ``k`` ticks in one call; returns per-tick rewards.

        ``action`` (when given) is performed before every tick — the
        chunked form of k identical ``step(action)`` calls, minus the k
        per-tick observation builds nobody reads in monitoring-only
        collection.  ``action=None`` performs no actions at all (the
        baseline-measurement mode of :meth:`run_ticks`).  Rewards,
        replay records and the post-chunk observation are byte-identical
        to the per-tick loop.
        """
        self._require_reset()
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        rewards = np.empty(k)
        for j in range(k):
            if action is not None:
                self.daemon.perform_action(self.tick, action)
            rewards[j] = self._advance_one_tick()
        return rewards

    def run_ticks(self, n: int) -> np.ndarray:
        """Advance ``n`` ticks with no actions; returns per-tick rewards."""
        return self.run_chunk(n)

    def set_params(self, values: Dict[str, float]) -> None:
        """Directly apply a parameter assignment (baselines, experiments)."""
        self._require_reset()
        known = {p.name for p in self.action_space.parameters}
        for name, value in values.items():
            if name not in known:
                raise KeyError(f"unknown tunable parameter {name!r}")
            for agent in self.daemon.control_agents:
                agent.apply(name, value)

    def current_params(self) -> Dict[str, float]:
        """The tunable parameters currently applied, by name."""
        self._require_reset()
        return self.daemon.parameter_values()

    def make_sampler(self, seed=None) -> MinibatchSampler:
        """Algorithm 1 sampler over this environment's replay cache."""
        self._require_reset()
        return MinibatchSampler(
            self.db.cache,
            obs_ticks=self.hp.sampling_ticks_per_observation,
            missing_tolerance=self.hp.missing_entry_tolerance,
            seed=seed,
        )

    def perturbed(self, perturb_seed: int) -> "StorageTuningEnv":
        """A copy of this environment with drifted workload placement."""
        return StorageTuningEnv(replace(self.config, perturb_seed=perturb_seed))

    def close(self) -> None:
        """Release the replay store (the simulator needs no teardown)."""
        if self.db is not None:
            self.db.close()
