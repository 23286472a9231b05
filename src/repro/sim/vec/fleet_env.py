"""FleetEnv: N simulated clusters behind one batched Environment.

One :class:`FleetEnv` owns the struct-of-arrays state of a whole fleet
(:class:`~repro.sim.vec.state.FleetState`) and advances it with
:func:`~repro.sim.vec.physics.tick_all`.  The batch surface mirrors
:class:`~repro.env.vector.VectorEnv` (``step`` takes one action per
env, ``run_chunk`` returns ``(n_envs, k)`` rewards); per-env access
goes through :class:`FleetSlot` — a scalar view implementing the
:class:`~repro.env.protocol.Environment` surface over one row of the
arrays, which is what lets ``VectorEnv(backend="vec")`` reuse all of
its generic worker plumbing (``env_method``, record fan-in, resets)
unchanged.

Action, record and observation semantics are the reference
environment's, row-vectorized: actions are checked/clamped then
attached to the record of the tick they were decided *after*; records
start at tick 1 and skip ticks dropped on the monitoring network;
observations are ``obs_ticks`` stacked frames padded backwards during
warm-up.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.actions import ActionEffect, ActionSpace
from repro.core.checker import ActionChecker
from repro.env.tuning_env import EnvConfig
from repro.replaydb.records import PackedRecords, TickRecord
from repro.replaydb.sampler import MinibatchSampler
from repro.scenarios.scenario import ScenarioRuntime
from repro.sim.vec.config import FleetConfig
from repro.sim.vec.physics import tick_all
from repro.sim.vec.state import FleetState, RecordView, as_selection


class FleetEnv:
    """A fleet of N vectorized clusters stepped by one tick kernel."""

    def __init__(
        self,
        config: EnvConfig,
        n_envs: int = 1,
        seeds: Optional[Sequence[int]] = None,
    ):
        if n_envs < 1:
            raise ValueError(f"n_envs must be >= 1, got {n_envs}")
        self.config = config
        self.hp = config.hp
        self.fcfg = FleetConfig.from_env_config(config)
        self.action_space = config.action_space
        self.checker = ActionChecker()
        self.n_envs = int(n_envs)
        if seeds is None:
            # The VectorEnv contract: env i's seed depends only on
            # (base_seed, i), never on the fleet size.
            from repro.env.vector import vector_seeds

            seeds = vector_seeds(config.seed, self.n_envs)
        elif len(seeds) != self.n_envs:
            raise ValueError(
                f"got {len(seeds)} seeds for {self.n_envs} envs"
            )
        self.seeds = [int(s) for s in seeds]
        self._frame_dim = config.frame_width
        self.state: Optional[FleetState] = None
        self._runtimes: List[Optional[ScenarioRuntime]] = []
        self._slots = [FleetSlot(self, i) for i in range(self.n_envs)]
        self._slot_resets: set = set()
        self._all_idx = np.arange(self.n_envs)

    # -- dimensions ------------------------------------------------------
    @property
    def n_actions(self) -> int:
        """Size of the discrete action vocabulary."""
        return self.action_space.n_actions

    @property
    def frame_dim(self) -> int:
        """Width of one cluster-wide PI frame."""
        return self._frame_dim

    @property
    def obs_dim(self) -> int:
        """Flattened observation: S ticks × cluster frame width."""
        return self.fcfg.obs_ticks * self._frame_dim

    @property
    def is_started(self) -> bool:
        """Whether live fleet state exists (reset() has run)."""
        return self.state is not None

    def slot(self, i: int) -> "FleetSlot":
        """The scalar Environment view over fleet row ``i``."""
        return self._slots[i]

    # -- lifecycle -------------------------------------------------------
    def reset(self) -> np.ndarray:
        """Rebuild the whole fleet and warm one observation window.

        Returns the stacked ``(n_envs, obs_dim)`` observation.  Warm-up
        mirrors the reference: ``obs_ticks`` NULL ticks for every env,
        then a bounded grace loop advancing only envs whose every
        warm-up frame was dropped on the monitoring network.
        """
        self.state = FleetState(self.fcfg, self.seeds, self._frame_dim)
        self._slot_resets = set()
        self._runtimes = [None] * self.n_envs
        if self.config.scenario is not None:
            self._runtimes = [
                ScenarioRuntime(
                    self.config.scenario,
                    self._slots[e],
                    self.state.scenario_rngs[e],
                )
                for e in range(self.n_envs)
            ]
        warm = self.fcfg.obs_ticks
        self.state.reserve_records(warm)  # the grace loop adds none beyond
        for _ in range(warm):
            self._advance(self._all_idx)
        budget = max(50, 10 * warm)
        pending = self.state.rec_len == 0
        while budget > 0 and pending.any():
            self._advance(np.flatnonzero(pending))
            budget -= 1
            pending = self.state.rec_len == 0
        if pending.any():
            raise RuntimeError(
                "warm-up failed: no complete monitoring frame reached the "
                "Interface Daemon (drop_probability too high?)"
            )
        return self.current_observation()

    # -- snapshot support ------------------------------------------------
    def snapshot_state(self):
        """Capture the whole fleet's mutable state as ``(meta, arrays)``.

        Arrays are the :attr:`FleetState.MUTABLE_ARRAYS` manifest,
        copied; meta carries the RNG stream states (workload, drops,
        scenario roots, and every runtime's per-event streams), the
        scenario runtimes' logs/pending windows, and the slot-reset
        bookkeeping.  Everything else about a fleet is frozen config.
        """
        self._require_reset()
        st = self.state
        arrays = {
            name: getattr(st, name).copy() for name in st.MUTABLE_ARRAYS
        }
        meta = {
            "seeds": list(self.seeds),
            "n_envs": int(self.n_envs),
            "frame_dim": int(self._frame_dim),
            "has_scenario": self.config.scenario is not None,
            "wl_rngs": [g.bit_generator.state for g in st.wl_rngs],
            "drop_rngs": [g.bit_generator.state for g in st.drop_rngs],
            "scenario_rngs": [
                g.bit_generator.state for g in st.scenario_rngs
            ],
            "slot_resets": sorted(int(e) for e in self._slot_resets),
            "runtimes": [
                None if rt is None else rt.snapshot_state()
                for rt in self._runtimes
            ],
        }
        return meta, arrays

    def restore_state(self, meta, arrays) -> None:
        """Rebuild the fleet from a :meth:`snapshot_state` capture.

        Construction first, RNG overwrite last: building
        :class:`FleetState` and the scenario runtimes *draws* from the
        seed-derived streams (``derive_rng`` consumes parent state), so
        every stream — fleet-level and per-event — is overwritten with
        its captured state only after the object graph stands.
        """
        if list(meta["seeds"]) != list(self.seeds):
            raise RuntimeError(
                f"seed mismatch: snapshot has {meta['seeds']}, "
                f"fleet has {self.seeds}"
            )
        if int(meta["n_envs"]) != self.n_envs or (
            int(meta["frame_dim"]) != self._frame_dim
        ):
            raise RuntimeError(
                "fleet geometry mismatch between snapshot and live env"
            )
        if bool(meta["has_scenario"]) != (self.config.scenario is not None):
            raise RuntimeError(
                "scenario mismatch: snapshot and live env disagree on "
                "whether a scenario timeline is attached"
            )
        st = FleetState(self.fcfg, self.seeds, self._frame_dim)
        for name in st.MUTABLE_ARRAYS:
            setattr(st, name, np.array(arrays[name]))
        self.state = st
        self._slot_resets = set(int(e) for e in meta["slot_resets"])
        self._runtimes = [None] * self.n_envs
        if self.config.scenario is not None:
            self._runtimes = [
                ScenarioRuntime(
                    self.config.scenario,
                    self._slots[e],
                    st.scenario_rngs[e],
                )
                for e in range(self.n_envs)
            ]
        for gen, captured in zip(st.wl_rngs, meta["wl_rngs"]):
            gen.bit_generator.state = captured
        for gen, captured in zip(st.drop_rngs, meta["drop_rngs"]):
            gen.bit_generator.state = captured
        for gen, captured in zip(st.scenario_rngs, meta["scenario_rngs"]):
            gen.bit_generator.state = captured
        for rt, captured in zip(self._runtimes, meta["runtimes"]):
            if rt is not None and captured is not None:
                rt.restore_state(captured)

    def _require_reset(self) -> None:
        if self.state is None:
            raise RuntimeError("call reset() before stepping the environment")

    def _slot_reset(self, e: int) -> np.ndarray:
        """Slot ``e``'s reset: one fleet rebuild serves all N slots.

        The first slot reset (or a repeated reset of the same slot —
        a genuinely new episode) rebuilds and re-warms the whole fleet;
        the other slots' resets just hand back their rows, so N slot
        resets cost one fleet build, not N.
        """
        if self.state is None or e in self._slot_resets:
            self.reset()
        self._slot_resets.add(e)
        return self.state.observation(e)

    def _advance(self, idx: np.ndarray) -> np.ndarray:
        """One tick for envs ``idx`` (sorted); returns their rewards.

        Record capacity must have been reserved by the caller.
        """
        st = self.state
        sel = as_selection(idx)
        st.tick[sel] += 1
        if self.config.scenario is not None:
            for e in idx:
                self._runtimes[e].on_tick(int(st.tick[e]))
        frames, rewards = tick_all(st, sel)
        p = self.fcfg.drop_probability
        if p > 0.0:
            keep = np.ones(len(idx), dtype=bool)
            for j, e in enumerate(idx):
                # Per client, like the reference: a tick with any
                # client's message lost is dropped entirely.
                draws = st.drop_rngs[e].random(self.fcfg.n_clients)
                if (draws < p).any():
                    keep[j] = False
            st.append_records(idx[keep], frames[keep], rewards[keep])
        else:
            st.append_records(idx, frames, rewards)
        return rewards

    def _run(
        self, idx: np.ndarray, k: int, action: Optional[int]
    ) -> np.ndarray:
        """``k`` ticks for envs ``idx``, ``action`` (when given) performed
        on each before every tick; rewards ``(len(idx), k)``."""
        self._require_reset()
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        actions = None if action is None else np.full(len(idx), action)
        self.state.reserve_records(k)
        rewards = np.empty((len(idx), k))
        for j in range(k):
            if actions is not None:
                self._perform_actions(idx, actions)
            rewards[:, j] = self._advance(idx)
        return rewards

    # -- actions ---------------------------------------------------------
    def _knob(self, name: str) -> np.ndarray:
        """The ``(n_envs,)`` state array holding parameter ``name``."""
        if name == "max_rpcs_in_flight":
            return self.state.window
        if name == "io_rate_limit":
            return self.state.rate
        raise KeyError(f"unknown parameter {name!r}")

    def _get_param(self, e: int, name: str) -> float:
        return float(self._knob(name)[e])

    def _set_param(self, e: int, name: str, value: float) -> None:
        knob = self._knob(name)
        # Mirrors ControlAgent's setters: the window is an integer knob.
        knob[e] = int(round(value)) if knob is self.state.window else value

    def _perform_actions(self, idx: np.ndarray, actions):
        """The Interface Daemon's check/broadcast/record path for envs
        ``idx`` at once: one action each.

        The whole vector is validated before anything moves.  Returns
        ``(recorded, old, new)``: the actions as recorded (a checker
        veto records NULL and leaves the knob) and each env's proposed
        parameter change (NaN where the recorded action is NULL).
        """
        st, space = self.state, self.action_space
        recorded = np.array(actions, dtype=np.int64)
        bad = (recorded < 0) | (recorded >= space.n_actions)
        if bad.any():
            raise ValueError(
                f"action {recorded[bad][0]} out of range "
                f"[0, {space.n_actions})"
            )
        old = np.full(len(idx), np.nan)
        new = old.copy()
        nonnull = recorded[recorded != space.NULL_ACTION]
        for action in sorted(set(nonnull.tolist())):
            param, direction = space.decode(action)
            knob = self._knob(param.name)
            at = np.flatnonzero(recorded == action)
            # Same expression order as ``TunableParameter.clamp``.
            was = knob[idx[at]]
            now = np.minimum(
                param.high, np.maximum(param.low, was + direction * param.step)
            )
            if self.checker.rules:
                passed = np.array([
                    self.checker.check(
                        ActionEffect(action, param.name, float(o), float(n))
                    )
                    for o, n in zip(was, now)
                ])
                recorded[at[~passed]] = space.NULL_ACTION
                at, was, now = at[passed], was[passed], now[passed]
            old[at], new[at] = was, now
            moved = now != was
            # Mirrors ControlAgent's setters: the window is an integer
            # knob (``rint`` and ``round`` are both half-to-even).
            value = np.rint(now) if knob is st.window else now
            knob[idx[at[moved]]] = value[moved]
        st.set_actions(idx, recorded)
        return recorded, old, new

    def _effects(self, recorded, old, new) -> List[ActionEffect]:
        """:meth:`_perform_actions`' result as per-env effects."""
        effects = []
        for action, o, n in zip(recorded.tolist(), old.tolist(), new.tolist()):
            param, _ = self.action_space.decode(action)
            if param is None:
                effects.append(ActionEffect(action, None, None, None))
            else:
                effects.append(ActionEffect(action, param.name, o, n))
        return effects

    def _param_values(self, e: int) -> Dict[str, float]:
        return {
            p.name: self._get_param(e, p.name)
            for p in self.action_space.parameters
        }

    # -- batch stepping --------------------------------------------------
    def step(
        self, actions: Sequence[int], out: Optional[np.ndarray] = None
    ) -> tuple[np.ndarray, np.ndarray, List[dict]]:
        """One action per env; the whole fleet advances one tick.

        Returns ``(obs, rewards, infos)`` shaped ``(n_envs, obs_dim)`` /
        ``(n_envs,)`` / list of per-env info dicts.  ``out``, when
        given, receives the stacked observation in place.
        """
        self._require_reset()
        actions = np.asarray(actions)
        if actions.shape != (self.n_envs,):
            raise ValueError(
                f"expected {self.n_envs} actions, got shape {actions.shape}"
            )
        effects = self._effects(
            *self._perform_actions(self._all_idx, actions)
        )
        self.state.reserve_records(1)
        rewards = self._advance(self._all_idx)
        obs = self.current_observation(out=out)
        infos = [
            {
                "tick": int(self.state.tick[e]),
                "effect": effects[e],
                "params": self._param_values(e),
                "reward": float(rewards[e]),
            }
            for e in range(self.n_envs)
        ]
        return obs, rewards, infos

    def run_chunk(
        self, k: int, action: Optional[int] = None
    ) -> np.ndarray:
        """Advance ``k`` ticks in one call; per-tick rewards ``(n_envs, k)``.

        ``action`` (when given) is performed on every env before every
        tick — the chunked form of k identical ``step`` calls, minus the
        observation builds.  ``k=0`` performs nothing and returns an
        empty block.
        """
        return self._run(self._all_idx, k, action)

    def run_ticks(self, n: int) -> np.ndarray:
        """Advance ``n`` ticks with no actions; rewards ``(n_envs, n)``."""
        return self.run_chunk(n)

    # -- observations and records ----------------------------------------
    def current_observation(
        self, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Stacked ``(n_envs, obs_dim)`` observation as of the last tick."""
        self._require_reset()
        if out is None:
            out = np.empty((self.n_envs, self.obs_dim))
        elif out.size != self.n_envs * self.obs_dim:
            raise ValueError(
                f"out buffer has {out.size} elements, expected "
                f"{self.n_envs} x {self.obs_dim}"
            )
        rows = out.reshape(self.n_envs, self.obs_dim)
        for e in range(self.n_envs):
            self.state.observation(e, out=rows[e])
        return out

    def records_since_packed(
        self, after_tick: int, env_index: int = 0
    ) -> PackedRecords:
        """Env ``env_index``'s records with ``tick > after_tick``, packed
        straight from the fleet arrays (no per-tick objects)."""
        self._require_reset()
        return self.state.packed_since(env_index, after_tick)

    def records_since(
        self, after_tick: int, env_index: int = 0
    ) -> List[TickRecord]:
        """Object form of :meth:`records_since_packed` (protocol parity)."""
        return self.records_since_packed(after_tick, env_index).to_records()

    # -- parameters and sampling -----------------------------------------
    def set_params(
        self, values: Dict[str, float], env_index: Optional[int] = None
    ) -> None:
        """Directly apply a parameter assignment (baselines, experiments).

        Applies to every env, or just ``env_index`` when given.
        """
        self._require_reset()
        known = {p.name for p in self.action_space.parameters}
        targets = (
            range(self.n_envs) if env_index is None else [env_index]
        )
        for name, value in values.items():
            if name not in known:
                raise KeyError(f"unknown tunable parameter {name!r}")
            for e in targets:
                self._set_param(e, name, value)

    def current_params(self, env_index: int = 0) -> Dict[str, float]:
        """The tunable parameters currently applied on one env."""
        self._require_reset()
        return self._param_values(env_index)

    def make_sampler(
        self, seed=None, env_index: int = 0
    ) -> MinibatchSampler:
        """Algorithm 1 sampler over one env's record columns (live view)."""
        self._require_reset()
        return MinibatchSampler(
            RecordView(self, env=env_index),
            obs_ticks=self.fcfg.obs_ticks,
            missing_tolerance=self.hp.missing_entry_tolerance,
            seed=seed,
        )

    def commit_replay(self) -> None:
        """No durable layer: fleet records live in the arrays only."""

    def close(self) -> None:
        """Drop the fleet state (arrays need no teardown)."""
        self.state = None


class FleetSlot:
    """One fleet row as a scalar :class:`Environment`.

    Everything a :class:`~repro.env.vector.VectorEnv` serial worker (or
    a scenario event) does to a single environment lands on row
    ``index`` of the shared arrays.  ``fleet_slot`` is the marker
    :class:`~repro.scenarios.scenario.ScenarioRuntime` dispatches on to
    use the events' vectorized application path.
    """

    fleet_slot = True

    def __init__(self, fleet: FleetEnv, index: int):
        self.fleet = fleet
        self.index = int(index)
        self._idx = np.array([self.index])

    # -- metadata mirrors -------------------------------------------------
    @property
    def config(self) -> EnvConfig:
        """The fleet's shared environment configuration."""
        return self.fleet.config

    @property
    def hp(self):
        """The fleet's shared Table 1 hyperparameters."""
        return self.fleet.hp

    @property
    def action_space(self) -> ActionSpace:
        """The fleet's shared discrete action vocabulary."""
        return self.fleet.action_space

    @property
    def n_actions(self) -> int:
        """Size of the discrete action vocabulary."""
        return self.fleet.n_actions

    @property
    def frame_dim(self) -> int:
        """Width of one cluster-wide PI frame."""
        return self.fleet.frame_dim

    @property
    def obs_dim(self) -> int:
        """Flattened observation: S ticks x cluster frame width."""
        return self.fleet.obs_dim

    @property
    def is_started(self) -> bool:
        """Whether live fleet state exists (reset() has run)."""
        return self.fleet.is_started

    # -- lifecycle --------------------------------------------------------
    def reset(self) -> np.ndarray:
        """(Re)build the fleet if needed; return this row's observation."""
        return self.fleet._slot_reset(self.index)

    def step(
        self, action: int, out: Optional[np.ndarray] = None
    ) -> tuple[np.ndarray, float, dict]:
        """Perform ``action`` and advance *this env only* one tick.

        Out-of-lockstep by design: checkpoint measurements drive one
        cluster ahead of the fleet, exactly like a reference env behind
        ``VectorEnv.env_method``.
        """
        fleet = self.fleet
        fleet._require_reset()
        e = self.index
        (effect,) = fleet._effects(
            *fleet._perform_actions(self._idx, [action])
        )
        fleet.state.reserve_records(1)
        reward = float(fleet._advance(self._idx)[0])
        obs = fleet.state.observation(e, out=out)
        info = {
            "tick": int(fleet.state.tick[e]),
            "effect": effect,
            "params": fleet._param_values(e),
            "reward": reward,
        }
        return obs, reward, info

    def run_chunk(self, k: int, action: Optional[int] = None) -> np.ndarray:
        """Advance this env ``k`` ticks; per-tick rewards, shape ``(k,)``."""
        return self.fleet._run(self._idx, k, action)[0]

    def run_ticks(self, n: int) -> np.ndarray:
        """Advance ``n`` ticks with no actions; per-tick rewards."""
        return self.run_chunk(n)

    def current_observation(
        self, out: Optional[np.ndarray] = None
    ) -> Optional[np.ndarray]:
        """This env's stacked observation (None before any frame)."""
        self.fleet._require_reset()
        return self.fleet.state.observation(self.index, out=out)

    def records_since_packed(self, after_tick: int) -> PackedRecords:
        """This env's new records, packed straight from the arrays."""
        return self.fleet.records_since_packed(after_tick, self.index)

    def records_since(self, after_tick: int) -> List[TickRecord]:
        """Object form of :meth:`records_since_packed` (protocol parity)."""
        return self.fleet.records_since(after_tick, self.index)

    def set_params(self, values: Dict[str, float]) -> None:
        """Directly apply a parameter assignment on this env only."""
        self.fleet.set_params(values, env_index=self.index)

    def current_params(self) -> Dict[str, float]:
        """The tunable parameters currently applied on this env."""
        return self.fleet.current_params(self.index)

    def make_sampler(self, seed=None) -> MinibatchSampler:
        """Algorithm 1 sampler over this env's record columns."""
        return self.fleet.make_sampler(seed=seed, env_index=self.index)

    def commit_replay(self) -> None:
        """No durable layer on the vec backend."""

    def close(self) -> None:
        """Slots own no resources; the fleet's arrays outlive them."""


def make_fleet_env(
    config: Optional[EnvConfig] = None,
    scenario: Any = None,
    scenario_kwargs: Optional[Dict[str, Any]] = None,
    n_envs: int = 1,
    seeds: Optional[Sequence[int]] = None,
    **kwargs: Any,
) -> FleetEnv:
    """``"sim-lustre-vec"``: the vectorized fleet backend.

    Accepts the same configuration styles as ``"sim-lustre"`` —
    ``config=EnvConfig(...)`` or plain EnvConfig field kwargs, plus
    ``scenario=``/``scenario_kwargs=`` — and additionally ``n_envs``
    (fleet size) and ``seeds`` (explicit per-env seeds, defaulting to
    ``vector_seeds(seed, n_envs)``).
    """
    from dataclasses import replace

    from repro.env.registry import _default_workload, _resolve_scenario

    scen = _resolve_scenario(scenario, scenario_kwargs)
    if config is not None:
        if kwargs:
            raise ValueError(
                "pass either config=EnvConfig(...) or EnvConfig field "
                f"kwargs, not both (got extra {sorted(kwargs)})"
            )
        if scen is not None:
            if config.scenario is not None:
                raise ValueError(
                    f"config already carries scenario "
                    f"{config.scenario.name!r}; refusing to overwrite it "
                    f"with {scen.name!r} (compose them explicitly instead)"
                )
            config = replace(config, scenario=scen)
    else:
        if scen is not None:
            kwargs["scenario"] = scen
            kwargs.setdefault("workload_factory", _default_workload)
        config = EnvConfig(**kwargs)
    return FleetEnv(config, n_envs=n_envs, seeds=seeds)
