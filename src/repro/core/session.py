"""Training and evaluation session drivers.

A session owns a DQN agent bound to one
:class:`~repro.env.protocol.Environment` (any registered backend — the
reference is the ``"sim-lustre"`` simulated cluster) and reproduces the
paper's operational cycle (appendix A.4):

1. ``train(n_ticks)`` — online training: ε-greedy actions every action
   tick, with ``train_steps_per_tick`` SGD steps per tick delegated to
   a :class:`~repro.train.loop.TrainerLoop` bursting once per tick;
2. ``evaluate(n_ticks)`` — measurement: greedy policy, no training;
3. ``save()`` / ``load()`` — "CAPES automatically checkpoints and
   stores the trained model when being stopped, and loads the saved
   model when being started next time."

``attach_schedule`` wires a workload schedule's phase changes to the
agent's ε bump (§3.6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.env.protocol import Environment
from repro.nn.checkpoint import load_checkpoint, save_checkpoint
from repro.replaydb.sampler import MinibatchSampler
from repro.rl.agent import seeded_agent
from repro.train.loop import TrainerConfig, TrainerLoop
from repro.util.validation import check_positive
from repro.workloads.schedule import WorkloadSchedule


@dataclass
class TrainResult:
    """Everything a training run produced, tick by tick."""

    n_ticks: int
    rewards: np.ndarray  # objective value per tick
    losses: np.ndarray  # prediction error per performed train step
    epsilon_trace: np.ndarray  # ε at each tick
    action_counts: np.ndarray  # histogram over the action space
    final_params: dict

    @property
    def mean_reward(self) -> float:
        return float(self.rewards.mean()) if len(self.rewards) else 0.0


@dataclass
class EvalResult:
    """A measurement run (no exploration, no training)."""

    n_ticks: int
    rewards: np.ndarray  # objective value per tick
    params_trace: List[dict]
    final_params: dict

    @property
    def mean_reward(self) -> float:
        return float(self.rewards.mean()) if len(self.rewards) else 0.0


class CapesSession:
    """One CAPES deployment against one environment."""

    def __init__(
        self,
        env: Environment,
        seed: int = 0,
        train_steps_per_tick: float = 1,
        loss: str = "mse",
    ):
        self.env = env
        #: SGD steps granted per action tick (fractions accumulate).
        self.trainer_config = TrainerConfig(
            train_ratio=float(train_steps_per_tick)
        )
        self.agent, self._sampler_seed = seeded_agent(env, seed, loss)
        self.sampler: Optional[MinibatchSampler] = None
        self.trainer: Optional[TrainerLoop] = None
        self._obs: Optional[np.ndarray] = None

    # -- lifecycle ---------------------------------------------------------
    def ensure_started(self) -> None:
        """Reset the environment on first use; later calls are no-ops."""
        if self._obs is None:
            self._obs = self.env.reset()
            self.sampler = self.env.make_sampler(seed=self._sampler_seed)

    def restart_environment(self) -> None:
        """Force a fresh target system (keeps the trained agent)."""
        self.shutdown_trainer()
        self._obs = self.env.reset()
        self.sampler = self.env.make_sampler(seed=self._sampler_seed)

    def _ensure_trainer(self) -> TrainerLoop:
        """Build (once) the trainer loop this session delegates SGD to.

        It trains from the session's live sampler; an environment
        restart discards the loop before it rebuilds the sampler.
        """
        if self.trainer is None:
            self.trainer = TrainerLoop(
                self.agent, self.trainer_config, sampler=self.sampler
            )
        return self.trainer

    def shutdown_trainer(self) -> None:
        """Stop and discard the trainer loop (fresh one on next train).

        Called on environment restarts — the replay tick space starts
        over — and available to tests/drivers for deterministic teardown.
        """
        if self.trainer is not None:
            self.trainer.stop()
            self.trainer = None

    def attach_schedule(self, schedule: WorkloadSchedule) -> None:
        """Bump ε whenever the schedule starts a new workload phase."""
        schedule.on_phase_change(lambda _p: self.agent.notify_workload_change())

    def _flush_replay(self) -> None:
        """Commit the environment's durable replay store, if it has one.

        The per-record writers never commit (they would serialize the
        hot path); instead every session segment boundary — the natural
        checkpoint — flushes, so a crash mid-session loses at most the
        current segment, not the whole store Figure 4's multi-session
        reload depends on.
        """
        commit = getattr(self.env, "commit_replay", None)
        if commit is not None:
            commit()

    # -- training -------------------------------------------------------------
    def train(self, n_ticks: int) -> TrainResult:
        """Run ``n_ticks`` of online ε-greedy training.

        Acting stays on this loop; SGD cadence belongs to the trainer,
        which bursts inside every tick exactly as the historical session
        did and ends the call fully drained, so segment boundaries line
        up.
        """
        check_positive("n_ticks", n_ticks)
        self.ensure_started()
        assert self._obs is not None and self.sampler is not None
        trainer = self._ensure_trainer()
        rewards = np.zeros(n_ticks)
        eps_trace = np.zeros(n_ticks)
        action_counts = np.zeros(self.env.n_actions, dtype=np.int64)
        losses: List[float] = []
        obs = self._obs
        # The stacked observation lands in one reused buffer tick after
        # tick; the agent consumes it before the next overwrite.
        obs_buf = np.empty(self.env.obs_dim)
        for i in range(n_ticks):
            eps_trace[i] = self.agent.epsilon.value
            action = self.agent.act(obs)
            action_counts[action] += 1
            obs, reward, _info = self.env.step(action, out=obs_buf)
            rewards[i] = reward
            losses.extend(trainer.notify_ticks(1))
        losses.extend(trainer.drain())
        self._obs = obs
        self._flush_replay()
        return TrainResult(
            n_ticks=n_ticks,
            rewards=rewards,
            losses=np.array(losses),
            epsilon_trace=eps_trace,
            action_counts=action_counts,
            final_params=self.env.current_params(),
        )

    # -- evaluation ------------------------------------------------------------
    def evaluate(self, n_ticks: int, greedy: bool = True) -> EvalResult:
        """Measure the tuned system: policy actions, no training."""
        check_positive("n_ticks", n_ticks)
        self.ensure_started()
        assert self._obs is not None
        rewards = np.zeros(n_ticks)
        params_trace: List[dict] = []
        obs = self._obs
        obs_buf = np.empty(self.env.obs_dim)
        for i in range(n_ticks):
            action = self.agent.act(obs, greedy=greedy)
            obs, reward, info = self.env.step(action, out=obs_buf)
            rewards[i] = reward
            params_trace.append(info["params"])
        self._obs = obs
        self._flush_replay()
        return EvalResult(
            n_ticks=n_ticks,
            rewards=rewards,
            params_trace=params_trace,
            final_params=self.env.current_params(),
        )

    # -- monitoring-only + offline training (§3.3) -------------------------
    def collect(self, n_ticks: int) -> np.ndarray:
        """Monitoring-only operation: record observations and NULL
        actions without consulting the DNN or training.

        §3.3: the Interface Daemon "enables independent control of the
        Monitoring Agent and the DRL Engine so we can choose to do
        solely monitoring or training on demand."  Data collected this
        way is valid replay input (every tick's action is NULL), so a
        model can later be trained offline with :meth:`train_offline`.
        """
        check_positive("n_ticks", n_ticks)
        self.ensure_started()
        rewards = np.zeros(n_ticks)
        obs_buf = np.empty(self.env.obs_dim)
        for i in range(n_ticks):
            _obs, reward, _info = self.env.step(0, out=obs_buf)  # NULL action
            rewards[i] = reward
        self._obs = self.env.current_observation()
        self._flush_replay()
        return rewards

    def train_offline(self, n_steps: int) -> np.ndarray:
        """Run SGD steps against already-collected replay data only.

        The target system is not touched; this is the "training on
        demand" half of §3.3, and what a production deployment does
        overnight with the day's monitoring data.  The steps run through
        the session's trainer (:meth:`TrainerLoop.run
        <repro.train.loop.TrainerLoop.run>`), the same sampler→SGD path
        as :meth:`train`, and count in its stats.
        """
        check_positive("n_steps", n_steps)
        self.ensure_started()
        return np.array(self._ensure_trainer().run(n_steps))

    def measure_baseline(self, n_ticks: int) -> np.ndarray:
        """Per-tick objective with CAPES inactive (no actions at all)."""
        check_positive("n_ticks", n_ticks)
        self.ensure_started()
        rewards = self.env.run_ticks(n_ticks)
        # The observation stack advanced while we watched; refresh it.
        self._obs = self.env.current_observation()
        return rewards

    # -- checkpointing -------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Checkpoint the trained model (+ optimiser state, ε, steps).

        A live decoupled trainer is drained first, so the stored
        weights include every SGD step granted so far — identical to
        what an inline session would have stored.
        """
        if self.trainer is not None:
            self.trainer.drain()
        self._flush_replay()
        save_checkpoint(
            path,
            self.agent.online.net,
            optimizer=self.agent.optimizer,
            extra={
                "epsilon": self.agent.epsilon.value,
                "train_steps": self.agent.train_steps,
            },
        )

    def load(self, path: Union[str, Path]) -> None:
        """Restore a checkpoint into the live agent.
        """
        net, extras = load_checkpoint(path, optimizer=self.agent.optimizer)
        if net.layer_dims != self.agent.online.net.layer_dims:
            raise ValueError(
                f"checkpoint topology {net.layer_dims} does not match this "
                f"session's network {self.agent.online.net.layer_dims}"
            )
        self.agent.adopt_network(net)
        if "epsilon" in extras:
            self.agent.epsilon._value = float(extras["epsilon"])
        if "train_steps" in extras:
            self.agent.train_steps = int(extras["train_steps"])
