"""The unified tuner interface and its registry.

Every automatic tuner in the reproduction — the CAPES DQN session and
the §5 search-based comparators — runs through one protocol::

    tuner = make_tuner("capes", seed=3)
    result = tuner.run(env, RunBudget(train_ticks=600, eval_ticks=120))

A run follows the paper's evaluation workflow (appendix A.4) for each
training segment of the budget: spend the segment training/searching,
reset the system to default parameters and measure the *baseline*,
then measure the *tuned* system — so every tuner produces directly
comparable :class:`PhaseResult` pairs, and multi-checkpoint budgets
reproduce the "after 12 h / after 24 h" bars of Figures 2-3 in a
single run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Protocol, runtime_checkable

import numpy as np

from repro.baselines import (
    BaselineTuner,
    EvolutionStrategy,
    HillClimb,
    RandomSearch,
    StaticBaseline,
)
from repro.core.session import CapesSession
from repro.env.protocol import Environment
from repro.env.vector import VectorEnv, per_env_rngs
from repro.exp.spec import RunBudget
from repro.rl.agent import seeded_agent
from repro.stats import compare_measurements
from repro.train.loop import TrainerConfig, TrainerLoop
from repro.stats.summary import Comparison


@dataclass
class PhaseResult:
    """Baseline/tuned measurement pair after one training checkpoint."""

    trained_ticks: int  # cumulative training ticks when measured
    baseline_rewards: np.ndarray
    tuned_rewards: np.ndarray
    final_params: Dict[str, float]

    def comparison(self, trim: bool = True) -> Comparison:
        """Pilot-style baseline-vs-tuned statistics for this phase."""
        return compare_measurements(
            self.baseline_rewards, self.tuned_rewards, trim=trim
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (inverse of :meth:`from_dict`)."""
        return {
            "trained_ticks": int(self.trained_ticks),
            "baseline_rewards": [float(x) for x in self.baseline_rewards],
            "tuned_rewards": [float(x) for x in self.tuned_rewards],
            "final_params": {
                k: float(v) for k, v in self.final_params.items()
            },
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "PhaseResult":
        return cls(
            trained_ticks=int(d["trained_ticks"]),
            baseline_rewards=np.asarray(d["baseline_rewards"], dtype=float),
            tuned_rewards=np.asarray(d["tuned_rewards"], dtype=float),
            final_params=dict(d["final_params"]),
        )


@dataclass
class RunResult:
    """Everything one tuning session produced, one entry per checkpoint."""

    tuner: str
    scenario: str
    seed: int
    phases: List[PhaseResult]
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def final(self) -> PhaseResult:
        """The last checkpoint's measurement pair."""
        return self.phases[-1]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (inverse of :meth:`from_dict`)."""
        return {
            "tuner": self.tuner,
            "scenario": self.scenario,
            "seed": int(self.seed),
            "phases": [p.to_dict() for p in self.phases],
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "RunResult":
        return cls(
            tuner=d["tuner"],
            scenario=d["scenario"],
            seed=int(d["seed"]),
            phases=[PhaseResult.from_dict(p) for p in d["phases"]],
            extra=dict(d.get("extra", {})),
        )


@runtime_checkable
class Tuner(Protocol):
    """Anything that can tune an environment within a budget.

    ``env`` is any :class:`~repro.env.protocol.Environment` — the
    protocol is structural, so the concrete ``"sim-lustre"`` class and
    any future registered backend both satisfy it.
    """

    name: str

    def run(self, env: Environment, budget: RunBudget) -> RunResult:
        """Tune ``env`` within ``budget``; one result per checkpoint."""
        ...  # pragma: no cover - protocol


def _measure_pair(
    env: Environment,
    eval_ticks: int,
    tuned_params: Dict[str, float],
) -> tuple:
    """Measure default parameters, then ``tuned_params``."""
    env.set_params(env.action_space.defaults())
    baseline = env.run_ticks(eval_ticks)
    env.set_params(tuned_params)
    tuned = env.run_ticks(eval_ticks)
    return baseline, tuned


class CapesTuner:
    """The DQN tuner behind the uniform interface.

    Wraps :class:`~repro.core.session.CapesSession`; session knobs
    (``train_steps_per_tick``, ``loss``) pass through unchanged, so a
    spec-driven run is bit-identical to the hand-rolled drivers it
    replaced.  ``train_steps_per_tick`` is the :mod:`repro.train` step
    budget: SGD steps per action tick, fractions accumulating.
    """

    name = "capes"

    def __init__(
        self,
        seed: int = 0,
        scenario: str = "",
        train_steps_per_tick: float = 1,
        loss: str = "mse",
        greedy_eval: bool = True,
    ):
        self.seed = int(seed)
        self.scenario = scenario
        self.train_steps_per_tick = float(train_steps_per_tick)
        self.loss = loss
        self.greedy_eval = greedy_eval
        # Checked here so a bad budget fails before any run starts.
        self._trainer_config = TrainerConfig(
            train_ratio=self.train_steps_per_tick
        )

    def run(self, env: Environment, budget: RunBudget) -> RunResult:
        """One CAPES session over ``env``: train each budget segment,
        measure baseline/tuned at every checkpoint."""
        if isinstance(env, VectorEnv):
            return self._run_vector(env, budget)
        session = CapesSession(
            env,
            seed=self.seed,
            train_steps_per_tick=self.train_steps_per_tick,
            loss=self.loss,
        )
        phases: List[PhaseResult] = []
        trained = 0
        first_loss = last_loss = None
        try:
            for segment in budget.segments:
                train = session.train(segment)
                trained += segment
                if len(train.losses):
                    if first_loss is None:
                        first_loss = float(train.losses[0])
                    last_loss = float(np.mean(train.losses[-100:]))
                env.set_params(env.action_space.defaults())
                baseline = session.measure_baseline(budget.eval_ticks)
                tuned = session.evaluate(
                    budget.eval_ticks, greedy=self.greedy_eval
                )
                phases.append(
                    PhaseResult(
                        trained_ticks=trained,
                        baseline_rewards=baseline,
                        tuned_rewards=tuned.rewards,
                        final_params=tuned.final_params,
                    )
                )
        finally:
            session.shutdown_trainer()
        extra: Dict[str, Any] = {}
        if first_loss is not None:
            extra["loss_first"] = first_loss
            extra["loss_last100_mean"] = last_loss
        return RunResult(
            tuner=self.name,
            scenario=self.scenario,
            seed=self.seed,
            phases=phases,
            extra=extra,
        )

    def _run_vector(self, venv: VectorEnv, budget: RunBudget) -> RunResult:
        """Many clusters, one engine: vectorized online training.

        Every action tick the single DQN prices all N stacked
        observations with one batched forward pass, each cluster steps
        its chosen action, all transitions fan into the shared Replay
        DB, and the configured number of SGD steps runs against it — so
        each gradient step sees N clusters' worth of fresh experience.
        ε anneals per action tick (system time), and each cluster draws
        exploration from its own derived stream, so cluster i's random
        actions do not depend on the fleet size.  Checkpoints measure
        baseline/tuned on cluster 0, the reference system.
        """
        agent, sampler_seed = seeded_agent(venv, self.seed, self.loss)
        trainer = TrainerLoop(
            agent,
            self._trainer_config,
            sampler=venv.make_sampler(seed=sampler_seed),
        )
        act_rngs = per_env_rngs(self.seed, venv.n_envs)
        obs = venv.reset()
        phases: List[PhaseResult] = []
        trained = 0
        first_loss = last_loss = None
        try:
            for segment in budget.segments:
                # Per-segment window, matching the single-env path: the
                # reported last-100 mean never reaches into older
                # segments.
                seg_losses: List[float] = []
                for _ in range(segment):
                    actions = agent.act_batch(obs, rngs=act_rngs)
                    obs, _rewards, _infos = venv.step(actions)
                    seg_losses.extend(trainer.notify_ticks(1))
                # Segment boundary: every granted SGD step lands before
                # the checkpoint is measured.
                seg_losses.extend(trainer.drain())
                trained += segment
                if seg_losses:
                    if first_loss is None:
                        first_loss = float(seg_losses[0])
                    last_loss = float(np.mean(seg_losses[-100:]))
                # Checkpoint measurement on the reference cluster (env 0).
                venv.env_method(0, "set_params", venv.action_space.defaults())
                baseline = venv.env_method(0, "run_ticks", budget.eval_ticks)
                tuned = np.zeros(budget.eval_ticks)
                eval_obs = venv.env_method(0, "current_observation")
                for i in range(budget.eval_ticks):
                    action = int(agent.act(eval_obs, greedy=self.greedy_eval))
                    eval_obs, reward, _info = venv.env_method(0, "step", action)
                    tuned[i] = reward
                phases.append(
                    PhaseResult(
                        trained_ticks=trained,
                        baseline_rewards=baseline,
                        tuned_rewards=tuned,
                        final_params=venv.env_method(0, "current_params"),
                    )
                )
                # The checkpoint drove cluster 0 out of lockstep; the
                # next training segment must act on its *current* state,
                # not the pre-measurement one (mirrors the single-env
                # session, which refreshes its observation after
                # measuring).
                obs = venv.refresh_observation(0)
        finally:
            trainer.stop()
        extra: Dict[str, Any] = {"n_envs": venv.n_envs}
        if first_loss is not None:
            extra["loss_first"] = first_loss
            extra["loss_last100_mean"] = last_loss
        return RunResult(
            tuner=self.name,
            scenario=self.scenario,
            seed=self.seed,
            phases=phases,
            extra=extra,
        )


class SearchTuner:
    """A §5 black-box searcher behind the uniform interface.

    Each budget segment buys ``segment // epoch_ticks`` whole-epoch
    evaluations (at least one); the search continues across segments on
    the same live system, and after each segment the best setting found
    so far is measured against the defaults.
    """

    def __init__(
        self,
        cls: type,
        name: str,
        seed: int = 0,
        scenario: str = "",
        **tuner_kwargs: Any,
    ):
        self.cls = cls
        self.name = name
        self.seed = int(seed)
        self.scenario = scenario
        self.tuner_kwargs = tuner_kwargs

    def run(self, env: Environment, budget: RunBudget) -> RunResult:
        """Search ``env``'s parameter space epoch by epoch, measuring
        the best-found setting after each budget segment."""
        if isinstance(env, VectorEnv):
            raise TypeError(
                f"tuner {self.name!r} searches one live system; vectorized "
                f"collection (n_envs > 1) currently supports 'capes' only"
            )
        searcher: BaselineTuner = self.cls(
            env,
            epoch_ticks=budget.epoch_ticks,
            seed=self.seed,
            **self.tuner_kwargs,
        )
        phases: List[PhaseResult] = []
        trained = 0
        best = None
        for segment in budget.segments:
            epochs = max(1, segment // budget.epoch_ticks)
            best = searcher.tune(budget=epochs)
            # Record the search time actually spent: whole epochs only,
            # so this can differ from the nominal segment length.
            trained += epochs * budget.epoch_ticks
            baseline, tuned = _measure_pair(
                env, budget.eval_ticks, best.best_params
            )
            phases.append(
                PhaseResult(
                    trained_ticks=trained,
                    baseline_rewards=baseline,
                    tuned_rewards=tuned,
                    final_params=dict(best.best_params),
                )
            )
        return RunResult(
            tuner=self.name,
            scenario=self.scenario,
            seed=self.seed,
            phases=phases,
            extra={
                "best_score": float(best.best_score),
                "n_evaluations": int(best.n_evaluations),
            },
        )


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

TunerFactory = Callable[..., Tuner]

_TUNERS: Dict[str, TunerFactory] = {}


def register_tuner(name: str, factory: TunerFactory) -> None:
    """Register ``factory(seed=..., scenario=..., **kwargs)`` as ``name``."""
    _TUNERS[name] = factory


def tuner_names() -> List[str]:
    """Every currently registered tuner name, sorted."""
    return sorted(_TUNERS)


def make_tuner(name: str, **kwargs: Any) -> Tuner:
    """Instantiate a registered tuner by name."""
    try:
        factory = _TUNERS[name]
    except KeyError:
        raise KeyError(
            f"unknown tuner {name!r}; registered: {tuner_names()}"
        ) from None
    return factory(**kwargs)


def _search_factory(cls: type, name: str) -> TunerFactory:
    def factory(**kwargs: Any) -> Tuner:
        return SearchTuner(cls, name, **kwargs)

    return factory


register_tuner("capes", CapesTuner)
register_tuner("random", _search_factory(RandomSearch, "random"))
register_tuner("hill_climb", _search_factory(HillClimb, "hill_climb"))
register_tuner("evolution", _search_factory(EvolutionStrategy, "evolution"))
register_tuner("static", _search_factory(StaticBaseline, "static"))
