"""Declarative experiment specifications.

The paper's claims are statistical: median gains over many repeated
tuning sessions, across workloads, against several baseline tuners.
An :class:`ExperimentSpec` captures *one* such session — cluster ×
workload × tuner × hyperparameters × seed — as plain, picklable data,
so a grid of specs can be fanned out across worker processes by
:class:`~repro.exp.runner.ExperimentRunner` and every run can be
rebuilt bit-identically from its spec alone.

Workloads are named through a registry instead of carried as callables
(lambdas do not survive pickling); :class:`WorkloadSpec` resolves a
name + kwargs into the ``workload_factory`` the environment expects.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.env.protocol import Environment
from repro.env.registry import make_env
from repro.env.tuning_env import EnvConfig
from repro.env.vector import VectorEnv
from repro.rl.hyperparams import Hyperparameters
from repro.workloads import FileServer, RandomReadWrite, SequentialWrite
from repro.workloads.base import Workload

# --------------------------------------------------------------------------
# Workload registry
# --------------------------------------------------------------------------

WorkloadBuilder = Callable[..., Workload]

_WORKLOADS: Dict[str, WorkloadBuilder] = {}


def register_workload(name: str, builder: WorkloadBuilder) -> None:
    """Register ``builder(cluster, seed, **kwargs)`` under ``name``."""
    _WORKLOADS[name] = builder


def workload_names() -> List[str]:
    """Every currently registered workload name, sorted."""
    return sorted(_WORKLOADS)


def _build_random_rw(cluster: Cluster, seed: int, **kw: Any) -> Workload:
    return RandomReadWrite(cluster, seed=seed, **kw)


def _build_fileserver(cluster: Cluster, seed: int, **kw: Any) -> Workload:
    return FileServer(cluster, seed=seed, **kw)


def _build_seqwrite(cluster: Cluster, seed: int, **kw: Any) -> Workload:
    return SequentialWrite(cluster, seed=seed, **kw)


register_workload("random_rw", _build_random_rw)
register_workload("fileserver", _build_fileserver)
register_workload("seqwrite", _build_seqwrite)


@dataclass(frozen=True)
class WorkloadSpec:
    """A named, picklable workload recipe (§4.3 workload families)."""

    name: str
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name not in _WORKLOADS:
            raise KeyError(
                f"unknown workload {self.name!r}; "
                f"registered: {workload_names()}"
            )

    def factory(self) -> Callable[[Cluster, int], Workload]:
        """The ``workload_factory(cluster, seed)`` the env expects.

        A :func:`functools.partial` over a module-level builder, so the
        result pickles by reference and crosses process boundaries.
        """
        return functools.partial(_WORKLOADS[self.name], **self.kwargs)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form for artifact headers."""
        return {"name": self.name, "kwargs": dict(self.kwargs)}


@dataclass(frozen=True)
class RunBudget:
    """How much system time one run may spend.

    ``train_ticks`` is a sequence of training *segments*: after each
    segment the tuner is measured (baseline + tuned), reproducing the
    paper's "after 12 hours / after 24 hours" checkpoints with a single
    run.  Search-based tuners convert segments into whole epochs of
    ``epoch_ticks`` evaluations.
    """

    train_ticks: Union[int, Tuple[int, ...]] = (600,)
    eval_ticks: int = 120
    epoch_ticks: int = 60

    def __post_init__(self) -> None:
        segs = self.train_ticks
        if isinstance(segs, int):
            segs = (segs,)
        segs = tuple(int(s) for s in segs)
        if not segs or any(s <= 0 for s in segs):
            raise ValueError(f"train_ticks must be positive, got {segs}")
        if self.eval_ticks <= 0 or self.epoch_ticks <= 0:
            raise ValueError("eval_ticks and epoch_ticks must be positive")
        object.__setattr__(self, "train_ticks", segs)

    @property
    def segments(self) -> Tuple[int, ...]:
        """Training segments as a tuple (one entry per checkpoint)."""
        return self.train_ticks  # normalized to a tuple in __post_init__

    @property
    def total_train_ticks(self) -> int:
        """Whole-run training length (all segments summed)."""
        return sum(self.segments)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form for artifact headers."""
        return {
            "train_ticks": list(self.segments),
            "eval_ticks": self.eval_ticks,
            "epoch_ticks": self.epoch_ticks,
        }


@dataclass
class ExperimentSpec:
    """One tuning session, fully determined by plain data.

    Environments are named through the registry in
    :mod:`repro.env.registry` (``env`` field, default ``"sim-lustre"``).
    For the sim-lustre reference backend two configuration sources are
    supported:

    - inline: ``cluster`` + ``workload`` + ``hp`` (+ ``objective_factory``,
      which must be a module-level callable so it pickles by reference);
    - a ``conf_path`` pointing at an appendix-A.3 style conf.py; workers
      re-load the file themselves, so nothing unpicklable crosses the
      process boundary.

    Any other registered backend is built as
    ``make_env(env, seed=seed, **env_kwargs)``.

    ``n_envs > 1`` builds a :class:`~repro.env.vector.VectorEnv` over
    independently-seeded replicas (``vector_backend`` picks serial,
    fork or vec stepping) — the paper's many-agents-one-engine
    topology, used by the ``capes`` tuner for vectorized experience
    collection.

    ``seed`` seeds both the environment rebuild and the tuner, exactly
    as the existing drivers did; sub-streams are derived inside those
    components via :func:`repro.util.rng.derive_rng`.
    """

    tuner: str = "capes"
    seed: int = 0
    #: Report label — and, when it names a registered scenario
    #: (repro.scenarios), the fault/perturbation timeline attached to
    #: the built environment: ``scenario="sim-lustre-bursty"`` runs the
    #: session against the bursty-network condition.  Unregistered
    #: strings stay pure labels (grid() scenario axes, conf sweeps).
    scenario: str = ""
    #: Factory knobs for a *registered* scenario (e.g. event timing);
    #: rejected when ``scenario`` is only a label.
    scenario_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Environment registry key (repro.env.registry).
    env: str = "sim-lustre"
    #: Constructor kwargs for non-sim-lustre backends.
    env_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Vectorized collection: replicas stepped in lockstep (1 = plain).
    n_envs: int = 1
    #: VectorEnv backend: "serial", "fork" or "vec" (one
    #: struct-of-arrays fleet, :mod:`repro.sim.vec`).
    vector_backend: str = "serial"
    workload: WorkloadSpec = field(
        default_factory=lambda: WorkloadSpec(
            "random_rw", {"read_fraction": 0.1, "instances_per_client": 5}
        )
    )
    cluster: ClusterConfig = field(
        default_factory=lambda: ClusterConfig(n_servers=2, n_clients=5)
    )
    hp: Hyperparameters = field(default_factory=Hyperparameters)
    budget: RunBudget = field(default_factory=RunBudget)
    tuner_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Module-level callable returning an Objective, or None for the
    #: default throughput objective.
    objective_factory: Optional[Callable] = None
    #: Alternative env source: path to a conf.py (overrides the inline
    #: cluster/workload/hp fields).
    conf_path: Optional[str] = None
    #: Figure-4 style layout drift seed, folded into workload placement.
    perturb_seed: int = 0

    @property
    def spec_id(self) -> str:
        """Human-readable run key: scenario/tuner/seed."""
        scen = self.scenario or self.workload.name
        return f"{scen}/{self.tuner}/seed{self.seed}"

    # -- environment construction ---------------------------------------
    def scenario_object(self):
        """The registered :class:`~repro.scenarios.scenario.Scenario`
        this spec names, or ``None`` when ``scenario`` is only a label.
        """
        from repro.scenarios import has_scenario, make_scenario, scenario_names

        if self.scenario and has_scenario(self.scenario):
            return make_scenario(self.scenario, **self.scenario_kwargs)
        if self.scenario_kwargs:
            raise KeyError(
                f"scenario_kwargs given but {self.scenario!r} is not a "
                f"registered scenario; registered: {scenario_names()}"
            )
        return None

    def env_config(self) -> EnvConfig:
        """The sim-lustre :class:`EnvConfig` this spec describes
        (inline fields, or the conf.py when ``conf_path`` is set)."""
        if self.conf_path is not None:
            from repro.core.config import load_config

            cfg = load_config(self.conf_path).env
            spec_scenario = self.scenario_object()
            if spec_scenario is not None and cfg.scenario is not None:
                raise ValueError(
                    f"conf {self.conf_path!r} already carries scenario "
                    f"{cfg.scenario.name!r}; refusing to overwrite it with "
                    f"{spec_scenario.name!r} (drop one, or compose them)"
                )
            return replace(
                cfg,
                seed=self.seed,
                perturb_seed=self.perturb_seed,
                scenario=spec_scenario or cfg.scenario,
            )
        kwargs: Dict[str, Any] = dict(
            cluster=self.cluster,
            workload_factory=self.workload.factory(),
            hp=self.hp,
            seed=self.seed,
            perturb_seed=self.perturb_seed,
            scenario=self.scenario_object(),
        )
        if self.objective_factory is not None:
            kwargs["objective_factory"] = self.objective_factory
        return EnvConfig(**kwargs)

    def build_env(self) -> Environment:
        """Instantiate the named environment (vectorized when asked).

        Returns a single :class:`~repro.env.protocol.Environment` for
        ``n_envs == 1`` and a :class:`~repro.env.vector.VectorEnv` over
        :func:`~repro.env.vector.vector_seeds`-derived replicas
        otherwise.
        """
        if self.n_envs < 1:
            raise ValueError(f"n_envs must be >= 1, got {self.n_envs}")
        from repro.scenarios import has_scenario

        if self.env != "sim-lustre" and has_scenario(self.env):
            # A scenario-named environment is sim-lustre plus that
            # timeline.  Re-route through the sim-lustre config path so
            # the conf/inline cluster-workload-hp configuration applies
            # (the generic registry branch below would rebuild from
            # EnvConfig defaults and misdescribe the run).  Any
            # scenario_kwargs parametrize this scenario.
            if (
                self.scenario
                and has_scenario(self.scenario)
                and self.scenario != self.env
            ):
                raise ValueError(
                    f"env={self.env!r} names one scenario but "
                    f"scenario={self.scenario!r} names another; pick one"
                )
            return replace(
                self, env="sim-lustre", scenario=self.env
            ).build_env()
        if self.env == "sim-lustre":
            if self.env_kwargs:
                raise ValueError(
                    "env_kwargs are constructor kwargs for non-sim-lustre "
                    "backends; the sim-lustre path is configured through "
                    "the cluster/workload/hp fields (or conf_path), so "
                    f"{sorted(self.env_kwargs)} would be silently ignored"
                )
            cfg = self.env_config()
            if self.n_envs == 1:
                return make_env(self.env, config=cfg)
            return VectorEnv.from_config(
                cfg, self.n_envs, backend=self.vector_backend
            )
        if self.scenario_object() is not None:
            raise ValueError(
                f"scenario {self.scenario!r} attaches through the "
                f"sim-lustre config path; with env={self.env!r} either "
                f"keep env='sim-lustre' or name the scenario environment "
                f"directly (env={self.scenario!r})"
            )
        if self.n_envs == 1:
            return make_env(self.env, seed=self.seed, **self.env_kwargs)
        return VectorEnv.from_registry(
            self.env,
            self.n_envs,
            base_seed=self.seed,
            backend=self.vector_backend,
            env_kwargs=dict(self.env_kwargs),
        )

    def build_tuner(self):
        """Instantiate the named tuner with this spec's knobs."""
        from repro.exp.tuners import make_tuner

        # tuner_kwargs may override the shared seed to decouple the
        # tuner's stream from the environment rebuild seed.
        kwargs = {
            "seed": self.seed,
            "scenario": self.scenario or self.workload.name,
            **self.tuner_kwargs,
        }
        return make_tuner(self.tuner, **kwargs)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able description (for artifact headers; callables are
        recorded by name only).

        When ``conf_path`` is set the environment comes from the conf
        file, so the inline workload/cluster/hp fields did not apply —
        they are recorded as ``None`` rather than misdescribing the run.
        """
        obj = self.objective_factory
        from_conf = self.conf_path is not None
        return {
            "tuner": self.tuner,
            "seed": self.seed,
            "scenario": self.scenario,
            "scenario_kwargs": dict(self.scenario_kwargs),
            "spec_id": self.spec_id,
            "env": self.env,
            "env_kwargs": dict(self.env_kwargs),
            "n_envs": self.n_envs,
            "vector_backend": self.vector_backend,
            "workload": None if from_conf else self.workload.to_dict(),
            "cluster": None if from_conf else asdict(self.cluster),
            "hp": None if from_conf else asdict(self.hp),
            "budget": self.budget.to_dict(),
            "tuner_kwargs": dict(self.tuner_kwargs),
            "objective_factory": (
                f"{obj.__module__}:{obj.__qualname__}" if obj else None
            ),
            "conf_path": self.conf_path,
            "perturb_seed": self.perturb_seed,
        }


def grid(
    base: ExperimentSpec,
    tuners: Optional[Sequence[str]] = None,
    seeds: Optional[Sequence[int]] = None,
    workloads: Optional[Sequence[Tuple[str, WorkloadSpec]]] = None,
    tuner_kwargs: Optional[Dict[str, Dict[str, Any]]] = None,
) -> List[ExperimentSpec]:
    """Expand ``base`` across tuners × scenarios × seeds.

    ``workloads`` pairs a scenario label with a :class:`WorkloadSpec`;
    omitted axes keep the base spec's value.  ``tuner_kwargs`` maps a
    tuner name to extra constructor kwargs layered over the base spec's
    (e.g. CAPES-only session knobs in a mixed-tuner sweep).  The
    expansion order is deterministic (workload-major, then tuner, then
    seed) so artifact indices are stable across runs.
    """
    from repro.scenarios import has_scenario

    if workloads is not None and base.scenario and has_scenario(base.scenario):
        # The workloads axis relabels each spec's scenario field, which
        # would silently replace the registered perturbation timeline
        # with a plain label and run every session unperturbed.
        raise ValueError(
            f"base spec attaches scenario {base.scenario!r}, but a "
            f"workloads axis overwrites the scenario field with its "
            f"labels; run one grid per scenario instead"
        )
    tuner_list = list(tuners) if tuners is not None else [base.tuner]
    seed_list = list(seeds) if seeds is not None else [base.seed]
    wl_list = (
        list(workloads)
        if workloads is not None
        else [(base.scenario or base.workload.name, base.workload)]
    )
    specs = []
    for scenario, wl in wl_list:
        for tuner in tuner_list:
            # Fresh dict per spec: replace() would otherwise share one
            # mutable mapping across the grid.
            kwargs = dict(base.tuner_kwargs)
            if tuner_kwargs and tuner in tuner_kwargs:
                kwargs.update(tuner_kwargs[tuner])
            for seed in seed_list:
                specs.append(
                    replace(
                        base,
                        tuner=tuner,
                        seed=int(seed),
                        scenario=scenario,
                        workload=wl,
                        tuner_kwargs=dict(kwargs),
                    )
                )
    return specs
