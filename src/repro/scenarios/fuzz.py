"""Adversarial scenario fuzzing: search for where CAPES stops winning.

BENCH_scenarios.json's three hand-written timelines are the entire
evidence base for the paper's adaptivity claim — and at the short
budget they run, CAPES *loses* to the static tuning on ``degraded``
and ``churn`` and is flat on ``bursty``.  This module turns those
three points into a mapped surface:

1. a seeded **generator** (:func:`sample_scenario`) composes randomized
   :class:`~repro.scenarios.events.ScenarioEvent` timelines, derived
   purely from ``(root_seed, index)`` via
   :func:`~repro.util.rng.derive_rng`, and a scenario-registry
   *resolver* makes every ``fuzz-<root_seed>-<index>`` name buildable
   in any process — each found timeline is a one-line repro;
2. a **search driver** (:class:`ScenarioFuzzer`) scores each candidate
   as ``capes_gain_over_static_pct`` (capes-tuned vs static-tuned, the
   BENCH_scenarios metric; negative means CAPES loses) by fanning
   paired runs through the ordinary
   :class:`~repro.exp.runner.ExperimentRunner`, and searches for
   *minimizers* — a ``random`` sweep baseline plus generation-based
   ``hill_climb``/``evolution`` strategies that mutate timelines
   (:func:`mutate_timeline`: add/drop/shift/rescale events);
3. a **frontier reporter** (:func:`merge_frontier` behind
   ``repro fuzz-scenarios``) merges the k timelines where CAPES gains
   least —
   serialized event lists, scores, exact repro commands — into
   ``BENCH_scenarios.json`` read-update-write.

Everything here is deterministic across interpreter invocations: the
generator re-derives byte-identical timelines from ``(root_seed,
index)``, search decisions depend only on scores (which are a pure
function of the spec), and ``jobs=1`` vs ``jobs=N`` evaluation yields
identical frontiers.

The heavyweight :mod:`repro.exp` imports happen lazily inside the
scoring paths so ``import repro.scenarios`` (which installs the
resolver) stays cheap and cycle-free.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.scenarios.events import (
    ClientChurn,
    DiskDegradation,
    LoadSpike,
    NetworkCongestionWindow,
    ScenarioEvent,
    WorkloadPhaseShift,
    event_from_dict,
    event_to_dict,
)
from repro.scenarios.registry import (
    make_scenario,
    register_scenario_resolver,
)
from repro.scenarios.scenario import Scenario
from repro.util.rng import derive_rng, ensure_rng

__all__ = [
    "DEFAULT_HORIZON",
    "DEFAULT_MAX_EVENTS",
    "FUZZ_NAME_RE",
    "MUTATION_OPS",
    "SEEDED_BURSTY_NAME",
    "Candidate",
    "FuzzResult",
    "FuzzScore",
    "FuzzScoreConfig",
    "ScenarioFuzzer",
    "merge_frontier",
    "mutate_timeline",
    "repair_timeline",
    "sample_scenario",
    "sample_timeline",
    "seeded_bursty_events",
]

#: Latest tick the generator schedules events at.  A default score run
#: spans ~3 (warm) + 60 (train) + 2x30 (eval) ticks, so 110 keeps most
#: events inside the session while mutation shifts can still push one
#: past the horizon (exercising the past-the-end no-op contract).
DEFAULT_HORIZON = 110

#: Most events a freshly sampled timeline carries (mutations may add
#: more).
DEFAULT_MAX_EVENTS = 5

#: The resolver-backed scenario-name family: ``fuzz-<root_seed>-<index>``.
FUZZ_NAME_RE = re.compile(r"^fuzz-(\d+)-(\d+)$")

#: Resolver-backed name of the seeded known-flat candidate: the
#: compressed ``sim-lustre-bursty`` timeline BENCH_scenarios measures
#: at ~+0.3% (flat), planted in every search's initial population so
#: even a tiny budget scores one known reference point; a search
#: worth its budget finds timelines ranked below it (CAPES losing).
SEEDED_BURSTY_NAME = "fuzz-seeded-bursty"

#: Timeline mutation operators (see :func:`mutate_timeline`).
MUTATION_OPS = ("add", "drop", "shift", "rescale")

_KINDS = ("disk", "net", "churn", "phase", "spike")


def _round(x: float) -> float:
    # 4 decimals: compact in JSON, and float->repr->float is exact, so
    # serialized timelines re-derive byte-identically.
    return round(float(x), 4)


def _sample_event(
    rng: np.random.Generator, horizon: int
) -> ScenarioEvent:
    """Draw one randomized event (kind, tick, window, magnitudes)."""
    kind = _KINDS[int(rng.integers(0, len(_KINDS)))]
    at_tick = int(rng.integers(1, horizon + 1))
    duration = int(rng.integers(1, max(2, horizon // 3)))
    permanent = bool(rng.random() < 0.2)
    if kind == "disk":
        return DiskDegradation(
            at_tick=at_tick,
            duration_ticks=None if permanent else duration,
            server_index=int(rng.integers(0, 4)),
            throughput_factor=_round(rng.uniform(0.1, 0.9)),
            seek_factor=_round(rng.uniform(1.0, 4.0)),
        )
    if kind == "net":
        return NetworkCongestionWindow(
            at_tick=at_tick,
            duration_ticks=duration,
            bandwidth_factor=_round(rng.uniform(0.02, 0.8)),
            latency_factor=_round(rng.uniform(1.0, 8.0)),
        )
    if kind == "churn":
        return ClientChurn(
            at_tick=at_tick,
            duration_ticks=None if permanent else duration,
            client_index=int(rng.integers(0, 6)),
        )
    if kind == "phase":
        which = int(rng.integers(0, 3))  # 0: rf, 1: think, 2: both
        return WorkloadPhaseShift(
            at_tick=at_tick,
            duration_ticks=None if permanent else duration,
            read_fraction=(
                _round(rng.uniform(0.0, 1.0)) if which != 1 else None
            ),
            think_time=(
                _round(rng.uniform(0.0, 0.3)) if which != 0 else None
            ),
        )
    return LoadSpike(
        at_tick=at_tick,
        duration_ticks=duration,
        extra_instances_per_client=int(rng.integers(1, 4)),
    )


def repair_timeline(
    events: Sequence[ScenarioEvent],
) -> Tuple[ScenarioEvent, ...]:
    """Enforce the documented composition contract on a raw timeline.

    :class:`~repro.scenarios.events.WorkloadPhaseShift` sets absolute
    knob values, so *overlapping* windowed shifts of the same knob do
    not compose (a revert would restore a mid-overlap value) — its
    docstring says "schedule them disjointly", and this is where the
    fuzzer does: a phase shift whose window overlaps an earlier shift
    of the same knob is dropped.  Zero-length windows never apply and
    are kept as-is; all other event kinds stack multiplicatively and
    overlap freely.
    """
    out: List[ScenarioEvent] = []
    occupied: Dict[str, List[Tuple[float, float]]] = {
        "read_fraction": [],
        "think_time": [],
    }
    for ev in events:
        if isinstance(ev, WorkloadPhaseShift) and ev.duration_ticks != 0:
            start = float(ev.at_tick)
            end = (
                math.inf
                if ev.duration_ticks is None
                else float(ev.at_tick + ev.duration_ticks)
            )
            knobs = [
                knob
                for knob in ("read_fraction", "think_time")
                if getattr(ev, knob) is not None
            ]
            if any(
                start < e and s < end
                for knob in knobs
                for (s, e) in occupied[knob]
            ):
                continue
            for knob in knobs:
                occupied[knob].append((start, end))
        out.append(ev)
    return tuple(out)


def sample_timeline(
    rng: np.random.Generator,
    horizon: int = DEFAULT_HORIZON,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> Tuple[ScenarioEvent, ...]:
    """Draw a repaired timeline of 1..``max_events`` randomized events.

    Consumes only ``rng``, so a caller holding a derived stream gets a
    pure function of that stream's state; overlap between events is
    allowed (and common) except where :func:`repair_timeline` forbids
    it.  The repair can only *drop* events, and never drops the first
    phase shift, so the result is always non-empty.
    """
    n_events = int(rng.integers(1, max_events + 1))
    return repair_timeline(
        tuple(_sample_event(rng, horizon) for _ in range(n_events))
    )


def sample_scenario(
    root_seed: int,
    index: int,
    horizon: int = DEFAULT_HORIZON,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> Scenario:
    """Derive fuzzed scenario ``fuzz-<root_seed>-<index>``.

    A pure function of its arguments: a *fresh* root generator is built
    from ``root_seed`` every call (``derive_rng`` consumes parent
    state, so sharing one root across indices would make index ``i``
    depend on which indices were drawn before it), then the timeline is
    drawn from the ``("fuzz", index)``-keyed child stream.  Two
    interpreter invocations — or two processes of one experiment pool —
    therefore rebuild byte-identical timelines from the name alone.
    """
    rng = derive_rng(ensure_rng(int(root_seed)), "fuzz", int(index))
    return Scenario(
        name=f"fuzz-{int(root_seed)}-{int(index)}",
        events=sample_timeline(rng, horizon=horizon, max_events=max_events),
    )


def seeded_bursty_events() -> Tuple[ScenarioEvent, ...]:
    """The compressed ``sim-lustre-bursty`` timeline (the known-flat
    region BENCH_scenarios measures at ~+0.3%), as plain events."""
    return make_scenario(
        "sim-lustre-bursty", first_tick=20, period=30, n_bursts=4, duration=10
    ).events


def _make_fuzzed(
    name: str = "fuzzed",
    events: Sequence[Union[Mapping, ScenarioEvent]] = (),
) -> Scenario:
    """``make_scenario("fuzzed", name=..., events=[...])``: build a
    scenario from serialized events (dicts or ready event objects).

    This is how non-derivable timelines — search mutants, hand-edited
    frontier entries — travel inside a picklable
    :class:`~repro.exp.spec.ExperimentSpec`: ``scenario="fuzzed"`` plus
    JSON-able ``scenario_kwargs``, rebuilt by name in every worker.
    """
    built = tuple(
        ev if isinstance(ev, ScenarioEvent) else event_from_dict(ev)
        for ev in events
    )
    return Scenario(name=str(name), events=built)


def _fuzz_resolver(name: str):
    """Scenario-registry resolver for the fuzzed-name families."""
    if name == "fuzzed":
        return _make_fuzzed
    if name == SEEDED_BURSTY_NAME:
        return lambda: Scenario(
            name=SEEDED_BURSTY_NAME, events=seeded_bursty_events()
        )
    match = FUZZ_NAME_RE.match(name)
    if match:
        return functools.partial(
            sample_scenario, int(match.group(1)), int(match.group(2))
        )
    return None


register_scenario_resolver(_fuzz_resolver)


# -- timeline mutation ----------------------------------------------------


def _rescale_event(
    ev: ScenarioEvent, rng: np.random.Generator, horizon: int
) -> ScenarioEvent:
    """Scale one event's magnitudes/window, clamped to valid ranges."""
    f = float(rng.uniform(0.5, 1.6))
    changes: Dict[str, object] = {}
    if ev.duration_ticks is not None:
        # May shrink to 0: a legal empty window the runtime never
        # applies (the zero-length no-op contract).
        changes["duration_ticks"] = min(
            int(round(ev.duration_ticks * f)), horizon
        )
    if isinstance(ev, DiskDegradation):
        changes["throughput_factor"] = _round(
            min(max(ev.throughput_factor * f, 0.05), 0.99)
        )
        changes["seek_factor"] = _round(
            min(max(ev.seek_factor / f, 1.0), 8.0)
        )
    elif isinstance(ev, NetworkCongestionWindow):
        changes["bandwidth_factor"] = _round(
            min(max(ev.bandwidth_factor * f, 0.01), 0.95)
        )
        changes["latency_factor"] = _round(
            min(max(ev.latency_factor / f, 1.0), 10.0)
        )
    elif isinstance(ev, WorkloadPhaseShift):
        if ev.read_fraction is not None:
            changes["read_fraction"] = _round(
                min(max(ev.read_fraction * f, 0.0), 1.0)
            )
        if ev.think_time is not None:
            changes["think_time"] = _round(
                min(max(ev.think_time * f, 0.0), 2.0)
            )
    elif isinstance(ev, LoadSpike):
        changes["extra_instances_per_client"] = min(
            max(int(round(ev.extra_instances_per_client * f)), 1), 6
        )
    return replace(ev, **changes)


def mutate_timeline(
    events: Sequence[ScenarioEvent],
    rng: np.random.Generator,
    horizon: int = DEFAULT_HORIZON,
    max_events: int = 2 * DEFAULT_MAX_EVENTS,
) -> Tuple[ScenarioEvent, ...]:
    """One search move: add, drop, shift, or rescale an event.

    Every operator returns freshly validated frozen events (``replace``
    re-runs ``__post_init__``), clamps ticks to ``[1, horizon]`` and
    magnitudes to their legal ranges, keeps the timeline within
    ``[1, max_events]`` events (drop is skipped on singletons, add once
    the cap is reached — unbounded growth would let a long search walk
    into ever-costlier timelines), and re-runs :func:`repair_timeline`
    so mutants honour the same composition contract as fresh samples.
    """
    events = tuple(events)
    ops = [
        op
        for op in MUTATION_OPS
        if (op != "drop" or len(events) > 1)
        and (op != "add" or len(events) < max_events)
    ]
    op = ops[int(rng.integers(0, len(ops)))]
    if op == "add":
        out = events + (_sample_event(rng, horizon),)
    elif op == "drop":
        i = int(rng.integers(0, len(events)))
        out = events[:i] + events[i + 1 :]
    elif op == "shift":
        i = int(rng.integers(0, len(events)))
        delta = int(rng.integers(-(horizon // 4), horizon // 4 + 1))
        ev = events[i]
        shifted = replace(
            ev, at_tick=min(max(ev.at_tick + delta, 1), horizon)
        )
        out = events[:i] + (shifted,) + events[i + 1 :]
    else:
        i = int(rng.integers(0, len(events)))
        out = (
            events[:i]
            + (_rescale_event(events[i], rng, horizon),)
            + events[i + 1 :]
        )
    return repair_timeline(out)


# -- scoring --------------------------------------------------------------


@dataclass(frozen=True)
class FuzzScoreConfig:
    """The experiment recipe every candidate timeline is scored under.

    Defaults mirror ``benchmarks/test_scenario_adapt.py`` exactly (one
    compressed CAPES session vs one static session, seed 42), so a
    frontier score is directly comparable to the ``scenarios`` rows of
    BENCH_scenarios.json; tests shrink the fields for speed.
    """

    seed: int = 42
    n_servers: int = 2
    n_clients: int = 3
    read_fraction: float = 0.1
    instances_per_client: int = 5
    hidden_layer_size: int = 32
    exploration_ticks: int = 60
    train_ticks: int = 60
    eval_ticks: int = 30
    epoch_ticks: int = 15

    def spec(self, tuner: str, scenario: str, scenario_kwargs: dict):
        """The :class:`~repro.exp.spec.ExperimentSpec` for one run."""
        from repro.cluster import ClusterConfig
        from repro.exp import ExperimentSpec, RunBudget, WorkloadSpec
        from repro.rl import Hyperparameters

        return ExperimentSpec(
            tuner=tuner,
            seed=self.seed,
            scenario=scenario,
            scenario_kwargs=scenario_kwargs,
            cluster=ClusterConfig(
                n_servers=self.n_servers, n_clients=self.n_clients
            ),
            workload=WorkloadSpec(
                "random_rw",
                {
                    "read_fraction": self.read_fraction,
                    "instances_per_client": self.instances_per_client,
                },
            ),
            hp=Hyperparameters(
                hidden_layer_size=self.hidden_layer_size,
                exploration_ticks=self.exploration_ticks,
                sampling_ticks_per_observation=3,
                adam_learning_rate=1e-3,
            ),
            budget=RunBudget(
                train_ticks=self.train_ticks,
                eval_ticks=self.eval_ticks,
                epoch_ticks=self.epoch_ticks,
            ),
        )

    def to_dict(self) -> dict:
        """JSON-able summary recorded next to the frontier."""
        return {
            "seed": self.seed,
            "train_ticks": self.train_ticks,
            "eval_ticks": self.eval_ticks,
            "epoch_ticks": self.epoch_ticks,
        }


@dataclass(frozen=True)
class FuzzScore:
    """One candidate's capes-vs-static outcome (the BENCH metric)."""

    #: ``100 * (capes_tuned - static_tuned) / static_tuned``: negative
    #: when CAPES loses to the static tuning; ``nan`` when the static
    #: run measured no throughput to compare against.
    capes_gain_over_static_pct: float
    capes_tuned: float
    static_tuned: float


@dataclass
class Candidate:
    """One fuzzed timeline moving through the search."""

    #: Deterministic scenario name (``fuzz-<root_seed>-<index>`` when
    #: derivable from the name alone).
    name: str
    events: Tuple[ScenarioEvent, ...]
    #: Provenance: ``sampled``, ``seeded``, or ``mutant:<parent-name>``.
    origin: str
    #: Whether the scenario-registry resolver rebuilds this timeline
    #: from ``name`` alone (sampled under default generator knobs).
    derivable: bool
    #: Evaluation order within one search (also the sort tiebreak).
    index: int = -1
    score: Optional[FuzzScore] = None

    def spec_fields(self) -> Tuple[str, dict]:
        """``(scenario, scenario_kwargs)`` for an ExperimentSpec."""
        if self.derivable:
            return self.name, {}
        return "fuzzed", {
            "name": self.name,
            "events": [event_to_dict(ev) for ev in self.events],
        }

    def repro_command(self) -> str:
        """Exact CLI line that re-runs this candidate's score."""
        if self.derivable:
            return f"repro fuzz-scenarios --score {self.name}"
        payload = json.dumps(
            {
                "name": self.name,
                "events": [event_to_dict(ev) for ev in self.events],
            },
            sort_keys=True,
        )
        return f"repro fuzz-scenarios --score-events '{payload}'"

    def to_dict(self) -> dict:
        """JSON-able frontier entry (events serialized, repro included)."""
        row = {
            "name": self.name,
            "origin": self.origin,
            "events": [event_to_dict(ev) for ev in self.events],
            "repro": self.repro_command(),
        }
        if self.score is not None:
            row["capes_gain_over_static_pct"] = (
                self.score.capes_gain_over_static_pct
            )
            row["capes_tuned"] = self.score.capes_tuned
            row["static_tuned"] = self.score.static_tuned
        return row


def _finite_pct(cand: Candidate) -> float:
    """The candidate's gain, or ``+inf`` (ranked last) when unscored
    or not finite."""
    if cand.score is None or not math.isfinite(
        cand.score.capes_gain_over_static_pct
    ):
        return math.inf
    return cand.score.capes_gain_over_static_pct


def _rank_key(cand: Candidate) -> tuple:
    # Lowest gain (CAPES losing most) first; evaluation order breaks
    # ties so jobs=1 and jobs=N (and repeated invocations) rank
    # identically.
    return (_finite_pct(cand), cand.index)


@dataclass
class FuzzResult:
    """Everything one search evaluated, plus frontier accessors."""

    root_seed: int
    strategy: str
    budget: int
    horizon: int
    max_events: int
    score_config: FuzzScoreConfig
    #: Every scored candidate, in evaluation order.
    candidates: List[Candidate] = field(default_factory=list)

    def frontier(self, top_k: int = 5) -> List[Candidate]:
        """The ``top_k`` scored candidates where CAPES gains least over
        static (most negative first), deterministically ranked."""
        scored = [c for c in self.candidates if _finite_pct(c) < math.inf]
        return sorted(scored, key=_rank_key)[: max(int(top_k), 0)]

    def frontier_section(self, top_k: int = 5) -> dict:
        """The ``fuzzed_frontier`` JSON section for BENCH_scenarios."""
        return {
            "root_seed": self.root_seed,
            "strategy": self.strategy,
            "budget": self.budget,
            "horizon": self.horizon,
            "max_events": self.max_events,
            "n_scored": len(self.candidates),
            "score_config": self.score_config.to_dict(),
            "top": [c.to_dict() for c in self.frontier(top_k)],
        }


class ScenarioFuzzer:
    """The adversarial search driver over the fuzzed-scenario space.

    ``budget`` counts candidate timelines; each costs two full
    experiment runs (capes + static) fanned through one
    :class:`~repro.exp.runner.ExperimentRunner`, so results are
    byte-identical for any ``jobs`` and across interpreter invocations.

    Parameters
    ----------
    root_seed:
        Seeds both the sampled timelines (via :func:`sample_scenario`)
        and the search's own mutation stream.
    score_config:
        Experiment recipe per candidate; defaults to the
        BENCH_scenarios-compatible :class:`FuzzScoreConfig`.
    jobs:
        Worker processes for the paired scoring runs.
    horizon / max_events:
        Generator knobs.  Candidates sampled under non-default knobs
        are not name-derivable and travel as serialized events instead.
    include_seeded:
        Plant the known-flat compressed ``bursty`` timeline
        (:data:`SEEDED_BURSTY_NAME`) in the initial population.
    """

    def __init__(
        self,
        root_seed: int,
        *,
        score_config: Optional[FuzzScoreConfig] = None,
        jobs: int = 1,
        horizon: int = DEFAULT_HORIZON,
        max_events: int = DEFAULT_MAX_EVENTS,
        include_seeded: bool = True,
    ):
        self.root_seed = int(root_seed)
        self.score_config = score_config or FuzzScoreConfig()
        self.jobs = int(jobs)
        self.horizon = int(horizon)
        self.max_events = int(max_events)
        self.include_seeded = bool(include_seeded)
        # Search-owned stream for mutation moves, independent of the
        # per-index sampling streams (which rebuild a fresh root).
        self._search_rng = derive_rng(
            ensure_rng(self.root_seed), "fuzz-search"
        )
        self._sample_count = 0
        self._mutant_count = 0
        #: Every candidate scored so far, in evaluation order.
        self.evaluated: List[Candidate] = []

    # -- candidate construction -----------------------------------------
    @property
    def _derivable(self) -> bool:
        return (
            self.horizon == DEFAULT_HORIZON
            and self.max_events == DEFAULT_MAX_EVENTS
        )

    def _sampled_candidate(self) -> Candidate:
        index = self._sample_count
        self._sample_count += 1
        scenario = sample_scenario(
            self.root_seed, index, self.horizon, self.max_events
        )
        return Candidate(
            name=scenario.name,
            events=scenario.events,
            origin="sampled",
            derivable=self._derivable,
        )

    def _seeded_candidate(self) -> Candidate:
        return Candidate(
            name=SEEDED_BURSTY_NAME,
            events=seeded_bursty_events(),
            origin="seeded",
            derivable=True,
        )

    def _mutant_candidate(self, parent: Candidate) -> Candidate:
        index = self._mutant_count
        self._mutant_count += 1
        return Candidate(
            name=f"fuzz-{self.root_seed}-m{index}",
            events=mutate_timeline(
                parent.events, self._search_rng, self.horizon
            ),
            origin=f"mutant:{parent.name}",
            derivable=False,
        )

    # -- evaluation ------------------------------------------------------
    def evaluate(self, candidates: Sequence[Candidate]) -> List[Candidate]:
        """Score a batch: two runs per candidate through one runner.

        Scores land on the candidates (``score``/``index`` filled in)
        and the batch joins :attr:`evaluated`; rounding matches the
        BENCH_scenarios rows so a frontier entry's reported number is
        exactly what its repro command reprints.
        """
        from repro.exp.runner import ExperimentRunner

        candidates = list(candidates)
        if not candidates:
            return []
        specs = []
        for cand in candidates:
            scenario, kwargs = cand.spec_fields()
            specs.append(self.score_config.spec("capes", scenario, kwargs))
            specs.append(self.score_config.spec("static", scenario, kwargs))
        records = ExperimentRunner(jobs=self.jobs).run(specs).records
        for i, cand in enumerate(candidates):
            capes = records[2 * i].result.final
            static = records[2 * i + 1].result.final
            capes_tuned = float(np.mean(capes.tuned_rewards))
            static_tuned = float(np.mean(static.tuned_rewards))
            pct = (
                100.0 * (capes_tuned - static_tuned) / static_tuned
                if static_tuned > 0
                else float("nan")
            )
            cand.score = FuzzScore(
                capes_gain_over_static_pct=round(pct, 2),
                capes_tuned=round(capes_tuned, 5),
                static_tuned=round(static_tuned, 5),
            )
            cand.index = len(self.evaluated)
            self.evaluated.append(cand)
        return candidates

    def score_one(self, candidate: Candidate) -> Candidate:
        """Score a single externally built candidate (CLI ``--score``)."""
        return self.evaluate([candidate])[0]

    # -- search strategies -----------------------------------------------
    def _initial(self, budget: int, n_sampled: int) -> List[Candidate]:
        batch: List[Candidate] = []
        if self.include_seeded:
            batch.append(self._seeded_candidate())
        target = min(budget, n_sampled + len(batch))
        while len(batch) < target:
            batch.append(self._sampled_candidate())
        return batch

    def search(self, strategy: str = "random", budget: int = 8) -> FuzzResult:
        """Run one search and return everything it evaluated.

        ``random`` scores ``budget`` fresh samples (plus the seeded
        candidate); ``hill_climb`` greedily follows the best improving
        mutant of the current leader (3 proposals per round, mirroring
        the coordinate-search acceptance rule of
        :mod:`repro.baselines.hill_climb`); ``evolution`` is a small
        (mu+lambda) scheme — mu=2 survivors, 3 children per round —
        mirroring :mod:`repro.baselines.evolution`.  All three are
        generation-batched, so any ``jobs`` yields the same frontier.
        """
        budget = int(budget)
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        if strategy not in ("random", "hill_climb", "evolution"):
            raise ValueError(
                f"unknown strategy {strategy!r}; "
                f"choose random, hill_climb or evolution"
            )
        start = len(self.evaluated)
        if strategy == "random":
            batch: List[Candidate] = []
            if self.include_seeded:
                batch.append(self._seeded_candidate())
            while len(batch) < budget:
                batch.append(self._sampled_candidate())
            self.evaluate(batch)
        elif strategy == "hill_climb":
            init = self.evaluate(self._initial(budget, n_sampled=2))
            current = min(init, key=_rank_key)
            while len(self.evaluated) - start < budget:
                k = min(3, budget - (len(self.evaluated) - start))
                mutants = self.evaluate(
                    [self._mutant_candidate(current) for _ in range(k)]
                )
                best = min(mutants, key=_rank_key)
                if _finite_pct(best) < _finite_pct(current):
                    current = best
        else:
            mu = 2
            init = self.evaluate(self._initial(budget, n_sampled=2))
            parents = sorted(init, key=_rank_key)[:mu]
            while len(self.evaluated) - start < budget:
                k = min(3, budget - (len(self.evaluated) - start))
                children = self.evaluate(
                    [
                        self._mutant_candidate(parents[i % len(parents)])
                        for i in range(k)
                    ]
                )
                parents = sorted(parents + children, key=_rank_key)[:mu]
        return FuzzResult(
            root_seed=self.root_seed,
            strategy=strategy,
            budget=budget,
            horizon=self.horizon,
            max_events=self.max_events,
            score_config=self.score_config,
            candidates=self.evaluated[start:],
        )


def merge_frontier(
    path: Union[str, Path], section: dict
) -> dict:
    """Read-update-write the ``fuzzed_frontier`` section into a BENCH
    JSON file (existing sections — e.g. ``scenarios`` — survive)."""
    path = Path(path)
    data = json.loads(path.read_text()) if path.exists() else {}
    data["fuzzed_frontier"] = section
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data
