"""Command-line interface: the artifact's daemon scripts, collapsed.

The released CAPES artifact drives its daemons with shell scripts
(``intfdaemon_service.sh conf.py start``, ``dqldaemon_service.sh``,
``ma_service.sh``); in the simulated reproduction there is one process,
so the equivalent surface is a single CLI over a conf.py:

    python -m repro.cli train    --config conf.py --ticks 1500 \
                                 --checkpoint model.npz
    python -m repro.cli evaluate --config conf.py --ticks 300 \
                                 --checkpoint model.npz
    python -m repro.cli baseline --config conf.py --ticks 300
    python -m repro.cli collect  --config conf.py --ticks 600 \
                                 --n-envs 4 --vector-backend fork \
                                 --out replay.sqlite
    python -m repro.cli sweep    --config conf.py \
                                 --tuners capes,random --seeds 0-4 --jobs 4
    python -m repro.cli sweep    --config conf.py --env sim-lustre \
                                 --n-envs 4 --vector-backend fork
    python -m repro.cli sweep    --config conf.py \
                                 --scenario sim-lustre-bursty --seeds 0-4
    python -m repro.cli window-sweep --config conf.py --window 1,2,4,8,16
    python -m repro.cli serve    --config conf.py --port 7007 \
                                 --stats-port 7008 --out replay.sqlite

``train`` runs an online training session and saves the model;
``evaluate`` reloads it and measures tuned throughput; ``baseline``
measures the untouched system; ``collect`` is §3.3's "solely
monitoring" mode — N clusters advance in chunks (one worker round-trip
per chunk, replay records batched into the reply) and every NULL-action
transition fans into one replay DB, durable when ``--out`` names a
file, for later offline training — and with ``--train`` the decoupled
DRL engine (:mod:`repro.train`) trains against the fan-in stream while
collection runs (``--train-ratio``, ``--checkpoint``); ``sweep`` fans a
multi-tuner, multi-seed experiment grid out through
:class:`~repro.exp.runner.ExperimentRunner` — ``--env`` names any
registered environment backend, ``--n-envs N`` trains each CAPES
run against N lockstep clusters fanning experience into one shared
replay DB, and ``--scenario NAME`` (when NAME is registered in
:mod:`repro.scenarios`) runs every session against that fault/
perturbation timeline; ``window-sweep`` does a static parameter sweep (the
tweak-benchmark loop CAPES replaces, useful for ground truth); ``serve``
runs the :mod:`repro.serve` control-plane daemon — remote clusters
register over TCP, stream §3.3 differential telemetry, and receive
tuning decisions and versioned checkpoint hot-swaps, with the trainer
knobs following the same flag > conf > default resolution as
``collect`` (SIGINT/SIGTERM shuts down gracefully and exits 0).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.core.capes import CAPES
from repro.core.config import ConfigError, load_config
from repro.exp import ExperimentRunner, ExperimentSpec, RunBudget, grid, tuner_names
from repro.stats import analyze
from repro.train import TrainerConfig

#: ThroughputObjective unit is 100 MB/s.
MBPS_PER_UNIT = 100.0


class _UsageError(Exception):
    """A rejected input: :func:`main` prints it as one stderr line and
    exits 2."""


def _at_least(flag: str, value, low, *, strict: bool = False) -> None:
    """Reject ``value < low`` (``strict``: ``value <= low``); None passes."""
    if value is not None and (value <= low if strict else value < low):
        raise _UsageError(
            f"{flag} must be {'>' if strict else '>='} {low}, got {value}"
        )


def _build(args: argparse.Namespace) -> CAPES:
    _at_least("--ticks", args.ticks, 1)
    return CAPES(load_config(args.config))


def _summarize(label: str, rewards: np.ndarray) -> None:
    s = analyze(rewards, trim=False)
    print(
        f"{label}: {s.mean * MBPS_PER_UNIT:.1f} "
        f"± {s.ci_halfwidth * MBPS_PER_UNIT:.1f} MB/s "
        f"(n={s.n_effective}, 95% CI)"
    )


def cmd_train(args: argparse.Namespace) -> int:
    capes = _build(args)
    print(f"training for {args.ticks} ticks...")
    result = capes.train(args.ticks)
    _summarize("throughput during training", result.rewards)
    if len(result.losses):
        print(
            f"prediction error: first {result.losses[0]:.5f} -> "
            f"last-100 mean {np.mean(result.losses[-100:]):.5f}"
        )
    print(f"final parameters: {result.final_params}")
    if args.checkpoint:
        capes.save(args.checkpoint)
        print(f"model saved to {args.checkpoint}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    capes = _build(args)
    capes.session.ensure_started()
    if args.checkpoint:
        capes.load(args.checkpoint)
        print(f"model loaded from {args.checkpoint}")
    result = capes.evaluate(args.ticks)
    _summarize("tuned throughput", result.rewards)
    print(f"final parameters: {result.final_params}")
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    capes = _build(args)
    rewards = capes.measure_baseline(args.ticks)
    _summarize("baseline throughput", rewards)
    return 0


def _refuse_existing_db(path: Optional[str], reason: str) -> None:
    """Reject an existing ``path``: a fresh session fences (clears) its
    replay DB, so collecting "into" an existing store would destroy it."""
    if path and os.path.exists(path):
        raise _UsageError(
            f"refusing to overwrite existing replay DB {path!r}; {reason} — "
            f"pick a new path or remove the old file first"
        )


def _check_snapshot_flags(args: argparse.Namespace) -> None:
    """``--snapshot-every`` is >= 1 and comes with ``--snapshot-dir``."""
    _at_least("--snapshot-every", args.snapshot_every, 1)
    if args.snapshot_every is not None and not args.snapshot_dir:
        raise _UsageError("--snapshot-every needs --snapshot-dir")


def _snapshot_every(args: argparse.Namespace, total: int) -> Optional[int]:
    """The snapshot cadence: ``--snapshot-every``, or with
    ``--snapshot-dir`` alone one snapshot at completion (tick ``total``)."""
    if not args.snapshot_dir:
        return None
    return args.snapshot_every or total


def _session_env(config, session: dict, db_path: Optional[str]):
    """The fleet a snapshot's ``session`` section was collected on.

    Sessions of the retired shards backend were byte-identical to
    fork's, so they continue on fork.
    """
    from repro.env import VectorEnv
    from repro.replaydb import CACHE_ONLY

    backend = session["backend"]
    if backend == "shards":
        print(
            "session was collected on the retired shards backend; "
            "resuming it on fork"
        )
        backend = "fork"
    return VectorEnv.from_config(
        config.env,
        int(session["n_envs"]),
        backend=backend,
        shared_db_path=db_path or CACHE_ONLY,
        tick_stride=int(session["tick_stride"]),
    )


def _report_session(outcome, label: str, snapshot_dir, resumed: bool):
    """The lines ``collect`` and ``resume`` both print."""
    if outcome.rewards.shape[1]:
        _summarize(label, outcome.rewards.mean(axis=0))
    stats = outcome.trainer_stats
    if stats is not None and resumed:
        print(f"trained {stats.steps_attempted} SGD steps total")
    elif stats is not None:
        losses = np.asarray(stats.losses)
        summary = (
            f"first {losses[0]:.5f} -> last-100 mean "
            f"{np.mean(losses[-100:]):.5f}"
            if len(losses)
            else "replay too sparse, no minibatch completed"
        )
        print(
            f"trained {stats.steps_attempted} SGD steps; "
            f"prediction error: {summary}"
        )
    print(f"rollout digest: {outcome.digest.hexdigest}")
    if snapshot_dir:
        print(f"{len(outcome.snapshots)} snapshot(s) -> {snapshot_dir}")


def cmd_collect(args: argparse.Namespace) -> int:
    """Monitoring-only chunked collection into one shared replay DB,
    optionally with the decoupled trainer running against it."""
    from repro.env import VectorEnv
    from repro.replaydb import CACHE_ONLY
    from repro.rl import seeded_agent
    from repro.snapshot import run_collect_session

    _at_least("--n-envs", args.n_envs, 1)
    _at_least("--ticks", args.ticks, 1)
    _at_least("--chunk", args.chunk, 1)
    _refuse_existing_db(args.out, "each collection session is one fresh store")
    if not args.train:
        for flag in ("checkpoint", "train_ratio"):
            if getattr(args, flag) is not None:
                raise _UsageError(f"--{flag.replace('_', '-')} needs --train")
    _check_snapshot_flags(args)
    config = load_config(args.config)
    trainer_config = None
    if args.train:
        try:
            trainer_config = TrainerConfig(
                train_ratio=float(_steps_per_tick(args, config))
            )
        except ValueError as exc:
            raise _UsageError(f"--train-ratio: {exc}")
    venv = VectorEnv.from_config(
        config.env,
        args.n_envs,
        backend=args.vector_backend,
        # No --out: still fan in, just without a durable layer (useful
        # as a throughput smoke and for in-process offline training).
        shared_db_path=args.out if args.out else CACHE_ONLY,
    )
    try:
        agent, sampler_seed = (
            seeded_agent(venv, config.seed, config.loss)
            if args.train
            else (None, None)
        )
        outcome = run_collect_session(
            venv,
            args.ticks,
            chunk=args.chunk,
            agent=agent,
            trainer_config=trainer_config,
            sampler_seed=sampler_seed,
            snapshot_every=_snapshot_every(args, args.ticks),
            snapshot_dir=args.snapshot_dir,
        )
        venv.commit_replay()
        _report_session(
            outcome,
            f"monitored throughput ({args.n_envs} cluster(s), "
            f"{args.ticks} ticks)",
            args.snapshot_dir,
            resumed=False,
        )
        if args.checkpoint:
            from repro.nn.checkpoint import save_checkpoint

            save_checkpoint(
                args.checkpoint,
                agent.online.net,
                optimizer=agent.optimizer,
                extra={"train_steps": agent.train_steps},
            )
            print(f"model saved to {args.checkpoint}")
        stored = len(venv.shared_db)
        if args.out:
            print(
                f"{stored} records -> {args.out} "
                f"({venv.shared_db.record_count()} durable rows, "
                f"{venv.shared_db.on_disk_bytes()} bytes)"
            )
        else:
            print(f"{stored} records collected (cache-only, not persisted)")
    finally:
        venv.close()
    return 0


def _steps_per_tick(args: argparse.Namespace, config):
    """SGD steps per tick: ``--train-ratio`` over the conf's
    TRAIN_STEPS_PER_TICK."""
    if args.train_ratio is not None:
        return args.train_ratio
    return config.train_steps_per_tick


def cmd_resume(args: argparse.Namespace) -> int:
    """Continue a snapshotted collection session byte-identically."""
    from repro.rl import seeded_agent
    from repro.snapshot import SessionSnapshot, run_collect_session

    if not os.path.exists(args.snapshot):
        raise _UsageError(f"no such snapshot: {args.snapshot}")
    _check_snapshot_flags(args)
    _refuse_existing_db(
        args.out, "a resumed session rebuilds its store from the snapshot"
    )
    snap = SessionSnapshot.load(args.snapshot)
    session = snap.section("session")
    total = args.ticks if args.ticks is not None else session["total_ticks"]
    if total < session["done_ticks"]:
        raise _UsageError(
            f"--ticks {total} is before the snapshot's tick "
            f"{session['done_ticks']}; use `repro replay` for time travel"
        )
    trainer_config = None
    if session["has_trainer"]:
        knobs = session["trainer"]
        try:
            # Older snapshots still name a trainer backend.
            trainer_config = TrainerConfig(
                knobs.get("backend", "serial"), knobs["train_ratio"]
            )
        except ValueError as exc:
            raise _UsageError(f"cannot resume {args.snapshot}: {exc}")
    config = load_config(args.config)
    venv = _session_env(config, session, args.out)
    try:
        agent, sampler_seed = (
            seeded_agent(venv, config.seed, config.loss)
            if session["has_trainer"]
            else (None, None)
        )
        print(
            f"resuming from tick {session['done_ticks']} of {total} "
            f"({venv.backend} backend, {session['n_envs']} cluster(s))"
        )
        outcome = run_collect_session(
            venv,
            total,
            chunk=session.get("chunk"),
            agent=agent,
            trainer_config=trainer_config,
            sampler_seed=sampler_seed,
            snapshot_every=_snapshot_every(args, total),
            snapshot_dir=args.snapshot_dir,
            resume_from=snap,
        )
        venv.commit_replay()
        _report_session(
            outcome,
            f"resumed throughput (ticks "
            f"{outcome.start_tick}..{outcome.total_ticks})",
            args.snapshot_dir,
            resumed=True,
        )
    finally:
        venv.close()
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Time-travel: restore the nearest snapshot at or before ``--at``
    and step forward deterministically to the target tick."""
    from repro.snapshot import RolloutDigest, SessionSnapshot

    _at_least("--at", args.at, 0)
    candidates = sorted(Path(args.snapshot_dir).glob("snapshot-*.npz"))
    if not candidates:
        raise _UsageError(f"no snapshot-*.npz artifacts in {args.snapshot_dir}")
    best = None
    best_session = None
    for path in candidates:
        snap = SessionSnapshot.load(path)
        done = snap.section("session")["done_ticks"]
        if done <= args.at and (best is None or done > best_session["done_ticks"]):
            best, best_session = snap, snap.section("session")
    if best is None:
        earliest = SessionSnapshot.load(candidates[0]).section("session")
        raise _UsageError(
            f"no snapshot at or before tick {args.at} (earliest is "
            f"{earliest['done_ticks']})"
        )
    venv = _session_env(load_config(args.config), best_session, None)
    try:
        # Env-only restore: collection is NULL-action monitoring, so
        # the trajectory to the target tick never consults the policy —
        # time travel does not need the trainer rebuilt.
        venv.restore(
            {"meta": best.section("env"), "arrays": best.section_arrays("env")}
        )
        digest = RolloutDigest(best_session["digest"])
        start = int(best_session["done_ticks"])
        print(f"restored snapshot at tick {start}")
        if args.at > start:
            block = venv.collect(args.at - start)
            digest.update(block)
            print(f"stepped forward {args.at - start} tick(s) to {args.at}")
        print(f"rollout digest at tick {args.at}: {digest.hexdigest}")
        for i in range(venv.n_envs):
            params = venv.env_method(i, "current_params")
            print(f"cluster {i}: params={params}")
    finally:
        venv.close()
    return 0


def _parse_seeds(text: str) -> List[int]:
    """Comma-separated seeds; ``A-B`` items are inclusive ranges.

    ``"42"`` is exactly seed 42, ``"0-4"`` is seeds 0..4, and
    ``"0-2,7"`` mixes both.
    """
    seeds: List[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo, sep, hi = part.partition("-")
        if sep and lo:
            low, high = int(lo), int(hi)
            if high < low:
                raise ValueError(f"empty seed range {part!r}")
            seeds.extend(range(low, high + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    if min(seeds) < 0:
        raise ValueError(f"seeds must be >= 0, got {min(seeds)}")
    return seeds


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the control-plane daemon until SIGINT/SIGTERM (exit 0)."""
    # Eager flag validation: nothing below binds a socket, forks a
    # trainer, or touches disk until every flag has been accepted.
    for label, value in (
        ("--port", args.port),
        ("--stats-port", args.stats_port),
    ):
        if value is not None and not 0 <= value <= 65535:
            raise _UsageError(f"{label} must be in [0, 65535], got {value}")
    _at_least("--max-clients", args.max_clients, 1)
    _at_least("--read-timeout", args.read_timeout, 0, strict=True)
    _at_least("--tick-stride", args.tick_stride, 1)
    _refuse_existing_db(args.out, "each serving session is one fresh store")
    _at_least("--snapshot-every-s", args.snapshot_every_s, 0, strict=True)
    if args.snapshot_every_s is not None and not args.snapshot_dir:
        raise _UsageError("--snapshot-every-s needs --snapshot-dir")
    resume_path = None
    if args.resume is not None:
        from repro.serve import SERVE_SNAPSHOT_NAME

        if args.resume:
            resume_path = args.resume
        elif args.snapshot_dir:
            resume_path = os.path.join(
                args.snapshot_dir, SERVE_SNAPSHOT_NAME
            )
        else:
            raise _UsageError("--resume without a path needs --snapshot-dir")
        if not os.path.exists(resume_path):
            raise _UsageError(f"no such snapshot: {resume_path}")
    config = load_config(args.config)
    if args.trainer_backend == "none":
        for flag in ("train_ratio", "sync_every"):
            if getattr(args, flag) is not None:
                raise _UsageError(
                    f"--{flag.replace('_', '-')} needs a trainer "
                    f"backend, but --trainer-backend is 'none'"
                )
    from repro.replaydb import CACHE_ONLY
    from repro.serve import CapesServer, ServeConfig, run_server

    try:
        # The daemon serves *remote* clusters: only the conf's frame
        # geometry matters here, no environment is built.
        serve_config = ServeConfig(
            frame_width=config.env.frame_width,
            n_actions=config.env.action_space.n_actions,
            host=args.host,
            port=args.port,
            stats_port=args.stats_port,
            max_clients=args.max_clients,
            read_timeout=args.read_timeout,
            tick_stride=args.tick_stride,
            db_path=args.out if args.out else CACHE_ONLY,
            trainer_backend=args.trainer_backend,
            train_ratio=float(_steps_per_tick(args, config)),
            sync_every=(
                args.sync_every
                if args.sync_every is not None
                else ServeConfig.sync_every
            ),
            snapshot_dir=args.snapshot_dir,
            snapshot_every_s=(
                args.snapshot_every_s
                if args.snapshot_every_s is not None
                else 30.0
            ),
            greedy=args.greedy,
            seed=config.seed,
            hp=config.env.hp,
            loss=config.loss,
        )
    except ValueError as exc:
        raise _UsageError(str(exc))
    server = CapesServer(serve_config)
    if resume_path is not None:
        from repro.snapshot import SessionSnapshot, SnapshotError

        try:
            server.restore_state(SessionSnapshot.load(resume_path))
        except SnapshotError as exc:
            raise _UsageError(f"cannot resume from {resume_path}: {exc}")
        print(
            f"resumed from {resume_path}: "
            f"{len(server.stats.clusters)} cluster(s), "
            f"{len(server.db)} replay row(s), weight epoch "
            f"{server.stats_snapshot()['weight_epoch']}",
            flush=True,
        )

    def announce(s) -> None:
        line = f"serving on {s.config.host}:{s.port}"
        if s.stats_port is not None:
            line += f" (stats: http://{s.config.host}:{s.stats_port}/stats)"
        print(line, flush=True)

    run_server(server, announce=announce)
    snap = server.stats
    print(
        f"served {snap.decisions_total} decisions over "
        f"{snap.frames_total} frames from {len(snap.clusters)} "
        f"cluster(s); {snap.connections_total} connection(s), "
        f"{snap.resyncs} resync(s)"
    )
    if snap.trainer:
        print(f"trained {snap.trainer['steps_attempted']} SGD steps")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    tuners = [t.strip() for t in args.tuners.split(",") if t.strip()]
    unknown = sorted(set(tuners) - set(tuner_names()))
    if unknown:
        raise _UsageError(
            f"unknown tuners {unknown}; registered: {tuner_names()}"
        )
    try:
        seeds = _parse_seeds(args.seeds)
    except ValueError as exc:
        raise _UsageError(f"bad --seeds value: {exc}")
    _at_least("--n-envs", args.n_envs, 1)
    _at_least("--jobs", args.jobs, 1)
    if args.n_envs > 1 and set(tuners) != {"capes"}:
        raise _UsageError(
            "--n-envs > 1 (vectorized collection) currently supports the "
            "'capes' tuner only"
        )
    # Session knobs from the conf.py apply to the DQN tuner only; the
    # workers re-load the conf themselves via spec.conf_path.  Loading
    # also runs any register_env() calls the conf makes, so the --env
    # check below must come after it.
    cfg = load_config(args.config)
    if args.train_ratio is not None and set(tuners) != {"capes"}:
        raise _UsageError(
            "--train-ratio sets the DQN's SGD steps per tick; it applies "
            "to the 'capes' tuner only"
        )
    steps = _steps_per_tick(args, cfg)
    try:
        TrainerConfig(train_ratio=float(steps))  # fail before any work
        budget = RunBudget(
            train_ticks=args.train_ticks,
            eval_ticks=args.eval_ticks,
            epoch_ticks=args.epoch_ticks,
        )
    except ValueError as exc:
        raise _UsageError(str(exc))
    from repro.env import env_names
    from repro.scenarios import has_scenario, make_scenario, scenario_names

    # Resolver-backed scenario names (fuzz-<seed>-<index>) are env keys
    # too but unbounded, so they resolve via has_scenario rather than
    # appearing in the env_names() enumeration.
    if args.env not in env_names() and not has_scenario(args.env):
        raise _UsageError(
            f"unknown environment {args.env!r}; registered: {env_names()}"
        )
    scenario_kwargs = {}
    if args.scenario_kwargs:
        try:
            scenario_kwargs = json.loads(args.scenario_kwargs)
        except json.JSONDecodeError as exc:
            raise _UsageError(f"bad --scenario-kwargs JSON: {exc}")
        if not isinstance(scenario_kwargs, dict):
            raise _UsageError(
                f"bad --scenario-kwargs: expected a JSON object, got "
                f"{type(scenario_kwargs).__name__}"
            )
    # The timeline may be named either way: --scenario NAME, or a
    # scenario-named --env (spec.build_env reroutes the latter).
    if args.scenario is not None and has_scenario(args.scenario):
        effective_scenario = args.scenario
        if args.env not in ("sim-lustre", args.scenario):
            raise _UsageError(
                f"--scenario {args.scenario!r} attaches through the "
                f"sim-lustre backend; it cannot combine with "
                f"--env {args.env!r}"
            )
    elif has_scenario(args.env):
        effective_scenario = args.env
    else:
        effective_scenario = None
    if effective_scenario is not None:
        try:
            # Fail fast on factory-kwarg typos and bad values here, not
            # per-run deep inside the worker pool.
            make_scenario(effective_scenario, **scenario_kwargs)
        except (TypeError, ValueError) as exc:
            raise _UsageError(f"bad --scenario-kwargs: {exc}")
        print(
            f"scenario {effective_scenario!r}: perturbation timeline "
            f"attached to every run"
        )
    elif scenario_kwargs:
        raise _UsageError(
            f"--scenario-kwargs needs a registered scenario, but "
            f"{args.scenario!r} is only a label; registered: "
            f"{scenario_names()}"
        )
    base = ExperimentSpec(
        conf_path=args.config,
        scenario=args.scenario,
        scenario_kwargs=scenario_kwargs,
        env=args.env,
        n_envs=args.n_envs,
        vector_backend=args.vector_backend,
        budget=budget,
    )
    specs = grid(
        base,
        tuners=tuners,
        seeds=seeds,
        tuner_kwargs={
            "capes": {
                "train_steps_per_tick": steps,
                "loss": cfg.loss,
            }
        },
    )
    print(
        f"sweeping {len(tuners)} tuner(s) x {len(seeds)} seed(s) "
        f"with {args.jobs} job(s)..."
    )
    runner = ExperimentRunner(jobs=args.jobs, artifacts_dir=args.artifacts)
    results = runner.run(specs)
    print(results.format_table(unit_scale=MBPS_PER_UNIT, unit=" MB/s"))
    if args.artifacts:
        print(f"per-run artifacts: {args.artifacts}/runs.jsonl")
    return 0


def cmd_fuzz_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import has_scenario, make_scenario
    from repro.scenarios.fuzz import (
        Candidate,
        FUZZ_NAME_RE,
        SEEDED_BURSTY_NAME,
        ScenarioFuzzer,
        merge_frontier,
    )

    for knob in ("budget", "top", "jobs"):
        _at_least(f"--{knob}", getattr(args, knob), 1)
    fuzzer = ScenarioFuzzer(args.seed, jobs=args.jobs)
    if args.score is not None or args.score_events is not None:
        # Single-candidate re-run mode: this is the exact command every
        # frontier entry prints as its repro line.
        if args.score is not None:
            if not has_scenario(args.score):
                raise _UsageError(
                    f"unknown scenario {args.score!r}; --score takes a "
                    f"name-derivable fuzzed scenario "
                    f"(fuzz-<root_seed>-<index> or "
                    f"{SEEDED_BURSTY_NAME!r})"
                )
            scenario = make_scenario(args.score)
            derivable = bool(
                FUZZ_NAME_RE.match(args.score)
                or args.score == SEEDED_BURSTY_NAME
            )
            cand = Candidate(
                name=scenario.name,
                events=scenario.events,
                origin="score",
                derivable=derivable,
            )
        else:
            try:
                payload = json.loads(args.score_events)
                if not isinstance(payload, dict) or "events" not in payload:
                    raise ValueError(
                        "expected a JSON object with an 'events' list"
                    )
                scenario = make_scenario(
                    "fuzzed",
                    name=payload.get("name", "fuzzed"),
                    events=payload["events"],
                )
            except (json.JSONDecodeError, ValueError, TypeError, KeyError) as exc:
                raise _UsageError(f"bad --score-events JSON: {exc}")
            cand = Candidate(
                name=scenario.name,
                events=scenario.events,
                origin="score",
                derivable=False,
            )
        cand = fuzzer.score_one(cand)
        print(json.dumps(cand.to_dict(), indent=2, sort_keys=True))
        return 0
    print(
        f"fuzzing {args.budget} candidate timeline(s) "
        f"(strategy={args.strategy}, root_seed={args.seed}, "
        f"jobs={args.jobs}; 2 runs per candidate)..."
    )
    result = fuzzer.search(strategy=args.strategy, budget=args.budget)
    section = result.frontier_section(top_k=args.top)
    header = f"{'score%':>8}  {'origin':<24} name"
    print(header)
    for row in section["top"]:
        print(
            f"{row['capes_gain_over_static_pct']:>+8.2f}  "
            f"{row['origin']:<24} {row['name']}"
        )
        print(f"          repro: {row['repro']}")
    if args.out:
        merge_frontier(args.out, section)
        print(f"fuzzed_frontier ({len(section['top'])} entries) -> {args.out}")
    return 0


def cmd_window_sweep(args: argparse.Namespace) -> int:
    from repro.env import make_env

    try:
        windows = [int(w) for w in args.window.split(",")]
    except ValueError as exc:
        raise _UsageError(f"bad --window value: {exc}")
    for w in windows:
        _at_least("--window", w, 1)
    _at_least("--ticks", args.ticks, 1)
    _at_least("--settle", args.settle, 0)
    config = load_config(args.config)
    rows = []
    for w in windows:
        env = make_env("sim-lustre", config=config.env)
        env.reset()
        env.set_params({"max_rpcs_in_flight": w})
        env.run_ticks(args.settle)
        rewards = env.run_ticks(args.ticks)
        s = analyze(rewards, trim=False)
        rows.append((w, s))
        env.close()
    print(f"{'window':>8} {'throughput':>16}")
    for w, s in rows:
        print(
            f"{w:>8} {s.mean * MBPS_PER_UNIT:>10.1f} "
            f"± {s.ci_halfwidth * MBPS_PER_UNIT:.1f} MB/s"
        )
    best = max(rows, key=lambda r: r[1].mean)
    print(f"best window: {best[0]}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="CAPES reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, default_ticks: int) -> None:
        p.add_argument("--config", required=True, help="conf.py path")
        p.add_argument(
            "--ticks",
            type=int,
            default=default_ticks,
            help="session length in action ticks (simulated seconds)",
        )

    p = sub.add_parser("train", help="run an online training session")
    common(p, 1500)
    p.add_argument("--checkpoint", default=None, help="save model here")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="measure tuned performance")
    common(p, 300)
    p.add_argument("--checkpoint", default=None, help="load model from here")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("baseline", help="measure untuned performance")
    common(p, 300)
    p.set_defaults(fn=cmd_baseline)

    p = sub.add_parser(
        "collect",
        help="monitoring-only data collection into a replay DB (§3.3)",
    )
    common(p, 600)
    p.add_argument(
        "--n-envs",
        type=int,
        default=1,
        help="clusters collecting in parallel, fanned into one replay DB",
    )
    p.add_argument(
        "--vector-backend",
        choices=("serial", "fork", "vec"),
        default="serial",
        help="how the collecting clusters are stepped (vec: one "
        "struct-of-arrays fleet advanced by numpy array ops)",
    )
    p.add_argument(
        "--chunk",
        type=int,
        default=None,
        help="ticks per worker round-trip (default: all of --ticks)",
    )
    p.add_argument(
        "--out",
        default=None,
        help="SQLite path for the collected replay DB; omitted = "
        "cache-only (records are not persisted).  With --n-envs N > 1 "
        "the stored ticks are block-strided (cluster i's tick t lands "
        "at i*65536 + t), so offline consumers must sample block-aware",
    )
    p.add_argument(
        "--train",
        action="store_true",
        help="run the decoupled DRL engine against the fan-in replay DB "
        "while collecting (§3's continuous training)",
    )
    p.add_argument(
        "--train-ratio",
        type=float,
        default=None,
        help="with --train: SGD steps per collected action tick "
        "(fractions accumulate; default: the conf's TRAIN_STEPS_PER_TICK)",
    )
    p.add_argument(
        "--checkpoint",
        default=None,
        help="with --train: save the trained model here",
    )
    p.add_argument(
        "--snapshot-every",
        type=int,
        default=None,
        help="write a full session snapshot every K ticks (needs "
        "--snapshot-dir); a resumed session is byte-identical to the "
        "uninterrupted run",
    )
    p.add_argument(
        "--snapshot-dir",
        default=None,
        help="directory for snapshot-NNNNNNNN.npz artifacts (alone: "
        "one snapshot at completion)",
    )
    p.set_defaults(fn=cmd_collect)

    p = sub.add_parser(
        "resume",
        help="continue a snapshotted collect session byte-identically",
    )
    p.add_argument("snapshot", help="snapshot-NNNNNNNN.npz artifact to resume")
    p.add_argument("--config", required=True, help="conf.py path")
    p.add_argument(
        "--ticks",
        type=int,
        default=None,
        help="run to this total tick count (default: the original "
        "session's total)",
    )
    p.add_argument(
        "--out",
        default=None,
        help="SQLite path for the rebuilt replay DB (omitted = cache-only)",
    )
    p.add_argument(
        "--snapshot-every",
        type=int,
        default=None,
        help="keep snapshotting every K ticks while resumed",
    )
    p.add_argument(
        "--snapshot-dir",
        default=None,
        help="directory for snapshots written by the resumed session",
    )
    p.set_defaults(fn=cmd_resume)

    p = sub.add_parser(
        "replay",
        help="time-travel: restore the nearest snapshot and step to a tick",
    )
    p.add_argument("--config", required=True, help="conf.py path")
    p.add_argument(
        "--at",
        type=int,
        required=True,
        help="target tick to reconstruct deterministically",
    )
    p.add_argument(
        "--snapshot-dir",
        required=True,
        help="directory holding the session's snapshot-*.npz artifacts",
    )
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser(
        "serve",
        help="run the control-plane daemon: telemetry in, decisions out",
    )
    p.add_argument("--config", required=True, help="conf.py path")
    p.add_argument(
        "--host", default="127.0.0.1", help="interface to bind"
    )
    p.add_argument(
        "--port",
        type=int,
        default=7007,
        help="client-protocol TCP port (0 = ephemeral, printed on start)",
    )
    p.add_argument(
        "--stats-port",
        type=int,
        default=None,
        help="HTTP /stats port (0 = ephemeral; omitted = disabled)",
    )
    p.add_argument(
        "--max-clients",
        type=int,
        default=64,
        help="maximum registered clusters (bounds replay blocks)",
    )
    p.add_argument(
        "--read-timeout",
        type=float,
        default=60.0,
        help="seconds a connected client may stall before being dropped",
    )
    p.add_argument(
        "--tick-stride",
        type=int,
        default=4096,
        help="per-cluster replay block size: cluster i's tick t lands "
        "at i*stride + t in the shared store",
    )
    p.add_argument(
        "--trainer-backend",
        choices=("none", "serial"),
        default="serial",
        help="continuous training against the landed telemetry: burst "
        "on the serving loop (serial, the default) or serve a frozen "
        "policy (none)",
    )
    p.add_argument(
        "--train-ratio",
        type=float,
        default=None,
        help="SGD steps per decision tick (fractions accumulate; "
        "default: the conf's TRAIN_STEPS_PER_TICK)",
    )
    p.add_argument(
        "--sync-every",
        type=int,
        default=None,
        help="SGD steps per checkpoint broadcast to connected clients "
        "(default: 64)",
    )
    p.add_argument(
        "--greedy",
        action="store_true",
        help="serve argmax decisions only (no ε-greedy exploration)",
    )
    p.add_argument(
        "--out",
        default=None,
        help="SQLite path for the landed replay DB; omitted = "
        "cache-only.  Ticks are block-strided by --tick-stride",
    )
    p.add_argument(
        "--snapshot-dir",
        default=None,
        help="crash-recovery directory: the daemon atomically rewrites "
        "serve-latest.npz there every --snapshot-every-s seconds and "
        "once at shutdown",
    )
    p.add_argument(
        "--snapshot-every-s",
        type=float,
        default=None,
        help="seconds between crash-recovery snapshots (needs "
        "--snapshot-dir; default 30)",
    )
    p.add_argument(
        "--resume",
        nargs="?",
        const="",
        default=None,
        metavar="SNAPSHOT",
        help="restore a previous daemon's state before serving; with "
        "no path, resumes from --snapshot-dir/serve-latest.npz",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "fuzz-scenarios",
        help="adversarial scenario search: fuzz randomized event "
        "timelines and hunt for where capes stops beating static",
    )
    p.add_argument(
        "--budget",
        type=int,
        default=8,
        help="candidate timelines to score (each costs one capes run "
        "plus one static run)",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=42,
        help="root seed: fuzzed timelines derive purely from "
        "(seed, index), so frontiers are identical across invocations",
    )
    p.add_argument(
        "--jobs", type=int, default=1, help="parallel worker processes"
    )
    p.add_argument(
        "--strategy",
        choices=("random", "hill_climb", "evolution"),
        default="evolution",
        help="search driver: random sweep baseline, greedy hill_climb, "
        "or a small (mu+lambda) evolution over timeline mutations",
    )
    p.add_argument(
        "--top",
        type=int,
        default=5,
        help="frontier size: the k timelines where CAPES gains least "
        "over static (most negative capes_gain_over_static_pct first)",
    )
    p.add_argument(
        "--out",
        default=None,
        metavar="BENCH_JSON",
        help="merge the fuzzed_frontier section into this JSON file "
        "read-update-write (e.g. BENCH_scenarios.json)",
    )
    score = p.add_mutually_exclusive_group()
    score.add_argument(
        "--score",
        default=None,
        metavar="NAME",
        help="re-score one name-derivable fuzzed scenario "
        "(fuzz-<root_seed>-<index>) and print its row instead of "
        "searching",
    )
    score.add_argument(
        "--score-events",
        default=None,
        metavar="JSON",
        help="re-score one serialized timeline "
        '(\'{"name": ..., "events": [...]}\', as printed in frontier '
        "repro commands) and print its row instead of searching",
    )
    p.set_defaults(fn=cmd_fuzz_scenarios)

    p = sub.add_parser(
        "sweep",
        help="multi-tuner / multi-seed experiment sweep (parallel)",
    )
    p.add_argument("--config", required=True, help="conf.py path")
    p.add_argument(
        "--tuners",
        default="capes",
        help=f"comma-separated tuner names from {tuner_names()}",
    )
    p.add_argument(
        "--seeds",
        default="0-2",
        help="comma-separated seeds; A-B items are inclusive ranges "
        "(e.g. '42', '0-4', '0-2,7')",
    )
    p.add_argument(
        "--jobs", type=int, default=1, help="parallel worker processes"
    )
    p.add_argument(
        "--env",
        default="sim-lustre",
        help="environment registry key (see repro.env.env_names())",
    )
    p.add_argument(
        "--n-envs",
        type=int,
        default=1,
        help="clusters per run, stepped in lockstep with experience "
        "fanned into one shared replay DB (capes tuner only)",
    )
    p.add_argument(
        "--vector-backend",
        choices=("serial", "fork", "vec"),
        default="serial",
        help="how vectorized clusters are stepped (vec: one "
        "struct-of-arrays fleet advanced by numpy array ops)",
    )
    p.add_argument(
        "--train-ratio",
        type=float,
        default=None,
        help="SGD steps per action tick (may be fractional; capes tuner "
        "only; default: the conf's TRAIN_STEPS_PER_TICK)",
    )
    p.add_argument(
        "--train-ticks", type=int, default=600, help="training ticks per run"
    )
    p.add_argument(
        "--eval-ticks",
        type=int,
        default=120,
        help="baseline/tuned measurement ticks per run",
    )
    p.add_argument(
        "--epoch-ticks",
        type=int,
        default=60,
        help="ticks per search-tuner evaluation epoch",
    )
    p.add_argument(
        "--scenario",
        default="conf",
        help="report label; a registered scenario name (see "
        "repro.scenarios.scenario_names(), e.g. 'sim-lustre-bursty') "
        "additionally attaches that fault/perturbation timeline to "
        "every run's environment",
    )
    p.add_argument(
        "--scenario-kwargs",
        default=None,
        help="JSON object of factory knobs for a registered --scenario, "
        "e.g. '{\"start_tick\": 100}' (event timings are env ticks)",
    )
    p.add_argument(
        "--artifacts", default=None, help="directory for per-run JSONL"
    )
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "window-sweep", help="static congestion-window sweep"
    )
    common(p, 60)
    p.add_argument(
        "--window",
        default="1,2,4,8,16,32",
        help="comma-separated window values",
    )
    p.add_argument(
        "--settle", type=int, default=15, help="settling ticks per value"
    )
    p.set_defaults(fn=cmd_window_sweep)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
