"""Command line: one workload, the full set, calibration, or the self-test."""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from bench import THREAD_ENV
from bench.measure import (
    HARNESS_METRICS, OUT_DIR, ROOT, WALL_METRICS, Reference, Rep,
    keep_freed_memory, provenance, scaled, spec, summary,
)
from bench.serve import ServeFrozen, ServeTrain
from bench.trace import Tracer
from bench.workloads import DesSession, VecCollect, VecTrain, Workload

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (DesSession(), VecCollect(), VecTrain(), ServeTrain(), ServeFrozen())
}
#: Share of a repetition's work the discarded warm-up repetition does.
WARM_SCALE = 0.3
#: Timed repetitions a run makes at least, however short ``--seconds`` is.
MIN_REPS = 3
#: Share of ``--seconds`` a traced run spends on its pairs of untraced
#: and traced repetitions; the rest is for the isolated per-layer calls.
TRACED_SHARE = 0.8


def timed_reps(run, seconds: float) -> List[Rep]:
    """Call ``run`` until another repetition would overrun ``seconds``.

    The next one is taken to cost what the last one did, not the mean:
    a run's first repetition can cost several times the rest.
    """
    ref = Reference()
    reps: List[Rep] = []
    start = last = time.perf_counter()
    while True:
        reps.append(ref.repetition(run))
        now = time.perf_counter()
        if len(reps) >= MIN_REPS and (now - start) + (now - last) > seconds:
            return reps
        last = now


def check(reps: List[Rep]) -> List[str]:
    """Output checks across repetitions: identical digests, no complaints."""
    problems = [p for rep in reps for p in rep.problems]
    digests = {rep.digest for rep in reps}
    if len(digests) > 1:
        problems.append(f"digests differ across repetitions: {sorted(digests)}")
    return problems


def end_to_end(reps: List[Rep]) -> Dict[str, dict]:
    """Fold timed repetitions into the end-to-end metrics."""
    if reps[0].child_rss_kb:
        peak_kb = max(rep.child_rss_kb for rep in reps)  # the daemon's
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Seconds are multiplied by the repetition's host speed: what they
    # would have read with the host at ``Reference.NOMINAL_S``.
    out = {
        "setup_s": summary([r.setup_s * r.host for r in reps]),
        "units_per_s": summary([r.rate for r in reps]),
        "cpu_ms_per_unit": summary([1e3 * r.cpu_s * r.host / r.units for r in reps]),
        "peak_rss_mb": summary([peak_kb / 1024.0]),
        "host_speed": summary([r.host for r in reps]),
        "wall_units_per_s": summary([r.units / r.wall_s for r in reps]),
    }
    if reps[0].latencies is not None:
        pooled = np.concatenate([r.latencies * r.host for r in reps]) * 1e3
        for name, q in (("decision_p50_ms", 0.5), ("decision_p99_ms", 0.99)):
            out[name] = {"value": float(np.quantile(pooled, q)), "n": pooled.size}
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    out["failed_share"] = {"value": failed / attempted, "n": attempted}
    return out


def as_read(reps: List[Rep]) -> List[dict]:
    """Every repetition as the clocks read it, for the result file."""
    return [
        {"setup_s": r.setup_s, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
         "units": r.units, "host_speed": r.host}
        for r in reps
    ]


def run_untraced(w: Workload, seed: int, seconds: float, sizes: dict, inputs) -> dict:
    reps = timed_reps(lambda: w.run(seed, sizes, inputs), seconds)
    return {
        "metrics": end_to_end(reps),
        "repetitions": as_read(reps),
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "problems": check(reps),
        "digest": reps[0].digest,
        "reps": len(reps),
    }


def run_traced(w: Workload, seed: int, seconds: float, sizes: dict, inputs) -> dict:
    """Untraced and traced repetitions in pairs, then per-layer metrics."""
    tr = Tracer()
    ref = Reference()
    plain: List[Rep] = []
    traced: List[Rep] = []
    start = last = time.perf_counter()
    while True:
        tr.rep = len(traced)
        # Alternate which side goes first, so drift favours neither.
        for side in ("pt", "tp")[len(traced) % 2]:
            if side == "p":
                plain.append(ref.repetition(lambda: w.run(seed, sizes, inputs)))
            else:
                traced.append(ref.repetition(
                    lambda: w.run_traced(seed, sizes, inputs, tr)
                ))
        now = time.perf_counter()
        if (now - start) + (now - last) > seconds * TRACED_SHARE:
            break
        last = now
    layers = w.layers(seed, sizes, inputs, tr, traced[0])
    # Per pair, because the two sides of a pair ran back to back: the
    # machine's slow phases last longer than a repetition and cancel.
    layers["trace.overhead_pct"] = 100.0 * statistics.median(
        1.0 - t.rate / p.rate for p, t in zip(plain, traced)
    )
    # The layer timings below are as the clock read them; this says how
    # fast the host was meanwhile.
    layers["trace.host_speed"] = statistics.median(r.host for r in traced)
    selfs = tr.self_times()
    layers["trace.attributed_share"] = tr.attributed_share(selfs)
    problems = check(plain + traced) + tr.problems(selfs)
    tr.write_jsonl(OUT_DIR / f"trace_{w.name}.jsonl")
    budget = tr.budget(selfs)
    total = sum(budget.values())
    return {
        "metrics": {k: {"value": float(v)} for k, v in layers.items()},
        "repetitions": {"untraced": as_read(plain), "traced": as_read(traced)},
        "attempted": sum(r.attempted for r in plain + traced),
        "failed": sum(r.failed for r in plain + traced),
        "problems": problems,
        "digest": traced[0].digest,
        "reps": len(traced),
        "budget": {k: {"self_s": v, "share": v / total} for k, v in budget.items()},
    }


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 scale: float = 1.0) -> dict:
    """One workload, one result: what the last output line is built from."""
    w = WORKLOADS[name]
    kept = w.keeps_freed_memory and keep_freed_memory()
    sizes = scaled(w.sizes, scale)
    warm = scaled(sizes, WARM_SCALE)
    w.run(seed, warm, w.inputs(seed, warm))  # discarded
    runner = run_traced if trace else run_untraced
    result = runner(w, seed, seconds, sizes, w.inputs(seed, sizes))
    result.update(workload=name, unit_of_work=w.unit, sizes=sizes, trace=trace,
                  freed_memory_kept=kept)
    return result


def last_line(result: dict, bench: dict) -> dict:
    """The contract's one JSON object: every listed metric, by name, with its unit."""
    listed = bench["per_layer" if result["trace"] else "end_to_end"]
    measured = result["metrics"]
    metrics = {
        # A layer this workload never enters is reported busy for 0.
        m["name"]: {
            "value": measured.get(m["name"], {"value": 0.0})["value"],
            "unit": m["unit"],
        }
        for m in listed
    }
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def report(result: dict, bench: dict) -> None:
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update({name: m[0] for name, m in HARNESS_METRICS.items()})
    units.update(WALL_METRICS)
    units["units_per_s"] = f"{result['unit_of_work']}/s"
    print(f"== {result['workload']}  (trace {result['trace']}, "
          f"{result['reps']} repetitions, sizes {result['sizes']})")
    for name, m in result["metrics"].items():
        spread = ""
        if "q1" in m and m["n"] > 1:
            spread = (f"  [min {m['min']:.6g}  q1 {m['q1']:.6g}  "
                      f"q3 {m['q3']:.6g}  max {m['max']:.6g}  n {m['n']}]")
        elif "n" in m:
            spread = f"  [n {m['n']}]"
        print(f"  {name:<34}{m['value']:>14.6g} {units.get(name, ''):<10}{spread}")
    for layer, row in sorted(result.get("budget", {}).items(),
                             key=lambda kv: -kv[1]["self_s"]):
        print(f"  budget {layer:<12}{row['self_s']:>10.4f} s self"
              f"{100 * row['share']:>7.1f} %")
    print(f"  digest {result['digest'] or '(counts checked instead)'}")
    for problem in result["problems"]:
        print(f"  INCORRECT: {problem}")


def save(payload: dict, args, path: Path) -> Path:
    payload["provenance"] = provenance(
        args.seed, args.seconds, THREAD_ENV, args.started
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
    return path


def run_set(args, seed: int) -> Dict[str, dict]:
    """All five workloads, each in a fresh interpreter (clean peak RSS)."""
    results = {}
    for name in WORKLOADS:
        out = OUT_DIR / f".set-{name}.json"
        subprocess.run(
            [sys.executable, "-m", "bench", "--workload", name,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(out)],
            cwd=ROOT,
        )  # exits 1 on an incorrect run, with its result file written
        with open(out) as fh:
            results[name] = json.load(fh)["workloads"][name]
        out.unlink()
    return results


def calibrate(args) -> int:
    """K full sets back to back; how far apart do their values land?

    Set ``i`` runs on seed ``seed + i``, as the driver's acceptance runs
    do.  Spread is the interquartile range of the K values over their
    median, and ``range`` the full width — the worst pair of sets.
    """
    sets = [run_set(args, args.seed + i) for i in range(args.calibrate)]
    rows = {}
    print(f"\n== calibration over {len(sets)} sets")
    print(f"{'workload':<14}{'metric':<18}{'median':>12}{'iqr/med':>10}{'range/med':>11}")
    for name in WORKLOADS:
        for metric in sets[0][name]["metrics"]:
            vals = [s[name]["metrics"][metric]["value"] for s in sets]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            row = {
                "values": vals, "median": med,
                "iqr_over_median": (q3 - q1) / med if med else 0.0,
                "range_over_median": (max(vals) - min(vals)) / med if med else 0.0,
            }
            rows[f"{name}/{metric}"] = row
            print(f"{name:<14}{metric:<18}{med:>12.5g}"
                  f"{row['iqr_over_median']:>10.3f}{row['range_over_median']:>11.3f}")
    path = save({"sets": sets, "spread": rows}, args,
                args.out or OUT_DIR / "calibration.json")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=None,
                    help="how long one run measures (default: run_seconds)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--out", type=Path, help="result file (default: bench/out/)")
    ap.add_argument("--calibrate", type=int, metavar="K")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    args.started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    bench = spec()
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.selftest:
        from bench.selftest import selftest

        return selftest(bench)
    if args.calibrate:
        if args.calibrate < 2:
            ap.error("--calibrate needs at least 2 sets")
        return calibrate(args)
    if args.workload is None:
        results = run_set(args, args.seed)
        path = save({"workloads": results}, args,
                    args.out or OUT_DIR / f"result-seed{args.seed}-trace{args.trace}.json")
        print(f"wrote {path}")
        return 0 if not any(r["problems"] for r in results.values()) else 1
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    report(result, bench)
    save({"workloads": {args.workload: result}}, args,
         args.out or OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    print(json.dumps(last_line(result, bench)))
    return 0 if not result["problems"] else 1
