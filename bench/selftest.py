"""``python -m bench --selftest``: the harness checks itself at tiny sizes.

Not collected by tier-1 (nothing under ``tests/`` imports it); run it
after touching anything under ``bench/``.
"""

from __future__ import annotations

import re
import socket
from typing import List

from bench.cli import WORKLOADS, last_line, run_workload
from bench.measure import scaled

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
#: Share of the full sizes the self-test runs.
SCALE = 0.05


def closed_port() -> int:
    """A port nothing listens on: bound, read back, released."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def selftest(bench: dict) -> int:
    failures: List[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    listed = [w["name"] for w in bench["workloads"]]
    expect(listed == list(WORKLOADS), f"BENCHMARK.json workloads == harness: {listed}")
    for group in ("workloads", "end_to_end", "per_layer"):
        names = [m["name"] for m in bench[group]]
        expect(all(NAME.match(n) for n in names) and len(set(names)) == len(names),
               f"{group}: names well-formed and unique")
    measured_layers = set()
    for name in WORKLOADS:
        print(f"-- {name}")
        plain = run_workload(name, 42, 0.0, trace=0, scale=SCALE)
        traced = run_workload(name, 42, 0.0, trace=1, scale=SCALE)
        for result, group in ((plain, "end_to_end"), (traced, "per_layer")):
            line = last_line(result, bench)
            want = {m["name"]: m["unit"] for m in bench[group]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            expect(got == want, f"{group}: every listed metric present with its unit")
            expect(not result["problems"],
                   f"{group} run correct {result['problems'] or ''}")
            expect(line["failed"] == 0 and line["attempted"] >= 1,
                   f"{group}: {line['attempted']} attempted, {line['failed']} failed")
        expect(all(v["value"] != 0 for v in last_line(plain, bench)["metrics"].values()),
               "no end-to-end metric reads 0")
        unknown = set(traced["metrics"]) - {m["name"] for m in bench["per_layer"]}
        expect(not unknown, f"every measured layer metric is listed {sorted(unknown) or ''}")
        measured_layers |= set(traced["metrics"])
        # run_traced already failed the run on any digest mismatch
        # between its untraced and unrolled repetitions; this is the
        # same check against the separate untraced run above.
        expect(plain["digest"] == traced["digest"],
               "traced-unrolled digest == untraced digest")
        expect(traced["metrics"]["trace.attributed_share"]["value"] >= 0.9,
               "named layer spans cover >= 90 % of the timed region")
    idle = {m["name"] for m in bench["per_layer"]} - measured_layers
    expect(not idle, f"every listed layer metric is measured somewhere {sorted(idle) or ''}")

    print("-- failure injection")
    w = WORKLOADS["serve_frozen"]
    sizes = scaled(w.sizes, SCALE)
    inputs = w.inputs(42, sizes)
    good = w.run(42, sizes, inputs)
    # Client 1 dials a closed port: its frames must all count as failed.
    sick = w.run(42, sizes, inputs, ports=[None, closed_port()])
    expect(good.failed == 0, "healthy serve run: failed_share 0")
    expect(sick.failed > sizes["frames"] and bool(sick.problems),
           f"client on a closed port: {sick.failed}/{sick.attempted} failed")
    print(f"selftest: {'FAILED ' + str(len(failures)) if failures else 'passed'}")
    return 1 if failures else 0
