"""``python -m bench.compare A.json B.json``: did B regress against A?

One row per (workload, end-to-end metric): both medians with their
quartiles over repetitions, the change, the bound and a verdict.  The
table is markdown, for pasting into a PR description.  Two files are
two *runs*; a gain is claimed from ten alternating pairs, not from this
(see the choosing-metrics guide, section 8).
"""

from __future__ import annotations

import json
import sys

from bench.measure import HARNESS_METRICS, spec


def bounds() -> dict:
    """``name -> (better, bound)`` for every end-to-end metric."""
    out = {m["name"]: (m["better"], m["bound"]) for m in spec()["end_to_end"]}
    out.update({name: m[1:] for name, m in HARNESS_METRICS.items()})
    return out


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple:
    """``(change, verdict)``; ``change`` is relative and positive when worse."""
    sign = 1.0 if better == "lower" else -1.0
    if a["value"] == 0:
        change = 0.0 if b["value"] == 0 else float("inf")
    else:
        change = sign * (b["value"] - a["value"]) / a["value"]

    def spread(m: dict) -> float:
        # One sample or a pooled percentile has no quartiles of its own:
        # only a change beyond the bound counts as resolved.
        if "q1" not in m or m["n"] < 2 or not m["value"]:
            return bound
        return (m["q3"] - m["q1"]) / m["value"]

    def apart() -> bool:  # every repetition of one side beats every one of the other
        return "min" in a and "min" in b and (a["max"] < b["min"] or b["max"] < a["min"])

    noise = max(spread(a), spread(b))
    if noise > bound and not apart():
        return change, "unresolved"
    if change > bound:
        return change, "worse"
    if change < -noise and change < 0:
        return change, "better"
    return change, "same"


def cell(m: dict) -> str:
    if "q1" in m:
        return f"{m['value']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}]"
    return f"{m['value']:.5g}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        a, b = json.load(fa)["workloads"], json.load(fb)["workloads"]
    limits = bounds()
    print("| workload | metric | A median [q1, q3] | B median [q1, q3] | change (+ is worse) | bound | verdict |")
    print("|---|---|---|---|---|---|---|")
    worse = 0
    for name in a:
        if name not in b:
            continue
        for metric, ma in a[name]["metrics"].items():
            mb = b[name]["metrics"].get(metric)
            if mb is None or metric not in limits:
                continue
            better, bound = limits[metric]
            change, word = verdict(ma, mb, better, bound)
            worse += word == "worse"
            print(f"| {name} | {metric} | {cell(ma)} | {cell(mb)} | "
                  f"{100 * change:+.1f} % | {100 * bound:.0f} % | {word} |")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
