"""Figure 3 regeneration: Filebench fileserver and sequential write.

Paper findings to reproduce in shape:
- the fileserver workload (mixed data + metadata) is the *hardest*: 12
  hours of training was not enough; 24 hours converged to a +17 % gain;
- the 5-stream sequential write workload shows a positive but more
  modest improvement (transfer time dominates, so scheduling buys
  less).
"""

import pytest

from benchmarks._harness import (
    EVAL_TICKS,
    TRAIN_TICKS,
    TRAIN_TICKS_EXTRA,
    bench_spec,
    fileserver_workload,
    fmt_row,
    phase_row,
    run_specs,
    seqwrite_workload,
)

_cache = {}


def _ensure_runs(
    train_ticks: int = TRAIN_TICKS,
    extra_ticks: int = TRAIN_TICKS_EXTRA,
    eval_ticks: int = EVAL_TICKS,
) -> dict:
    """Both workloads as one spec grid, so ``REPRO_BENCH_JOBS=N`` runs
    them concurrently (per-run results are identical either way)."""
    key = (train_ticks, extra_ticks, eval_ticks)
    if key not in _cache:
        fs, sw = run_specs(
            [
                bench_spec(
                    fileserver_workload(),
                    seed=21,
                    checkpoints=(train_ticks, extra_ticks),
                    eval_ticks=eval_ticks,
                ),
                bench_spec(
                    seqwrite_workload(),
                    seed=22,
                    checkpoints=(train_ticks,),
                    eval_ticks=eval_ticks,
                ),
            ]
        ).results
        _cache[key] = {
            "fs": {
                "12h": phase_row(fs.phases[0]),
                "24h": phase_row(fs.phases[1]),
            },
            "sw": {"24h": phase_row(sw.phases[0])},
        }
    return _cache[key]


@pytest.mark.slow
def test_fig3_fileserver():
    out = _ensure_runs()["fs"]
    print("\nFigure 3 — Filebench fileserver (paper: +17% after 24 h)")
    print(fmt_row("after 12h", out["12h"]))
    print(fmt_row("after 24h", out["24h"]))
    # The long-budget policy must help; the workload is noisy, so the
    # bar is a clear positive gain rather than a point estimate.
    assert out["24h"]["percent"] > 5.0
    # The paper's "12 h was not enough" observation: the longer budget
    # must not do materially worse than the shorter one.
    assert out["24h"]["percent"] >= out["12h"]["percent"] - 5.0


@pytest.mark.slow
def test_fig3_sequential_write():
    out = _ensure_runs()["sw"]
    print("\nFigure 3 — five-stream sequential write (paper: positive gain)")
    print(fmt_row("tuned", out["24h"]))
    assert out["24h"]["percent"] > 0.0
