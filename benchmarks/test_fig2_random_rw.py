"""Figure 2 regeneration: random read/write ratio sweep.

The paper's headline figure: throughput before tuning, after "12 hours"
of training, and after "24 hours", for read:write ratios 9:1, 4:1, 1:1,
1:4 and 1:9.  Compressed sessions (see EXPERIMENTS.md for the mapping).

Expected shape (not absolute numbers):
- read-heavy workloads (9:1, 4:1) gain little or nothing — congestion
  windows barely affect seek-bound synchronous reads;
- write-heavy workloads gain substantially (paper: up to 45 % at 1:9;
  our simulator's static-optimum headroom at 1:9 is ≈ +39 %);
- the longer budget never hurts and helps most where the signal is
  noisy.
"""

import pytest

from benchmarks._harness import (
    EVAL_TICKS,
    TRAIN_TICKS,
    TRAIN_TICKS_EXTRA,
    bench_spec,
    fmt_row,
    phase_row,
    random_rw_workload,
    run_specs,
)

#: The paper's sweep, write-heaviest last.  Paper gain is the rough
#: reading of Figure 2's bars at 24 h.
RATIOS = [
    ("9:1", 9, 1, "≈0%"),
    ("4:1", 4, 1, "small"),
    ("1:1", 1, 1, "moderate"),
    ("1:4", 1, 4, "large"),
    ("1:9", 1, 9, "+45%"),
]

_results = {}


def run_ratio(
    read_parts: int,
    write_parts: int,
    train_ticks: int = TRAIN_TICKS,
    extra_ticks: int = TRAIN_TICKS_EXTRA,
    eval_ticks: int = EVAL_TICKS,
) -> dict:
    """Row for one ratio; the whole figure is computed as one spec grid
    on first use for these tick counts (one run per ratio, measured at
    the "12-hour" and "24-hour" checkpoints), so ``REPRO_BENCH_JOBS=N``
    regenerates the figure in the wall-clock of the slowest ratio."""
    key = (train_ticks, extra_ticks, eval_ticks)
    if key not in _results:
        specs = [
            bench_spec(
                random_rw_workload(r, w),
                seed=42,
                scenario=f"{r}:{w}",
                checkpoints=(train_ticks, extra_ticks),
                eval_ticks=eval_ticks,
            )
            for _label, r, w, _paper in RATIOS
        ]
        _results[key] = {
            (r, w): {
                "12h": phase_row(result.phases[0]),
                "24h": phase_row(result.phases[1]),
            }
            for (_label, r, w, _paper), result in zip(
                RATIOS, run_specs(specs).results
            )
        }
    return _results[key][(read_parts, write_parts)]


@pytest.mark.slow
@pytest.mark.parametrize("label,r,w,paper", RATIOS, ids=[x[0] for x in RATIOS])
def test_fig2_ratio(label, r, w, paper):
    out = run_ratio(r, w)
    print(f"\nFigure 2 — random {label} (paper 24 h gain: {paper})")
    print(fmt_row("after 12h", out["12h"]))
    print(fmt_row("after 24h", out["24h"]))

    gain24 = out["24h"]["percent"]
    if w > r:  # write-heavy: tuning must help clearly
        assert gain24 > 10.0, f"{label}: expected a clear gain, got {gain24:+.1f}%"
    if r > w:  # read-heavy: no large regression allowed
        assert gain24 > -10.0, f"{label}: tuned policy hurt a read-heavy workload"


@pytest.mark.slow
def test_fig2_shape_across_ratios():
    """Cross-ratio shape: write-heavy gains dominate read-heavy gains."""
    gains = {
        label: run_ratio(r, w)["24h"]["percent"] for label, r, w, _p in RATIOS
    }
    print("\nFigure 2 — 24 h gain by ratio: "
          + "  ".join(f"{k}={v:+.1f}%" for k, v in gains.items()))
    # The defining comparison of the figure: the write-heaviest ratio
    # must beat the read-heaviest by a wide margin.
    assert gains["1:9"] > gains["9:1"] + 10.0
    assert gains["1:4"] > gains["9:1"]
