"""Figure 4 regeneration: the overfitting check.

"We tested a DNN in three sessions that were spread out over two weeks,
with numerous unrelated file operations between the sessions. ... The
CAPES DNN has increased the throughput of all three sessions by from
13% to 36%."

Here: train once on the fileserver-style system, checkpoint, then
reload the frozen model against three *perturbed* systems (different
workload placement seeds → different file→platter layout and op
arrival pattern, the drift the paper's two weeks of unrelated file
operations produced).  The policy must improve throughput in every
session — a policy that only works on its training layout has overfit.
"""

import pytest

from benchmarks._harness import (
    EVAL_TICKS,
    TRAIN_TICKS,
    make_capes,
    random_rw_workload,
    MBPS_PER_UNIT,
)
from repro.stats import compare_measurements

PERTURB_SEEDS = (0, 17, 91)  # session 1 = training layout, 2-3 drifted

_cache = {}


def run_sessions(
    tmp_path_str: str,
    train_ticks: int = TRAIN_TICKS,
    eval_ticks: int = EVAL_TICKS,
) -> list:
    key = (train_ticks, eval_ticks)
    if key in _cache:
        return _cache[key]
    ckpt = f"{tmp_path_str}/fig4-model.npz"
    trainer = make_capes(random_rw_workload(1, 9), seed=42)
    trainer.train(train_ticks)
    trainer.save(ckpt)

    rows = []
    for perturb in PERTURB_SEEDS:
        capes = make_capes(
            random_rw_workload(1, 9), seed=42, perturb_seed=perturb
        )
        capes.session.ensure_started()
        capes.load(ckpt)
        baseline = capes.measure_baseline(eval_ticks)
        capes.env.set_params(capes.env.action_space.defaults())
        tuned = capes.evaluate(eval_ticks)
        cmp = compare_measurements(baseline, tuned.rewards)
        rows.append(
            {
                "perturb": perturb,
                "baseline": cmp.baseline.mean * MBPS_PER_UNIT,
                "tuned": cmp.tuned.mean * MBPS_PER_UNIT,
                "percent": cmp.percent,
            }
        )
    _cache[key] = rows
    return rows


@pytest.mark.slow
def test_fig4_no_overfitting(tmp_path):
    rows = run_sessions(str(tmp_path))
    print("\nFigure 4 — reused DNN across drifted sessions "
          "(paper: +13% to +36% in all three)")
    for i, row in enumerate(rows, start=1):
        print(f"  session {i} (perturb={row['perturb']:>3}): "
              f"{row['baseline']:6.1f} -> {row['tuned']:6.1f} MB/s "
              f"({row['percent']:+.1f}%)")
    # Every session must improve: the trained policy generalises.
    for row in rows:
        assert row["percent"] > 5.0, (
            f"session with perturb={row['perturb']} did not improve — "
            f"policy overfit to the training layout"
        )
