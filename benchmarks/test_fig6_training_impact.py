"""Figure 6 regeneration: the training session's impact on the workload.

"Because we used an ε-greedy policy that anneals from 100% random
action to 5% action, the DNN should be able to 'mitigate' the impact of
the suboptimal random actions ... the overall throughput of a 70-hour
training session is comparable to the three baseline throughputs we
measured at three different times."

We measure the mean throughput *during* a full training session
(exploration included) and compare against three baseline runs of the
same length on untouched systems.  Training must not materially
depress the workload.
"""

import numpy as np
import pytest

from benchmarks._harness import (
    MBPS_PER_UNIT,
    TRAIN_TICKS,
    make_capes,
    random_rw_workload,
)
from repro.stats import analyze

_cache = {}


def run_comparison(train_ticks: int = TRAIN_TICKS) -> dict:
    if train_ticks in _cache:
        return _cache[train_ticks]
    # Training session (ε-greedy exploration happening live).
    capes = make_capes(random_rw_workload(1, 9), seed=55)
    result = capes.train(train_ticks)
    training_tput = analyze(result.rewards, trim=False)

    # Three independent baselines "measured at three different times".
    baselines = []
    for seed in (56, 57, 58):
        b = make_capes(random_rw_workload(1, 9), seed=seed)
        rewards = b.measure_baseline(train_ticks // 3)
        baselines.append(analyze(rewards, trim=False))
    _cache[train_ticks] = {"training": training_tput, "baselines": baselines}
    return _cache[train_ticks]


@pytest.mark.slow
def test_fig6_training_does_not_hurt_the_workload():
    out = run_comparison()
    t = out["training"]
    print("\nFigure 6 — throughput during training vs idle baselines")
    print(f"  training session: {t.mean * MBPS_PER_UNIT:6.1f} "
          f"± {t.ci_halfwidth * MBPS_PER_UNIT:.1f} MB/s")
    for i, b in enumerate(out["baselines"], start=1):
        print(f"  baseline {i}:       {b.mean * MBPS_PER_UNIT:6.1f} "
              f"± {b.ci_halfwidth * MBPS_PER_UNIT:.1f} MB/s")

    mean_baseline = np.mean([b.mean for b in out["baselines"]])
    ratio = t.mean / mean_baseline
    print(f"  training/baseline ratio: {ratio:.2f} (paper: comparable)")
    # "Comparable": the exploration phase costs something, but the
    # session must stay within 25 % of the untouched system.
    assert ratio > 0.75
