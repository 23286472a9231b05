"""One short run of every full-length paper experiment.

The figure, ablation and scenario grids are marked ``slow`` and run
only in the scoreboard selection (``pytest -m slow``).  This file keeps
each of their code paths in the default run: every experiment runs
with at most 20 training ticks, and only the shape of what it returns
is checked — row keys, lengths and finiteness, never the sign of a
result.  The experiments' caches key on the tick counts, so nothing here
can feed a full-length assertion.
"""

import numpy as np
import pytest

from benchmarks.test_ablations import _train_losses, _window_sweep
from benchmarks.test_fig2_random_rw import RATIOS, run_ratio
from benchmarks.test_fig3_fileserver_seqwrite import _ensure_runs
from benchmarks.test_fig4_overfitting import PERTURB_SEEDS, run_sessions
from benchmarks.test_fig5_prediction_error import run_training_trace
from benchmarks.test_fig6_training_impact import run_comparison
from benchmarks.test_scenario_adapt import scenario_row
from repro.scenarios import scenario_names

#: Two checkpoints of a "12 h" / "24 h" run, 20 training ticks in all.
CHECKPOINTS = dict(train_ticks=12, extra_ticks=8, eval_ticks=10)

PHASE_KEYS = {"baseline_mbps", "baseline_ci", "tuned_mbps", "tuned_ci",
              "percent", "significant", "final_params"}


def assert_row(row: dict, keys: set) -> None:
    """``row`` has exactly ``keys``, and every number in it is finite."""
    assert set(row) == keys
    numbers = [v for k, v in row.items()
               if k not in ("significant", "final_params")]
    assert np.isfinite(np.asarray(numbers, dtype=np.float64)).all(), row


def smoke_fig2(tmp_path):
    for _label, r, w, _paper in RATIOS:
        out = run_ratio(r, w, **CHECKPOINTS)
        assert set(out) == {"12h", "24h"}
        for row in out.values():
            assert_row(row, PHASE_KEYS)


def smoke_fig3(tmp_path):
    out = _ensure_runs(**CHECKPOINTS)
    assert set(out["fs"]) == {"12h", "24h"} and set(out["sw"]) == {"24h"}
    for row in [*out["fs"].values(), *out["sw"].values()]:
        assert_row(row, PHASE_KEYS)


def smoke_fig4(tmp_path):
    rows = run_sessions(str(tmp_path), train_ticks=20, eval_ticks=10)
    assert [row["perturb"] for row in rows] == list(PERTURB_SEEDS)
    for row in rows:
        assert_row(row, {"perturb", "baseline", "tuned", "percent"})


def smoke_fig5(tmp_path):
    losses = run_training_trace(train_ticks=20)
    assert len(losses) > 0 and np.isfinite(losses).all()


def smoke_fig6(tmp_path):
    out = run_comparison(train_ticks=18)
    assert len(out["baselines"]) == 3
    for summary in [out["training"], *out["baselines"]]:
        assert np.isfinite([summary.mean, summary.ci_halfwidth]).all()


def smoke_ablation_losses(tmp_path):
    for alpha, double in ((0.02, False), (1.0, False), (0.02, True)):
        losses = _train_losses(alpha=alpha, double=double, train_ticks=20)
        assert len(losses) > 0 and np.isfinite(losses).all()


def smoke_ablation_window_sweep(tmp_path):
    for disk_kind in ("hdd", "ssd"):
        # An SSD tick costs ~0.5 s, and reset alone warms ten of them.
        out = _window_sweep(
            disk_kind, settle_ticks=2, measure_ticks=5, windows=(32,)
        )
        assert list(out) == [32] and np.isfinite(out[32])


def smoke_scenario_adapt(tmp_path):
    keys = {"capes_tuned", "static_tuned", "capes_baseline",
            "capes_gain_over_static_pct"}
    for scenario in scenario_names():
        row = scenario_row(
            scenario, train_ticks=12, eval_ticks=6, epoch_ticks=6
        )
        assert_row(row, keys)


@pytest.mark.parametrize(
    "smoke",
    [
        smoke_fig2,
        smoke_fig3,
        smoke_fig4,
        smoke_fig5,
        smoke_fig6,
        smoke_ablation_losses,
        smoke_ablation_window_sweep,
        smoke_scenario_adapt,
    ],
    ids=lambda fn: fn.__name__[len("smoke_"):],
)
def test_smoke(smoke, tmp_path):
    smoke(tmp_path)
