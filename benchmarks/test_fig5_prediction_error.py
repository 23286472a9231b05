"""Figure 5 regeneration: prediction error over the training session.

"The prediction error shows the difference between the DNN's predicted
performance and the real performance. ... the prediction error
decreases steadily as the training session continues after an initial
warm up period."

The prediction error is the Equation 1 minibatch loss the DRL engine
minimises; we train a session and verify the trace declines from its
early plateau, printing a downsampled curve.
"""

import numpy as np
import pytest

from benchmarks._harness import TRAIN_TICKS, make_capes, random_rw_workload

_cache = {}


def run_training_trace(train_ticks: int = TRAIN_TICKS) -> np.ndarray:
    if train_ticks not in _cache:
        capes = make_capes(random_rw_workload(1, 9), seed=33)
        _cache[train_ticks] = capes.train(train_ticks).losses
    return _cache[train_ticks]


@pytest.mark.slow
def test_fig5_prediction_error_declines():
    losses = run_training_trace()
    assert len(losses) > 200

    # Downsampled curve for the report.
    chunks = np.array_split(losses, 10)
    means = [float(c.mean()) for c in chunks]
    print("\nFigure 5 — prediction error during training (10 deciles):")
    print("  " + "  ".join(f"{m:.4f}" for m in means))

    early = float(np.mean(losses[: len(losses) // 5]))
    late = float(np.mean(losses[-len(losses) // 5 :]))
    print(f"  early mean {early:.4f} -> late mean {late:.4f}")
    assert late < early * 0.5, "prediction error did not decline"
    assert np.isfinite(losses).all()
