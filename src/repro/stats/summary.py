"""Comparing measurements: percent change, Welch tests, report rows.

The benchmark harness uses these helpers to print paper-style results
("CAPES increased throughput by 45 %") with honest uncertainty: a
comparison is only called significant when the Welch t-test agrees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.pilot import MeasurementSummary, analyze


def percent_change(baseline: float, tuned: float) -> float:
    """Relative change of ``tuned`` over ``baseline`` in percent."""
    if baseline == 0:
        raise ZeroDivisionError("baseline mean is zero")
    return 100.0 * (tuned - baseline) / baseline


@dataclass
class Comparison:
    """Tuned-vs-baseline comparison with significance."""

    baseline: MeasurementSummary
    tuned: MeasurementSummary
    percent: float
    p_value: float
    significant: bool

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        marker = "*" if self.significant else " "
        return (
            f"baseline {self.baseline.mean:.4g} -> tuned "
            f"{self.tuned.mean:.4g} ({self.percent:+.1f}%{marker})"
        )


def compare_measurements(
    baseline_samples: np.ndarray,
    tuned_samples: np.ndarray,
    confidence: float = 0.95,
    trim: bool = True,
) -> Comparison:
    """Analyze both series the Pilot way and Welch-test the difference."""
    base = analyze(baseline_samples, confidence=confidence, trim=trim)
    tuned = analyze(tuned_samples, confidence=confidence, trim=trim)
    # Welch's t-test (unequal variances) on the series the CIs above were
    # computed from: what ``analyze`` kept after trimming, before merging.
    b = np.asarray(baseline_samples, dtype=np.float64)
    t = np.asarray(tuned_samples, dtype=np.float64)
    b = b[base.trimmed_prefix : b.size - base.trimmed_suffix]
    t = t[tuned.trimmed_prefix : t.size - tuned.trimmed_suffix]
    if min(b.size, t.size) < 2:
        p = float("nan")  # no variance estimate on one side: no test
    elif b.std(ddof=1) == 0 and t.std(ddof=1) == 0:
        p = 0.0 if b.mean() != t.mean() else 1.0
    else:
        # Imported at the call, like ``mean_ci``'s: see there.
        from scipy import stats as sps

        _stat, p = sps.ttest_ind(t, b, equal_var=False)
        p = float(p)
    return Comparison(
        baseline=base,
        tuned=tuned,
        percent=percent_change(base.mean, tuned.mean),
        p_value=p,
        significant=p < (1.0 - confidence),
    )
