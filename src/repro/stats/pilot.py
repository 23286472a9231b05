"""The Pilot analysis pipeline: i.i.d. validation then Student-t CIs.

Appendix B.2: throughput is sampled every second; the autocorrelation
of the samples is checked, and if its magnitude exceeds 0.1, adjacent
samples are merged by averaging ("subsession analysis") until it drops
below the threshold; only then is the confidence interval computed via
the Student's t-distribution.  Warm-up/cool-down trimming happens
before any of this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.stats.changepoint import trim_warmup_cooldown
from repro.util.validation import check_in_range

#: Pilot's default autocorrelation acceptance threshold.
AUTOCORR_THRESHOLD = 0.1


def autocorrelation(x: np.ndarray, lag: int = 1) -> float:
    """Lag-``lag`` sample autocorrelation; 0.0 for degenerate input."""
    x = np.asarray(x, dtype=np.float64)
    if lag <= 0:
        raise ValueError(f"lag must be > 0, got {lag}")
    n = x.size
    if n <= lag + 1:
        return 0.0
    x0 = x - x.mean()
    denom = float(np.dot(x0, x0))
    if denom == 0.0:
        return 0.0
    return float(np.dot(x0[:-lag], x0[lag:]) / denom)


def subsession_merge(
    x: np.ndarray,
    threshold: float = AUTOCORR_THRESHOLD,
    min_samples: int = 4,
) -> tuple[np.ndarray, int]:
    """Merge adjacent samples until |autocorrelation| <= threshold.

    Each round halves the series by averaging non-overlapping pairs.
    Returns ``(merged, rounds)``.  Stops early rather than dropping
    below ``min_samples`` — a CI from two points is worse than a
    slightly correlated CI, and Pilot warns rather than diverges here.
    """
    check_in_range("threshold", threshold, 0.0, 1.0, low_inclusive=False)
    x = np.asarray(x, dtype=np.float64)
    rounds = 0
    while abs(autocorrelation(x)) > threshold and x.size // 2 >= min_samples:
        tail = x.size - (x.size % 2)
        x = x[:tail].reshape(-1, 2).mean(axis=1)
        rounds += 1
    return x, rounds


def mean_ci(
    x: np.ndarray, confidence: float = 0.95
) -> tuple[float, float]:
    """Sample mean and CI half-width from the Student t-distribution."""
    check_in_range("confidence", confidence, 0.0, 1.0, low_inclusive=False, high_inclusive=False)
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n == 0:
        raise ValueError("mean_ci of empty sample")
    mean = float(x.mean())
    if n == 1:
        return mean, float("inf")
    # Imported here, not at the top: scipy.stats is ~700 modules, 64 MB and
    # 0.7 s that no process pays before its first CI
    # (tests/test_import_closure.py).
    from scipy import stats as sps

    sem = float(x.std(ddof=1) / np.sqrt(n))
    tcrit = float(sps.t.ppf(0.5 + confidence / 2.0, df=n - 1))
    return mean, tcrit * sem


@dataclass
class MeasurementSummary:
    """One measurement analyzed the Pilot way."""

    mean: float
    ci_halfwidth: float
    confidence: float
    n_raw: int
    n_effective: int  # samples used for the CI after merging
    autocorr_raw: float
    autocorr_final: float
    merge_rounds: int
    trimmed_prefix: int
    trimmed_suffix: int

    @property
    def ci(self) -> tuple[float, float]:
        return (self.mean - self.ci_halfwidth, self.mean + self.ci_halfwidth)

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return (
            f"{self.mean:.4g} ± {self.ci_halfwidth:.2g} "
            f"({self.confidence:.0%} CI, n={self.n_effective})"
        )


def analyze(
    samples: np.ndarray,
    confidence: float = 0.95,
    autocorr_threshold: float = AUTOCORR_THRESHOLD,
    trim: bool = True,
) -> MeasurementSummary:
    """Full Pilot pipeline: trim → i.i.d. check/merge → t-based CI."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("analyze() of empty sample")
    n_raw = samples.size
    if trim:
        core, lo, hi = trim_warmup_cooldown(samples)
    else:
        core, lo, hi = samples, 0, samples.size
    ac_raw = autocorrelation(core)
    merged, rounds = subsession_merge(core, threshold=autocorr_threshold)
    mean, half = mean_ci(merged, confidence)
    return MeasurementSummary(
        mean=mean,
        ci_halfwidth=half,
        confidence=confidence,
        n_raw=n_raw,
        n_effective=merged.size,
        autocorr_raw=ac_raw,
        autocorr_final=autocorrelation(merged),
        merge_rounds=rounds,
        trimmed_prefix=lo,
        trimmed_suffix=n_raw - hi,
    )
