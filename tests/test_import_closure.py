"""What importing an entry point loads, as a contract.

``scipy.stats`` is ~700 modules, 0.7 s and 64 MB on top of everything
else ``import repro`` loads, and the program calls it in exactly two
places off every hot path (``repro.stats.mean_ci`` and the Welch branch
of ``compare_measurements``).  It is imported there, at the call, so no
daemon, CLI start or spawned worker pays for it before its first
confidence interval.  Test-only and plotting packages have no business
in the closure at all.

One fresh interpreter per case (``sys.modules`` of the test process says
nothing: pytest itself imports half the list).  Names are asserted, not
module counts or milliseconds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Top-level packages no entry point may load by being imported.
KEPT_OUT = ("scipy", "pytest", "hypothesis", "unittest", "matplotlib", "pandas")

ENTRY_POINTS = (
    "repro",
    "repro.serve",
    "repro.cli",
    "repro.env.worker",
    "repro.train.process",
    "repro.replaydb",
)


def loaded_after(statements: str) -> set:
    """``sys.modules`` names of a fresh interpreter that ran ``statements``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         f"{statements}\nimport sys\nprint('\\n'.join(sys.modules))"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_entry_point_import_loads_no_scipy_and_no_test_tooling(module):
    tops = {name.partition(".")[0] for name in loaded_after(f"import {module}")}
    assert "repro" in tops and "numpy" in tops  # the probe works
    assert sorted(tops.intersection(KEPT_OUT)) == []


def test_first_confidence_interval_loads_scipy_stats():
    loaded = loaded_after(
        "import repro.stats\n"
        "assert repro.stats.mean_ci([1., 2., 3.])[0] == 2.0"
    )
    assert "scipy.stats" in loaded
