"""What one repetition reports, and how repetitions fold into metrics."""

from __future__ import annotations

import ctypes
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: End-to-end metrics the harness reports beyond ``BENCHMARK.json``,
#: which gates every metric it lists on every workload, never at 0 and
#: never by more than 25 %: the decision percentiles exist on
#: ``serve_*`` only, ``failed_share`` is 0 at seed (any increase is a
#: regression), and ``cpu_ms_per_unit`` is 1 / ``units_per_s`` to within
#: a few per cent now that every workload runs on one CPU at a time.
#: ``name -> (unit, better, bound)``.
HARNESS_METRICS = {
    "cpu_ms_per_unit": ("ms", "lower", 0.25),
    "decision_p50_ms": ("ms", "lower", 0.25),
    "decision_p99_ms": ("ms", "lower", 0.25),
    "failed_share": ("share", "lower", 0.0),
}
#: Printed and stored beside them, judged by nobody: the host's speed
#: during the run (``Reference``) and the rate as the wall clock read it,
#: host phases included.  ``name -> unit``.
WALL_METRICS = {"host_speed": "ratio", "wall_units_per_s": "1/s"}


def spec() -> dict:
    """``BENCHMARK.json``: the one place names, units and bounds are written."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def keep_freed_memory() -> bool:
    """Have glibc keep freed memory in the process; ``False`` if it cannot.

    No ``mmap`` and no trimming: what a repetition frees, the next one
    gets back without touching a fresh page.  For ``vec_collect`` only
    (see there): recycled memory has to be zeroed by ``calloc``, so
    arrays a workload allocates and never touches become resident and
    ``peak_rss_mb`` reads what was allocated, not what was used.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False  # not glibc
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_max = -1, -4  # <malloc.h>
    return bool(mallopt(m_mmap_max, 0) and mallopt(m_trim_threshold, 2**31 - 1))


class Stopwatch:
    """Wall and CPU (user+sys, this process) seconds of a ``with`` block."""

    def __enter__(self) -> "Stopwatch":
        self.cpu = time.process_time()
        self.wall = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self.wall
        self.cpu = time.process_time() - self.cpu


class Reference:
    """A fixed kernel timed beside every repetition: how fast is the host now?

    This box runs identical code at speeds 25-40 % apart, in phases of
    seconds to tens of minutes that no statistic over one run removes.
    The kernel never changes with the program, so the ratio of its time
    to ``NOMINAL_S`` is the host's doing alone, and dividing a
    repetition's seconds by it leaves the program's.  Interpreter loop,
    BLAS and memory streaming in equal shares, because the phases slow
    the three by different amounts and the workloads mix them.
    """

    #: The kernel's seconds in this box's fast phase: the host speed at
    #: which every reported time reads as measured.
    NOMINAL_S = 0.0080
    CYCLES = 9

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.random(300_000)
        self.b = np.empty_like(self.a)
        self.m = rng.random((256, 256))
        self.mm = np.empty_like(self.m)
        #: The latest timing: one between two repetitions serves both.
        self.last = self.seconds()

    def cycle(self) -> None:
        s = 0
        for i in range(70_000):
            s += i * i
        for _ in range(5):
            np.matmul(self.m, self.m, out=self.mm)
        for _ in range(6):
            np.multiply(self.a, 1.0001, out=self.b)
            np.add(self.b, self.a, out=self.b)
            self.b.sum()

    def seconds(self) -> float:
        """Median seconds of ``CYCLES`` back-to-back cycles (~0.1 s in all)."""
        times = []
        for _ in range(self.CYCLES):
            start = time.perf_counter()
            self.cycle()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def repetition(self, run) -> "Rep":
        """``run()`` with its ``host`` set from the kernel timed before and after."""
        gc.collect()
        rep = run()
        before, self.last = self.last, self.seconds()
        rep.host = self.NOMINAL_S / (0.5 * (before + self.last))
        return rep


@dataclass
class Rep:
    """One repetition: fresh state built from the seed, then the timed region."""

    setup_s: float
    wall_s: float
    #: CPU seconds of the timed region in this process, plus the whole
    #: life of any child (the serve daemon is only billed when reaped).
    cpu_s: float
    #: Work done, in the workload's unit (tick / SGD step / decision).
    units: int
    attempted: int
    failed: int
    #: Hex digest over the outputs; must repeat exactly across
    #: repetitions.  Empty where outputs depend on timing and counts
    #: are checked instead (``serve_train``).
    digest: str = ""
    #: Output checks that failed, in words.
    problems: List[str] = field(default_factory=list)
    #: Client-observed round trips, seconds (serve workloads).
    latencies: Optional[np.ndarray] = None
    #: Peak RSS of the child process, KiB (serve workloads).
    child_rss_kb: int = 0
    #: Raw material for per-layer metrics (traced repetitions).
    info: Dict[str, object] = field(default_factory=dict)
    #: Host speed while this repetition ran, 1.0 at ``Reference.NOMINAL_S``
    #: and below it on a slow host (``Reference.repetition`` sets it).
    host: float = 1.0

    @property
    def rate(self) -> float:
        """Units per second of the timed region, at the nominal host speed."""
        return self.units / (self.wall_s * self.host)


def summary(values: Sequence[float]) -> dict:
    """The value reported (the median), with min/max, quartiles and n beside it."""
    vals = [float(v) for v in values]
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    return {
        "value": statistics.median(vals), "min": min(vals),
        "max": max(vals), "q1": q1, "q3": q3, "n": len(vals),
    }


def nonfinite(values: np.ndarray) -> int:
    return int(np.size(values) - np.count_nonzero(np.isfinite(values)))


def per_call(fn, n: int) -> float:
    """Mean seconds per call of ``fn`` over ``n`` back-to-back calls."""
    start = time.perf_counter()
    for _ in range(n):
        fn()
    return (time.perf_counter() - start) / n


def scaled(sizes: Dict[str, int], factor: float) -> Dict[str, int]:
    """``sizes`` with the work counts (not the shapes) scaled down."""
    out = dict(sizes)
    for key in ("train_ticks", "eval_ticks", "ticks", "frames"):
        if key in out:
            # Never below one chunk, nor (serve) below two observation
            # windows: a shrunk repetition still reaches every code path.
            floor = 25 if key == "frames" else out.get("chunk", 3)
            out[key] = max(floor, int(out[key] * factor))
    return out


def provenance(seed: int, seconds: float, thread_env: Sequence[str],
               started: str) -> dict:
    """Where, when and with what a result file was measured."""
    commit = None
    # The driver's checkout is not a git repository, and git would go
    # looking for one in the directories above it.
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        lib = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{lib['name']} {lib['version']}"
    except (TypeError, KeyError):
        blas = None  # an older numpy, or a build without this section
    return {
        "commit": commit,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in thread_env},
        "seed": seed,
        "seconds": seconds,
        "started": started,
        "argv": sys.argv[1:],
    }
