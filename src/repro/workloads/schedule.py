"""Sequencing workloads over time with phase-change notifications.

§3.6: "the Interface Daemon has a controlling program that has access to
the scheduling of the workload.  Whenever a new workload is started on
the system, the Interface Daemon notifies the DRL Engine to bump up ε to
0.2".  :class:`WorkloadSchedule` is that controlling program: it starts
and stops workloads at configured times and invokes registered listeners
at every phase boundary.  The CAPES session subscribes its ε schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

from repro.sim.engine import Simulator, Timeout
from repro.workloads.base import Workload

#: Listener invoked as ``fn(phase)`` whenever a new phase begins.
PhaseListener = Callable[["WorkloadPhase"], None]


@dataclass
class WorkloadPhase:
    """One entry in the schedule: run ``workload`` for ``duration`` s."""

    workload: Workload
    duration: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"phase duration must be > 0, got {self.duration}")


class WorkloadSchedule:
    """Runs phases back to back, optionally looping forever."""

    def __init__(
        self,
        sim: Simulator,
        phases: Sequence[WorkloadPhase],
        loop: bool = False,
    ):
        if not phases:
            raise ValueError("schedule needs at least one phase")
        self.sim = sim
        self.phases: List[WorkloadPhase] = list(phases)
        self.loop = loop
        self._listeners: List[PhaseListener] = []
        self._started = False

    def on_phase_change(self, fn: PhaseListener) -> None:
        """Register a listener called at the start of every phase."""
        self._listeners.append(fn)

    def start(self) -> None:
        if self._started:
            raise RuntimeError("schedule already started")
        self._started = True
        self.sim.spawn(self._runner(), name="workload-schedule")

    def _runner(self):
        while True:
            for phase in self.phases:
                for fn in self._listeners:
                    fn(phase)
                phase.workload.start()
                yield Timeout(phase.duration)
                phase.workload.stop()
            if not self.loop:
                break
