"""In-memory spans around calls into each layer, and their self times.

Spans are recorded from the benchmark's own files only; spans inside
``src/`` are a later change.  A span is ``{name, layer, start, end,
parent, rep}``; a layer's self time is its spans' duration minus the
part of each interval that child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

#: The harness's own layer: root spans and whatever no child covers.
BENCH_LAYER = "bench"
#: Name of the root span around each repetition's timed region.
TIMED = "timed"


class Span:
    """One open-or-closed span; use as a context manager."""

    __slots__ = ("tracer", "id", "name", "layer", "start", "end", "parent",
                 "rep", "_stacked")

    def __init__(self, tracer: "Tracer", name: str, layer: str,
                 parent: Optional[int]):
        self.tracer = tracer
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = self.end = 0.0

    def __enter__(self) -> "Span":
        tr = self.tracer
        # An explicit parent is how concurrent asyncio tasks nest their
        # spans; everything else nests by call order on one stack.
        self._stacked = self.parent is None
        if self._stacked:
            self.parent = tr._stack[-1] if tr._stack else -1
            tr._stack.append(len(tr.spans))
        self.id = len(tr.spans)
        self.rep = tr.rep
        tr.spans.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        if self._stacked:
            self.tracer._stack.pop()

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; written out once the run has ended."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        #: Repetition index stamped on new spans.
        self.rep = 0

    def span(self, name: str, layer: str, parent: Optional[int] = None) -> Span:
        return Span(self, name, layer, parent)

    @property
    def reps(self) -> int:
        """How many timed regions (traced repetitions) were recorded."""
        return sum(1 for s in self.spans if s.name == TIMED)

    def durations(self, name: str) -> np.ndarray:
        """Durations (s) of every closed span called ``name``."""
        return np.array(
            [s.duration for s in self.spans if s.name == name], dtype=float
        )

    def self_times(self) -> List[float]:
        """Per span: duration minus the union of its children's cover.

        Computed once the run has ended and handed to the methods below.
        """
        children: Dict[int, List[Span]] = defaultdict(list)
        for s in self.spans:
            children[s.parent].append(s)
        out = []
        for s in self.spans:
            covered, edge = 0.0, s.start
            for c in sorted(children[s.id], key=lambda c: c.start):
                lo, hi = max(c.start, edge), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out.append(s.duration - covered)
        return out

    def budget(self, selfs: List[float]) -> Dict[str, float]:
        """Self seconds per layer, over spans inside timed regions."""
        inside = set()
        for s in self.spans:  # parents always precede their children
            if s.name == TIMED or s.parent in inside:
                inside.add(s.id)
        out: Dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, selfs):
            if s.id in inside:
                out[s.layer] += t
        return dict(out)

    def attributed_share(self, selfs: List[float]) -> float:
        """Share of the timed regions covered by named layer spans."""
        roots = [s for s in self.spans if s.name == TIMED]
        total = sum(s.duration for s in roots)
        if total <= 0:
            return 0.0
        return 1.0 - sum(selfs[s.id] for s in roots) / total

    def problems(self, selfs: List[float]) -> List[str]:
        """Structural defects: open spans, children outside parents."""
        out = []
        for s, t in zip(self.spans, selfs):
            if s.end < s.start:
                out.append(f"span {s.id} {s.name} never closed")
            if t < -1e-9:
                out.append(f"span {s.id} {s.name} self time {t} < 0")
            if s.parent >= 0:
                p = self.spans[s.parent]
                if s.start < p.start or s.end > p.end:
                    out.append(f"span {s.id} {s.name} escapes parent {p.name}")
        return out

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "layer": s.layer,
                    "start": s.start, "end": s.end, "parent": s.parent,
                    "rep": s.rep,
                }) + "\n")
