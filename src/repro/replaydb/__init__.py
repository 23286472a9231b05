"""Experience-replay database (§3.5).

The paper keeps system status and actions "in two tables that are
indexed by t" in a SQLite database with write-ahead logging, cached
in memory as NumPy arrays for training speed (artifact appendix A.2.3:
"the cache data is stored in a memory-efficient manner using NumPy
arrays").  This package reproduces that split:

- :mod:`db` — the durable SQLite store (stdlib ``sqlite3``, WAL mode);
- :mod:`cache` — the in-memory ring of frames/actions/rewards that
  training actually reads;
- :mod:`sampler` — Algorithm 1: uniform-timestamp minibatch
  construction with per-observation completeness checking and the 20 %
  missing-entry tolerance of Table 1;
- :mod:`spans` — block-strided tick spaces: the
  :class:`~repro.replaydb.spans.TickSpans` sampling frontier shared by
  the fan-in writer and any concurrent reader, and the
  :class:`~repro.replaydb.spans.StridedMinibatchSampler` that samples
  uniformly across blocks.

:class:`~repro.replaydb.db.ReplayDB` is the façade combining all three.
"""

from repro.replaydb.cache import ReplayCache
from repro.replaydb.db import CACHE_ONLY, ReplayDB
from repro.replaydb.records import PackedRecords, TickRecord, Transition
from repro.replaydb.sampler import MinibatchSampler
from repro.replaydb.spans import StridedMinibatchSampler, TickSpans

__all__ = [
    "CACHE_ONLY",
    "PackedRecords",
    "ReplayDB",
    "ReplayCache",
    "MinibatchSampler",
    "StridedMinibatchSampler",
    "TickRecord",
    "TickSpans",
    "Transition",
]
