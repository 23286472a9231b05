"""Storage-device service models.

The evaluation hardware in the paper pairs each OSS with one 7200-RPM
HGST Travelstar Z7K500 (113 MB/s sequential read, 106 MB/s sequential
write).  The mechanisms that make CAPES's tuning matter all live here:

- **Seek + rotation dominate small random I/O.**  A random 32 KB request
  costs ~12 ms of positioning and ~0.3 ms of transfer.
- **Elevator scheduling rewards deep queues.**  Sorting a batch of k
  uniformly random targets shrinks the average inter-request seek
  distance roughly like 1/(k+1), so a deeper server queue (reachable via
  a larger client congestion window) lowers per-request service time —
  with diminishing returns, since rotational latency is not helped by
  sorting.
- **Contiguity merging rewards sequential streams.**  Back-to-back
  requests on the same object with touching extents coalesce into a
  single positioning operation.

This asymmetry is exactly why the paper sees write-heavy random
workloads gain the most from window tuning (§4.3): writes arrive
asynchronously from the client cache and can pile into deep, sortable
queues, while synchronous reads never queue deeply.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from operator import itemgetter
from typing import List, Sequence, Tuple

from repro.cluster.rpc import Request, RequestKind
from repro.util.units import GiB, MiB, mb_per_s
from repro.util.validation import check_nonnegative, check_positive

#: Sort key for ``(lba, request)`` pairs: by LBA alone, so equal LBAs keep
#: arrival order (requests themselves are not orderable).
_BY_LBA = itemgetter(0)

#: A planned disk operation: the request and the busy time the disk
#: spends on it (seconds).  Requests complete in plan order.
PlannedOp = Tuple[Request, float]


@dataclass
class DiskStats:
    """Cumulative device counters (monotone; rates derived by callers)."""

    bytes_read: int = 0
    bytes_written: int = 0
    ops: int = 0
    seeks: int = 0
    busy_time: float = 0.0


class DiskModel(ABC):
    """Interface every device model implements.

    ``plan_batch`` consumes a snapshot of queued requests and returns the
    service order with per-request busy durations; the server node then
    holds the device busy for each duration in turn.  The model owns the
    head-position state, so planning mutates it.
    """

    def __init__(self) -> None:
        self.stats = DiskStats()

    @abstractmethod
    def plan_batch(self, requests: Sequence[Request]) -> List[PlannedOp]:
        """Order ``requests`` for service and price each one."""

    def _account(self, req: Request, duration: float, seeked: bool) -> None:
        self.stats.ops += 1
        self.stats.busy_time += duration
        if seeked:
            self.stats.seeks += 1
        if req.kind is RequestKind.READ:
            self.stats.bytes_read += req.size
        elif req.kind is RequestKind.WRITE:
            self.stats.bytes_written += req.size


class HDDModel(DiskModel):
    """Rotating disk with elevator sorting and contiguity merging.

    Parameters (defaults match the paper's measured hardware):

    seq_read_mbps / seq_write_mbps:
        Media transfer rate for reads / writes, MB/s.
    min_seek_ms / max_seek_ms:
        Track-to-track and full-stroke seek times; seeks scale with the
        square root of the LBA distance in between (a standard
        approximation of arm acceleration profiles).
    rpm:
        Spindle speed; the average rotational latency is half a rotation.
    capacity_bytes:
        Size of the LBA space objects are hashed into.
    meta_ms:
        Fixed service time of metadata operations (stat/create/delete),
        which are dominated by journal and dentry updates, not transfer.
    """

    def __init__(
        self,
        seq_read_mbps: float = 113.0,
        seq_write_mbps: float = 106.0,
        min_seek_ms: float = 0.5,
        max_seek_ms: float = 15.0,
        rpm: float = 7200.0,
        capacity_bytes: int = 500 * GiB,
        meta_ms: float = 2.0,
    ):
        super().__init__()
        check_positive("seq_read_mbps", seq_read_mbps)
        check_positive("seq_write_mbps", seq_write_mbps)
        check_nonnegative("min_seek_ms", min_seek_ms)
        check_positive("rpm", rpm)
        check_positive("capacity_bytes", capacity_bytes)
        if max_seek_ms < min_seek_ms:
            raise ValueError("max_seek_ms must be >= min_seek_ms")
        self.read_bw = mb_per_s(seq_read_mbps)
        self.write_bw = mb_per_s(seq_write_mbps)
        self.min_seek = min_seek_ms / 1e3
        self.max_seek = max_seek_ms / 1e3
        self.rot_latency = 0.5 * 60.0 / rpm  # half a rotation, seconds
        self.capacity = int(capacity_bytes)
        self.meta_time = meta_ms / 1e3
        self._head = 0  # current LBA of the head

    # -- address mapping -------------------------------------------------
    def lba_of(self, obj_id: int, offset: int) -> int:
        """Deterministically scatter objects across the LBA space.

        Knuth multiplicative hashing spreads object bases; offsets within
        an object are laid out contiguously (mod capacity), so intra-file
        sequential access is sequential on the platter.
        """
        base = (obj_id * 2654435761) % self.capacity
        return (base + offset) % self.capacity

    def _seek_time(self, distance: int) -> float:
        if distance == 0:
            return 0.0
        frac = min(1.0, distance / self.capacity)
        return self.min_seek + (self.max_seek - self.min_seek) * math.sqrt(frac)

    def _transfer_time(self, kind: RequestKind, size: int) -> float:
        if kind is RequestKind.META or kind is RequestKind.PING:
            return 0.0
        bw = self.read_bw if kind is RequestKind.READ else self.write_bw
        return size / bw

    # -- planning ----------------------------------------------------------
    def plan_batch(self, requests: Sequence[Request]) -> List[PlannedOp]:
        """Elevator-sort the batch by LBA, merge contiguous extents, price.

        Metadata/ping requests carry no extent; they are serviced first at
        fixed cost (they hit the journal, not the data area).

        Runs once per server batch, so it prices in locals: ``lba_of``,
        ``_seek_time``, ``_transfer_time`` and ``_account`` are spelled
        out with the same float expressions in the same order, and the
        counters accumulate request by request as ``_account`` would.
        Those methods stay the per-request reference form the tests hold
        this one to, bit for bit.
        """
        META, PING, READ = RequestKind.META, RequestKind.PING, RequestKind.READ
        capacity = self.capacity
        stats = self.stats
        ops, seeks, busy = stats.ops, stats.seeks, stats.busy_time
        bytes_read, bytes_written = stats.bytes_read, stats.bytes_written
        data_reqs = []
        plan: List[PlannedOp] = []
        append = plan.append
        for req in requests:
            kind = req.kind
            if kind is META or kind is PING:
                dur = self.meta_time if kind is META else 0.0
                append((req, dur))
                ops += 1
                busy += dur
            else:
                data_reqs.append(req)

        # SCAN: serve in ascending LBA order starting from the head, then
        # wrap to the lowest remaining LBA (one directional sweep).
        keyed = [
            (((r.obj_id * 2654435761) % capacity + r.offset) % capacity, r)
            for r in data_reqs
        ]
        keyed.sort(key=_BY_LBA)
        head = self._head
        ahead = [kr for kr in keyed if kr[0] >= head]
        behind = [kr for kr in keyed if kr[0] < head]
        sweep = ahead + behind

        min_seek = self.min_seek
        seek_span = self.max_seek - self.min_seek
        rot_latency = self.rot_latency
        read_bw, write_bw = self.read_bw, self.write_bw
        sqrt = math.sqrt
        n = len(sweep)
        i = 0
        while i < n:
            lba, req = sweep[i]
            kind, size = req.kind, req.size
            distance = abs(lba - head)
            if distance == 0:
                seek = rot = 0.0
            else:
                frac = distance / capacity
                seek = min_seek + seek_span * sqrt(frac if frac < 1.0 else 1.0)
                rot = rot_latency
            dur = seek + rot + size / (read_bw if kind is READ else write_bw)
            append((req, dur))
            ops += 1
            busy += dur
            if distance > 0:
                seeks += 1
            if kind is READ:
                bytes_read += size
            else:
                bytes_written += size
            head = (lba + size) % capacity
            # Merge the contiguous run that follows: same object, same
            # kind, extent starting exactly where this one ended.
            j = i + 1
            prev = req
            while j < n:
                nlba, nreq = sweep[j]
                contiguous = (
                    nreq.obj_id == prev.obj_id
                    and nreq.kind == prev.kind
                    and nreq.offset == prev.offset + prev.size
                )
                if not contiguous:
                    break
                nkind, nsize = nreq.kind, nreq.size
                ndur = nsize / (read_bw if nkind is READ else write_bw)
                append((nreq, ndur))
                ops += 1
                busy += ndur
                if nkind is READ:
                    bytes_read += nsize
                else:
                    bytes_written += nsize
                head = (nlba + nsize) % capacity
                prev = nreq
                j += 1
            i = j
        self._head = head
        stats.ops, stats.seeks, stats.busy_time = ops, seeks, busy
        stats.bytes_read, stats.bytes_written = bytes_read, bytes_written
        return plan


class SSDModel(DiskModel):
    """Flash device: constant per-op latency, no positional effects.

    Included for the device-dependence ablation: on SSD-backed servers
    queue depth buys almost nothing, so a tuner should learn a different
    (nearly flat) policy.  Defaults approximate the Intel 330 used for
    the OS disks in the paper's testbed.
    """

    def __init__(
        self,
        read_mbps: float = 500.0,
        write_mbps: float = 450.0,
        op_latency_ms: float = 0.08,
        meta_ms: float = 0.2,
    ):
        super().__init__()
        check_positive("read_mbps", read_mbps)
        check_positive("write_mbps", write_mbps)
        check_nonnegative("op_latency_ms", op_latency_ms)
        self.read_bw = mb_per_s(read_mbps)
        self.write_bw = mb_per_s(write_mbps)
        self.op_latency = op_latency_ms / 1e3
        self.meta_time = meta_ms / 1e3

    def plan_batch(self, requests: Sequence[Request]) -> List[PlannedOp]:
        plan: List[PlannedOp] = []
        for req in requests:
            if req.kind is RequestKind.META:
                dur = self.meta_time
            elif req.kind is RequestKind.PING:
                dur = 0.0
            elif req.kind is RequestKind.READ:
                dur = self.op_latency + req.size / self.read_bw
            else:
                dur = self.op_latency + req.size / self.write_bw
            plan.append((req, dur))
            self._account(req, dur, seeked=False)
        return plan
