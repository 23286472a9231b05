"""Tests for the storage-device models (repro.cluster.disk)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.disk import HDDModel, SSDModel
from repro.cluster.rpc import Request, RequestKind
from repro.util.units import KiB, MiB


def make_req(kind=RequestKind.WRITE, obj_id=1, offset=0, size=32 * KiB):
    return Request(
        kind=kind, obj_id=obj_id, offset=offset, size=size, client_id=0, server_id=0
    )


class TestHDDGeometry:
    def test_lba_mapping_is_deterministic(self):
        d = HDDModel()
        assert d.lba_of(7, 100) == d.lba_of(7, 100)

    def test_lba_contiguous_within_object(self):
        d = HDDModel()
        assert d.lba_of(3, 4096) - d.lba_of(3, 0) == 4096

    def test_lba_objects_scattered(self):
        d = HDDModel()
        assert d.lba_of(1, 0) != d.lba_of(2, 0)

    def test_seek_time_zero_distance(self):
        d = HDDModel()
        assert d._seek_time(0) == 0.0

    def test_seek_time_monotone_in_distance(self):
        d = HDDModel()
        short = d._seek_time(1 * MiB)
        long = d._seek_time(100 * MiB)
        assert 0 < short < long <= d.max_seek + 1e-12

    def test_rotational_latency_matches_rpm(self):
        d = HDDModel(rpm=7200)
        assert d.rot_latency == pytest.approx(60.0 / 7200 / 2)

    def test_invalid_seek_order_rejected(self):
        with pytest.raises(ValueError):
            HDDModel(min_seek_ms=5.0, max_seek_ms=1.0)


class TestHDDPlanning:
    def test_sequential_same_object_merges(self):
        """Contiguous same-object writes cost one positioning operation."""
        d = HDDModel()
        reqs = [make_req(offset=i * 64 * KiB, size=64 * KiB) for i in range(4)]
        plan = d.plan_batch(reqs)
        assert len(plan) == 4
        transfer = 64 * KiB / d.write_bw
        # First op pays seek+rot; the rest are pure transfer.
        assert plan[0][1] > transfer
        for _req, dur in plan[1:]:
            assert dur == pytest.approx(transfer)

    def test_noncontiguous_each_pays_positioning(self):
        d = HDDModel()
        reqs = [
            make_req(obj_id=i + 1, offset=0, size=32 * KiB) for i in range(4)
        ]
        plan = d.plan_batch(reqs)
        transfer = 32 * KiB / d.write_bw
        for _req, dur in plan:
            assert dur > transfer + d.rot_latency * 0.5

    def test_elevator_sorting_reduces_total_batch_time(self):
        """A deep sorted batch must beat the same requests one at a time."""
        rng = np.random.default_rng(0)
        offsets = rng.integers(0, 2**30, size=16) * 4096
        batched = HDDModel()
        reqs = [
            make_req(obj_id=9, offset=int(o), size=32 * KiB) for o in offsets
        ]
        t_batched = sum(dur for _r, dur in batched.plan_batch(reqs))

        serial = HDDModel()
        t_serial = 0.0
        for o in offsets:
            r = make_req(obj_id=9, offset=int(o), size=32 * KiB)
            t_serial += sum(dur for _r, dur in serial.plan_batch([r]))
        assert t_batched < 0.8 * t_serial

    def test_deeper_batches_have_lower_per_request_cost(self):
        """Monotone improvement with depth — the mechanism CAPES exploits."""
        rng = np.random.default_rng(1)
        per_req = {}
        for depth in (1, 4, 16, 64):
            d = HDDModel()
            offs = rng.integers(0, 2**32, size=depth) * 4096
            reqs = [
                make_req(obj_id=5, offset=int(o), size=32 * KiB) for o in offs
            ]
            total = sum(dur for _r, dur in d.plan_batch(reqs))
            per_req[depth] = total / depth
        assert per_req[64] < per_req[16] < per_req[4] < per_req[1]

    def test_rotational_floor_limits_gains(self):
        """Sorting cannot push cost below rotation + transfer."""
        rng = np.random.default_rng(2)
        d = HDDModel()
        offs = rng.integers(0, 2**32, size=128) * 4096
        reqs = [make_req(obj_id=5, offset=int(o), size=32 * KiB) for o in offs]
        total = sum(dur for _r, dur in d.plan_batch(reqs))
        floor = 128 * (d.rot_latency + 32 * KiB / d.write_bw)
        assert total >= floor * 0.99

    def test_meta_requests_fixed_cost(self):
        d = HDDModel(meta_ms=2.0)
        plan = d.plan_batch([make_req(kind=RequestKind.META, size=0)])
        assert plan[0][1] == pytest.approx(0.002)

    def test_read_and_write_use_respective_bandwidths(self):
        d = HDDModel(seq_read_mbps=100, seq_write_mbps=50)
        r = make_req(kind=RequestKind.READ, obj_id=1, offset=0, size=MiB)
        w = make_req(kind=RequestKind.WRITE, obj_id=1, offset=0, size=MiB)
        (_, rd), = d.plan_batch([r])
        d2 = HDDModel(seq_read_mbps=100, seq_write_mbps=50)
        (_, wd), = d2.plan_batch([w])
        # Strip identical positioning; write transfer is 2x read transfer.
        pos = d.min_seek  # same first-seek distance both times
        assert (wd - rd) == pytest.approx(MiB / d.write_bw - MiB / d.read_bw)

    def test_stats_accumulate(self):
        d = HDDModel()
        d.plan_batch([make_req(kind=RequestKind.READ, size=MiB)])
        d.plan_batch([make_req(kind=RequestKind.WRITE, size=2 * MiB)])
        assert d.stats.bytes_read == MiB
        assert d.stats.bytes_written == 2 * MiB
        assert d.stats.ops == 2
        assert d.stats.busy_time > 0


def _reference_plan(d, requests):
    """``HDDModel.plan_batch`` one request at a time, through ``lba_of``,
    ``_seek_time``, ``_transfer_time`` and ``_account``."""
    plan, data = [], []
    for req in requests:
        if req.kind in (RequestKind.META, RequestKind.PING):
            dur = d.meta_time if req.kind is RequestKind.META else 0.0
            plan.append((req, dur))
            d._account(req, dur, seeked=False)
        else:
            data.append(req)
    keyed = sorted(
        ((d.lba_of(r.obj_id, r.offset), r) for r in data), key=lambda kr: kr[0]
    )
    sweep = [kr for kr in keyed if kr[0] >= d._head] + [
        kr for kr in keyed if kr[0] < d._head
    ]
    i = 0
    while i < len(sweep):
        lba, req = sweep[i]
        distance = abs(lba - d._head)
        rot = d.rot_latency if distance > 0 else 0.0
        dur = d._seek_time(distance) + rot + d._transfer_time(req.kind, req.size)
        plan.append((req, dur))
        d._account(req, dur, seeked=distance > 0)
        d._head = (lba + req.size) % d.capacity
        j, prev = i + 1, req
        while j < len(sweep):
            nlba, nreq = sweep[j]
            if not (
                nreq.obj_id == prev.obj_id
                and nreq.kind == prev.kind
                and nreq.offset == prev.end_offset
            ):
                break
            ndur = d._transfer_time(nreq.kind, nreq.size)
            plan.append((nreq, ndur))
            d._account(nreq, ndur, seeked=False)
            d._head = (nlba + nreq.size) % d.capacity
            prev, j = nreq, j + 1
        i = j
    return plan


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(list(RequestKind)),
                st.integers(0, 3),
                st.integers(0, 8),
                st.sampled_from([4 * KiB, 32 * KiB, MiB]),
            ),
            min_size=1,
            max_size=16,
        ),
        min_size=1,
        max_size=4,
    )
)
def test_plan_batch_prices_as_the_per_request_reference(batches):
    """Durations, order, head and every counter equal bit for bit, over
    consecutive batches (so the head carries over and wraps)."""
    fast, ref = HDDModel(), HDDModel()
    for batch in batches:
        reqs = [
            make_req(kind=k, obj_id=obj, offset=slot * 32 * KiB, size=size)
            for k, obj, slot, size in batch
        ]
        got = fast.plan_batch(reqs)
        want = _reference_plan(ref, reqs)
        assert [r for r, _ in got] == [r for r, _ in want]
        assert [dur.hex() for _, dur in got] == [dur.hex() for _, dur in want]
        assert fast._head == ref._head
        assert fast.stats == ref.stats
        assert fast.stats.busy_time.hex() == ref.stats.busy_time.hex()


class TestSSD:
    def test_no_benefit_from_batching(self):
        rng = np.random.default_rng(3)
        offs = rng.integers(0, 2**32, size=8) * 4096
        reqs = [make_req(obj_id=2, offset=int(o)) for o in offs]
        batched = SSDModel()
        t_batched = sum(d for _r, d in batched.plan_batch(reqs))
        serial = SSDModel()
        t_serial = sum(
            sum(d for _r, d in serial.plan_batch([r]))
            for r in (
                make_req(obj_id=2, offset=int(o)) for o in offs
            )
        )
        assert t_batched == pytest.approx(t_serial)

    def test_latency_plus_transfer(self):
        s = SSDModel(read_mbps=500, op_latency_ms=0.1)
        (_, d), = s.plan_batch([make_req(kind=RequestKind.READ, size=MiB)])
        assert d == pytest.approx(0.0001 + MiB / s.read_bw)


@settings(max_examples=30, deadline=None)
@given(
    offsets=st.lists(
        st.integers(min_value=0, max_value=2**34), min_size=1, max_size=32
    )
)
def test_plan_includes_every_request_exactly_once(offsets):
    """Property: planning is a permutation — nothing dropped or duplicated."""
    d = HDDModel()
    reqs = [make_req(obj_id=4, offset=o * 4096, size=4096) for o in offsets]
    plan = d.plan_batch(reqs)
    assert sorted(r.req_id for r, _ in plan) == sorted(r.req_id for r in reqs)
    assert all(dur >= 0 for _r, dur in plan)
