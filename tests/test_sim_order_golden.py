"""RPC-order golden for the discrete-event hot path.

The per-tick reward digests (``RolloutDigest``, the scenario / snapshot /
shard goldens) sum over a simulated second, so two same-tick RPCs that
swap places can leave them unchanged.  This golden is finer: a blake2b
over every :class:`~repro.cluster.RequestTracer` record in completion
order, with the three timestamps as raw float64 bytes, plus the exact
event count and byte total.  Any change to the event *set*, to the
*order* of same-timestamp events, or to the last bit of a heap key moves
it.

The pinned values were cut from the tree as it stood before the hot
path was rewritten (``repro.sim.engine`` dispatching through
``step() -> _run_callbacks -> _resume -> _step``, ``Fabric.send`` on
``call_at`` + adapter lambdas) and must never be regenerated to make a
kernel change pass: a kernel change that moves them has reordered
events.  Everything is driven through public calls only.
"""

import hashlib
import struct

import numpy as np
import pytest

from repro.cluster import (
    Cluster,
    ClusterConfig,
    NoiseConfig,
    NoiseTraffic,
    RequestTracer,
)
from repro.sim import Simulator
from repro.util.units import KiB, MiB
from repro.workloads import FileServer, RandomReadWrite, SequentialWrite


def _fingerprint(sim, cluster, tracer):
    h = hashlib.blake2b(digest_size=16)
    for r in tracer.records:
        h.update(f"{r.kind},{r.client_id},{r.server_id},{r.size};".encode())
        h.update(struct.pack("<3d", r.send_time, r.complete_time, r.process_time))
    assert tracer.dropped == 0
    return (
        h.hexdigest(),
        len(tracer.records),
        sim.events_processed,
        cluster.total_bytes(),
    )


def _build(seed, **workload):
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(n_servers=2, n_clients=5))
    tracer = RequestTracer(cluster).attach()
    wl = RandomReadWrite(cluster, instances_per_client=5, seed=seed, **workload)
    wl.start()
    return sim, cluster, tracer, wl


def knob_churn():
    """Write-heavy 2x5; both knobs change every simulated second, so the
    window shrinks below what is in flight, grows past its waiters, and
    the token bucket re-plans its wake-up under a new rate."""
    sim, cluster, tracer, _wl = _build(seed=11, read_fraction=0.1)
    windows = (8, 1, 16, 2, 32, 3)
    rates = (10_000.0, 40.0, 400.0, 25.0, 2_000.0, 150.0, 90.0)
    for t in range(1, 21):
        cluster.set_max_rpcs_in_flight(windows[t % len(windows)])
        cluster.set_io_rate_limit(rates[t % len(rates)])
        sim.run(until=float(t))
    return _fingerprint(sim, cluster, tracer)


def striped_reads():
    """Read-heavy with 2 MiB I/O: every read spans both servers, so it
    fans out as one process per chunk joined by ``AllOf``."""
    sim, cluster, tracer, _wl = _build(seed=12, read_fraction=0.9, io_size=2 * MiB)
    for t in range(1, 9):
        sim.run(until=float(t))
    return _fingerprint(sim, cluster, tracer)


def client_churn():
    """Write-heavy with clients paused and resumed mid-run, then the
    whole workload stopped and restarted: the interrupt path, with
    instances cut off inside cache reservations and synchronous reads."""
    sim, cluster, tracer, wl = _build(seed=13, read_fraction=0.2)
    rng = np.random.default_rng(99)
    sim.run(until=2.5)
    assert wl.pause_client(1) == 5
    assert wl.pause_client(3) == 5
    sim.run(until=4.0)
    wl.resume_client(1, rng)
    sim.run(until=5.25)
    assert wl.pause_client(0) == 5
    wl.resume_client(3, rng)
    sim.run(until=7.0)
    wl.stop()
    sim.run(until=7.5)
    wl.start()
    sim.run(until=10.0)
    return _fingerprint(sim, cluster, tracer)


def striped_writes():
    """Write-heavy with 256 KiB stripes: 1 MiB sequential records split
    into four chunks over both servers, fileserver create/delete/stat on
    the metadata server, and a 2 MiB write cache behind a 400 RPC/s
    limit, so writers block in cache reservations."""
    sim = Simulator()
    config = ClusterConfig(
        n_servers=2,
        n_clients=5,
        stripe_size=256 * KiB,
        max_dirty_bytes=2 * MiB,
        io_rate_limit=400.0,
    )
    cluster = Cluster(sim, config)
    tracer = RequestTracer(cluster).attach()
    SequentialWrite(cluster, record_size=MiB, instances_per_client=2, seed=14).start()
    FileServer(
        cluster, file_size=MiB, io_size=512 * KiB, instances_per_client=2, seed=15
    ).start()
    oscs = [osc for c in cluster.clients for osc in c.oscs.values()]
    full_caches = 0
    for t in range(1, 13):
        sim.run(until=float(t))
        full_caches += sum(
            osc.cache.dirty + config.stripe_size > osc.cache.max_dirty for osc in oscs
        )
    assert full_caches > 0, "no write cache ever filled: back-pressure untested"
    return _fingerprint(sim, cluster, tracer)


def reads_with_noise():
    """Read-heavy 9:1 at 32 KiB: every read is one stripe, a synchronous
    RPC straight through the OSC's rate bucket and window, while an
    interference source puts probes and bulk transfers on the fabric
    that nobody waits on."""
    sim, cluster, tracer, _wl = _build(seed=16, read_fraction=0.9, io_size=32 * KiB)
    noise = NoiseTraffic(
        cluster,
        NoiseConfig(probe_rate=300.0, bulk_rate=3.0, bulk_bytes=MiB),
        seed=17,
    )
    for t in range(1, 9):
        sim.run(until=float(t))
    assert noise.probes_sent > 1000 and noise.bulk_sent > 10
    return _fingerprint(sim, cluster, tracer)


# (digest, records, events_processed, total_bytes) at the parent commit.
GOLDEN = {
    knob_churn: ("facd116c0c4599a3fa8c88f5bd6274e6", 2604, 41429, 85327872.0),
    striped_reads: ("c3323b60e404e4c83a6c44b22dbba18e", 1015, 14222, 1064304640.0),
    # Re-cut twice, for model fixes, not kernel changes: when an
    # interrupted instance stopped leaking the window slot, rate token or
    # cache space it had queued for, and when an interrupted synchronous
    # RPC kept its window slot until its reply arrived.
    client_churn: ("ff421d34cb6980b7c901201882863045", 2206, 32238, 71401472.0),
    striped_writes: ("9d050d743f2c565c1bb45352274213f1", 1993, 29714, 493981715.0),
    # Cut before single-stripe reads lost their filesystem generator and
    # fabric messages their separate delivery event.
    reads_with_noise: ("daf711ec8a2b1f0de255842b3d64e174", 2194, 35196, 71892992.0),
}


@pytest.mark.parametrize("scenario", list(GOLDEN), ids=lambda f: f.__name__)
def test_rpc_order_golden(scenario):
    assert scenario() == GOLDEN[scenario]


def test_fingerprint_sees_a_swapped_pair():
    """The digest is order-sensitive where the per-tick sums are not."""
    sim, cluster, tracer, _wl = _build(seed=11, read_fraction=0.1)
    sim.run(until=1.0)
    before = _fingerprint(sim, cluster, tracer)
    recs = tracer.records
    recs[10], recs[11] = recs[11], recs[10]
    after = _fingerprint(sim, cluster, tracer)
    assert before[0] != after[0]
    assert before[1:] == after[1:]
