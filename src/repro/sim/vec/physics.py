"""The fleet tick kernel: advance N clusters with array ops.

A tick-level fluid model of the reference cluster, carrying the same
qualitative response surfaces the tuner exploits:

- **Elevator gain** — deeper server queues shorten average seeks
  (``min_seek + (max_seek - min_seek) / sqrt(k+1)``), so a bigger
  congestion window raises HDD efficiency …
- **Queue collapse** — … until per-op overhead grows linearly beyond
  ``collapse_threshold`` queued ops, which is what puts the optimum
  window in the *interior* of its range (the surface Figure 2 sweeps).
- **Token bucket** — the ``io_rate_limit`` knob caps per-client issue
  rate with burst credit, binding exactly when lowered.
- **Window-limited concurrency** — per-OSC outstanding I/O is capped at
  ``max_rpcs_in_flight``; a server is either capacity-bound
  (``1/t_op``) or concurrency-bound (``k / (t_op + rtt)``).
- **Write-back cache** — writes land in per-OSC dirty bytes
  (admission-limited by free space) and drain through the same queues;
  reads are synchronous and close the demand loop through measured
  latency.

Every operation is elementwise or reduces along a trailing axis, so
each environment row is computed independently of the fleet size —
that, plus per-env RNG streams, is what makes ``FleetEnv(n_envs=N)``
env ``i`` byte-identical to a lone ``FleetEnv(n_envs=1)`` run.

**Selections.**  The envs to advance arrive as sorted indices and are
turned, once, into a ``slice`` when they form one contiguous run
(:func:`~repro.sim.vec.state.as_selection`) — the whole fleet in
lockstep, a single env out of it.  Every statement below indexes the
state arrays with that selection: through a slice a read is a view and
``state.x[sel] = value`` an in-place store; a non-contiguous selection
(the reset grace loop) is an index array and the *same statements*
gather and scatter.  There is one code path.

**Float discipline.**  Records are replayable byte for byte, so the
kernel may reuse a value, write it in place or read it through a view,
and nothing else: no reordering, re-association or fusing of float
operations, each quantity computed once and shared (``offer.sum``,
``done_r + done_w``, ``nic_bw * net_bw_f``, …), ``ndarray.sum`` /
``mean`` spelled as the ``np.add.reduce`` they wrap.

**``exp`` stays per env.**  The only transcendental (the demand
jitter's ``exp``) is evaluated row by row on ``(n_clients,)`` operands:
a vector-math library may take a different code path — and round
differently in the last bit — depending on operand length and position,
so the operand shape must not depend on the fleet size.  One
``(n_envs, n_clients)`` call is ~7 % faster and happens to agree on
today's numpy; its safety would rest on numpy internals.  The scale
before it is a correctly rounded multiply, identical under any shape.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.sim.vec.config import DEMAND_SIGMA, T_ADMIN
from repro.sim.vec.state import FleetState, as_selection
from repro.telemetry.indicators import pack_osc_frames
from repro.util.units import MiB

#: Reward scale of the throughput objective (100 MB/s ≡ reward 1.0),
#: matching :class:`repro.telemetry.reward.ThroughputObjective`.
_REWARD_SCALE = 100.0 * MiB

_TINY = 1e-12


def tick_all(state: FleetState, idx) -> Tuple[np.ndarray, np.ndarray]:
    """Advance envs ``idx`` one tick; return their frames and rewards.

    ``idx`` must be sorted env indices (or a slice).  Returns
    ``(frames, rewards)`` with ``frames`` shaped ``(len(idx),
    frame_dim)`` — raw PI frames scaled and clipped per
    :mod:`repro.telemetry.indicators` — and per-env throughput rewards,
    both freshly allocated.  The caller owns tick counters, scenario
    dispatch, drops and record bookkeeping.
    """
    cfg = state.cfg
    sel = as_selection(idx)
    envs = range(sel.start, sel.stop) if isinstance(sel, slice) else sel
    E = len(envs)
    C, S = cfg.n_clients, cfg.n_servers
    dt, B = cfg.tick_length, cfg.io_size

    W3 = state.window[sel][:, None, None]  # (e, 1, 1)
    R = state.rate[sel]
    rf = state.rf[sel][:, None]  # (e, 1)
    rtt = (2.0 * cfg.net_lat) * state.net_lat_f[sel]  # (e,)
    rtt_col = rtt[:, None]
    lat = state.lat[sel]

    # -- client demand (closed loop through last tick's read latency) --
    mult = np.empty((E, C))
    for row, e in zip(mult, envs):
        state.wl_rngs[e].standard_normal(out=row)
    mult *= DEMAND_SIGMA
    for row in mult:
        # ``exp`` per env on a (C,)-shaped operand, never on the block:
        # a vector-math code path may round differently by position, so
        # the operand shape must not depend on the fleet.
        np.exp(row, out=row)
    inst = state.inst_base[sel] * ~state.paused[sel] + state.surge[sel]
    cycle = rf * lat + state.think[sel][:, None] + T_ADMIN
    demand = inst * mult * (dt / cycle)  # ops this tick (e, C)

    # -- token bucket (one per client, shared by reads and writes) -----
    avail = state.tokens[sel] + R[:, None] * dt
    issued = np.minimum(demand, avail)
    state.tokens[sel] = np.minimum(avail - issued, cfg.rate_burst)
    r_ops = issued * rf
    w_ops = issued - r_ops

    # -- write-back cache admission (per OSC, striped uniformly) -------
    dirty = state.dirty[sel]
    admitted = np.minimum(
        (w_ops / S)[:, :, None] * B, np.maximum(cfg.max_dirty - dirty, 0.0)
    )
    dirty = dirty + admitted

    # -- offered load per OSC ------------------------------------------
    rd_pend = state.qr[sel] + (r_ops / S)[:, :, None]  # sync reads carry
    wr_pend = dirty / B  # write backlog is the cache itself
    offer = rd_pend + wr_pend
    osc_out = np.minimum(offer, W3)  # window cap
    k = np.add.reduce(osc_out, axis=1)  # (e, S) server queue depth

    # -- server service time at this depth -----------------------------
    seek = (
        cfg.min_seek + (cfg.max_seek - cfg.min_seek) / np.sqrt(k + 1.0)
    ) * state.disk_seek_f[sel]
    offer_tot = np.add.reduce(offer, axis=1)
    offer_den = np.maximum(offer_tot, _TINY)
    wr_frac = np.add.reduce(wr_pend, axis=1) / offer_den
    bw = (
        cfg.read_bw * (1.0 - wr_frac) + cfg.write_bw * wr_frac
    ) * state.disk_bw_f[sel]
    collapse = cfg.collapse_coeff * np.maximum(
        k - cfg.collapse_threshold, 0.0
    )
    t_op = seek + cfg.rot_half + B / bw + collapse  # (e, S)

    # -- completions: capacity-, concurrency- or NIC-bound --------------
    x_rate = np.minimum(1.0 / t_op, k / (t_op + rtt_col))
    nic = (cfg.nic_bw * state.net_bw_f[sel])[:, None]  # (e, 1)
    served = np.minimum(offer_tot, np.minimum(x_rate * dt, nic * dt / B))
    ratio = (served / offer_den)[:, None, :]
    done_r = rd_pend * ratio
    done_w = wr_pend * ratio
    state.qr[sel] = rd_pend - done_r
    write_bytes = done_w * B
    dirty = np.maximum(dirty - write_bytes, 0.0)
    state.dirty[sel] = dirty
    state.last_pt[sel] = t_op
    min_pt = np.minimum(state.min_pt[sel], t_op)
    state.min_pt[sel] = min_pt

    # -- demand-loop latency (smoothed; uniform across clients) --------
    # ``add.reduce / S`` is ``ndarray.mean`` without its wrappers.
    lat_new = rtt + np.add.reduce(t_op * (1.0 + 0.5 * k), axis=1) / S
    state.lat[sel] = 0.5 * lat + 0.5 * lat_new[:, None]

    # -- the 11 PIs, in OSC_INDICATORS order ---------------------------
    read_bytes = done_r * B
    done = done_r + done_w
    raw = np.empty((E, C, S, 11))
    raw[..., 0] = W3
    raw[..., 1] = read_bytes / dt
    raw[..., 2] = write_bytes / dt
    raw[..., 3] = dirty
    raw[..., 4] = cfg.max_dirty
    raw[..., 5] = (rtt_col + (k * B) / nic)[:, None, :]
    raw[..., 6] = _ewma_update(state.ack, sel, done, dt)
    raw[..., 7] = _ewma_update(state.send, sel, done + admitted / B, dt)
    raw[..., 8] = np.where(np.isfinite(min_pt), t_op / min_pt, 0.0)[
        :, None, :
    ]
    raw[..., 9] = R[:, None, None]
    raw[..., 10] = osc_out

    frames = pack_osc_frames(raw, out=raw).reshape(E, C * S * 11)
    rewards = np.add.reduce(
        (read_bytes + write_bytes).reshape(E, -1), axis=1
    ) / (dt * _REWARD_SCALE)
    return frames, rewards


def _ewma_update(
    store: np.ndarray, sel, events: np.ndarray, dt: float
) -> np.ndarray:
    """Fold per-tick event gaps into an (E, C, S) EWMA state array.

    ``events`` is ops-per-tick per OSC; the observed inter-event gap is
    ``dt / events``.  Ticks with (fluidly) zero events leave the mean
    untouched; the first observed gap seeds the mean exactly, matching
    :class:`repro.util.ewma.EWMA` semantics (alpha = 0.125, the classic
    TCP RTT weight the reference OSCs use).  Returns the PI view (NaN —
    never sampled — reads as 0.0).
    """
    mean = store[sel]
    gap = dt / np.maximum(events, 1e-6)
    folded = np.where(np.isnan(mean), gap, mean + 0.125 * (gap - mean))
    np.copyto(mean, folded, where=events > 1e-6)
    store[sel] = mean
    return np.where(np.isnan(mean), 0.0, mean)
