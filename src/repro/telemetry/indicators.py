"""Performance-indicator registry and frame collection.

§4.1 lists nine PIs per OSC; two more (the rate limit itself and the
in-flight RPC count) are included per the paper's advice to be liberal:
"any system statuses that are likely related to the performance of the
system should be included".  With the paper's four servers this gives
44 PIs per client, matching Table 2.

All PIs are floats.  Each indicator carries a fixed ``scale`` so inputs
reach the DNN at O(1) magnitude — raw mixes of bytes (10⁷), seconds
(10⁻³) and ratios (10⁰) would otherwise stall tanh layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.cluster.client import OSC, ClientNode
from repro.util.units import MiB


@dataclass(frozen=True)
class Indicator:
    """One performance indicator: how to read it and how to scale it."""

    name: str
    scale: float  # raw value is divided by this before entering the DNN
    read: Callable[[OSC, float], float]  # (osc, tick_length) -> raw value


def _read_tput(osc: OSC, tick_len: float) -> float:
    return osc.read_bytes_done.delta("pi") / tick_len


def _write_tput(osc: OSC, tick_len: float) -> float:
    return osc.write_bytes_done.delta("pi") / tick_len


#: The per-OSC indicator set.  Order is part of the observation layout
#: and must stay stable across a training session.
OSC_INDICATORS: List[Indicator] = [
    Indicator(
        "max_rpcs_in_flight", 16.0, lambda o, dt: float(o.window.capacity)
    ),
    Indicator("read_tput", 50.0 * MiB, _read_tput),
    Indicator("write_tput", 50.0 * MiB, _write_tput),
    Indicator("dirty_bytes", 32.0 * MiB, lambda o, dt: float(o.cache.dirty)),
    Indicator(
        "max_dirty_bytes", 32.0 * MiB, lambda o, dt: float(o.cache.max_dirty)
    ),
    Indicator("ping_latency", 0.05, lambda o, dt: o.ping_latency),
    Indicator("ack_ewma", 0.05, lambda o, dt: o.ack_ewma.value),
    Indicator("send_ewma", 0.05, lambda o, dt: o.send_ewma.value),
    Indicator("pt_ratio", 10.0, lambda o, dt: o.pt_ratio),
    Indicator(
        "io_rate_limit", 10_000.0, lambda o, dt: o.rate_bucket.rate
    ),
    Indicator("in_flight", 16.0, lambda o, dt: float(o.in_flight)),
]


#: Post-scaling clip bound.  Congestion can push the unbounded PIs
#: (ping latency, PT ratio, EWMAs) to O(100) after scaling; feeding such
#: outliers into a tanh MLP saturates the first layer and kills the
#: gradient signal, so frames are clipped to a sane dynamic range.
CLIP_BOUND = 8.0

#: Per-indicator scales as one vector, in OSC_INDICATORS order — the
#: array form that lets whole raw frames be packed in one shot.
_SCALES = np.array([ind.scale for ind in OSC_INDICATORS])


def pack_osc_frames(
    raw: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Scale and clip raw PI values, any leading shape ``(..., 11)``.

    Elementwise identical to :func:`osc_frame`'s scalar path (each
    value divided by its indicator's scale, then clipped), but over an
    arbitrary block of OSCs at once — the vectorized fleet engine packs
    its whole ``(n_envs, n_clients, n_servers, 11)`` tick in one call.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.shape[-1] != len(OSC_INDICATORS):
        raise ValueError(
            f"last axis must have {len(OSC_INDICATORS)} indicators, "
            f"got shape {raw.shape}"
        )
    if out is None:
        out = np.empty_like(raw)
    np.divide(raw, _SCALES, out=out)
    np.clip(out, -CLIP_BOUND, CLIP_BOUND, out=out)
    return out


def _check_frame_out(out: np.ndarray, size: int) -> None:
    if out.size != size:
        raise ValueError(
            f"out buffer has {out.size} elements, expected {size}"
        )
    if not out.flags["C_CONTIGUOUS"] or out.dtype != np.float64:
        raise ValueError("out buffer must be a C-contiguous float64 array")


def osc_frame(
    osc: OSC, tick_length: float, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Sample all indicators of one OSC, scaled and clipped to O(1).

    ``out``, when given, receives the frame in place and is returned —
    the no-realloc convention of ``step(out=)``/``current_observation
    (out=)``, for the per-tick sampling hot path.
    """
    if out is None:
        out = np.empty(len(OSC_INDICATORS))
    else:
        _check_frame_out(out, len(OSC_INDICATORS))
    for j, ind in enumerate(OSC_INDICATORS):
        out[j] = ind.read(osc, tick_length)
    np.divide(out, _SCALES, out=out)
    np.clip(out, -CLIP_BOUND, CLIP_BOUND, out=out)
    return out


def client_frame(
    client: ClientNode, tick_length: float, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Concatenate OSC frames of a client in server order.

    With ``out=`` the whole frame is assembled in place (one row view
    per OSC), so per-tick monitoring never reallocates.
    """
    sids = sorted(client.oscs)
    width = len(OSC_INDICATORS)
    if out is None:
        out = np.empty(len(sids) * width)
    else:
        _check_frame_out(out, len(sids) * width)
    rows = out.reshape(len(sids), width)
    for row, sid in enumerate(sids):
        osc_frame(client.oscs[sid], tick_length, out=rows[row])
    return out


def frame_width(n_servers: int) -> int:
    """PIs per client — 11 per OSC (44 for the paper's four servers)."""
    return n_servers * len(OSC_INDICATORS)


def frame_labels(n_servers: int) -> List[str]:
    """Human-readable names matching :func:`client_frame` layout."""
    return [
        f"osc{j}.{ind.name}"
        for j in range(n_servers)
        for ind in OSC_INDICATORS
    ]
