"""Target-network soft updates (§3.4).

"For each minibatch, we update the target network's θ⁻ using θ:
θ⁻ = θ⁻ × (1 − α) + θ × α" — the slowly-tracking copy that stabilises
the bootstrapped Bellman targets.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn.network import MLP
from repro.nn.optimizers import BLOCK
from repro.util.validation import check_in_range


def target_blend(target: MLP, online: MLP, alpha: float) -> Callable[[int, int], None]:
    """``blend(lo, hi)``: the soft update on elements ``[lo, hi)`` (at
    most ``BLOCK``) of the two parameter arenas — what ``Optimizer.step``
    takes as ``after``, so a block is blended while its update is still
    in cache.  The topologies are compared here, before anything moves.
    The agent binds one per network pair, in ``adopt_network``.
    """
    check_in_range("alpha", alpha, 0.0, 1.0)
    t_params = target.parameters()
    o_params = online.parameters()
    if len(t_params) != len(o_params):
        raise ValueError(
            f"network shapes differ: {len(t_params)} vs {len(o_params)} tensors"
        )
    for tp, op in zip(t_params, o_params):
        if tp.shape != op.shape:
            raise ValueError(f"{tp.name}: shape {tp.shape} != {op.shape}")
    scratch = np.empty(min(BLOCK, online.theta.size))

    def blend(lo: int, hi: int) -> None:
        block, scaled = target.theta[lo:hi], scratch[: hi - lo]
        block *= 1.0 - alpha
        np.multiply(online.theta[lo:hi], alpha, out=scaled)
        block += scaled

    return blend


def soft_update(target: MLP, online: MLP, alpha: float) -> None:
    """Blend ``online`` weights into ``target`` in place.

    ``alpha=1`` copies outright (hard update); Table 1 uses 0.01.
    """
    blend = target_blend(target, online, alpha)
    for lo in range(0, target.theta.size, BLOCK):
        blend(lo, min(lo + BLOCK, target.theta.size))
