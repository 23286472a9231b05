"""Q-network: observation → vector of action values.

The paper picks the head style that "maps an observation to an array of
Q-values of each action", so all actions are priced with one forward
pass (§3.4).  :class:`QNetwork` wraps the MLP with action-indexed loss
computation: only the output of the action actually taken receives a
Bellman-error gradient.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.losses import huber_loss, mse_loss
from repro.nn.network import MLP


class QNetwork:
    """MLP wrapper exposing Q-value prediction and TD-error training."""

    def __init__(self, net: MLP, loss: str = "mse"):
        if loss not in ("mse", "huber"):
            raise ValueError(f"loss must be 'mse' or 'huber', got {loss!r}")
        self.net = net
        self.loss_name = loss
        self._loss_fn = mse_loss if loss == "mse" else huber_loss

    @property
    def n_actions(self) -> int:
        return self.net.out_dim

    @property
    def obs_dim(self) -> int:
        return self.net.in_dim

    def q_values(self, obs: np.ndarray) -> np.ndarray:
        """Q(s, ·) for one observation or a batch."""
        return self.net.forward(obs)

    def best_action(self, obs: np.ndarray) -> int:
        """argmax_a Q(s, a) for a single observation."""
        q = self.net.forward(np.asarray(obs).reshape(1, -1))
        return int(np.argmax(q[0]))

    def td_backward(
        self,
        obs: np.ndarray,
        actions: np.ndarray,
        targets: np.ndarray,
    ) -> float:
        """Write the gradients of Equation 1's loss; return its value.

        Only the taken action's Q-output is compared with the Bellman
        target; other outputs get zero gradient.  Whatever the gradient
        arena held is overwritten (no ``zero_grad`` first); callers step
        the optimiser after.
        """
        obs = np.asarray(obs, dtype=np.float64)
        actions = np.asarray(actions, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.float64)
        n = obs.shape[0]
        if actions.shape != (n,) or targets.shape != (n,):
            raise ValueError(
                f"batch size mismatch: obs {obs.shape}, actions "
                f"{actions.shape}, targets {targets.shape}"
            )
        if actions.min() < 0 or actions.max() >= self.n_actions:
            raise ValueError("action index out of range")
        q_all = self.net.forward(obs)  # (n, A)
        rows = np.arange(n)
        q_taken = q_all[rows, actions]
        loss, dpred = self._loss_fn(q_taken, targets)
        grad = np.zeros_like(q_all)
        grad[rows, actions] = dpred
        self.net.backward(grad, input_grad=False, accumulate=False)
        return loss
