"""Batch normalization (Ioffe & Szegedy, 2015).

§6 of the paper: "New deep learning techniques ... such [as] batch
normalization and continuous Deep Q learning, need be systematically
evaluated and added to CAPES."  This is the batch-normalization half:
a 1-D feature normalizer usable between the MLP's dense layers.

Semantics follow the original paper: per-feature standardization using
minibatch statistics during training, running-average statistics during
inference, with learned scale (γ) and shift (β).  Inference mode
matters for CAPES because action selection runs on single observations
(batch of one), where minibatch statistics are undefined.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers import Layer, Parameter
from repro.util.validation import check_in_range, check_positive


class BatchNorm1d(Layer):
    """Per-feature batch normalization over (batch, features) inputs."""

    def __init__(
        self,
        num_features: int,
        momentum: float = 0.1,
        eps: float = 1e-5,
        name: str = "bn",
    ):
        check_positive("num_features", num_features)
        check_in_range("momentum", momentum, 0.0, 1.0, low_inclusive=False)
        check_positive("eps", eps)
        self.num_features = int(num_features)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.name = name
        self.gamma = Parameter(f"{name}.gamma", np.ones(num_features))
        self.beta = Parameter(f"{name}.beta", np.zeros(num_features))
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self.training = True
        # Backward cache.
        self._xhat: Optional[np.ndarray] = None
        self._inv_std: Optional[np.ndarray] = None

    def parameters(self):
        return [self.gamma, self.beta]

    def train_mode(self) -> None:
        self.training = True

    def eval_mode(self) -> None:
        self.training = False

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ValueError(
                f"{self.name}: expected (batch, {self.num_features}), "
                f"got {x.shape}"
            )
        if self.training:
            if x.shape[0] < 2:
                # Minibatch statistics of one sample are degenerate;
                # fall back to running statistics (standard practice for
                # online RL where acting uses batch size 1).
                mean, var = self.running_mean, self.running_var
            else:
                mean = x.mean(axis=0)
                var = x.var(axis=0)
                self.running_mean += self.momentum * (mean - self.running_mean)
                self.running_var += self.momentum * (var - self.running_var)
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean) * inv_std
        self._xhat = xhat
        self._inv_std = np.broadcast_to(inv_std, x.shape)
        return xhat * self.gamma.value + self.beta.value

    def backward(self, grad_out: np.ndarray, accumulate: bool = True) -> np.ndarray:
        """γ/β gradients (``accumulate=False``: written, as in ``Dense``),
        then the input gradient."""
        if self._xhat is None or self._inv_std is None:
            raise RuntimeError(f"{self.name}: backward() before forward()")
        grad_out = np.asarray(grad_out, dtype=np.float64)
        xhat = self._xhat
        n = xhat.shape[0]
        if accumulate:
            self.gamma.grad += (grad_out * xhat).sum(axis=0)
            self.beta.grad += grad_out.sum(axis=0)
        else:
            np.add.reduce(grad_out * xhat, axis=0, out=self.gamma.grad)
            np.add.reduce(grad_out, axis=0, out=self.beta.grad)
        g = grad_out * self.gamma.value
        if not self.training or n < 2:
            # Statistics were constants: plain elementwise chain rule.
            return g * self._inv_std
        # Full batch-norm backward: statistics depend on the batch.
        return (
            self._inv_std
            / n
            * (n * g - g.sum(axis=0) - xhat * (g * xhat).sum(axis=0))
        )
