"""Trainable layers: parameters and the dense (fully connected) layer."""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.nn.initializers import xavier_uniform


class Parameter:
    """A weight tensor and its gradient: views into a flat float64 θ
    arena and its ∇ twin — its own when loose, the network's once
    :func:`pack` has moved it there.  ``value`` / ``grad`` are bound with
    the arena and never rebound: write *through* them (``[...] =``,
    ``out=``, ``+=``)."""

    #: ``home`` is ``(θ arena, ∇ arena, this tensor's offset in both)``.
    __slots__ = ("name", "value", "grad", "home")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        value = np.asarray(value, dtype=np.float64)
        self._bind(value.reshape(-1), np.zeros(value.size), 0, value.shape)

    def _bind(self, theta: np.ndarray, nabla: np.ndarray, start: int, shape) -> None:
        stop = start + math.prod(shape)
        object.__setattr__(self, "value", theta[start:stop].reshape(shape))
        object.__setattr__(self, "grad", nabla[start:stop].reshape(shape))
        object.__setattr__(self, "home", (theta, nabla, start))

    def __setattr__(self, key, new):
        # ``p.grad += g`` stores the same array back; any other array
        # would leave the arena, which is what the optimiser sweeps.
        if key != "name" and new is not getattr(self, key):
            raise AttributeError(f"{self.name}.{key} is an arena view: write through it")
        object.__setattr__(self, key, new)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def pack(params: Sequence[Parameter]) -> Tuple[np.ndarray, np.ndarray]:
    """Move ``params``, in order, into one contiguous θ arena and one ∇
    arena (gradients restart at zero); returns ``(θ, ∇)``."""
    theta = np.concatenate([p.value.reshape(-1) for p in params])
    nabla, at = np.zeros(theta.size), 0
    for p in params:
        p._bind(theta, nabla, at, p.shape)
        at += p.value.size
    return theta, nabla


class Layer:
    """Base class; concrete layers define forward/backward/parameters."""

    def parameters(self) -> list[Parameter]:
        return []

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Dense(Layer):
    """Affine map ``y = x @ W + b`` with cached input for backprop.

    Gradients accumulate into the parameters (callers zero them between
    steps) so gradient checking and multi-loss setups compose naturally.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        name: str = "dense",
        weight_init: Callable = xavier_uniform,
        rng=None,
    ):
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError(f"bad dims ({in_dim}, {out_dim})")
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.name = name
        self.W = Parameter(f"{name}.W", weight_init(in_dim, out_dim, rng))
        self.b = Parameter(f"{name}.b", np.zeros(out_dim))
        self._x: Optional[np.ndarray] = None

    def parameters(self) -> list[Parameter]:
        return [self.W, self.b]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(
                f"{self.name}: expected input (batch, {self.in_dim}), "
                f"got {x.shape}"
            )
        self._x = x
        y = x @ self.W.value
        y += self.b.value
        return y

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True, accumulate: bool = True
    ) -> Optional[np.ndarray]:
        """Accumulate ``W``/``b`` gradients; return the input gradient.

        ``input_grad=False`` says the caller will not read it (a first
        layer in training), so it is not computed and None comes back.
        The parameter gradients are the same either way.
        ``accumulate=False`` *writes* them instead: no zeroing before, no
        weight-sized temporary (a sum not started from ``+0.0`` may leave
        an exact zero as ``-0.0``; no optimiser here can tell).
        """
        if self._x is None:
            raise RuntimeError(f"{self.name}: backward() before forward()")
        grad_out = np.asarray(grad_out, dtype=np.float64)
        if grad_out.shape != (self._x.shape[0], self.out_dim):
            raise ValueError(
                f"{self.name}: bad grad shape {grad_out.shape}, expected "
                f"({self._x.shape[0]}, {self.out_dim})"
            )
        if accumulate:
            self.W.grad += self._x.T @ grad_out
            self.b.grad += grad_out.sum(axis=0)
        else:
            np.matmul(self._x.T, grad_out, out=self.W.grad)
            np.add.reduce(grad_out, axis=0, out=self.b.grad)
        return grad_out @ self.W.value.T if input_grad else None
