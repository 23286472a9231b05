"""Elementwise activation layers with explicit backward passes."""

from __future__ import annotations

import abc

import numpy as np


class Activation(abc.ABC):
    """Stateless elementwise nonlinearity.

    ``forward`` caches whatever ``backward`` needs; each instance is
    used at exactly one position in a network, so a single cached
    tensor suffices.
    """

    @abc.abstractmethod
    def forward(self, x: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def backward(self, grad_out: np.ndarray) -> np.ndarray: ...


class Tanh(Activation):
    """Hyperbolic tangent — the paper's hidden-layer nonlinearity (§3.4)."""

    def __init__(self) -> None:
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward() before forward()")
        # grad_out · (1 − y²), in one buffer.
        out = np.square(self._y)
        np.subtract(1.0, out, out=out)
        out *= grad_out
        return out


class ReLU(Activation):
    """Rectifier, for the activation ablation."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward() before forward()")
        return grad_out * self._mask


class Identity(Activation):
    """Linear pass-through (the output head)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out


ACTIVATIONS = {"tanh": Tanh, "relu": ReLU, "identity": Identity}


def make_activation(name: str) -> Activation:
    """Instantiate an activation by name (checkpoint deserialisation)."""
    try:
        return ACTIVATIONS[name]()
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; choose from {sorted(ACTIVATIONS)}"
        ) from None
