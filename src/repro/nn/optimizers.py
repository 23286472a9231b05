"""First-order optimisers over :class:`~repro.nn.layers.Parameter` lists.

The paper trains with Adam at learning rate 1e-4 (Table 1); SGD,
Momentum and RMSProp are provided for the optimiser ablation.  Each
optimiser owns per-parameter state keyed by position, so it must always
be stepped with the same parameter list.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.nn.layers import Parameter
from repro.util.validation import check_in_range, check_positive


class Optimizer(abc.ABC):
    """Base: learning rate, step count, and checkpointing of whatever
    per-parameter state a subclass declares in :attr:`slots`."""

    #: Checkpoint key prefix: ``adam`` → ``adam.steps``, ``adam.m.0`` …
    kind: str
    #: Names of the per-parameter state tensors, in checkpoint order.
    slots: Tuple[str, ...] = ()

    def __init__(self, lr: float):
        check_positive("lr", lr)
        self.lr = float(lr)
        self.steps = 0
        #: slot name → parameter position → state tensor.
        self._state: Dict[str, Dict[int, np.ndarray]] = {
            name: {} for name in self.slots
        }

    def step(self, params: Sequence[Parameter]) -> None:
        """Apply one update from each parameter's accumulated gradient."""
        self._update(list(params))
        self.steps += 1

    @abc.abstractmethod
    def _update(self, params: List[Parameter]) -> None: ...

    # -- optimiser-state checkpointing ------------------------------------
    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Flat dict of state tensors for checkpointing.

        ``<kind>.steps`` first, then ``<kind>.<slot>.<i>`` slot by slot.
        The arrays are copies: updates may write state in place, and a
        captured dict must not follow them.
        """
        out = {f"{self.kind}.steps": np.array([self.steps])}
        for name, per_param in self._state.items():
            for i, arr in per_param.items():
                out[f"{self.kind}.{name}.{i}"] = arr.copy()
        return out

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Replace all state with :meth:`state_arrays` output (copied);
        keys of another optimiser kind are ignored."""
        for per_param in self._state.values():
            per_param.clear()
        for key, arr in arrays.items():
            kind, _, rest = key.partition(".")
            if kind != self.kind:
                continue
            name, _, index = rest.rpartition(".")
            if rest == "steps":
                self.steps = int(arr[0])
            elif name in self._state:
                self._state[name][int(index)] = np.array(arr)


class SGD(Optimizer):
    """Vanilla stochastic gradient descent."""

    kind = "sgd"

    def _update(self, params: List[Parameter]) -> None:
        for p in params:
            p.value -= self.lr * p.grad


class Momentum(Optimizer):
    """Classical momentum (Polyak)."""

    kind = "momentum"
    slots = ("v",)

    def __init__(self, lr: float, momentum: float = 0.9):
        super().__init__(lr)
        check_in_range("momentum", momentum, 0.0, 1.0, high_inclusive=False)
        self.momentum = float(momentum)

    def _update(self, params: List[Parameter]) -> None:
        vs = self._state["v"]
        for i, p in enumerate(params):
            v = vs.get(i)
            if v is None:
                v = np.zeros_like(p.value)
            v = self.momentum * v - self.lr * p.grad
            vs[i] = v
            p.value += v


class RMSProp(Optimizer):
    """RMSProp (Tieleman & Hinton)."""

    kind = "rmsprop"
    slots = ("sq",)

    def __init__(self, lr: float, rho: float = 0.99, eps: float = 1e-8):
        super().__init__(lr)
        check_in_range("rho", rho, 0.0, 1.0, high_inclusive=False)
        check_positive("eps", eps)
        self.rho = float(rho)
        self.eps = float(eps)

    def _update(self, params: List[Parameter]) -> None:
        sqs = self._state["sq"]
        for i, p in enumerate(params):
            sq = sqs.get(i)
            if sq is None:
                sq = np.zeros_like(p.value)
            sq = self.rho * sq + (1.0 - self.rho) * p.grad**2
            sqs[i] = sq
            p.value -= self.lr * p.grad / (np.sqrt(sq) + self.eps)


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction — the paper's choice.

    The update runs in place: moments are written through, and every
    intermediate lands in two per-parameter scratch arrays instead of a
    fresh temporary.  Each operation and its order are those of the
    textbook expressions (``tests/test_nn.py`` keeps them as the
    reference), so results are bit-equal to the allocating form.
    """

    kind = "adam"
    slots = ("m", "v")

    def __init__(
        self,
        lr: float = 1e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        super().__init__(lr)
        check_in_range("beta1", beta1, 0.0, 1.0, high_inclusive=False)
        check_in_range("beta2", beta2, 0.0, 1.0, high_inclusive=False)
        check_positive("eps", eps)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        # Working memory, not state: never checkpointed.
        self._scratch: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def _update(self, params: List[Parameter]) -> None:
        t = self.steps + 1
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        ms, vs = self._state["m"], self._state["v"]
        for i, p in enumerate(params):
            g = p.grad
            m = ms.get(i)
            if m is None:
                m = ms[i] = np.zeros_like(p.value)
                vs[i] = np.zeros_like(p.value)
            v = vs[i]
            scratch = self._scratch.get(i)
            if scratch is None or scratch[0].shape != p.value.shape:
                scratch = self._scratch[i] = (
                    np.empty_like(p.value),
                    np.empty_like(p.value),
                )
            a, b = scratch
            # m = beta1 * m + (1 - beta1) * g
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=a)
            m += a
            # v = beta2 * v + (1 - beta2) * g**2
            np.multiply(g, g, out=a)
            a *= 1.0 - self.beta2
            v *= self.beta2
            v += a
            # value -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(m, bc1, out=a)
            a *= self.lr
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p.value -= a
