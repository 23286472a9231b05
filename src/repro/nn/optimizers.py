"""First-order optimisers over :class:`~repro.nn.layers.Parameter` lists.

The paper trains with Adam at learning rate 1e-4 (Table 1); SGD,
Momentum and RMSProp are provided for the optimiser ablation.  Each
optimiser keeps one flat state vector per slot, laid out like the
concatenation of the parameters it steps, so it must always be stepped
with the same parameter list.  A step is one sweep, :data:`BLOCK`
elements of θ, ∇ and every slot at a time through block-sized scratch:
a block stays in cache from its first operation to its last, nothing
weight-sized is allocated, and since each element sees the textbook
operations in the textbook order the block edges cannot change a bit
(``tests/test_sgd_equivalence.py`` keeps the reference expressions).
"""

from __future__ import annotations

import abc
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers import Parameter
from repro.util.validation import check_in_range, check_positive

#: Elements per sweep block, by measurement on the 75 k- and the
#: 1.7 M-parameter Q-network: 8 Ki loses to numpy call overhead at the
#: small one, 64 Ki spills L2 at the large one.
BLOCK = 32_768


def _runs(params: Sequence[Parameter]) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Maximal contiguous ``(θ, ∇)`` stretches behind ``params``, in
    order: one for a packed network, one per loose parameter."""
    runs: List[list] = []
    for p in params:
        theta, nabla, start = p.home
        if runs and runs[-1][0] is theta and runs[-1][3] == start:
            runs[-1][3] += p.value.size
        else:
            runs.append([theta, nabla, start, start + p.value.size])
    return [(theta[a:b], nabla[a:b]) for theta, nabla, a, b in runs]


class Optimizer(abc.ABC):
    """Base: learning rate, step count, the blocked sweep, and
    checkpointing of whatever state a subclass declares in :attr:`slots`."""

    #: Checkpoint key prefix: ``adam`` → ``adam.steps``, ``adam.m.0`` …
    kind: str
    #: Names of the state vectors, in checkpoint order.
    slots: Tuple[str, ...] = ()

    def __init__(self, lr: float):
        check_positive("lr", lr)
        self.lr = float(lr)
        self.steps = 0
        #: Slot name → flat state vector over all parameters, and → the
        #: shapes of the tensors it is laid out for (empty: no state yet).
        self._state: Dict[str, np.ndarray] = {}
        self._layout: Dict[str, List[tuple]] = {}
        self._work = np.empty((2, BLOCK))

    def step(
        self,
        params: Sequence[Parameter],
        after: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        """Apply one update from each parameter's gradient; state that
        does not fit ``params`` raises before anything moves.

        ``after(lo, hi)`` runs once per block, right after elements
        ``[lo, hi)`` of the concatenated parameters were updated and
        while they are still in cache (the agent's target blend).
        """
        params = list(params)
        shapes = [p.shape for p in params]
        if not self._state:
            n = sum(p.value.size for p in params)
            self._state = {name: np.zeros(n) for name in self.slots}
            self._layout = dict.fromkeys(self.slots, shapes)
        for name in self.slots:
            if self._layout.get(name) != shapes:
                raise ValueError(
                    f"{self.kind}.{name} holds tensors shaped "
                    f"{self._layout.get(name)}, asked to step {params}"
                )
        state = [self._state[name] for name in self.slots]
        at = 0
        for theta, grad in _runs(params):
            for lo in range(0, theta.size, BLOCK):
                hi = min(lo + BLOCK, theta.size)
                slices = [s[at + lo : at + hi] for s in state]
                self._update(theta[lo:hi], grad[lo:hi], *slices, *self._work[:, : hi - lo])
                if after is not None:
                    after(at + lo, at + hi)
            at += theta.size
        self.steps += 1

    @abc.abstractmethod
    def _update(self, theta, g, *slots_then_work: np.ndarray) -> None:
        """One block, in place: θ, ∇, a slice per slot, two scratch rows."""

    # -- optimiser-state checkpointing ------------------------------------
    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Flat dict of state tensors for checkpointing.

        ``<kind>.steps`` first, then ``<kind>.<slot>.<i>`` slot by slot,
        each shaped like parameter ``i``.  The arrays are copies: updates
        write state in place, and a captured dict must not follow them.
        """
        out = {f"{self.kind}.steps": np.array([self.steps])}
        for name, flat in self._state.items():
            at = 0
            for i, shape in enumerate(self._layout[name]):
                tensor = flat[at : at + math.prod(shape)].reshape(shape)
                out[f"{self.kind}.{name}.{i}"] = tensor.copy()
                at += tensor.size
        return out

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Replace all state with :meth:`state_arrays` output (copied);
        keys of another optimiser kind are ignored.  Whether the slots
        fit the parameters is checked by the next :meth:`step`."""
        loaded: Dict[str, Dict[int, np.ndarray]] = {n: {} for n in self.slots}
        for key, arr in arrays.items():
            kind, _, rest = key.partition(".")
            if kind != self.kind:
                continue
            name, _, index = rest.rpartition(".")
            if rest == "steps":
                self.steps = int(arr[0])
            elif name in loaded:
                loaded[name][int(index)] = arr
        tensors = {n: [t[i] for i in sorted(t)] for n, t in loaded.items() if t}
        self._layout = {n: [a.shape for a in ts] for n, ts in tensors.items()}
        self._state = {
            n: np.concatenate([np.ravel(a) for a in ts]) for n, ts in tensors.items()
        }


class SGD(Optimizer):
    """Vanilla stochastic gradient descent."""

    kind = "sgd"

    def _update(self, theta, g, a, b) -> None:
        # theta -= lr * g
        np.multiply(g, self.lr, out=a)
        theta -= a


class Momentum(Optimizer):
    """Classical momentum (Polyak)."""

    kind = "momentum"
    slots = ("v",)

    def __init__(self, lr: float, momentum: float = 0.9):
        super().__init__(lr)
        check_in_range("momentum", momentum, 0.0, 1.0, high_inclusive=False)
        self.momentum = float(momentum)

    def _update(self, theta, g, v, a, b) -> None:
        # v = momentum * v - lr * g;  theta += v
        v *= self.momentum
        np.multiply(g, self.lr, out=a)
        v -= a
        theta += v


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

    def _update(self, theta, g, sq, a, b) -> None:
        # sq = rho * sq + (1 - rho) * g**2
        sq *= self.rho
        np.square(g, out=a)
        a *= 1.0 - self.rho
        sq += a
        # theta -= lr * g / (sqrt(sq) + eps)
        np.multiply(g, self.lr, out=a)
        np.sqrt(sq, out=b)
        b += self.eps
        a /= b
        theta -= a


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction — the paper's choice."""

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

    def _update(self, theta, g, m, v, a, b) -> None:
        t = self.steps + 1
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        # m = beta1 * m + (1 - beta1) * g
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=a)
        m += a
        # v = beta2 * v + (1 - beta2) * g**2
        np.square(g, out=a)
        a *= 1.0 - self.beta2
        v *= self.beta2
        v += a
        # theta -= lr * (m / bc1) / (sqrt(v / bc2) + eps); once beta1**t
        # is too small to change 1.0, bc1 is 1.0 exactly and m / bc1 is m
        # bit for bit, so the divide is skipped.
        if bc1 == 1.0:
            np.multiply(m, self.lr, out=a)
        else:
            np.divide(m, bc1, out=a)
            a *= self.lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        theta -= a
