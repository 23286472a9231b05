"""The multi-layer perceptron container (§3.4).

"We use a standard two-hidden-layer MLP with a hyperbolic tangent
nonlinear activation function.  The two hidden layers are of the same
size as the input array.  The final output layer is a fully-connected
linear layer with a single output for each valid action."

:meth:`MLP.for_q_network` builds exactly that topology; the generic
constructor supports the layer-count/width/activation ablations the
paper lists as future work.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.nn.activations import Activation, Identity, make_activation
from repro.nn.layers import Dense, Layer, Parameter, pack
from repro.util.rng import derive_rng, ensure_rng


class MLP:
    """Fully connected feed-forward network with explicit backprop."""

    def __init__(
        self,
        layer_dims: Sequence[int],
        hidden_activation: str = "tanh",
        use_batchnorm: bool = False,
        rng=None,
    ):
        if len(layer_dims) < 2:
            raise ValueError("need at least input and output dims")
        if any(d <= 0 for d in layer_dims):
            raise ValueError(f"all dims must be > 0: {layer_dims}")
        self.layer_dims = [int(d) for d in layer_dims]
        self.hidden_activation = hidden_activation
        self.use_batchnorm = bool(use_batchnorm)
        rng = ensure_rng(rng)
        self._dense: List[Dense] = []
        self._acts: List[Activation] = []
        self._norms: List[Optional["BatchNorm1d"]] = []
        n = len(self.layer_dims) - 1
        for i in range(n):
            layer_rng = derive_rng(rng, "layer", i)
            self._dense.append(
                Dense(
                    self.layer_dims[i],
                    self.layer_dims[i + 1],
                    name=f"fc{i}",
                    rng=layer_rng,
                )
            )
            is_output = i == n - 1
            self._acts.append(
                Identity() if is_output else make_activation(hidden_activation)
            )
            if self.use_batchnorm and not is_output:
                from repro.nn.normalization import BatchNorm1d

                self._norms.append(
                    BatchNorm1d(self.layer_dims[i + 1], name=f"bn{i}")
                )
            else:
                self._norms.append(None)
        self._params: List[Parameter] = []
        for dense, norm in zip(self._dense, self._norms):
            self._params.extend(dense.parameters())
            if norm is not None:
                self._params.extend(norm.parameters())
        #: All weights / all gradients as one flat vector each, in
        #: :meth:`parameters` order; every ``Parameter`` views into them.
        self.theta, self.nabla = pack(self._params)

    # -- introspection -----------------------------------------------------
    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]

    def parameters(self) -> List[Parameter]:
        return list(self._params)

    def train_mode(self) -> None:
        """Use minibatch statistics in any normalization layers."""
        for norm in self._norms:
            if norm is not None:
                norm.train_mode()

    def eval_mode(self) -> None:
        """Use running statistics (single-observation action selection)."""
        for norm in self._norms:
            if norm is not None:
                norm.eval_mode()

    def num_parameters(self) -> int:
        return self.theta.size

    def nbytes(self) -> int:
        """In-memory model size (Table 2's 'size of the DNN model')."""
        return self.theta.nbytes + self.nabla.nbytes

    def zero_grad(self) -> None:
        self.nabla.fill(0.0)

    # -- compute ------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batched forward pass: (batch, in_dim) -> (batch, out_dim)."""
        h = np.asarray(x, dtype=np.float64)
        squeeze = False
        if h.ndim == 1:
            h = h[None, :]
            squeeze = True
        for dense, act, norm in zip(self._dense, self._acts, self._norms):
            h = dense.forward(h)
            if norm is not None:
                h = norm.forward(h)
            h = act.forward(h)
        return h[0] if squeeze else h

    __call__ = forward

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True, accumulate: bool = True
    ) -> Optional[np.ndarray]:
        """Backpropagate; accumulates parameter grads, returns input grad.

        Training never reads the gradient w.r.t. the network's input;
        ``input_grad=False`` skips the first layer's share of it (its
        widest matmul) and returns None.  Parameter grads are unchanged.
        ``accumulate=False`` has every layer write its gradients instead
        (no :meth:`zero_grad` first; see ``Dense.backward``).
        """
        g = np.asarray(grad_out, dtype=np.float64)
        if g.ndim == 1:
            g = g[None, :]
        first = self._dense[0]
        for dense, act, norm in zip(
            reversed(self._dense), reversed(self._acts), reversed(self._norms)
        ):
            g = act.backward(g)
            if norm is not None:
                g = norm.backward(g, accumulate)
            g = dense.backward(g, input_grad or dense is not first, accumulate)
        return g

    # -- weight transfer -------------------------------------------------------
    def get_weights(self) -> List[np.ndarray]:
        return [p.value.copy() for p in self.parameters()]

    def set_weights(self, weights: Sequence[np.ndarray]) -> None:
        if len(weights) != len(self._params):
            raise ValueError(
                f"expected {len(self._params)} arrays, got {len(weights)}"
            )
        for p, w in zip(self._params, weights):
            if np.shape(w) != p.shape:
                raise ValueError(f"{p.name}: shape {np.shape(w)} != {p.shape}")
        for p, w in zip(self._params, weights):
            p.value[...] = w

    def clone(self) -> "MLP":
        """Structural copy with identical weights (target-network init)."""
        twin = MLP(
            self.layer_dims,
            self.hidden_activation,
            use_batchnorm=self.use_batchnorm,
            rng=0,
        )
        twin.theta[...] = self.theta
        for mine, theirs in zip(self._norms, twin._norms):
            if mine is not None and theirs is not None:
                theirs.running_mean[...] = mine.running_mean
                theirs.running_var[...] = mine.running_var
        return twin

    # -- canonical CAPES topology ------------------------------------------------
    @classmethod
    def for_q_network(
        cls,
        obs_dim: int,
        n_actions: int,
        n_hidden_layers: int = 2,
        hidden_size: Optional[int] = None,
        hidden_activation: str = "tanh",
        use_batchnorm: bool = False,
        rng=None,
    ) -> "MLP":
        """Build the paper's Q-network topology.

        ``hidden_size`` defaults to the input width, per §3.4 ("the two
        hidden layers are of the same size as the input array").
        """
        if n_hidden_layers < 1:
            raise ValueError("need at least one hidden layer")
        width = obs_dim if hidden_size is None else int(hidden_size)
        dims = [obs_dim] + [width] * n_hidden_layers + [n_actions]
        return cls(
            dims,
            hidden_activation=hidden_activation,
            use_batchnorm=use_batchnorm,
            rng=rng,
        )
