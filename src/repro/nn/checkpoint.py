"""Model checkpointing (artifact appendix A.4).

"CAPES automatically checkpoints and stores the trained model when
being stopped, and loads the saved model when being started next time."

Checkpoints are single ``.npz`` files holding the MLP topology, all
weights, and (optionally) optimiser state, so a Figure 4-style
multi-session experiment can stop and resume training bit-exactly.

The same format also travels as in-memory bytes
(:func:`checkpoint_to_bytes` / :func:`checkpoint_from_bytes`).
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.nn.network import MLP
from repro.nn.optimizers import Optimizer

FORMAT_VERSION = 1


def _checkpoint_arrays(
    network: MLP,
    optimizer: Optional[Optimizer] = None,
    extra: Optional[dict] = None,
) -> dict:
    """The flat array mapping one checkpoint serialises."""
    arrays = {
        "__version__": np.array([FORMAT_VERSION]),
        "__dims__": np.array(network.layer_dims),
        "__activation__": np.array([network.hidden_activation]),
        "__batchnorm__": np.array([int(network.use_batchnorm)]),
    }
    for i, w in enumerate(network.get_weights()):
        arrays[f"w{i}"] = w
    if network.use_batchnorm:
        for i, norm in enumerate(network._norms):
            if norm is not None:
                arrays[f"bn_mean{i}"] = norm.running_mean
                arrays[f"bn_var{i}"] = norm.running_var
    if optimizer is not None:
        for key, arr in optimizer.state_arrays().items():
            arrays[f"opt::{key}"] = arr
    if extra:
        for key, val in extra.items():
            arrays[f"extra::{key}"] = np.asarray(val)
    return arrays


def save_checkpoint(
    path: Union[str, Path],
    network: MLP,
    optimizer: Optional[Optimizer] = None,
    extra: Optional[dict] = None,
) -> None:
    """Serialise ``network`` (+ optimiser state, + scalar extras) to npz."""
    np.savez(path, **_checkpoint_arrays(network, optimizer, extra))


def checkpoint_to_bytes(
    network: MLP,
    optimizer: Optional[Optimizer] = None,
    extra: Optional[dict] = None,
) -> bytes:
    """:func:`save_checkpoint`, but to in-memory npz bytes.

    The transport form of a weight snapshot: small enough to cross a
    worker pipe, self-describing enough to rebuild the network on the
    other side with :func:`checkpoint_from_bytes`.
    """
    buf = io.BytesIO()
    np.savez(buf, **_checkpoint_arrays(network, optimizer, extra))
    return buf.getvalue()


def checkpoint_from_bytes(
    blob: bytes,
    optimizer: Optional[Optimizer] = None,
) -> tuple[MLP, dict]:
    """Rebuild an MLP from :func:`checkpoint_to_bytes` output.

    If ``optimizer`` is given, its state arrays are restored in place.
    """
    return load_checkpoint(io.BytesIO(blob), optimizer=optimizer)


def load_checkpoint(
    path,
    optimizer: Optional[Optimizer] = None,
) -> tuple[MLP, dict]:
    """Rebuild the MLP from ``path`` (or file object); returns
    ``(network, extras)``.

    If ``optimizer`` is given, its state arrays are restored in place.
    """
    with np.load(path, allow_pickle=False) as data:
        version = int(data["__version__"][0])
        if version != FORMAT_VERSION:
            raise ValueError(
                f"checkpoint version {version} unsupported "
                f"(expected {FORMAT_VERSION})"
            )
        dims = [int(d) for d in data["__dims__"]]
        activation = str(data["__activation__"][0])
        use_bn = (
            bool(int(data["__batchnorm__"][0]))
            if "__batchnorm__" in data
            else False
        )
        net = MLP(dims, hidden_activation=activation, use_batchnorm=use_bn, rng=0)
        weights = []
        i = 0
        while f"w{i}" in data:
            weights.append(data[f"w{i}"])
            i += 1
        net.set_weights(weights)
        if use_bn:
            for i, norm in enumerate(net._norms):
                if norm is not None and f"bn_mean{i}" in data:
                    norm.running_mean[...] = data[f"bn_mean{i}"]
                    norm.running_var[...] = data[f"bn_var{i}"]
        if optimizer is not None:
            opt_state = {
                key[len("opt::") :]: data[key]
                for key in data.files
                if key.startswith("opt::")
            }
            optimizer.load_state_arrays(opt_state)
        extras = {
            key[len("extra::") :]: data[key]
            for key in data.files
            if key.startswith("extra::")
        }
    return net, extras
