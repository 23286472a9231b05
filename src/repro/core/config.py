"""conf.py-style configuration loading (artifact appendix A.3).

"All CAPES configuration settings are in the file conf.py in the top
level directory. ... These two functions are Python functions that can
be defined anywhere and imported in conf.py."

A configuration file is a Python script executed in an isolated
namespace; it must define a ``WORKLOAD(cluster, seed)`` factory and may
override any of the names in :data:`DEFAULTS`.  :func:`load_config`
turns the file into a ready :class:`~repro.core.capes.CapesConfig`.

Example ``conf.py``::

    from repro.workloads import RandomReadWrite

    N_SERVERS = 2
    N_CLIENTS = 5
    READ_FRACTION = 0.1
    TRAIN_STEPS_PER_TICK = 4
    ADAM_LEARNING_RATE = 5e-4

    def WORKLOAD(cluster, seed):
        return RandomReadWrite(
            cluster, read_fraction=READ_FRACTION, seed=seed)
"""

from __future__ import annotations

import runpy
from dataclasses import fields
from pathlib import Path
from typing import Any, Dict, Union

from repro.cluster.cluster import ClusterConfig
from repro.core.capes import CapesConfig
from repro.env.tuning_env import EnvConfig
from repro.rl.hyperparams import Hyperparameters

#: Recognised configuration names, their defaults, and where they land.
DEFAULTS: Dict[str, Any] = {
    # cluster
    "N_SERVERS": 4,
    "N_CLIENTS": 5,
    "DISK_KIND": "hdd",
    "MAX_RPCS_IN_FLIGHT": 8,
    "IO_RATE_LIMIT": 10_000.0,
    # hyperparameters (Table 1 names, upper-cased)
    "HIDDEN_LAYER_SIZE": None,
    "N_HIDDEN_LAYERS": 2,
    "ADAM_LEARNING_RATE": 1e-4,
    "DISCOUNT_RATE": 0.99,
    "TARGET_NETWORK_UPDATE_RATE": 0.01,
    "EXPLORATION_TICKS": 7200,
    "MINIBATCH_SIZE": 32,
    "SAMPLING_TICKS_PER_OBSERVATION": 10,
    "MISSING_ENTRY_TOLERANCE": 0.20,
    # environment
    "DROP_PROBABILITY": 0.0,
    "DB_PATH": ":memory:",
    "REPLAY_CAPACITY": 250_000,
    "SEED": 0,
    "INCLUDE_SERVER_PIS": False,
    "INCLUDE_TIME_FEATURES": False,
    # session (SGD steps per action tick may be fractional)
    "TRAIN_STEPS_PER_TICK": 1,
    "LOSS": "mse",
}

#: Names older confs may still set, each with what to do instead.
RETIRED = {
    "TRAINER_BACKEND": "delete it (there is one trainer)",
    "TRAIN_RATIO": "rename it TRAIN_STEPS_PER_TICK",
}

_HP_KEYS = {
    "HIDDEN_LAYER_SIZE": "hidden_layer_size",
    "N_HIDDEN_LAYERS": "n_hidden_layers",
    "ADAM_LEARNING_RATE": "adam_learning_rate",
    "DISCOUNT_RATE": "discount_rate",
    "TARGET_NETWORK_UPDATE_RATE": "target_network_update_rate",
    "EXPLORATION_TICKS": "exploration_ticks",
    "MINIBATCH_SIZE": "minibatch_size",
    "SAMPLING_TICKS_PER_OBSERVATION": "sampling_ticks_per_observation",
    "MISSING_ENTRY_TOLERANCE": "missing_entry_tolerance",
}


class ConfigError(ValueError):
    """Raised for malformed configuration files."""


def load_config(path: Union[str, Path]) -> CapesConfig:
    """Execute ``path`` as a conf.py and build a :class:`CapesConfig`."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"configuration file {path} does not exist")
    namespace = runpy.run_path(str(path))

    workload = namespace.get("WORKLOAD")
    if workload is None or not callable(workload):
        raise ConfigError(
            f"{path} must define a callable WORKLOAD(cluster, seed)"
        )

    retired = [k for k in RETIRED if k in namespace]
    if retired:
        raise ConfigError(
            f"{path}: "
            + "; ".join(f"{k} is retired, {RETIRED[k]}" for k in retired)
        )

    # Reject unknown ALL_CAPS names: silent typos in tuning configs are
    # exactly the kind of operational error the artifact's conf.py
    # comments warn about.
    known = set(DEFAULTS) | {"WORKLOAD"}
    unknown = [
        k
        for k in namespace
        if k.isupper() and not k.startswith("_") and k not in known
    ]
    if unknown:
        raise ConfigError(
            f"{path}: unknown configuration names {sorted(unknown)}; "
            f"known names: {sorted(known)}"
        )

    values = {k: namespace.get(k, v) for k, v in DEFAULTS.items()}

    cluster = ClusterConfig(
        n_servers=int(values["N_SERVERS"]),
        n_clients=int(values["N_CLIENTS"]),
        disk_kind=values["DISK_KIND"],
        max_rpcs_in_flight=int(values["MAX_RPCS_IN_FLIGHT"]),
        io_rate_limit=float(values["IO_RATE_LIMIT"]),
    )
    hp = Hyperparameters(
        **{field: values[key] for key, field in _HP_KEYS.items()}
    )
    env = EnvConfig(
        cluster=cluster,
        workload_factory=workload,
        hp=hp,
        drop_probability=float(values["DROP_PROBABILITY"]),
        db_path=str(values["DB_PATH"]),
        replay_capacity=int(values["REPLAY_CAPACITY"]),
        seed=int(values["SEED"]),
        include_server_pis=bool(values["INCLUDE_SERVER_PIS"]),
        include_time_features=bool(values["INCLUDE_TIME_FEATURES"]),
    )
    try:
        return CapesConfig(
            env=env,
            seed=int(values["SEED"]),
            train_steps_per_tick=values["TRAIN_STEPS_PER_TICK"],
            loss=str(values["LOSS"]),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: TRAIN_STEPS_PER_TICK: {exc}") from None
