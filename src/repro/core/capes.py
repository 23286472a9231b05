"""Top-level CAPES facade.

What a user of the library instantiates: configuration in, trained
tuner out.  Mirrors the deployment workflow of appendix A.4:

    capes = CAPES(CapesConfig(env=EnvConfig(..., workload_factory=...)))
    capes.train(hours(12))          # online training session
    baseline = capes.measure_baseline(hours(2))
    tuned = capes.evaluate(hours(2))

plus checkpoint save/load for multi-session operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from repro.core.session import CapesSession, EvalResult, TrainResult
from repro.env.tuning_env import EnvConfig, StorageTuningEnv
from repro.train.loop import TrainerConfig


def hours(h: float, tick_length: float = 1.0) -> int:
    """Convert wall-clock hours of system time into action ticks."""
    n = int(round(h * 3600.0 / tick_length))
    if n <= 0:
        raise ValueError(f"{h} hours is less than one tick")
    return n


@dataclass
class CapesConfig:
    """Facade configuration: the environment plus session knobs.

    ``train_steps_per_tick`` is SGD steps per action tick (Table 1; a
    float >= 0, fractions accumulate).
    """

    env: EnvConfig
    seed: int = 0
    train_steps_per_tick: float = 1
    loss: str = "mse"
    # Checked, never read; leaves once the benchmark stops setting it.
    trainer_backend: str = "serial"

    def __post_init__(self) -> None:
        TrainerConfig(self.trainer_backend, float(self.train_steps_per_tick))


class CAPES:
    """The Computer Automated Performance Enhancement System."""

    def __init__(self, config: CapesConfig):
        self.config = config
        self.env = StorageTuningEnv(config.env)
        self.session = CapesSession(
            self.env,
            seed=config.seed,
            train_steps_per_tick=config.train_steps_per_tick,
            loss=config.loss,
        )

    # -- the four workflow verbs -----------------------------------------
    def train(self, n_ticks: int) -> TrainResult:
        """Online training against the live system."""
        return self.session.train(n_ticks)

    def evaluate(self, n_ticks: int, greedy: bool = True) -> EvalResult:
        """Measure tuned performance (no training)."""
        return self.session.evaluate(n_ticks, greedy=greedy)

    def measure_baseline(self, n_ticks: int) -> np.ndarray:
        """Measure untuned performance (CAPES off)."""
        return self.session.measure_baseline(n_ticks)

    def save(self, path: Union[str, Path]) -> None:
        self.session.save(path)

    def load(self, path: Union[str, Path]) -> None:
        self.session.load(path)

    # -- measurements for Table 2-style reporting ---------------------------
    def technical_measurements(self) -> dict:
        """Replay-DB and model size numbers (needs a started session)."""
        self.session.ensure_started()
        db = self.env.db
        net = self.session.agent.online.net
        wire = [m.wire_stats for m in self.env.monitors]
        msgs = sum(w.messages for w in wire)
        comp = sum(w.compressed_bytes for w in wire)
        return {
            "replay_records": db.record_count(),
            "replay_disk_bytes": db.on_disk_bytes(),
            "replay_memory_bytes": db.in_memory_bytes(),
            "model_bytes": net.nbytes(),
            "model_parameters": net.num_parameters(),
            "observation_size": self.env.obs_dim,
            "pis_per_client": self.env.frame_dim // len(self.env.monitors),
            "mean_message_bytes": comp / msgs if msgs else 0.0,
        }
