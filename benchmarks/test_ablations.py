"""Design-choice ablations (DESIGN.md §4, beyond-paper index row).

Four ablations over the mechanisms the paper singles out:

1. **Target network** (§3.4): hard-coupled targets (α=1) vs the paper's
   slow updates — slow updates must not destabilise, and we report the
   loss volatility of each.
2. **Double DQN** (§6 future work, "new deep learning techniques"):
   vanilla max-operator targets vs decoupled selection/valuation.
3. **Device dependence**: the elevator-scheduling advantage CAPES
   exploits exists on rotating media; on SSDs the window sweep must be
   nearly flat, so a tuner has little to find.
4. **Differential wire protocol** (§3.3): message bytes with and
   without send-on-change encoding.
"""

import numpy as np
import pytest

from benchmarks._harness import BENCH_HP, make_capes, random_rw_workload
from repro import ClusterConfig, EnvConfig, StorageTuningEnv
from repro.rl import Hyperparameters
from repro.telemetry import DifferentialEncoder
from repro.workloads import RandomReadWrite

ABL_TICKS = 700


def _train_losses(
    alpha: float, double: bool, seed: int = 77, train_ticks: int = ABL_TICKS
) -> np.ndarray:
    hp = Hyperparameters(
        hidden_layer_size=BENCH_HP.hidden_layer_size,
        exploration_ticks=BENCH_HP.exploration_ticks,
        sampling_ticks_per_observation=BENCH_HP.sampling_ticks_per_observation,
        adam_learning_rate=BENCH_HP.adam_learning_rate,
        discount_rate=BENCH_HP.discount_rate,
        target_network_update_rate=alpha,
    )
    capes = make_capes(random_rw_workload(1, 9), seed=seed, hp=hp)
    capes.session.agent.double_dqn = double
    return capes.train(train_ticks).losses


@pytest.mark.slow
def test_ablation_target_network():
    """Slow target updates vs no target network (α = 1)."""
    out = {
        "slow": _train_losses(alpha=0.02, double=False),
        "hard": _train_losses(alpha=1.0, double=False),
    }
    tail = ABL_TICKS

    def volatility(losses: np.ndarray) -> float:
        # Coefficient of variation: the two configurations converge to
        # different loss plateaus and σ scales with the plateau, so raw
        # σ would conflate "converged higher" with "less stable".
        late = losses[-tail:]
        return float(np.std(late) / np.mean(late))

    slow_vol = volatility(out["slow"])
    hard_vol = volatility(out["hard"])
    print(f"\nAblation: target network — late loss volatility (CV) "
          f"slow-update {slow_vol:.3f} vs hard-coupled {hard_vol:.3f}")
    assert np.isfinite(out["slow"]).all() and np.isfinite(out["hard"]).all()
    # The paper's choice must at least not be *less* stable.
    assert slow_vol <= hard_vol * 2.0


@pytest.mark.slow
def test_ablation_double_dqn():
    """Vanilla vs double-DQN targets: both must converge; report both."""
    out = {
        "vanilla": _train_losses(alpha=0.02, double=False, seed=78),
        "double": _train_losses(alpha=0.02, double=True, seed=78),
    }
    v_late = float(np.mean(out["vanilla"][-200:]))
    d_late = float(np.mean(out["double"][-200:]))
    print(f"\nAblation: double DQN — late loss vanilla {v_late:.5f} "
          f"vs double {d_late:.5f}")
    assert v_late < np.mean(out["vanilla"][:100])
    assert d_late < np.mean(out["double"][:100])


def _window_sweep(
    disk_kind: str,
    settle_ticks: int = 15,
    measure_ticks: int = 50,
    windows=(1, 4, 8, 16, 32),
) -> dict:
    out = {}
    for w in windows:
        env = StorageTuningEnv(
            EnvConfig(
                cluster=ClusterConfig(
                    n_servers=2, n_clients=5, disk_kind=disk_kind
                ),
                workload_factory=lambda c, s: RandomReadWrite(
                    c, read_fraction=0.1, instances_per_client=5, seed=s
                ),
                seed=1,
            )
        )
        env.reset()
        env.set_params({"max_rpcs_in_flight": w})
        env.run_ticks(settle_ticks)
        out[w] = float(np.mean(env.run_ticks(measure_ticks)))
        env.close()
    return out


@pytest.mark.slow
def test_ablation_hdd_vs_ssd_sensitivity():
    """The tuning opportunity is a rotating-media phenomenon."""
    out = {"hdd": _window_sweep("hdd"), "ssd": _window_sweep("ssd")}

    def spread(d):
        vals = np.array(list(d.values()))
        return float((vals.max() - vals.min()) / vals.max())

    hdd_spread = spread(out["hdd"])
    ssd_spread = spread(out["ssd"])
    print(f"\nAblation: window sensitivity — relative throughput spread "
          f"HDD {hdd_spread:.2f} vs SSD {ssd_spread:.2f}")
    for kind in ("hdd", "ssd"):
        row = "  ".join(f"w{w}={v * 100:.1f}" for w, v in out[kind].items())
        print(f"  {kind}: {row} MB/s")
    assert hdd_spread > 2 * ssd_spread


def test_ablation_differential_wire_protocol():
    """Send-on-change + zlib vs naive full-frame resends."""
    rng = np.random.default_rng(0)
    width = 44  # the paper's per-client PI count
    frames = []
    state = rng.normal(size=width)
    for _ in range(300):
        # realistic: a handful of indicators move per tick
        mask = rng.random(width) < 0.15
        state = state + mask * rng.normal(size=width)
        frames.append(state.copy())

    diff = DifferentialEncoder(width)
    for t, f in enumerate(frames):
        diff.encode(t, f)
    full = DifferentialEncoder(width)
    for t, f in enumerate(frames):
        full.reset()  # forces full-frame resend every tick
        full.encode(t, f)
    diff_stats, full_stats = diff.stats, full.stats
    print(f"\nAblation: wire protocol — differential "
          f"{diff_stats.mean_message_size:.1f} B/msg vs full resend "
          f"{full_stats.mean_message_size:.1f} B/msg "
          f"(paper: ~186 B per client per tick)")
    assert diff_stats.mean_message_size < full_stats.mean_message_size
