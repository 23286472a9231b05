"""The trainer subsystem (repro.train).

Covers its contract surface:

- one trainer: the legacy ``inline`` spelling and the default run the
  same steps in the same order as the historical session;
- the trainer is deterministic at any interleave and spends the same
  step budget, ``train_steps_per_tick`` SGD steps per tick (fractions
  accumulate);
- the retired ``process`` backend and the retired conf names are
  rejected, readably, before any work;
- concurrent replay access: sampling interleaved with ``put_many``
  chunk landings is deterministic and never serves torn rows.
"""

import hashlib

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.core import CAPES, CapesConfig, CapesSession
from repro.env import EnvConfig, StorageTuningEnv, VectorEnv
from repro.exp import ExperimentSpec
from repro.replaydb.cache import ReplayCache
from repro.replaydb.spans import StridedMinibatchSampler, TickSpans
from repro.rl import DQNAgent, Hyperparameters
from repro.train import TrainerConfig, TrainerLoop, train_collect
from repro.workloads import RandomReadWrite

FAST_HP = Hyperparameters(
    hidden_layer_size=16,
    sampling_ticks_per_observation=3,
    exploration_ticks=30,
)


def fast_env_config(seed=0):
    return EnvConfig(
        cluster=ClusterConfig(n_servers=2, n_clients=2),
        workload_factory=lambda c, s: RandomReadWrite(
            c, read_fraction=0.1, instances_per_client=2, seed=s
        ),
        hp=FAST_HP,
        seed=seed,
    )


def weights_digest(agent) -> str:
    h = hashlib.blake2b(digest_size=16)
    for w in agent.online.net.get_weights():
        h.update(w.tobytes())
    return h.hexdigest()


def train_digest(session, result) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(result.rewards.tobytes())
    h.update(result.losses.tobytes())
    h.update(result.epsilon_trace.tobytes())
    h.update(weights_digest(session.agent).encode())
    return h.hexdigest()


def run_session(n_ticks=25, **session_kwargs):
    session = CapesSession(
        StorageTuningEnv(fast_env_config()), seed=0, **session_kwargs
    )
    try:
        result = session.train(n_ticks)
        return train_digest(session, result), result, session
    finally:
        session.shutdown_trainer()


class TestTrainerConfig:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            TrainerConfig(backend="threads")

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError, match="train_ratio"):
            TrainerConfig(train_ratio=-1.0)

    def test_nonpositive_knobs_rejected(self):
        with pytest.raises(ValueError):
            TrainerConfig(interleave_ticks=0)

    def test_in_process_backend_needs_sampler(self):
        agent = DQNAgent(6, 3, hp=FAST_HP, rng=0)
        with pytest.raises(ValueError, match="sampler"):
            TrainerLoop(agent, TrainerConfig(backend="serial"))

    def test_retired_process_backend_rejected(self):
        with pytest.raises(ValueError, match=r"\('inline', 'serial'\)"):
            TrainerConfig(backend="process")


def facade_digest(n_ticks=25, **config_kwargs):
    capes = CAPES(CapesConfig(env=fast_env_config(), seed=0, **config_kwargs))
    try:
        return train_digest(capes.session, capes.train(n_ticks))
    finally:
        capes.session.shutdown_trainer()


class TestGoldenIdentity:
    """The acceptance bar: the legacy ``inline`` spelling, the default
    and a bare session run one trainer, byte for byte."""

    def test_serial_interleave1_byte_identical_to_inline(self):
        d_inline = facade_digest(train_steps_per_tick=2, trainer_backend="inline")
        d_default = facade_digest(train_steps_per_tick=2)
        d_session, _, _ = run_session(train_steps_per_tick=2)
        assert d_inline == d_default == d_session

    def test_inline_fractional_ratio_quarter(self):
        """0.25 steps per tick trains once every 4 ticks, deterministically."""
        _, result, session = run_session(n_ticks=20, train_steps_per_tick=0.25)
        # 20 ticks x 0.25 = 5 attempted steps; early ones may starve.
        assert session.trainer_config.train_ratio == 0.25
        assert 0 < len(result.losses) <= 5

class TestSerialInterleaving:
    def test_interleave4_deterministic(self):
        runs = [
            run_session(train_steps_per_tick=2)
            for _ in range(2)
        ]
        assert runs[0][0] == runs[1][0]

    def test_interleaved_bursts_spend_the_same_budget(self):
        session = CapesSession(
            StorageTuningEnv(fast_env_config()),
            seed=0,
            train_steps_per_tick=2,
        )
        # Coarser cadence: burst every 5 ticks instead of every tick.
        session.trainer_config = TrainerConfig(
            train_ratio=2.0, interleave_ticks=5
        )
        result = session.train(23)
        assert session.trainer.stats.steps_attempted == 46
        assert np.isfinite(result.losses).all()
        session.shutdown_trainer()

    def test_trainer_survives_multiple_segments(self):
        session = CapesSession(StorageTuningEnv(fast_env_config()), seed=0)
        r1 = session.train(8)
        r2 = session.train(8)
        assert len(r1.losses) + len(r2.losses) > 0
        assert session.trainer.stats.steps_attempted == 16
        session.shutdown_trainer()

    def test_restart_environment_discards_trainer(self):
        session = CapesSession(StorageTuningEnv(fast_env_config()), seed=0)
        session.train(5)
        first = session.trainer
        session.restart_environment()
        assert session.trainer is None
        session.train(5)
        assert session.trainer is not first
        session.shutdown_trainer()


class TestLoadResetsWeightVersion:
    """Loading a checkpoint mid-session replaces the weights the live
    trainer goes on training, and nothing pending moves them."""

    def test_load_mid_session_end_to_end(self, tmp_path):
        path = tmp_path / "model.npz"
        session = CapesSession(StorageTuningEnv(fast_env_config()), seed=0)
        session.train(10)
        session.save(path)
        d_saved = weights_digest(session.agent)
        session.train(10)  # training moves on past the checkpoint
        assert weights_digest(session.agent) != d_saved
        session.load(path)
        assert weights_digest(session.agent) == d_saved
        # Draining the (budget-less) trainer must not move the freshly
        # loaded weights.
        session.trainer.drain()
        assert weights_digest(session.agent) == d_saved
        # Training continues from the restored weights.
        result = session.train(6)
        assert np.isfinite(result.losses).all()
        session.shutdown_trainer()

    def test_inline_load_unaffected(self, tmp_path):
        """A session that trained one burst per tick loads another's
        weights."""
        path = tmp_path / "model.npz"
        _, _, session = run_session(n_ticks=10)
        session.save(path)
        session2 = CapesSession(StorageTuningEnv(fast_env_config()), seed=1)
        session2.train(5)
        session2.load(path)
        assert weights_digest(session2.agent) == weights_digest(
            session.agent
        )
        session2.shutdown_trainer()


class TestTrainCollect:
    """§3.3 monitoring + continuous training over a VectorEnv."""

    def _venv(self, backend="serial"):
        return VectorEnv.from_config(fast_env_config(), 2, backend=backend)

    def _run(self, trainer_backend, vector_backend="serial", **cfg):
        venv = self._venv(vector_backend)
        agent = DQNAgent(venv.obs_dim, venv.n_actions, hp=FAST_HP, rng=0)
        try:
            rewards, stats = train_collect(
                venv,
                agent,
                TrainerConfig(
                    backend=trainer_backend, train_ratio=1.0, **cfg
                ),
                20,
                chunk=5,
                sampler_seed=7,
            )
        finally:
            venv.close()
        return rewards, stats, agent

    def test_rewards_identical_across_trainer_backends(self):
        """Both accepted backend spellings run the one trainer: same
        rewards, same step budget, same weights."""
        r_inline, s_inline, a_inline = self._run("inline")
        r_serial, s_serial, a_serial = self._run("serial")
        np.testing.assert_array_equal(r_inline, r_serial)
        assert s_inline.steps_attempted == s_serial.steps_attempted == 20
        assert s_inline.losses == s_serial.losses
        assert weights_digest(a_inline) == weights_digest(a_serial)

    def test_serial_matches_handrolled_inline_reference(self):
        """serial train_collect at chunk=1 == collect-a-tick,
        train-a-burst by hand (the inline reference)."""
        venv = self._venv()
        agent = DQNAgent(venv.obs_dim, venv.n_actions, hp=FAST_HP, rng=0)
        try:
            rewards, _ = train_collect(
                venv,
                agent,
                TrainerConfig(backend="serial", train_ratio=1.0),
                12,
                chunk=1,
                sampler_seed=7,
            )
        finally:
            venv.close()
        venv2 = self._venv()
        agent2 = DQNAgent(venv2.obs_dim, venv2.n_actions, hp=FAST_HP, rng=0)
        try:
            sampler = venv2.make_sampler(seed=7)
            venv2.reset()
            ref = np.empty((2, 12))
            for t in range(12):
                ref[:, t : t + 1] = venv2.collect(1)
                agent2.train_from_sampler(sampler)
        finally:
            venv2.close()
        np.testing.assert_array_equal(rewards, ref)
        assert weights_digest(agent) == weights_digest(agent2)

    def test_needs_shared_db(self):
        venv = VectorEnv.from_config(
            fast_env_config(), 2, shared_db_path=None
        )
        agent = DQNAgent(venv.obs_dim, venv.n_actions, hp=FAST_HP, rng=0)
        try:
            with pytest.raises(ValueError, match="shared"):
                train_collect(venv, agent, TrainerConfig(), 5)
        finally:
            venv.close()


class TestConcurrentReplayAccess:
    """Satellite: sampling while put_many lands chunks."""

    FRAME_W = 2

    def _land_chunk(self, cache, spans, block, ticks):
        ticks = np.asarray(ticks, dtype=np.int64) + block * 64
        frames = np.stack(
            [[float(block), float(t)] for t in ticks]
        )
        cache.put_many(
            ticks,
            frames,
            np.full(len(ticks), 0.5),
            np.zeros(len(ticks), dtype=np.int64),
        )
        spans.observe_top(block, int(ticks[-1]) - block * 64)

    def _interleaved_run(self):
        cache = ReplayCache(self.FRAME_W, capacity=256)
        spans = TickSpans(2, 64)
        sampler = StridedMinibatchSampler(
            cache, spans, obs_ticks=2, seed=3
        )
        seen = []
        next_tick = [0, 0]
        for round_ in range(6):
            for block in (0, 1):
                lo = next_tick[block]
                self._land_chunk(cache, spans, block, range(lo, lo + 5))
                next_tick[block] = lo + 5
            if round_ >= 1:  # enough for one window + t+1
                batch = sampler.sample_minibatch(8)
                seen.append(batch)
        return seen

    def test_interleaved_sampling_deterministic(self):
        a = self._interleaved_run()
        b = self._interleaved_run()
        assert len(a) == len(b) == 5
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.s_t, y.s_t)
            np.testing.assert_array_equal(x.actions, y.actions)

    def test_no_torn_rows_between_chunk_landings(self):
        """Every sampled observation must be self-consistent: the
        (block, tick) coordinates baked into each frame must line up
        with strided tick arithmetic, proving no row mixes chunks."""
        for batch in self._interleaved_run():
            s_t = batch.s_t.reshape(len(batch), 2, self.FRAME_W)
            blocks = s_t[:, :, 0]
            ticks = s_t[:, :, 1]
            # One block per observation, consecutive local ticks.
            assert (blocks == blocks[:, :1]).all()
            np.testing.assert_array_equal(
                np.diff(ticks, axis=1), np.ones((len(batch), 1))
            )


CONF_HEAD = (
    "def WORKLOAD(cluster, seed):\n"
    "    from repro.workloads import RandomReadWrite\n"
    "    return RandomReadWrite(\n"
    "        cluster, read_fraction=0.1, instances_per_client=2, seed=seed)\n"
)


class TestSpecAndCliPlumbing:
    """``train_steps_per_tick`` is the one step-budget knob, from the
    conf and the CLI through the spec to the capes tuner."""

    def test_spec_to_dict_carries_trainer_fields(self):
        spec = ExperimentSpec(tuner_kwargs={"train_steps_per_tick": 0.5})
        d = spec.to_dict()
        assert d["tuner_kwargs"] == {"train_steps_per_tick": 0.5}
        assert "trainer_backend" not in d and "train_ratio" not in d

    def test_build_tuner_passes_trainer_fields_to_capes(self):
        spec = ExperimentSpec(
            tuner="capes", tuner_kwargs={"train_steps_per_tick": 2.5}
        )
        tuner = spec.build_tuner()
        assert tuner.train_steps_per_tick == 2.5

    def test_build_tuner_rejects_trainer_fields_for_search_tuners(self):
        spec = ExperimentSpec(
            tuner="random", tuner_kwargs={"train_steps_per_tick": 2}
        )
        # The searcher refuses the knob before it touches the system.
        with pytest.raises(TypeError, match="train_steps_per_tick"):
            spec.build_tuner().run(object(), spec.budget)

    def test_sweep_cli_rejects_trainer_backend_for_search_tuners(self, capsys):
        """The one trainer knob left on sweep, --train-ratio, is refused
        for search tuners before any work."""
        from repro.cli import main

        rc = main(
            [
                "sweep",
                "--config",
                "examples/conf_lustre.py",
                "--tuners",
                "random",
                "--train-ratio",
                "2",
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert "'capes' tuner only" in captured.err
        assert "sweeping" not in captured.out

    def test_collect_cli_flags_need_train(self):
        from repro.cli import main

        for flag, value in (
            ("--checkpoint", "/tmp/never-written.npz"),
            ("--train-ratio", "2"),
        ):
            rc = main(
                [
                    "collect",
                    "--config",
                    "examples/conf_lustre.py",
                    "--ticks",
                    "5",
                    flag,
                    value,
                ]
            )
            assert rc == 2, flag

    def test_sweep_conf_trainer_knobs_are_honored(self, tmp_path):
        """The conf's TRAIN_STEPS_PER_TICK reaches the capes specs, and
        --train-ratio overrides it."""
        import json

        from repro.cli import main

        conf = tmp_path / "conf.py"
        conf.write_text(
            CONF_HEAD
            + "N_SERVERS = 2\nN_CLIENTS = 2\nHIDDEN_LAYER_SIZE = 8\n"
            "SAMPLING_TICKS_PER_OBSERVATION = 3\nEXPLORATION_TICKS = 10\n"
            "TRAIN_STEPS_PER_TICK = 0.5\n"
        )

        def swept(*flags):
            art = tmp_path / f"art{len(flags)}"
            rc = main(
                [
                    "sweep", "--config", str(conf), "--tuners", "capes",
                    "--seeds", "0", "--train-ticks", "4", "--eval-ticks", "4",
                    "--artifacts", str(art), *flags,
                ]
            )
            assert rc == 0
            (line,) = (art / "runs.jsonl").read_text().splitlines()
            return json.loads(line)["spec"]["tuner_kwargs"]

        assert swept()["train_steps_per_tick"] == 0.5
        assert swept("--train-ratio", "3")["train_steps_per_tick"] == 3.0

    def test_conf_loader_reads_trainer_knobs(self, tmp_path):
        conf = tmp_path / "conf.py"
        conf.write_text(CONF_HEAD + "TRAIN_STEPS_PER_TICK = 0.5\n")
        from repro.core.config import load_config

        cfg = load_config(str(conf))
        assert cfg.train_steps_per_tick == 0.5
        assert CAPES(cfg).session.trainer_config.train_ratio == 0.5

    def test_conf_loader_refuses_a_negative_step_budget(self, tmp_path):
        from repro.core.config import ConfigError, load_config

        conf = tmp_path / "conf.py"
        conf.write_text(CONF_HEAD + "TRAIN_STEPS_PER_TICK = -1\n")
        with pytest.raises(ConfigError, match="TRAIN_STEPS_PER_TICK"):
            load_config(str(conf))

    @pytest.mark.parametrize(
        "name, value, replacement",
        [
            ("TRAIN_RATIO", "0.5", "TRAIN_STEPS_PER_TICK"),
            ("TRAINER_BACKEND", "'serial'", "delete it"),
        ],
        ids=["TRAIN_RATIO", "TRAINER_BACKEND"],
    )
    def test_retired_conf_names_are_refused(
        self, tmp_path, capsys, name, value, replacement
    ):
        from repro.cli import main
        from repro.core.config import ConfigError, load_config

        conf = tmp_path / "conf.py"
        conf.write_text(CONF_HEAD + f"{name} = {value}\n")
        with pytest.raises(ConfigError, match=f"{name} is retired, .*{replacement}"):
            load_config(str(conf))
        assert main(["train", "--config", str(conf), "--ticks", "1"]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert name in err and replacement in err


class TestRetiredProcessBackend:
    """``process`` fails where it is named, readably, before any work."""

    def test_conf_loader_rejects_it(self, tmp_path):
        from repro.core.config import ConfigError, load_config

        conf = tmp_path / "conf.py"
        conf.write_text(CONF_HEAD + "TRAINER_BACKEND = 'process'\n")
        with pytest.raises(ConfigError, match="TRAINER_BACKEND is retired"):
            load_config(str(conf))

    @pytest.mark.parametrize("command", ["serve", "sweep"])
    def test_cli_choice_is_gone(self, command, capsys):
        from repro.cli import main

        # serve keeps --trainer-backend {none,serial}; sweep lost the flag.
        expected = {
            "serve": "invalid choice: 'process'",
            "sweep": "unrecognized arguments: --trainer-backend process",
        }[command]
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    command,
                    "--config",
                    "examples/conf_lustre.py",
                    "--trainer-backend",
                    "process",
                ]
            )
        assert exit_info.value.code == 2
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("collect", "--trainer-backend"),
            ("collect", "--sync-every"),
            ("sweep", "--sync-every"),
            ("sweep", "--trainer-backend"),
        ],
    )
    def test_its_knobs_are_gone(self, command, flag, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main([command, "--config", "examples/conf_lustre.py", flag, "8"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
