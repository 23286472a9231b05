"""Tests for the conf.py loader and the command-line interface."""

import numpy as np
import pytest

from repro.cli import main, make_parser
from repro.core.config import ConfigError, load_config

MINIMAL_CONF = """
from repro.workloads import RandomReadWrite

N_SERVERS = 2
N_CLIENTS = 2
HIDDEN_LAYER_SIZE = 8
SAMPLING_TICKS_PER_OBSERVATION = 3
EXPLORATION_TICKS = 20
SEED = 7

def WORKLOAD(cluster, seed):
    return RandomReadWrite(
        cluster, read_fraction=0.1, instances_per_client=2, seed=seed)
"""


@pytest.fixture
def conf_path(tmp_path):
    p = tmp_path / "conf.py"
    p.write_text(MINIMAL_CONF)
    return str(p)


class TestLoadConfig:
    def test_builds_capes_config(self, conf_path):
        cfg = load_config(conf_path)
        assert cfg.env.cluster.n_servers == 2
        assert cfg.env.cluster.n_clients == 2
        assert cfg.env.hp.hidden_layer_size == 8
        assert cfg.env.hp.sampling_ticks_per_observation == 3
        assert cfg.seed == 7
        assert callable(cfg.env.workload_factory)

    def test_defaults_fill_missing(self, conf_path):
        cfg = load_config(conf_path)
        assert cfg.env.hp.discount_rate == 0.99  # Table 1 default
        assert cfg.train_steps_per_tick == 1
        assert cfg.loss == "mse"

    def test_missing_workload_rejected(self, tmp_path):
        p = tmp_path / "conf.py"
        p.write_text("N_SERVERS = 2\n")
        with pytest.raises(ConfigError, match="WORKLOAD"):
            load_config(p)

    def test_unknown_name_rejected(self, tmp_path):
        p = tmp_path / "conf.py"
        p.write_text(
            MINIMAL_CONF + "\nMAX_RPC_IN_FLIGHT = 4  # typo: missing S\n"
        )
        with pytest.raises(ConfigError, match="MAX_RPC_IN_FLIGHT"):
            load_config(p)

    def test_nonexistent_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/conf.py")

    def test_config_runs_end_to_end(self, conf_path):
        from repro.core.capes import CAPES

        capes = CAPES(load_config(conf_path))
        result = capes.train(8)
        assert result.n_ticks == 8


class TestCLI:
    def test_parser_subcommands(self):
        parser = make_parser()
        for cmd in (
            "train",
            "evaluate",
            "baseline",
            "collect",
            "sweep",
            "window-sweep",
        ):
            args = parser.parse_args([cmd, "--config", "x.py"])
            assert args.command == cmd

    def test_train_and_evaluate_roundtrip(self, conf_path, tmp_path, capsys):
        ckpt = str(tmp_path / "model.npz")
        rc = main(
            ["train", "--config", conf_path, "--ticks", "12", "--checkpoint", ckpt]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "final parameters" in out
        assert "model saved" in out

        rc = main(
            ["evaluate", "--config", conf_path, "--ticks", "6", "--checkpoint", ckpt]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "tuned throughput" in out

    def test_baseline_command(self, conf_path, capsys):
        rc = main(["baseline", "--config", conf_path, "--ticks", "6"])
        assert rc == 0
        assert "baseline throughput" in capsys.readouterr().out

    def test_collect_command_persists_replay_db(self, conf_path, tmp_path, capsys):
        out_db = str(tmp_path / "collected.sqlite")
        rc = main(
            [
                "collect",
                "--config",
                conf_path,
                "--ticks",
                "6",
                "--n-envs",
                "2",
                "--chunk",
                "3",
                "--out",
                out_db,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "monitored throughput" in out
        assert "durable rows" in out
        # 2 envs x (3 warm-up + 6 collection) ticks, reloadable.
        from repro.replaydb import ReplayDB

        db = ReplayDB(44, path=out_db)
        assert db.record_count() == 2 * 9
        db.close()

    def test_collect_command_cache_only(self, conf_path, capsys):
        rc = main(["collect", "--config", conf_path, "--ticks", "4"])
        assert rc == 0
        assert "not persisted" in capsys.readouterr().out

    def test_collect_rejects_bad_n_envs(self, conf_path, capsys):
        rc = main(["collect", "--config", conf_path, "--n-envs", "0"])
        assert rc == 2
        assert "--n-envs" in capsys.readouterr().err

    def test_collect_rejects_bad_ticks_and_chunk(self, conf_path, capsys):
        rc = main(["collect", "--config", conf_path, "--ticks", "0"])
        assert rc == 2
        assert "--ticks" in capsys.readouterr().err
        rc = main(
            ["collect", "--config", conf_path, "--ticks", "4", "--chunk", "0"]
        )
        assert rc == 2
        assert "--chunk" in capsys.readouterr().err

    def test_collect_refuses_to_overwrite_existing_db(
        self, conf_path, tmp_path, capsys
    ):
        """The reset fence clears the shared DB, so collecting into an
        existing store would silently destroy it; the CLI must refuse."""
        out_db = tmp_path / "already.sqlite"
        out_db.write_bytes(b"not empty")
        rc = main(
            [
                "collect",
                "--config",
                conf_path,
                "--ticks",
                "4",
                "--out",
                str(out_db),
            ]
        )
        assert rc == 2
        assert "refusing to overwrite" in capsys.readouterr().err
        assert out_db.read_bytes() == b"not empty"  # untouched

    def test_window_sweep_command(self, conf_path, capsys):
        rc = main(
            [
                "window-sweep",
                "--config",
                conf_path,
                "--ticks",
                "5",
                "--settle",
                "2",
                "--window",
                "4,8",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "best window" in out

    def test_sweep_command(self, conf_path, tmp_path, capsys):
        art = str(tmp_path / "artifacts")
        rc = main(
            [
                "sweep",
                "--config",
                conf_path,
                "--tuners",
                "capes,static",
                "--seeds",
                "0-1",
                "--train-ticks",
                "6",
                "--eval-ticks",
                "4",
                "--epoch-ticks",
                "3",
                "--artifacts",
                art,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "capes" in out and "static" in out
        assert (tmp_path / "artifacts" / "runs.jsonl").exists()

    def test_sweep_with_scenario_and_vector_envs(self, conf_path, capsys):
        """Acceptance: `repro sweep --scenario NAME --n-envs 4` runs
        end-to-end with the perturbation timeline actually firing
        inside the (compressed) training window."""
        rc = main(
            [
                "sweep",
                "--config",
                conf_path,
                "--tuners",
                "capes",
                "--seeds",
                "0",
                "--scenario",
                "sim-lustre-bursty",
                "--scenario-kwargs",
                '{"first_tick": 4, "period": 5, "n_bursts": 2,'
                ' "duration": 2}',
                "--n-envs",
                "4",
                "--train-ticks",
                "6",
                "--eval-ticks",
                "4",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "perturbation timeline attached" in out
        assert "sim-lustre-bursty" in out

    def test_sweep_rejects_bad_scenario_kwargs(self, conf_path, capsys):
        rc = main(
            [
                "sweep",
                "--config",
                conf_path,
                "--scenario-kwargs",
                "{not json",
            ]
        )
        assert rc == 2
        assert "bad --scenario-kwargs" in capsys.readouterr().err

    def test_sweep_rejects_non_object_scenario_kwargs(self, conf_path, capsys):
        rc = main(
            ["sweep", "--config", conf_path, "--scenario-kwargs", "[1, 2]"]
        )
        assert rc == 2
        assert "expected a JSON object" in capsys.readouterr().err

    def test_sweep_rejects_scenario_kwarg_typo_eagerly(self, conf_path, capsys):
        rc = main(
            [
                "sweep",
                "--config",
                conf_path,
                "--scenario",
                "sim-lustre-bursty",
                "--scenario-kwargs",
                '{"frist_tick": 4}',
            ]
        )
        assert rc == 2
        assert "bad --scenario-kwargs" in capsys.readouterr().err

    def test_sweep_rejects_invalid_scenario_kwarg_values(self, conf_path, capsys):
        rc = main(
            [
                "sweep",
                "--config",
                conf_path,
                "--scenario",
                "sim-lustre-degraded",
                "--scenario-kwargs",
                '{"start_tick": 0}',
            ]
        )
        assert rc == 2
        assert "bad --scenario-kwargs" in capsys.readouterr().err

    def test_sweep_scenario_named_env_takes_kwargs(self, conf_path, capsys):
        """Naming the timeline via --env alone still accepts
        --scenario-kwargs (spec.build_env reroutes it)."""
        rc = main(
            [
                "sweep",
                "--config",
                conf_path,
                "--tuners",
                "capes",
                "--seeds",
                "0",
                "--env",
                "sim-lustre-degraded",
                "--scenario-kwargs",
                '{"start_tick": 4}',
                "--train-ticks",
                "6",
                "--eval-ticks",
                "4",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "'sim-lustre-degraded': perturbation timeline" in out

    def test_sweep_rejects_scenario_env_mismatch(self, conf_path, capsys):
        rc = main(
            [
                "sweep",
                "--config",
                conf_path,
                "--scenario",
                "sim-lustre-bursty",
                "--env",
                "sim-lustre-degraded",
            ]
        )
        assert rc == 2
        assert "cannot combine" in capsys.readouterr().err

    def test_sweep_rejects_kwargs_on_label_scenario(self, conf_path, capsys):
        rc = main(
            [
                "sweep",
                "--config",
                conf_path,
                "--scenario",
                "just-a-label",
                "--scenario-kwargs",
                '{"start_tick": 4}',
            ]
        )
        assert rc == 2
        assert "registered scenario" in capsys.readouterr().err

    def test_sweep_rejects_unknown_tuner(self, conf_path, capsys):
        rc = main(["sweep", "--config", conf_path, "--tuners", "nope"])
        assert rc == 2
        assert "unknown tuners" in capsys.readouterr().err

    def test_sweep_rejects_bad_seed_range(self, conf_path, capsys):
        rc = main(["sweep", "--config", conf_path, "--seeds", "9-5"])
        assert rc == 2
        assert "bad --seeds" in capsys.readouterr().err

    def test_parse_seeds(self):
        from repro.cli import _parse_seeds

        assert _parse_seeds("42") == [42]
        assert _parse_seeds("0-4") == [0, 1, 2, 3, 4]
        assert _parse_seeds("0-2,7") == [0, 1, 2, 7]
        with pytest.raises(ValueError):
            _parse_seeds("9-5")
        with pytest.raises(ValueError):
            _parse_seeds(",")


class TestInputErrors:
    """Bad input ends in one stderr line and exit 2, before any work."""

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("collect", ["--ticks", "5", "--train"]),
            ("sweep", ["--tuners", "capes"]),
            ("serve", []),
        ],
    )
    def test_negative_train_ratio(self, conf_path, capsys, command, extra):
        rc = main(
            [command, "--config", conf_path, *extra, "--train-ratio", "-1"]
        )
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "train_ratio must be >= 0, got -1.0" in err

    @pytest.mark.parametrize(
        "flag, name",
        [
            ("--train-ticks", "train_ticks"),
            ("--eval-ticks", "eval_ticks"),
            ("--epoch-ticks", "epoch_ticks"),
        ],
    )
    def test_sweep_rejects_an_empty_budget(self, conf_path, capsys, flag, name):
        rc = main(["sweep", "--config", conf_path, flag, "0"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert name in err

    @pytest.mark.parametrize(
        "command",
        ["train", "evaluate", "baseline", "collect", "sweep", "serve",
         "window-sweep"],
    )
    def test_missing_conf_is_one_line(self, command, capsys):
        rc = main([command, "--config", "/nonexistent/conf.py"])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"repro {command}: configuration file /nonexistent/conf.py "
            f"does not exist"
        ]
