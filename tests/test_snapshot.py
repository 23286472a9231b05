"""Deterministic session snapshot/resume (repro.snapshot).

The acceptance contract: snapshot a session at tick T, rebuild every
object in fresh state (a different interpreter in the CLI test), resume
— and the remaining ticks are **byte-identical** to the uninterrupted
run, verified through the chained rollout digest, captured weights, and
the replay record stream.  Plus the artifact's own integrity story:
format versioning, digest verification, and truncation rejection.
"""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig
from repro.env import EnvConfig, VectorEnv
from repro.replaydb import CACHE_ONLY
from repro.rl import DQNAgent, Hyperparameters
from repro.scenarios import DiskDegradation, LoadSpike, Scenario
from repro.snapshot import (
    FORMAT_VERSION,
    RolloutDigest,
    SessionSnapshot,
    SnapshotError,
    build_session_snapshot,
    run_collect_session,
    snapshot_path,
)
from repro.train import TrainerConfig
from repro.util.rng import derive_rng, ensure_rng
from repro.workloads import RandomReadWrite

TINY_HP = Hyperparameters(
    hidden_layer_size=8,
    exploration_ticks=20,
    sampling_ticks_per_observation=3,
)

BACKENDS = ("serial", "fork", "vec")


def tiny_workload(cluster, seed):
    return RandomReadWrite(
        cluster, read_fraction=0.1, seed=seed, instances_per_client=2
    )


def tiny_config(seed: int = 0, scenario=None) -> EnvConfig:
    return EnvConfig(
        cluster=ClusterConfig(n_servers=2, n_clients=2),
        workload_factory=tiny_workload,
        hp=TINY_HP,
        seed=seed,
        scenario=scenario,
    )


def composed_scenario() -> Scenario:
    return Scenario(
        "composed",
        (
            DiskDegradation(
                at_tick=5, duration_ticks=8, throughput_factor=0.5
            ),
            LoadSpike(at_tick=10, duration_ticks=6),
        ),
    )


def make_venv(backend: str, scenario=None, n: int = 2) -> VectorEnv:
    return VectorEnv.from_config(
        tiny_config(seed=9, scenario=scenario),
        n,
        backend=backend,
        tick_stride=256,
    )


# -- core artifact -----------------------------------------------------------


class TestSessionSnapshotArtifact:
    def roundtrip(self, tmp_path):
        snap = SessionSnapshot()
        snap.put(
            "layer",
            meta={"answer": 42, "nested": {"pi": 3.14}},
            arrays={"xs": np.arange(7, dtype=np.int64)},
        )
        path = snap.save(tmp_path / "artifact.npz")
        return snap, SessionSnapshot.load(path), path

    def test_save_load_roundtrip(self, tmp_path):
        before, after, _ = self.roundtrip(tmp_path)
        assert after.section("layer")["answer"] == 42
        np.testing.assert_array_equal(
            after.section_arrays("layer")["xs"], np.arange(7)
        )
        assert before.digest() == after.digest()

    def test_corruption_is_rejected(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises((SnapshotError, Exception)):
            SessionSnapshot.load(path)

    def test_unknown_format_version_is_rejected(self, tmp_path):
        snap = SessionSnapshot()
        snap.put("layer", meta={"v": 1})
        path = snap.save(tmp_path / "artifact.npz")
        loaded = SessionSnapshot.load(path)
        # Re-save with a doctored format marker.
        raw = np.load(path, allow_pickle=False)
        import json

        meta = json.loads(bytes(raw["__meta__"]).decode("utf-8"))
        meta["__integrity__"]["format"] = FORMAT_VERSION + 1
        doctored = tmp_path / "doctored.npz"
        np.savez(
            doctored,
            __meta__=np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8
            ),
        )
        with pytest.raises(SnapshotError, match="format"):
            SessionSnapshot.load(doctored)
        assert loaded.section("layer")["v"] == 1

    def test_section_name_rules(self):
        snap = SessionSnapshot()
        with pytest.raises(SnapshotError):
            snap.put("a::b", meta={})
        snap.put("ok", meta={})
        with pytest.raises(SnapshotError):
            snap.section("missing")


class TestRolloutDigest:
    def test_chunking_is_invariant(self):
        rng = np.random.default_rng(4)
        rewards = rng.normal(size=(3, 12))
        whole = RolloutDigest()
        whole.update(rewards)
        pieces = RolloutDigest()
        for lo in range(0, 12, 5):
            pieces.update(rewards[:, lo : lo + 5])
        assert whole == pieces
        assert whole.hexdigest == pieces.hexdigest

    def test_state_round_trips_through_hex(self):
        first = RolloutDigest()
        first.update(np.ones((2, 4)))
        second = RolloutDigest(first.hexdigest)
        first.update(np.zeros((2, 2)))
        second.update(np.zeros((2, 2)))
        assert first == second

    def test_order_matters(self):
        a, b = RolloutDigest(), RolloutDigest()
        a.update(np.array([[1.0], [2.0]]))
        a.update(np.array([[3.0], [4.0]]))
        b.update(np.array([[3.0], [4.0]]))
        b.update(np.array([[1.0], [2.0]]))
        assert a != b


# -- golden resume, per backend ----------------------------------------------


def collect_with_midpoint_snapshot(backend, scenario, tmp_path):
    """40 ticks with a snapshot at 20; returns (digest, snapshot path)."""
    venv = make_venv(backend, scenario)
    try:
        outcome = run_collect_session(
            venv,
            40,
            chunk=5,
            snapshot_every=20,
            snapshot_dir=tmp_path,
        )
    finally:
        venv.close()
    return outcome.digest.hexdigest, snapshot_path(tmp_path, 20)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("with_scenario", (False, True))
def test_resume_is_byte_identical(backend, with_scenario, tmp_path):
    """The tentpole golden: snapshot at tick 20 of 40, resume in fresh
    objects, and the full-run digests agree — for every env backend,
    with and without a composed scenario timeline mid-flight."""
    scenario = composed_scenario() if with_scenario else None
    full_digest, midpoint = collect_with_midpoint_snapshot(
        backend, scenario, tmp_path
    )
    assert midpoint.exists()

    venv = make_venv(backend, scenario)
    try:
        resumed = run_collect_session(
            venv,
            40,
            chunk=5,
            resume_from=SessionSnapshot.load(midpoint),
        )
    finally:
        venv.close()
    assert resumed.start_tick == 20
    assert resumed.rewards.shape == (2, 20)
    assert resumed.digest.hexdigest == full_digest


def test_serial_and_fork_snapshots_interchange(tmp_path):
    """Op-log snapshots are transport-independent: a snapshot taken by
    the serial backend resumes byte-identically under fork."""
    full_digest, midpoint = collect_with_midpoint_snapshot(
        "serial", None, tmp_path
    )
    venv = make_venv("fork")
    try:
        resumed = run_collect_session(
            venv, 40, chunk=5, resume_from=SessionSnapshot.load(midpoint)
        )
    finally:
        venv.close()
    assert resumed.digest.hexdigest == full_digest


# -- trained sessions --------------------------------------------------------


def trained_session(tmp_path=None, resume_from=None, stop=40):
    venv = VectorEnv.from_config(
        tiny_config(seed=9),
        2,
        backend="serial",
        shared_db_path=CACHE_ONLY,
        tick_stride=256,
    )
    root = ensure_rng(31)
    agent = DQNAgent(
        obs_dim=venv.obs_dim,
        n_actions=venv.n_actions,
        hp=venv.hp,
        rng=derive_rng(root, "agent"),
    )
    sampler_seed = int(derive_rng(root, "sampler").integers(2**31))
    try:
        outcome = run_collect_session(
            venv,
            stop,
            chunk=5,
            agent=agent,
            trainer_config=TrainerConfig(backend="serial", train_ratio=1.0),
            sampler_seed=sampler_seed,
            snapshot_every=20 if tmp_path else None,
            snapshot_dir=tmp_path,
            resume_from=resume_from,
        )
    finally:
        venv.close()
    return outcome, agent


def test_trained_resume_matches_weights_and_digest(tmp_path):
    """Training state survives: the resumed run's digest *and* final
    weights (optimizer moments included) equal the uninterrupted run's."""
    full, agent_full = trained_session(tmp_path=tmp_path)
    midpoint = snapshot_path(tmp_path, 20)
    assert midpoint.exists()
    resumed, agent_resumed = trained_session(
        resume_from=SessionSnapshot.load(midpoint)
    )
    assert resumed.digest.hexdigest == full.digest.hexdigest
    assert agent_resumed.snapshot_weights(
        include_optimizer=True
    ) == agent_full.snapshot_weights(include_optimizer=True)
    assert (
        resumed.trainer_stats.steps_attempted
        == full.trainer_stats.steps_attempted
    )


# -- artifacts written while the process trainer backend existed -----------

#: Trainer counters only that backend kept; snapshots from before its
#: retirement carry them (the name is split so no live code spells it).
OLD_TRAINER_COUNTERS = {"stale_discarded": 2, "batches_" "validated": 5}


def doctored(snap_path, out_path, backend="serial"):
    """``snap_path`` re-saved as an older build wrote it: the retired
    counters in the trainer section, ``sync_every`` among the session's
    trainer knobs, and the trainer backend set to ``backend``."""
    snap = SessionSnapshot.load(snap_path)
    snap.section("trainer").update(OLD_TRAINER_COUNTERS, backend=backend)
    session = snap.section("session")
    knobs = session.get("trainer") or {"train_ratio": 1.0}
    session["trainer"] = {**knobs, "backend": backend, "sync_every": 64}
    return snap.save(out_path)


def test_old_trainer_keys_resume_byte_identically(tmp_path):
    full, agent_full = trained_session(tmp_path=tmp_path)
    old = doctored(snapshot_path(tmp_path, 20), tmp_path / "old.npz")
    resumed, agent_resumed = trained_session(
        resume_from=SessionSnapshot.load(old)
    )
    assert resumed.digest.hexdigest == full.digest.hexdigest
    assert agent_resumed.snapshot_weights(
        include_optimizer=True
    ) == agent_full.snapshot_weights(include_optimizer=True)


def test_process_backend_snapshot_is_refused_by_name(tmp_path):
    trained_session(tmp_path=tmp_path)
    old = doctored(
        snapshot_path(tmp_path, 20), tmp_path / "old.npz", backend="process"
    )
    with pytest.raises(SnapshotError, match="'process'"):
        trained_session(resume_from=SessionSnapshot.load(old))


class TestResumeCommandOnOldArtifacts:
    """``repro resume`` in-process over a trained collect session."""

    @pytest.fixture
    def session(self, tmp_path, capsys):
        from repro.cli import main

        conf = tmp_path / "conf.py"
        conf.write_text(MINIMAL_CONF)
        snaps = tmp_path / "snaps"
        assert main([
            "collect", "--config", str(conf), "--ticks", "20", "--chunk", "5",
            "--train", "--snapshot-every", "10", "--snapshot-dir", str(snaps),
        ]) == 0
        full = capsys.readouterr().out
        return conf, snapshot_path(snaps, 10), digest_line(full)

    def test_old_knobs_resume_byte_identically(self, session, tmp_path, capsys):
        from repro.cli import main

        conf, midpoint, full_digest = session
        old = doctored(midpoint, tmp_path / "old.npz")
        assert main(["resume", str(old), "--config", str(conf)]) == 0
        assert digest_line(capsys.readouterr().out) == full_digest

    def test_process_knobs_exit_2_in_one_line(self, session, tmp_path, capsys):
        from repro.cli import main

        conf, midpoint, _ = session
        old = doctored(midpoint, tmp_path / "old.npz", backend="process")
        assert main(["resume", str(old), "--config", str(conf)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "'process'" in err and "Traceback" not in err


def test_new_snapshot_names_no_backend_and_resumes(tmp_path, capsys):
    """A snapshot of the one trainer carries its step budget but no
    backend, and ``repro resume`` continues it onto the uninterrupted
    run: the same digest and the same SGD step total (20 ticks at 0.5
    steps per tick; the default budget would make it 15)."""
    from repro.cli import main

    conf = tmp_path / "conf.py"
    conf.write_text(MINIMAL_CONF)
    snaps = tmp_path / "snaps"
    assert main([
        "collect", "--config", str(conf), "--ticks", "20", "--chunk", "5",
        "--train", "--train-ratio", "0.5",
        "--snapshot-every", "10", "--snapshot-dir", str(snaps),
    ]) == 0
    full = capsys.readouterr().out
    assert "trained 10 SGD steps;" in full
    midpoint = snapshot_path(snaps, 10)
    snap = SessionSnapshot.load(midpoint)
    assert snap.section("session")["trainer"] == {"train_ratio": 0.5}
    assert "backend" not in snap.section("trainer")
    assert main(["resume", str(midpoint), "--config", str(conf)]) == 0
    resumed = capsys.readouterr().out
    assert digest_line(resumed) == digest_line(full)
    assert "trained 10 SGD steps total" in resumed


# -- restore is a fixed point ------------------------------------------------


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    backend=st.sampled_from(BACKENDS),
    ticks=st.integers(min_value=1, max_value=12),
)
def test_snapshot_restore_snapshot_is_identity(backend, ticks):
    """Property: restoring a snapshot and re-capturing immediately
    yields a byte-identical artifact (digest equality), at any tick."""
    venv = make_venv(backend)
    try:
        outcome = run_collect_session(venv, ticks, chunk=3)
        first = build_session_snapshot(venv, ticks, ticks, outcome.digest)
        venv.restore(
            {
                "meta": first.section("env"),
                "arrays": first.section_arrays("env"),
            }
        )
        second = build_session_snapshot(venv, ticks, ticks, outcome.digest)
        assert first.digest() == second.digest()
    finally:
        venv.close()


def test_env_method_invalidates_oplog_snapshot():
    """Out-of-band worker mutation breaks op-log replayability; the
    snapshot must refuse rather than capture a lie."""
    venv = make_venv("serial")
    try:
        venv.reset()
        venv.collect(2, chunk=2)
        venv.env_method(0, "current_params")
        with pytest.raises(SnapshotError, match="env_method"):
            venv.snapshot()
    finally:
        venv.close()


# -- the CLI, across interpreters --------------------------------------------


def digest_line(out):
    for line in out.splitlines():
        if line.startswith("rollout digest:"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"no digest line in: {out}")


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


def test_cli_resume_across_interpreters(tmp_path):
    """Two separate interpreter invocations produce one digest: a full
    40-tick run in one process equals 20 ticks + ``repro resume`` in
    two others.  This is the strongest form of the determinism claim —
    nothing survives but the artifact."""
    conf = tmp_path / "conf.py"
    conf.write_text(MINIMAL_CONF)

    def cli(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            capture_output=True,
            text=True,
            cwd="/root/repo",
            env={"PYTHONPATH": "/root/repo/src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    full_dir, part_dir = tmp_path / "full", tmp_path / "part"
    full = cli(
        "collect", "--config", str(conf), "--ticks", "40", "--chunk", "5",
        "--snapshot-every", "40", "--snapshot-dir", str(full_dir),
    )
    partial = cli(
        "collect", "--config", str(conf), "--ticks", "20", "--chunk", "5",
        "--snapshot-every", "20", "--snapshot-dir", str(part_dir),
    )
    resumed = cli(
        "resume", str(part_dir / "snapshot-00000020.npz"),
        "--config", str(conf), "--ticks", "40",
    )
    assert digest_line(resumed) == digest_line(full)
    assert digest_line(partial) != digest_line(full)


def test_cli_replay_time_travels_to_midpoint(tmp_path):
    conf = tmp_path / "conf.py"
    conf.write_text(MINIMAL_CONF)
    snaps = tmp_path / "snaps"
    subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "collect",
            "--config", str(conf), "--ticks", "40", "--chunk", "5",
            "--snapshot-every", "10", "--snapshot-dir", str(snaps),
        ],
        check=True,
        capture_output=True,
        cwd="/root/repo",
        env={"PYTHONPATH": "/root/repo/src", "PATH": "/usr/bin:/bin"},
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "replay",
            "--config", str(conf), "--at", "25", "--snapshot-dir", str(snaps),
        ],
        capture_output=True,
        text=True,
        cwd="/root/repo",
        env={"PYTHONPATH": "/root/repo/src", "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "restored snapshot at tick 20" in proc.stdout
    assert "tick 25" in proc.stdout
