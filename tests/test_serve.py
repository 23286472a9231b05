"""Behavioural contract of the control-plane daemon (repro.serve).

Everything here runs the real asyncio server on the test's own event
loop (no threads, no subprocesses — see test_serve_shutdown.py for the
signal-driven lifecycle), talking to it over real TCP sockets:

- the acceptance golden: the daemon's greedy decisions are identical
  to an inline agent fed the same frames through the same float32 wire
  rounding (same seed + frames ⇒ same actions);
- kill-and-reconnect: a client whose connection dies and whose encoder
  went stale gets a full-frame RESYNC and the current-epoch checkpoint,
  then keeps receiving decisions;
- fault isolation: malformed wire bytes, mid-frame disconnects,
  read-timeout stalls and a peer that stops *reading* each cost only
  the offending client; a client-side read timeout drops the connection;
- event-loop invariants as counts: frames of one loop iteration share
  one ``act_batch``; no task or timer per message;
- the ``/stats`` endpoint and the in-process event feed;
- eager CLI flag validation (stderr + exit 2, nothing bound).
"""

import asyncio
import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.rl import Hyperparameters
from repro.serve import (
    CapesServer,
    ServeClient,
    ServeClientError,
    ServeConfig,
    build_serve_agent,
)
from repro.serve import protocol
from repro.telemetry.wire import DifferentialEncoder

W = 6  # frame width
OBS = 3  # observation window ticks
ACTIONS = 4

HP = Hyperparameters(
    hidden_layer_size=8,
    exploration_ticks=20,
    sampling_ticks_per_observation=OBS,
)


def make_config(**overrides) -> ServeConfig:
    base = dict(
        frame_width=W,
        n_actions=ACTIONS,
        port=0,
        tick_stride=64,
        trainer_backend="none",
        greedy=True,
        seed=23,
        hp=HP,
    )
    base.update(overrides)
    return ServeConfig(**base)


def client_frames(seed: int, n: int) -> np.ndarray:
    """A deterministic, sparsely changing PI-frame walk."""
    rng = np.random.default_rng(seed)
    frames = np.empty((n, W))
    frames[0] = rng.normal(size=W)
    for i in range(1, n):
        frames[i] = frames[i - 1]
        # one or two indicators move per tick, like real PIs
        for idx in rng.integers(0, W, size=rng.integers(1, 3)):
            frames[i, idx] += rng.normal()
    return frames


async def wait_for_disconnect(server: CapesServer, name: str) -> None:
    """Let the server's handler observe a dropped connection."""
    for _ in range(200):
        cluster = server._clusters.get(name)
        if cluster is None or cluster.writer is None:
            return
        await asyncio.sleep(0.01)
    raise AssertionError(f"server never noticed {name!r} disconnecting")


def run(coro):
    return asyncio.run(coro)


# -- golden equivalence ------------------------------------------------------


class InlineReference:
    """The same decision pipeline, run in-process: float32 wire
    rounding, oldest-first window stacking, greedy act."""

    def __init__(self, agent):
        self.agent = agent
        self.windows = {}

    def tick(self, name, frame):
        window = self.windows.setdefault(name, [])
        # The wire carries float32: the server acts on rounded values.
        window.append(frame.astype(np.float32).astype(np.float64))
        if len(window) > OBS:
            window.pop(0)
        if len(window) < OBS:
            return None
        obs = np.concatenate(window)
        return int(self.agent.act(obs, greedy=True))


def test_server_decisions_match_inline_reference():
    config = make_config()
    n_ticks, names = 12, ["alpha", "beta"]
    frames = {name: client_frames(i, n_ticks) for i, name in enumerate(names)}

    async def body():
        server = CapesServer(config)
        await server.start()
        decisions = {name: {} for name in names}
        try:
            clients = {
                name: ServeClient("127.0.0.1", server.port, name, W)
                for name in names
            }
            for client in clients.values():
                await client.connect()
            for t in range(n_ticks):
                # interleave the two clients tick by tick
                for name in names:
                    tick, action, decided = await clients[name].tick(
                        t + 1, frames[name][t], reward=0.5
                    )
                    if decided:
                        decisions[name][tick] = action
            for client in clients.values():
                await client.close()
        finally:
            await server.shutdown()
        return decisions

    got = run(body())
    reference = InlineReference(
        build_serve_agent(config.seed, OBS * W, ACTIONS, hp=HP)
    )
    for name in names:
        expected = {}
        for t in range(n_ticks):
            action = reference.tick(name, frames[name][t])
            if action is not None:
                expected[t + 1] = action
        assert got[name] == expected, f"decision mismatch for {name}"
        # The window warms after OBS ticks, then every tick decides.
        assert len(expected) == n_ticks - OBS + 1


# -- kill and reconnect ------------------------------------------------------


def test_reconnect_gets_resync_and_current_epoch_checkpoint():
    # A live serial trainer so the weight version moves while the
    # client is away: sync_every=2 broadcasts every other SGD step.
    config = make_config(
        trainer_backend="serial", train_ratio=1.0, sync_every=2
    )
    frames = client_frames(7, 20)

    async def body():
        server = CapesServer(config)
        await server.start()
        try:
            client = ServeClient("127.0.0.1", server.port, "gamma", W)
            await client.connect()
            for t in range(8):
                await client.tick(t + 1, frames[t], reward=0.1)
            stale_encoder = client.encoder
            # The kill: vanish without BYE, mid-conversation.
            client.writer.close()
            await wait_for_disconnect(server, "gamma")
            assert server.stats.evictions == 1

            await client.connect()
            # Reconnect handshake must carry the *current* weights.
            assert (client.weight_epoch, client.weight_version) == (
                server._weight_epoch,
                server._weight_version,
            )
            assert client.weight_version >= 1  # training moved while up
            # Simulate the stale-encoder failure mode: the client kept
            # differential state the server no longer has.
            client.encoder = stale_encoder
            tick, action, decided = await client.tick(
                9, frames[8], reward=0.1
            )
            assert client.resyncs == 1  # RESYNC round-trip happened
            assert server.stats.resyncs == 1
            assert decided and tick == 9
            # And the stream continues differentially afterwards.
            tick, action, decided = await client.tick(
                10, frames[9], reward=0.1
            )
            assert decided and tick == 10 and client.resyncs == 1
            await client.close()
        finally:
            await server.shutdown()

    run(body())


# -- fault isolation ---------------------------------------------------------


async def raw_handshake(port, name="rawhide"):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        protocol.pack_json(
            protocol.HELLO,
            {"name": name, "frame_width": W, "proto": protocol.PROTO_VERSION},
        )
    )
    await writer.drain()
    await protocol.read_message(reader)  # WELCOME
    await protocol.read_message(reader)  # CHECKPOINT
    return reader, writer


async def healthy_exchange(client, tick, frame):
    got_tick, _, _ = await client.tick(tick, frame, reward=0.0)
    assert got_tick == tick


def test_malformed_wire_message_costs_only_the_sender():
    config = make_config()
    frames = client_frames(11, 10)

    async def body():
        server = CapesServer(config)
        await server.start()
        try:
            healthy = ServeClient("127.0.0.1", server.port, "steady", W)
            await healthy.connect()
            await healthy_exchange(healthy, 1, frames[0])

            reader, writer = await raw_handshake(server.port)
            writer.write(protocol.pack_frame(1, 0.0, b"this is not zlib"))
            await writer.drain()
            msg_type, payload = await protocol.read_message(reader)
            assert msg_type == protocol.ERROR
            assert "malformed" in protocol.unpack_json(payload)["error"]
            await wait_for_disconnect(server, "rawhide")
            assert server.stats.protocol_errors == 1
            writer.close()

            # The healthy client's decoder state is untouched: its next
            # (differential) frame still decodes and decides.
            for t in range(2, 6):
                await healthy_exchange(healthy, t, frames[t - 1])
            assert healthy.decisions >= 1
            await healthy.close()
        finally:
            await server.shutdown()

    run(body())


def test_mid_frame_disconnect_survived():
    config = make_config()
    frames = client_frames(12, 8)

    async def body():
        server = CapesServer(config)
        await server.start()
        try:
            healthy = ServeClient("127.0.0.1", server.port, "steady", W)
            await healthy.connect()
            _, writer = await raw_handshake(server.port, "flake")
            # Half a message prefix, then gone.
            writer.write(b"\x03\xff\xff")
            writer.close()
            await wait_for_disconnect(server, "flake")
            assert server.stats.disconnects >= 1
            for t in range(1, 6):
                await healthy_exchange(healthy, t, frames[t - 1])
            await healthy.close()
        finally:
            await server.shutdown()

    run(body())


def test_stalled_client_times_out_without_collateral():
    config = make_config(read_timeout=0.25)
    frames = client_frames(13, 30)

    async def body():
        server = CapesServer(config)
        await server.start()
        try:
            healthy = ServeClient("127.0.0.1", server.port, "steady", W)
            await healthy.connect()
            staller = ServeClient("127.0.0.1", server.port, "stall", W)
            await staller.connect()
            # The stall: connected, silent. Keep the healthy client
            # chatting through the window to prove no collateral.
            deadline = asyncio.get_running_loop().time() + 0.6
            t = 0
            while asyncio.get_running_loop().time() < deadline:
                t += 1
                await healthy_exchange(healthy, t, frames[min(t, 29)])
                await asyncio.sleep(0.02)
            await wait_for_disconnect(server, "stall")
            assert server.stats.timeouts == 1
            await healthy_exchange(healthy, t + 1, frames[min(t + 1, 29)])
            await healthy.close()
            await staller.close()
        finally:
            await server.shutdown()

    run(body())


def test_non_monotonic_tick_rejected():
    config = make_config()
    frames = client_frames(14, 4)

    async def body():
        server = CapesServer(config)
        await server.start()
        try:
            client = ServeClient("127.0.0.1", server.port, "rewind", W)
            await client.connect()
            await client.tick(5, frames[0])
            with pytest.raises(ServeClientError, match="non-monotonic"):
                await client.tick(3, frames[1])
            await client.close()
        finally:
            await server.shutdown()

    run(body())


def test_server_full_and_duplicate_name_rejected():
    config = make_config(max_clients=1)

    async def body():
        server = CapesServer(config)
        await server.start()
        try:
            first = ServeClient("127.0.0.1", server.port, "only", W)
            await first.connect()
            dupe = ServeClient("127.0.0.1", server.port, "only", W)
            with pytest.raises(ServeClientError, match="already connected"):
                await dupe.connect()
            extra = ServeClient("127.0.0.1", server.port, "more", W)
            with pytest.raises(ServeClientError, match="server full"):
                await extra.connect()
            await first.close()
        finally:
            await server.shutdown()

    run(body())


def assert_nothing_left_open(client: ServeClient) -> None:
    """What a failed ``connect()`` must leave behind: nothing."""
    assert client.connected is False
    assert client.writer is None and client.reader is None
    assert client.encoder is None


def test_over_capacity_rejection_closes_the_connection():
    config = make_config(max_clients=1)
    frames = client_frames(7, OBS)

    async def body():
        server = CapesServer(config)
        await server.start()
        port = server.port
        extra = ServeClient("127.0.0.1", port, "more", W)
        try:
            first = ServeClient("127.0.0.1", port, "only", W)
            await first.connect()
            with pytest.raises(ServeClientError, match="server full"):
                await extra.connect()
            assert_nothing_left_open(extra)
            await asyncio.sleep(0.05)  # and stays so once the loop has run
            assert_nothing_left_open(extra)
            await extra.close()  # a no-op, not an error
            await first.close()
        finally:
            await server.shutdown()
        # Slots are per name for a daemon's lifetime: a restarted daemon
        # is how one comes free.  The same object then connects and works.
        server = CapesServer(make_config(max_clients=1, port=port))
        await server.start()
        try:
            await extra.connect()
            assert extra.connected
            for t in range(OBS):
                _tick, _action, decided = await extra.tick(t + 1, frames[t])
            assert decided
            await extra.close()
        finally:
            await server.shutdown()

    run(body())


def test_wrong_width_rejection_closes_the_connection():
    config = make_config()

    async def body():
        server = CapesServer(config)
        await server.start()
        try:
            client = ServeClient("127.0.0.1", server.port, "wide", W + 1)
            with pytest.raises(ServeClientError, match="frame_width"):
                await client.connect()
            assert_nothing_left_open(client)
            await asyncio.sleep(0.05)
            assert_nothing_left_open(client)
            # The server holds no slot for a rejected HELLO either: the
            # same object, width corrected, connects under the same name.
            client.frame_width = W
            welcome = await client.connect()
            assert welcome["frame_width"] == W and client.connected
            assert client.encoder is not None
            await client.close()
        finally:
            await server.shutdown()

    run(body())


# -- observability -----------------------------------------------------------


def test_stats_endpoint_serves_live_counters():
    config = make_config(stats_port=0, trainer_backend="serial")
    frames = client_frames(15, 8)

    async def body():
        server = CapesServer(config)
        await server.start()
        try:
            client = ServeClient("127.0.0.1", server.port, "watched", W)
            await client.connect()
            for t in range(6):
                await client.tick(t + 1, frames[t], reward=0.3)
            url = f"http://127.0.0.1:{server.stats_port}/stats"
            body_bytes = await asyncio.to_thread(
                lambda: urllib.request.urlopen(url, timeout=5).read()
            )
            snap = json.loads(body_bytes)
            assert snap["frames_total"] == 6
            assert snap["decisions_total"] == 6 - OBS + 1
            row = snap["clusters"]["watched"]
            assert row["connected"] and row["last_tick"] == 6
            assert row["wire"]["messages"] == 6
            assert row["wire"]["compressed_bytes"] > 0
            assert set(snap["trainer"]) == {
                "steps_attempted", "losses", "last_loss"
            }
            assert snap["weight_epoch"] == server._weight_epoch
            # and unknown paths 404 without killing the endpoint
            with pytest.raises(urllib.error.HTTPError):
                await asyncio.to_thread(
                    lambda: urllib.request.urlopen(
                        f"http://127.0.0.1:{server.stats_port}/nope",
                        timeout=5,
                    )
                )
            await client.close()
        finally:
            await server.shutdown()

    run(body())


def test_event_feed_publishes_lifecycle():
    config = make_config()
    frames = client_frames(16, 6)

    async def body():
        server = CapesServer(config)
        await server.start()
        queue = server.events.subscribe()
        try:
            client = ServeClient("127.0.0.1", server.port, "feedme", W)
            await client.connect()
            for t in range(4):
                await client.tick(t + 1, frames[t])
            await client.close()
            await wait_for_disconnect(server, "feedme")
        finally:
            await server.shutdown()
        events = []
        while not queue.empty():
            events.append(queue.get_nowait())
        return events

    events = run(body())
    kinds = [e["event"] for e in events]
    assert kinds[0] == "connect"
    assert "decision" in kinds
    assert "disconnect" in kinds
    assert kinds[-1] == "shutdown"
    decision = next(e for e in events if e["event"] == "decision")
    assert decision["cluster"] == "feedme"
    assert decision["latency_ms"] >= 0


# -- config validation -------------------------------------------------------


class TestServeConfigValidation:
    def test_bad_ports(self):
        with pytest.raises(ValueError, match="port"):
            make_config(port=65536)
        with pytest.raises(ValueError, match="stats_port"):
            make_config(stats_port=-1)

    def test_stride_must_exceed_window(self):
        with pytest.raises(ValueError, match="tick_stride"):
            make_config(tick_stride=OBS)

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            make_config(trainer_backend="inline")

    def test_trainer_knob_rules_reused(self):
        with pytest.raises(ValueError, match="train_ratio"):
            make_config(trainer_backend="serial", train_ratio=-0.5)
        with pytest.raises(ValueError, match="sync_every"):
            make_config(trainer_backend="serial", sync_every=0)

    def test_retired_process_backend(self):
        with pytest.raises(ValueError, match=r"\('none', 'serial'\)"):
            make_config(trainer_backend="process")

    def test_timeout_and_clients(self):
        with pytest.raises(ValueError, match="read_timeout"):
            make_config(read_timeout=0)
        with pytest.raises(ValueError, match="max_clients"):
            make_config(max_clients=0)


MINIMAL_CONF = """
from repro.workloads import RandomReadWrite

N_SERVERS = 1
N_CLIENTS = 1
HIDDEN_LAYER_SIZE = 8
SAMPLING_TICKS_PER_OBSERVATION = 3
EXPLORATION_TICKS = 20
SEED = 7

def WORKLOAD(cluster, seed):
    return RandomReadWrite(
        cluster, read_fraction=0.1, instances_per_client=2, seed=seed)
"""


class TestServeCLIValidation:
    """``repro serve`` rejects bad flags before binding anything."""

    @pytest.fixture
    def conf_path(self, tmp_path):
        p = tmp_path / "conf.py"
        p.write_text(MINIMAL_CONF)
        return str(p)

    def run_cli(self, *argv):
        from repro.cli import main

        return main(["serve", *argv])

    def test_port_out_of_range(self, capsys):
        # validated before the conf is even loaded
        assert self.run_cli("--config", "/nonexistent", "--port", "99999") == 2
        assert "--port" in capsys.readouterr().err

    def test_stats_port_out_of_range(self, capsys):
        assert (
            self.run_cli(
                "--config", "/nonexistent", "--stats-port", "-2"
            )
            == 2
        )
        assert "--stats-port" in capsys.readouterr().err

    def test_max_clients(self, capsys):
        assert (
            self.run_cli("--config", "/nonexistent", "--max-clients", "0")
            == 2
        )
        assert "--max-clients" in capsys.readouterr().err

    def test_read_timeout(self, capsys):
        assert (
            self.run_cli("--config", "/nonexistent", "--read-timeout", "0")
            == 2
        )
        assert "--read-timeout" in capsys.readouterr().err

    def test_refuses_existing_out(self, tmp_path, capsys):
        existing = tmp_path / "replay.sqlite"
        existing.write_text("precious")
        assert (
            self.run_cli(
                "--config", "/nonexistent", "--out", str(existing)
            )
            == 2
        )
        assert "refusing to overwrite" in capsys.readouterr().err
        assert existing.read_text() == "precious"

    def test_trainer_knobs_need_backend(self, conf_path, capsys):
        assert (
            self.run_cli(
                "--config", conf_path,
                "--trainer-backend", "none",
                "--train-ratio", "2",
            )
            == 2
        )
        assert "--train-ratio" in capsys.readouterr().err

    def test_negative_train_ratio(self, conf_path, capsys):
        assert (
            self.run_cli("--config", conf_path, "--train-ratio", "-1")
            == 2
        )
        assert "train_ratio" in capsys.readouterr().err

    def test_stride_smaller_than_window(self, conf_path, capsys):
        assert (
            self.run_cli("--config", conf_path, "--tick-stride", "2")
            == 2
        )
        assert "tick_stride" in capsys.readouterr().err

    def test_snapshot_every_needs_dir(self, conf_path, capsys):
        assert (
            self.run_cli("--config", conf_path, "--snapshot-every-s", "5")
            == 2
        )
        assert "--snapshot-dir" in capsys.readouterr().err

    def test_resume_without_path_needs_dir(self, conf_path, capsys):
        assert self.run_cli("--config", conf_path, "--resume") == 2
        assert "--snapshot-dir" in capsys.readouterr().err

    def test_resume_missing_snapshot(self, conf_path, tmp_path, capsys):
        assert (
            self.run_cli(
                "--config", conf_path,
                "--snapshot-dir", str(tmp_path),
                "--resume",
            )
            == 2
        )
        assert "no such snapshot" in capsys.readouterr().err


# -- crash recovery ----------------------------------------------------------


def test_shutdown_writes_snapshot_and_resume_restores_state(tmp_path):
    """The serve tentpole golden: kill the daemon, resume a fresh one.

    The dying daemon's final artifact carries the agent (byte-identical
    weights + optimizer), the replay rows, the weight fence and the
    cluster registry; the resumed daemon serves the same cluster from
    ``last_tick + 1`` with cumulative accounting.
    """
    from repro.serve import SERVE_SNAPSHOT_NAME
    from repro.snapshot import SessionSnapshot

    config = make_config(
        trainer_backend="serial",
        train_ratio=1.0,
        sync_every=2,
        greedy=False,
        snapshot_dir=str(tmp_path),
        snapshot_every_s=300.0,
    )
    frames = client_frames(31, 20)
    artifact = tmp_path / SERVE_SNAPSHOT_NAME

    async def first_life():
        server = CapesServer(config)
        await server.start()
        try:
            client = ServeClient("127.0.0.1", server.port, "alpha", W)
            await client.connect()
            for t in range(12):
                await client.tick(t + 1, frames[t], reward=0.5)
            await client.close()
        finally:
            await server.shutdown()
        return server

    server1 = run(first_life())
    assert artifact.exists(), "shutdown did not write the final snapshot"
    snap = SessionSnapshot.load(artifact)
    serve_meta = snap.section("serve")
    assert serve_meta["counters"]["frames_total"] == 12
    assert serve_meta["weight_version"] >= 1  # training moved in life 1
    assert [c["name"] for c in serve_meta["clusters"]] == ["alpha"]

    server2 = CapesServer(make_config(**{**config.__dict__}))
    server2.restore_state(snap)
    # The replay store and the acting weights survive byte-identically.
    assert len(server2.db) == 12
    assert server2.agent.snapshot_weights(
        include_optimizer=True
    ) == server1.agent.snapshot_weights(include_optimizer=True)
    assert server2.stats_snapshot()["weight_epoch"] == serve_meta[
        "weight_epoch"
    ]

    async def second_life():
        await server2.start()
        try:
            client = ServeClient("127.0.0.1", server2.port, "alpha", W)
            await client.connect()
            # The monotonic fence carried over: replaying an old tick is
            # a protocol error, exactly as on a live reconnect.
            with pytest.raises(ServeClientError):
                await client.tick(1, frames[0], reward=0.5)
            await client.close()

            client = ServeClient("127.0.0.1", server2.port, "alpha", W)
            await client.connect()
            decided = 0
            for t in range(12, 18):
                _, _, ok = await client.tick(t + 1, frames[t], reward=0.5)
                decided += bool(ok)
            # The restored ring was warm, so every new tick decides.
            assert decided == 6
            await client.close()
        finally:
            await server2.shutdown()

    run(second_life())
    row = server2.stats.clusters["alpha"]
    assert row.frames == 18, "per-cluster accounting must be cumulative"
    assert row.connects >= 2
    assert server2.stats.frames_total == 18
    # Training resumed on top of the restored cadence.
    assert (
        server2.stats.trainer["steps_attempted"]
        > snap.section("trainer")["steps_attempted"]
    )


class TestRestoreOldArtifacts:
    """Serve snapshots written while the process trainer backend existed."""

    #: Trainer counters only that backend kept (split so no live code
    #: spells the retired name).
    OLD_TRAINER_COUNTERS = {"stale_discarded": 1, "batches_" "validated": 9}

    CONFIG = dict(
        trainer_backend="serial", train_ratio=1.0, sync_every=2, greedy=False
    )

    @pytest.fixture
    def artifact(self, tmp_path):
        from repro.serve import SERVE_SNAPSHOT_NAME

        frames = client_frames(31, 12)

        async def life():
            server = CapesServer(
                make_config(snapshot_dir=str(tmp_path), **self.CONFIG)
            )
            await server.start()
            try:
                client = ServeClient("127.0.0.1", server.port, "alpha", W)
                await client.connect()
                for t in range(12):
                    await client.tick(t + 1, frames[t], reward=0.5)
                await client.close()
            finally:
                await server.shutdown()

        run(life())
        return tmp_path / SERVE_SNAPSHOT_NAME

    def resumed(self, snap):
        """Restore ``snap``, serve six more ticks; the final weights."""
        from repro.snapshot import SessionSnapshot

        server = CapesServer(make_config(**self.CONFIG))
        server.restore_state(SessionSnapshot.load(snap))
        frames = client_frames(32, 6)

        async def life():
            await server.start()
            try:
                client = ServeClient("127.0.0.1", server.port, "alpha", W)
                await client.connect()
                for t in range(6):
                    await client.tick(13 + t, frames[t], reward=0.5)
                await client.close()
            finally:
                await server.shutdown()

        run(life())
        return server.agent.snapshot_weights(include_optimizer=True)

    def old(self, artifact, backend="serial"):
        from repro.snapshot import SessionSnapshot

        snap = SessionSnapshot.load(artifact)
        snap.section("trainer").update(self.OLD_TRAINER_COUNTERS, backend=backend)
        snap.section("serve")["trainer_backend"] = backend
        return snap.save(artifact.with_name("old.npz"))

    def test_old_trainer_counters_resume_byte_identically(self, artifact):
        assert self.resumed(self.old(artifact)) == self.resumed(artifact)

    def test_process_backend_refused_by_name(self, artifact):
        from repro.snapshot import SessionSnapshot, SnapshotError

        server = CapesServer(make_config(**self.CONFIG))
        with pytest.raises(SnapshotError, match="'process'"):
            server.restore_state(
                SessionSnapshot.load(self.old(artifact, backend="process"))
            )


def test_periodic_snapshot_task_rewrites_artifact(tmp_path):
    """The snapshot loop writes while the daemon is up, not only at exit."""
    from repro.serve import SERVE_SNAPSHOT_NAME

    config = make_config(
        snapshot_dir=str(tmp_path), snapshot_every_s=0.05
    )
    artifact = tmp_path / SERVE_SNAPSHOT_NAME

    async def body():
        server = CapesServer(config)
        await server.start()
        try:
            client = ServeClient("127.0.0.1", server.port, "alpha", W)
            await client.connect()
            frames = client_frames(5, 4)
            for t in range(4):
                await client.tick(t + 1, frames[t], reward=0.0)
            for _ in range(100):
                if artifact.exists():
                    break
                await asyncio.sleep(0.02)
            assert artifact.exists(), "periodic snapshot never appeared"
            await client.close()
        finally:
            await server.shutdown()

    run(body())


def test_restore_state_rejects_mismatched_geometry():
    from repro.snapshot import SnapshotError

    snap = CapesServer(make_config()).snapshot_state()
    other = CapesServer(make_config(tick_stride=128))
    with pytest.raises(SnapshotError, match="tick_stride"):
        other.restore_state(snap)
    frozen = CapesServer(
        make_config(trainer_backend="serial", train_ratio=1.0)
    )
    with pytest.raises(SnapshotError, match="backend"):
        frozen.restore_state(snap)
    started = CapesServer(make_config())

    async def started_rejects():
        await started.start()
        try:
            with pytest.raises(SnapshotError, match="before start"):
                started.restore_state(snap)
        finally:
            await started.shutdown()

    run(started_rejects())


# -- broadcast backpressure and trainer-stats accounting ---------------------


def test_broadcast_skipped_for_stalled_reader():
    """A reader that stops draining its socket must not accumulate
    checkpoint blobs in its transport buffer: the broadcast is skipped
    and counted, and healthy clients still receive the weights."""
    config = make_config(
        trainer_backend="serial",
        train_ratio=1.0,
        sync_every=2,
        greedy=False,
        broadcast_high_water=64 * 1024,
    )
    frames = client_frames(13, 20)

    async def body():
        server = CapesServer(config)
        await server.start()
        try:
            stalled_reader, stalled_writer = await raw_handshake(
                server.port, "stalled"
            )
            # Simulate the stall: the peer never reads, and the server
            # has megabytes queued for it already.
            server._clusters["stalled"].writer.write(
                b"\0" * (16 * 1024 * 1024)
            )
            healthy = ServeClient("127.0.0.1", server.port, "healthy", W)
            await healthy.connect()
            for t in range(12):
                await healthy.tick(t + 1, frames[t], reward=0.5)
            assert server.stats.broadcasts_skipped >= 1
            assert server.stats.checkpoints_broadcast >= 1
            assert healthy.checkpoints_applied >= 2  # handshake + bump
            await healthy.close()
            stalled_writer.close()
        finally:
            await server.shutdown()

    run(body())


def test_serial_trainer_stats_reach_stats_snapshot():
    """Regression: the serial trainer's broadcasts once left the
    version and broadcast counters at zero in ``/stats``; the broadcast
    itself is the version bump and must be counted, at the top level.

    Run once with one client and once with three concurrent ones: on a
    clean run every client is decided for, nobody needs RESYNC, and the
    server counts exactly the frames the clients sent."""
    config = make_config(
        trainer_backend="serial",
        train_ratio=1.0,
        sync_every=2,
        greedy=False,
    )
    n_ticks = 12

    async def stream(client, frames):
        await client.connect()
        for t in range(n_ticks):
            await client.tick(t + 1, frames[t], reward=0.5)

    async def body(names):
        server = CapesServer(config)
        await server.start()
        try:
            clients = [
                ServeClient("127.0.0.1", server.port, name, W)
                for name in names
            ]
            await asyncio.gather(
                *(
                    stream(client, client_frames(17 + i, n_ticks))
                    for i, client in enumerate(clients)
                )
            )
            body = server.stats_snapshot()
            trainer = body["trainer"]
            assert trainer is not None
            assert body["weight_version"] >= 1
            assert body["weight_version"] == (
                trainer["steps_attempted"] // config.sync_every
            )
            assert 1 <= body["checkpoints_broadcast"] <= body["weight_version"]
            if len(names) == 1:
                # One frame per micro-batch: the version moves one step
                # at a time, so every bump is its own broadcast.  With
                # several clients one batch can skip versions.
                assert body["checkpoints_broadcast"] == body["weight_version"]
            assert body["wire"]["messages"] == n_ticks * len(names)
            for client in clients:
                assert client.decisions >= 1
                assert client.resyncs == 0
                await client.close()
        finally:
            await server.shutdown()

    for names in (["alpha"], ["alpha", "beta", "gamma"]):
        run(body(names))


# -- liveness: one peer's socket never stalls anybody else -------------------


def test_reader_that_stops_reading_costs_only_itself():
    """A peer that stops *reading* must freeze nobody but itself.

    The failure this injects: the daemon holds more bytes for a client
    than asyncio's 64 KiB high-water mark (what one CHECKPOINT broadcast
    does), the client sends one more frame and never reads again.
    Nothing shared may wait on that socket — healthy clusters keep their
    decisions — and ``read_timeout`` must still reach the stalled
    connection, which is waiting to *write*, not to read.
    """
    config = make_config(read_timeout=0.5)
    stalled_frames = client_frames(41, OBS + 2)
    frames = client_frames(42, 13)

    async def body():
        loop = asyncio.get_running_loop()
        server = CapesServer(config)
        await server.start()
        try:
            reader, writer = await raw_handshake(server.port, "stalled")
            encoder = DifferentialEncoder(W)

            async def send(t):
                wire = encoder.encode(t, stalled_frames[t - 1])
                writer.write(protocol.pack_frame(t, 0.0, wire))
                await writer.drain()

            for t in range(1, OBS + 2):
                await send(t)
                msg_type, _ = await protocol.read_message(reader)
                assert msg_type == protocol.DECISION
            healthy = ServeClient("127.0.0.1", server.port, "healthy", W)
            await healthy.connect()
            assert server.stats.connections_open == 2

            server._clusters["stalled"].writer.write(
                b"\0" * (16 * 1024 * 1024)
            )
            await send(OBS + 2)  # accepted, decided — and never read
            stalled_at = loop.time()
            # Twelve ticks spread over more than read_timeout, so the
            # healthy client is never the silent one.
            for t in range(1, 13):
                await asyncio.wait_for(
                    healthy_exchange(healthy, t, frames[t - 1]), 2.0
                )
                await asyncio.sleep(0.05)
            assert healthy.decisions == 12 - OBS + 1

            await wait_for_disconnect(server, "stalled")
            assert loop.time() - stalled_at < config.read_timeout + 1.0
            assert server.stats.timeouts == 1
            assert server.stats.connections_open == 1
            assert healthy.connected
            await asyncio.wait_for(
                healthy_exchange(healthy, 13, frames[12]), 2.0
            )
            await healthy.close()
            writer.close()
        finally:
            await server.shutdown()

    run(body())


def test_silent_but_reading_client_is_told_read_timeout():
    config = make_config(read_timeout=0.25)

    async def body():
        server = CapesServer(config)
        await server.start()
        try:
            reader, writer = await raw_handshake(server.port, "mute")
            msg_type, payload = await asyncio.wait_for(
                protocol.read_message(reader), 2.0
            )
            assert msg_type == protocol.ERROR
            assert protocol.unpack_json(payload)["error"] == "read timeout"
            assert await reader.read() == b""  # and then the close
            await wait_for_disconnect(server, "mute")
            assert server.stats.timeouts == 1
            writer.close()
        finally:
            await server.shutdown()

    run(body())


def test_client_read_timeout_closes_the_connection():
    """A timeout can land mid-message; the stream is then unusable.

    The fake daemon answers a FRAME with a DECISION prefix and two of
    its payload bytes, then stalls.  The client must not keep a
    connection whose next read would parse payload bytes as a prefix.
    """
    frames = client_frames(43, 2)

    async def body():
        release = asyncio.Event()

        async def half_answer(reader, writer):
            await protocol.read_message(reader)  # HELLO
            writer.write(protocol.pack_json(protocol.WELCOME, {"cluster": 0}))
            writer.write(protocol.pack_checkpoint(0, 0, b"weights"))
            await protocol.read_message(reader)  # the FRAME
            decision = protocol.pack_decision(1, 0, False)
            writer.write(decision[: len(decision) - 15])
            await writer.drain()
            await release.wait()
            writer.close()

        fake = await asyncio.start_server(half_answer, "127.0.0.1", 0)
        port = fake.sockets[0].getsockname()[1]
        try:
            client = ServeClient("127.0.0.1", port, "cut", W, timeout=0.3)
            await client.connect()
            with pytest.raises(asyncio.TimeoutError):
                await client.tick(1, frames[0])
            assert not client.connected
            with pytest.raises(ServeClientError, match="not connected"):
                await client.tick(2, frames[1])
            await client.connect()  # a fresh connection starts clean
            assert client.connected
            await client.close()
        finally:
            release.set()
            fake.close()
            await fake.wait_closed()

    run(body())


# -- event-loop invariants, as counts ----------------------------------------


def test_frames_of_one_loop_iteration_share_one_act_batch():
    config = make_config()
    names = ["left", "right"]
    frames = {n: client_frames(50 + i, OBS) for i, n in enumerate(names)}

    async def body():
        server = CapesServer(config)
        batches = []
        act_batch = server.agent.act_batch

        def counting(obs, **kwargs):
            batches.append(len(obs))
            return act_batch(obs, **kwargs)

        server.agent.act_batch = counting
        await server.start()
        try:
            peers = {}
            for name in names:
                reader, writer = await raw_handshake(server.port, name)
                peers[name] = (reader, writer, DifferentialEncoder(W))

            def write(name, t):
                _, writer, encoder = peers[name]
                wire = encoder.encode(t, frames[name][t - 1])
                writer.write(protocol.pack_frame(t, 0.0, wire))

            for t in range(1, OBS):  # warm both windows, one by one
                for name in names:
                    write(name, t)
                    await protocol.read_message(peers[name][0])
            assert batches == []
            # Both warm frames are on the wire before the loop runs again.
            for name in names:
                write(name, OBS)
            for name in names:
                msg_type, payload = await protocol.read_message(peers[name][0])
                assert msg_type == protocol.DECISION
                assert protocol.unpack_decision(payload)[2]
            assert batches == [2]
            for _, writer, _ in peers.values():
                writer.close()
        finally:
            await server.shutdown()

    run(body())


def test_frame_exchange_creates_no_task_or_timer_per_message():
    """200 frames, both ends on this loop: O(connections), not O(frames).

    ``call_later`` is ``call_at`` underneath, so counting ``call_at``
    sees every timer whichever way it was made.
    """
    config = make_config(tick_stride=256)
    frames = client_frames(60, 200)

    async def body():
        loop = asyncio.get_running_loop()
        made = {"tasks": 0, "timers": 0}
        create_task, call_at = loop.create_task, loop.call_at

        def counting_create_task(*args, **kwargs):
            made["tasks"] += 1
            return create_task(*args, **kwargs)

        def counting_call_at(*args, **kwargs):
            made["timers"] += 1
            return call_at(*args, **kwargs)

        server = CapesServer(config)
        await server.start()
        try:
            client = ServeClient("127.0.0.1", server.port, "busy", W)
            await client.connect()
            loop.create_task, loop.call_at = counting_create_task, counting_call_at
            try:
                for t in range(200):
                    await client.tick(t + 1, frames[t])
            finally:
                del loop.create_task, loop.call_at
            assert client.decisions == 200 - OBS + 1
            assert made["tasks"] + made["timers"] <= 4, made
            await client.close()
        finally:
            await server.shutdown()

    run(body())
