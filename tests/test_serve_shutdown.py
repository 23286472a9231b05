"""Signal-driven lifecycle of ``repro serve``, as a real subprocess.

The in-loop tests in test_serve.py cover the daemon's behaviour; this
file covers the part only a subprocess can: ``run_server`` installs
SIGINT/SIGTERM handlers that drain in-flight decisions, stop the
trainer backend, flush the replay store to disk, and exit 0.  A daemon
that dies on Ctrl-C with a traceback — or exits clean but loses the
replay rows it acknowledged — fails here.
"""

import asyncio
import os
import re
import signal
import sqlite3
import subprocess
import sys

import numpy as np
import pytest

from repro.serve import ServeClient

CONF = """
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

ANNOUNCE = re.compile(r"serving on 127\.0\.0\.1:(\d+)")


@pytest.fixture
def conf_path(tmp_path):
    p = tmp_path / "conf.py"
    p.write_text(CONF)
    return str(p)


def launch_server(conf_path, out_path):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--config", conf_path,
            "--port", "0",
            "--trainer-backend", "serial",
            "--out", str(out_path),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    match = ANNOUNCE.search(line)
    if match is None:
        proc.kill()
        out, err = proc.communicate(timeout=10)
        raise AssertionError(
            f"no announce line; stdout={line + out!r} stderr={err!r}"
        )
    return proc, int(match.group(1))


def drive_ticks(port, n_ticks, frame_width):
    """Stream ``n_ticks`` frames from one client, then say BYE."""

    async def body():
        rng = np.random.default_rng(3)
        client = ServeClient("127.0.0.1", port, "sig-test", frame_width)
        welcome = await client.connect()
        assert welcome["frame_width"] == frame_width
        frame = rng.normal(size=frame_width)
        for t in range(n_ticks):
            frame = frame + rng.normal(size=frame_width) * 0.1
            await client.tick(t + 1, frame, reward=0.2)
        await client.close()
        return client.decisions

    return asyncio.run(body())


@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM])
def test_signal_drains_and_exits_zero(conf_path, tmp_path, sig):
    out_path = tmp_path / "serve-replay.sqlite"
    proc, port = launch_server(conf_path, out_path)
    try:
        # The client must present the same frame geometry the daemon
        # derived from the conf; derive it the same way.
        from repro.core.config import load_config

        width = load_config(conf_path).env.frame_width
        n_ticks = 10
        decisions = drive_ticks(port, n_ticks, width)
        assert decisions > 0
        proc.send_signal(sig)
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=10)
    assert proc.returncode == 0, f"exit {proc.returncode}; stderr={err!r}"
    assert "Traceback" not in err and "BrokenPipeError" not in err
    # The summary proves the drain path ran to completion.
    assert re.search(r"served \d+ decisions over 10 frames", out), out
    assert "trained" in out  # serial trainer was stopped, not abandoned
    # And the store was flushed durably: every acknowledged tick is
    # readable from the sqlite file after the process is gone.
    con = sqlite3.connect(out_path)
    try:
        (rows,) = con.execute(
            "SELECT COUNT(*) FROM observations"
        ).fetchone()
    finally:
        con.close()
    assert rows == n_ticks


def test_signal_with_no_clients_exits_zero(conf_path, tmp_path):
    out_path = tmp_path / "idle-replay.sqlite"
    proc, _ = launch_server(conf_path, out_path)
    try:
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=10)
    assert proc.returncode == 0, f"exit {proc.returncode}; stderr={err!r}"
    assert "served 0 decisions over 0 frames" in out
