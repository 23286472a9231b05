"""The three in-process workloads: ``des_session``, ``vec_collect``, ``vec_train``.

Every workload builds fresh state from the seed in ``setup`` and then
runs a fixed amount of work through public entry points only.  ``run``
is the untraced form a user would call; ``run_traced`` unrolls the same
timed region from the public calls underneath it, one span per call,
and must reproduce ``run``'s digest.  ``layers`` turns the spans (plus a
few isolated calls on the workload's own data) into per-layer metrics.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Dict

import numpy as np

from repro import CAPES, CapesConfig, ClusterConfig, EnvConfig
from repro.env import VectorEnv
from repro.nn.network import MLP
from repro.nn.optimizers import Adam
from repro.replaydb.db import CACHE_ONLY, ReplayDB
from repro.replaydb.sampler import SamplerStarvedError
from repro.rl import DQNAgent, Hyperparameters
from repro.sim.vec.fleet_env import FleetEnv
from repro.sim.vec.physics import tick_all
from repro.snapshot import RolloutDigest
from repro.train import TrainerConfig, TrainerLoop, train_collect
from repro.transport.codec import decode_reply, encode_reply
from repro.util.rng import derive_rng, ensure_rng
from repro.workloads import RandomReadWrite

from bench.measure import Rep, Stopwatch, nonfinite, per_call
from bench.trace import BENCH_LAYER, TIMED, Tracer

#: The compressed-session hyperparameters every figure bench uses
#: (``benchmarks/_harness.py``): 64 hidden units on a 10-tick window.
HP = Hyperparameters(
    hidden_layer_size=64,
    exploration_ticks=800,
    sampling_ticks_per_observation=10,
    adam_learning_rate=5e-4,
    discount_rate=0.9,
    target_network_update_rate=0.02,
)

#: Replay tick-space block per cluster, vec fleet and serve daemon alike.
TICK_STRIDE = 8192


def _write_heavy(cluster, seed):
    """The Figure 2 1:9 read:write mix, five threads per client."""
    return RandomReadWrite(
        cluster, read_fraction=0.1, instances_per_client=5, seed=seed
    )


def env_config(seed: int) -> EnvConfig:
    """The paper-shaped cluster all five workloads share: 2 servers, 5 clients."""
    return EnvConfig(
        cluster=ClusterConfig(n_servers=2, n_clients=5),
        workload_factory=_write_heavy,
        hp=HP,
        seed=seed,
    )


def seeded_agent(seed: int, obs_dim: int, n_actions: int) -> DQNAgent:
    return DQNAgent(
        obs_dim, n_actions, hp=HP,
        rng=derive_rng(ensure_rng(seed), "bench-agent"),
    )


def rollout_digest(*blocks: np.ndarray) -> str:
    digest = RolloutDigest()
    for block in blocks:
        digest.update(block)
    return digest.hexdigest


# -- isolated calls shared by several workloads ---------------------------
def nn_layers(obs_dim: int, n_actions: int) -> Dict[str, float]:
    """``MLP.forward`` / ``backward`` / ``Adam.step`` at the minibatch shape."""
    rng = np.random.default_rng(0)
    net = MLP.for_q_network(
        obs_dim, n_actions, n_hidden_layers=HP.n_hidden_layers,
        hidden_size=HP.hidden_layer_size, rng=0,
    )
    opt = Adam(lr=HP.adam_learning_rate)
    x = rng.standard_normal((HP.minibatch_size, obs_dim))
    grad = rng.standard_normal((HP.minibatch_size, n_actions))
    net.forward(x)

    def backward():
        net.zero_grad()
        net.backward(grad)

    return {
        "nn.forward_ms": per_call(lambda: net.forward(x), 200) * 1e3,
        "nn.backward_ms": per_call(backward, 200) * 1e3,
        "nn.adam_ms": per_call(lambda: opt.step(net.parameters()), 200) * 1e3,
    }


def sgd_layers(agent: DQNAgent, sampler, prefix: str) -> Dict[str, float]:
    """Sampler and ``DQNAgent`` SGD calls on a live agent and replay store.

    Mutates the agent, so only call it once the digest has been taken.
    """
    batch = sampler.sample_minibatch(HP.minibatch_size)
    return {
        prefix: per_call(
            lambda: sampler.sample_minibatch(HP.minibatch_size), 100
        ) * 1e3,
        "rl.train_step_ms": per_call(lambda: agent.train_step(batch), 100) * 1e3,
        "rl.bellman_ms": per_call(lambda: agent.bellman_targets(batch), 200) * 1e3,
        **nn_layers(agent.obs_dim, agent.n_actions),
    }


def fleet_layers(seed: int, sizes: Dict[str, int], tr: Tracer) -> Dict[str, float]:
    """The ``vec_*`` collect spans, and the fleet physics alone for the same ticks.

    What the chunks cost through ``VectorEnv.collect`` minus what they
    cost through ``FleetEnv.run_chunk`` is fan-in (record slicing,
    ``put_many``, span frontier).
    """
    n_envs, ticks, chunk = sizes["n_envs"], sizes["ticks"], sizes["chunk"]
    chunks = tr.durations("env.collect_chunk")
    collect_s = chunks.sum() / tr.reps
    fleet = FleetEnv(replace(env_config(seed), db_path=CACHE_ONLY), n_envs=n_envs)
    fleet.reset()
    with Stopwatch() as physics:
        for _ in range(ticks // chunk):
            fleet.run_chunk(chunk, action=0)
    idx = np.arange(n_envs)
    tick_us = per_call(lambda: tick_all(fleet.state, idx), 500) * 1e6
    # One chunk of one env's records: the 800-row fan-in batch is 16 of
    # these, and the same block is what a fork/shard worker would ship.
    packed = fleet.records_since_packed(ticks - chunk, env_index=0)
    db = ReplayDB(fleet.frame_dim, path=CACHE_ONLY, cache_capacity=n_envs * TICK_STRIDE)
    rows = n_envs * len(packed)

    def put_all():
        for i in range(n_envs):
            db.put_many(
                packed.ticks + i * TICK_STRIDE, packed.frames,
                packed.rewards, packed.actions,
            )

    put_all()  # the first insert allocates the cache: ~1 000x a later one
    put_s = per_call(put_all, 200)
    reply = (np.zeros(len(packed)), np.zeros(fleet.obs_dim), packed)
    payload = encode_reply("run_chunk", reply)
    codec_s = per_call(lambda: decode_reply(encode_reply("run_chunk", reply)), 200)
    db.close()
    fleet.close()
    return {
        "env.reset_s": float(np.median(tr.durations("env.reset"))),
        "env.collect_chunk_ms": float(chunks.mean()) * 1e3,
        "simvec.chunk_max_over_median": float(chunks.max() / np.median(chunks)),
        "simvec.tick_all_us": tick_us,
        "simvec.run_chunk_us_per_envtick": physics.wall / (n_envs * ticks) * 1e6,
        "env.fanin_share": 1.0 - physics.wall / collect_s,
        "replaydb.put_many_us_per_row": put_s / rows * 1e6,
        "transport.codec_reply_us": codec_s * 1e6,
        "transport.reply_bytes": float(len(payload)),
    }


class Workload:
    """Name, unit of work and sizes; subclasses add setup/run/run_traced/layers."""

    name: str
    #: What ``units_per_s`` and ``cpu_ms_per_unit`` count on this workload.
    unit: str
    sizes: Dict[str, int]
    #: Whether its runs call ``measure.keep_freed_memory`` first.
    keeps_freed_memory = False

    def inputs(self, seed: int, sizes: Dict[str, int]):
        """Inputs generated once per run, outside every clock."""
        return None


class DesSession(Workload):
    """The paper-shaped session every figure bench runs, on the DES stack."""

    name = "des_session"
    unit = "tick"
    sizes = {"train_ticks": 100, "eval_ticks": 30}
    STEPS_PER_TICK = 4
    #: The tuner's own seed is configuration, not input: ``--seed`` makes
    #: the cluster and its I/O streams.  The exploration random walk
    #: moves the congestion window, and with it the simulated I/O a tick
    #: has to process: 1 887-3 892 events per tick over tuner seeds 1-10,
    #: a 2x spread in identical code that no bound could absorb.
    TUNER_SEED = 42

    def setup(self, seed: int) -> CAPES:
        capes = CAPES(CapesConfig(
            env=env_config(seed), seed=self.TUNER_SEED,
            train_steps_per_tick=self.STEPS_PER_TICK,
            trainer_backend="inline",
        ))
        capes.session.ensure_started()
        return capes

    def _rep(self, sizes, setup, timed, rewards, losses) -> Rep:
        steps = sizes["train_ticks"] * self.STEPS_PER_TICK
        return Rep(
            setup_s=setup.wall, wall_s=timed.wall, cpu_s=timed.cpu,
            units=len(rewards),
            attempted=len(rewards) + steps,
            failed=nonfinite(rewards) + steps - len(losses),
            digest=rollout_digest(rewards, losses),
        )

    def run(self, seed, sizes, inputs=None) -> Rep:
        with Stopwatch() as setup:
            capes = self.setup(seed)
        try:
            with Stopwatch() as timed:
                trained = capes.train(sizes["train_ticks"])
                evaluated = capes.evaluate(sizes["eval_ticks"])
            rewards = np.concatenate([trained.rewards, evaluated.rewards])
            return self._rep(sizes, setup, timed, rewards, trained.losses)
        finally:
            capes.env.close()

    def run_traced(self, seed, sizes, inputs, tr: Tracer) -> Rep:
        """``CapesSession.train`` + ``evaluate`` in inline order, call by call."""
        with Stopwatch() as setup, tr.span("env.reset", "env"):
            capes = self.setup(seed)
        env, agent, sampler = capes.env, capes.session.agent, capes.session.sampler
        try:
            obs, buf = env.current_observation(), np.empty(env.obs_dim)
            rewards, losses = [], []
            events = env.sim.events_processed
            with Stopwatch() as timed, tr.span(TIMED, BENCH_LAYER):
                for i in range(sizes["train_ticks"] + sizes["eval_ticks"]):
                    training = i < sizes["train_ticks"]
                    with tr.span("rl.act", "rl"):
                        action = agent.act(obs, greedy=not training)
                    with tr.span("env.step", "env"):
                        obs, reward, _ = env.step(action, out=buf)
                    rewards.append(reward)
                    if not training:
                        continue
                    with tr.span("train.burst", "train"):
                        for _ in range(self.STEPS_PER_TICK):
                            try:
                                with tr.span("replaydb.sample", "replaydb"):
                                    batch = sampler.sample_minibatch(
                                        HP.minibatch_size
                                    )
                            except SamplerStarvedError:
                                continue
                            with tr.span("rl.train_step", "rl"):
                                losses.append(agent.train_step(batch))
            rep = self._rep(sizes, setup, timed, np.array(rewards), np.array(losses))
            rep.info = {
                "events": env.sim.events_processed - events,
                "steps": sizes["train_ticks"] * self.STEPS_PER_TICK,
                "losses": len(losses),
            }
            if tr.rep == 0:
                # Isolated calls on the live session, digest already
                # taken.  Once per run: ``layers`` reads the first
                # traced repetition's.
                rep.info.update({
                    "env.run_ticks_ms": per_call(lambda: env.run_ticks(1), 20) * 1e3,
                    "replaydb.cache_mb": env.db.in_memory_bytes() / 1e6,
                    "replaydb.put_one_us": self._put_one_us(env),
                    "rl.bellman_ms": per_call(
                        lambda: agent.bellman_targets(batch), 200
                    ) * 1e3,
                    **nn_layers(env.obs_dim, env.n_actions),
                })
            return rep
        finally:
            env.close()

    @staticmethod
    def _put_one_us(env) -> float:
        """``put_observation`` + ``put_action``, the Interface Daemon's shape."""
        frames = env.records_since_packed(-1).frames
        db = ReplayDB(env.frame_dim, path=env.config.db_path)

        def put(ticks=itertools.count()):
            i = next(ticks)
            db.put_observation(i, frames[i % len(frames)], 0.0)
            db.put_action(i, 0)

        try:
            return per_call(put, 2000) * 1e6
        finally:
            db.close()

    def layers(self, seed, sizes, inputs, tr: Tracer, rep: Rep) -> Dict[str, float]:
        step, burst = tr.durations("env.step"), tr.durations("train.burst")
        sample, train = tr.durations("replaydb.sample"), tr.durations("rl.train_step")
        info = dict(rep.info)
        events = info.pop("events")
        return {
            "env.reset_s": float(np.median(tr.durations("env.reset"))),
            "env.step_ms": float(step.mean()) * 1e3,
            "sim.events_per_tick": events / rep.units,
            "sim.events_per_s": events / (step.sum() / tr.reps),
            "replaydb.sample_ms": float(sample.mean()) * 1e3,
            "rl.act_us": float(tr.durations("rl.act").mean()) * 1e6,
            "rl.train_step_ms": float(train.mean()) * 1e3,
            "train.burst_ms": float(burst.mean()) * 1e3,
            "train.overhead_share": 1.0 - (sample.sum() + train.sum()) / burst.sum(),
            "train.steps_attempted": float(info.pop("steps")),
            "train.losses": float(info.pop("losses")),
            **info,  # the isolated calls, under their metric names
        }


class VecCollect(Workload):
    """``repro collect`` on the fleet physics: simulate, fan in, no SGD."""

    name = "vec_collect"
    unit = "env-tick"
    # 2 000 ticks, not the issue's 4 000: the record columns double as
    # they grow, every doubling touches fresh pages, and on this VM the
    # first touch costs 0-2 s of sys time at random (4 000-tick
    # repetitions were bimodal, 1.2 s or 2.3 s, for identical work).
    sizes = {"n_envs": 16, "ticks": 2000, "chunk": 50}
    # Every repetition allocates ~150 MB afresh.  As new mappings those
    # fault in page by page, and the same 3 000 faults cost 0.015 s or
    # 0.4 s of sys time, for minutes on end (the host backs guest pages
    # lazily): two ten-run sets of one commit read 58.7 k and 46.7 k
    # env-ticks/s.  Kept in the process, the memory is touched by a
    # run's first repetition only: 0 faults, 0.000 s sys after it.
    keeps_freed_memory = True

    @staticmethod
    def setup(seed, sizes) -> VectorEnv:
        venv = VectorEnv.from_config(
            env_config(seed), sizes["n_envs"], backend="vec",
            tick_stride=TICK_STRIDE,
        )
        venv.reset()
        return venv

    @staticmethod
    def _rep(setup, timed, rewards) -> Rep:
        return Rep(
            setup_s=setup.wall, wall_s=timed.wall, cpu_s=timed.cpu,
            units=rewards.size, attempted=rewards.size,
            failed=nonfinite(rewards), digest=rollout_digest(rewards),
        )

    def run(self, seed, sizes, inputs=None) -> Rep:
        with Stopwatch() as setup:
            venv = self.setup(seed, sizes)
        try:
            with Stopwatch() as timed:
                rewards = venv.collect(sizes["ticks"], chunk=sizes["chunk"])
            return self._rep(setup, timed, rewards)
        finally:
            venv.close()

    def run_traced(self, seed, sizes, inputs, tr: Tracer) -> Rep:
        with Stopwatch() as setup, tr.span("env.reset", "env"):
            venv = self.setup(seed, sizes)
        try:
            blocks = []
            with Stopwatch() as timed, tr.span(TIMED, BENCH_LAYER):
                for _ in range(sizes["ticks"] // sizes["chunk"]):
                    with tr.span("env.collect_chunk", "env"):
                        blocks.append(venv.collect(sizes["chunk"]))
            rep = self._rep(setup, timed, np.concatenate(blocks, axis=1))
            rep.info = {"replaydb.cache_mb": venv.shared_db.in_memory_bytes() / 1e6}
            return rep
        finally:
            venv.close()

    def layers(self, seed, sizes, inputs, tr: Tracer, rep: Rep) -> Dict[str, float]:
        return {**fleet_layers(seed, sizes, tr), **rep.info}


class VecTrain(Workload):
    """Many seeds trained as one fleet: SGD and replay reads, simulator idle."""

    name = "vec_train"
    unit = "sgd-step"
    sizes = {"n_envs": 16, "ticks": 200, "chunk": 50}
    TRAIN_RATIO = 4.0

    def setup(self, seed, sizes):
        venv = VecCollect.setup(seed, sizes)
        return venv, seeded_agent(seed, venv.obs_dim, venv.n_actions)

    @staticmethod
    def _rep(setup, timed, rewards, stats) -> Rep:
        return Rep(
            setup_s=setup.wall, wall_s=timed.wall, cpu_s=timed.cpu,
            units=stats.steps_attempted,
            attempted=rewards.size + stats.steps_attempted,
            failed=nonfinite(rewards) + stats.steps_attempted - len(stats.losses),
            digest=rollout_digest(rewards, np.array(stats.losses)),
        )

    def run(self, seed, sizes, inputs=None) -> Rep:
        with Stopwatch() as setup:
            venv, agent = self.setup(seed, sizes)
        try:
            with Stopwatch() as timed:
                rewards, stats = train_collect(
                    venv, agent, TrainerConfig("serial", train_ratio=self.TRAIN_RATIO),
                    sizes["ticks"], chunk=sizes["chunk"], sampler_seed=seed,
                )
            return self._rep(setup, timed, rewards, stats)
        finally:
            venv.close()

    def run_traced(self, seed, sizes, inputs, tr: Tracer) -> Rep:
        """``train_collect``'s serial round-robin, chunk by chunk."""
        with Stopwatch() as setup, tr.span("env.reset", "env"):
            venv, agent = self.setup(seed, sizes)
        chunk = sizes["chunk"]
        try:
            blocks = []
            with Stopwatch() as timed, tr.span(TIMED, BENCH_LAYER):
                sampler = venv.make_sampler(seed=seed)
                loop = TrainerLoop(
                    agent,
                    TrainerConfig("serial", train_ratio=self.TRAIN_RATIO,
                                  interleave_ticks=chunk),
                    sampler=sampler,
                )
                venv.add_ingest_listener(loop.ingest)
                try:
                    with loop:
                        with tr.span("env.reset", "env"):
                            venv.reset()
                        for _ in range(sizes["ticks"] // chunk):
                            with tr.span("env.collect_chunk", "env"):
                                blocks.append(venv.collect(chunk))
                            with tr.span("train.burst", "train"):
                                loop.notify_ticks(chunk)
                        with tr.span("train.drain", "train"):
                            loop.drain()
                finally:
                    venv.remove_ingest_listener(loop.ingest)
            rep = self._rep(setup, timed, np.concatenate(blocks, axis=1), loop.stats)
            rep.info = {
                "steps": loop.stats.steps_attempted,
                "losses": len(loop.stats.losses),
                "replaydb.cache_mb": venv.shared_db.in_memory_bytes() / 1e6,
            }
            if tr.rep == 0:  # once per run: ``layers`` reads the first one's
                rep.info.update(
                    sgd_layers(agent, sampler, "replaydb.strided_sample_ms")
                )
            return rep
        finally:
            venv.close()

    def layers(self, seed, sizes, inputs, tr: Tracer, rep: Rep) -> Dict[str, float]:
        info = dict(rep.info)
        steps, losses = info.pop("steps"), info.pop("losses")
        burst = tr.durations("train.burst")
        per_burst = sizes["chunk"] * self.TRAIN_RATIO
        busy = per_burst * (info["replaydb.strided_sample_ms"] + info["rl.train_step_ms"])
        # ``env.reset_s`` is over two resets per repetition here: set-up's,
        # then ``train_collect``'s own.
        out = fleet_layers(seed, sizes, tr)
        out.update(info)
        out.update({
            "train.burst_ms": float(burst.mean()) * 1e3,
            "train.overhead_share": 1.0 - busy / (float(burst.mean()) * 1e3),
            "train.steps_attempted": float(steps),
            "train.losses": float(losses),
        })
        return out
