"""Property-based fleet-size independence of the vec engine.

The struct-of-arrays backend promises that env ``i``'s trajectory is a
function of ``(base_seed, i)`` only — never of how many other clusters
share the arrays.  The engine earns this by keeping every per-env RNG
draw on per-env ``(n_clients,)`` arrays (fixed shape → fixed SIMD code
path) and every array op elementwise or trailing-axis-reduced.  This
test drives the promise across random seeds, env indices and scenario
timelines: the same row must be byte-identical in a 2-env and an
8-env fleet.

A second property holds the fleet-wide action path (one vectorised
check/apply/record pass per tick) to the scalar Interface Daemon
reference — ``ActionChecker.filter`` then ``ActionSpace.apply``, env by
env.
"""

import hashlib

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig
from repro.core.actions import TunableParameter
from repro.core.checker import ActionChecker
from repro.env import make_env
from repro.env.registry import _default_workload
from repro.rl import Hyperparameters

N_TICKS = 6

HP = Hyperparameters(
    hidden_layer_size=8,
    exploration_ticks=20,
    sampling_ticks_per_observation=3,
)
ENV_KW = dict(cluster=ClusterConfig(n_servers=2, n_clients=2), hp=HP)

SCENARIOS = {
    None: None,
    "sim-lustre-degraded": dict(start_tick=3),
    "sim-lustre-churn": dict(
        first_tick=3, period=4, absence_ticks=2, n_cycles=2
    ),
}


def _env_digest(seed: int, scenario, n_envs: int, i: int) -> str:
    """Digest of env ``i``'s trace inside an ``n_envs``-sized fleet."""
    kw = dict(ENV_KW)
    if scenario is None:
        kw["workload_factory"] = _default_workload
    else:
        kw["scenario"] = scenario
        kw["scenario_kwargs"] = SCENARIOS[scenario]
    fleet = make_env("sim-lustre-vec", seed=seed, n_envs=n_envs, **kw)
    h = hashlib.blake2b(digest_size=16)
    try:
        obs = fleet.reset()
        h.update(np.ascontiguousarray(obs[i], dtype=np.float64).tobytes())
        for t in range(N_TICKS):
            obs, rewards, _infos = fleet.step(
                [t % fleet.n_actions] * n_envs
            )
            h.update(np.ascontiguousarray(obs[i], dtype=np.float64).tobytes())
            h.update(np.float64(rewards[i]).tobytes())
    finally:
        fleet.close()
    return h.hexdigest()


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    i=st.integers(min_value=0, max_value=1),
    scenario=st.sampled_from(sorted(SCENARIOS, key=str)),
)
def test_env_stream_independent_of_fleet_size(seed, i, scenario):
    small = _env_digest(seed, scenario, n_envs=2, i=i)
    large = _env_digest(seed, scenario, n_envs=8, i=i)
    assert small == large, (
        f"env {i} of seed {seed} ({scenario or 'plain'}) diverged between "
        f"fleet sizes 2 and 8: per-env streams leak fleet-size dependence"
    )


# -- fuzzed scenarios (repro.scenarios.fuzz) -------------------------------
#
# Fuzzed timelines resolve by name (fuzz-<root_seed>-<index>) through
# the scenario-registry resolver, so the same promises must hold for a
# timeline nobody hand-wrote: env i's vec stream is fleet-size
# independent, and on the reference backend a fuzzed run is
# *placement-independent* — serial and fork workers produce
# byte-identical traces at n_envs 1 and 4.  (The vec engine's fluid
# physics intentionally differ from the reference object graph, so
# cross-backend trace equality is not a contract; fleet-size
# independence is the vec-side half of placement independence.)

#: Compressed generator horizon so fuzzed events actually fire (and
#: windowed ones revert) inside the short property rollouts.
FUZZ_KW = dict(horizon=12)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    root_seed=st.integers(min_value=0, max_value=2**31 - 1),
    index=st.integers(min_value=0, max_value=7),
    i=st.integers(min_value=0, max_value=1),
)
def test_fuzzed_env_stream_independent_of_fleet_size(root_seed, index, i):
    name = f"fuzz-{root_seed}-{index}"
    kw = dict(ENV_KW, workload_factory=_default_workload)
    small = _fuzzed_vec_digest(name, n_envs=2, i=i, env_kw=kw)
    large = _fuzzed_vec_digest(name, n_envs=8, i=i, env_kw=kw)
    assert small == large, (
        f"env {i} of fuzzed scenario {name} diverged between fleet "
        f"sizes 2 and 8"
    )


def _fuzzed_vec_digest(name: str, n_envs: int, i: int, env_kw) -> str:
    fleet = make_env(
        "sim-lustre-vec",
        seed=7,
        n_envs=n_envs,
        scenario=name,
        scenario_kwargs=FUZZ_KW,
        **env_kw,
    )
    h = hashlib.blake2b(digest_size=16)
    try:
        obs = fleet.reset()
        h.update(np.ascontiguousarray(obs[i], dtype=np.float64).tobytes())
        for t in range(N_TICKS):
            obs, rewards, _infos = fleet.step([t % fleet.n_actions] * n_envs)
            h.update(np.ascontiguousarray(obs[i], dtype=np.float64).tobytes())
            h.update(np.float64(rewards[i]).tobytes())
    finally:
        fleet.close()
    return h.hexdigest()


def _fuzzed_vector_digest(name: str, n: int, backend: str) -> str:
    from repro.env import VectorEnv

    venv = VectorEnv.from_registry(
        name,
        n,
        base_seed=11,
        backend=backend,
        env_kwargs=dict(scenario_kwargs=FUZZ_KW, **ENV_KW),
    )
    h = hashlib.blake2b(digest_size=16)
    try:
        obs = venv.reset()
        h.update(np.ascontiguousarray(obs, dtype=np.float64).tobytes())
        for t in range(N_TICKS):
            obs, rewards, _infos = venv.step([t % venv.n_actions] * n)
            h.update(np.ascontiguousarray(obs, dtype=np.float64).tobytes())
            h.update(
                np.ascontiguousarray(rewards, dtype=np.float64).tobytes()
            )
    finally:
        venv.close()
    return h.hexdigest()


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    root_seed=st.integers(min_value=0, max_value=2**31 - 1),
    index=st.integers(min_value=0, max_value=7),
)
def test_fuzzed_run_is_placement_independent(root_seed, index):
    # The fuzzed scenario rebuilds from its *name* inside each fork
    # worker (registry resolver), so serial and fork must agree at
    # both fleet sizes — and the n_envs=1 replica is the degenerate
    # placement every larger fleet's replica 0 must match.
    name = f"fuzz-{root_seed}-{index}"
    for n_envs in (1, 4):
        serial = _fuzzed_vector_digest(name, n_envs, "serial")
        fork = _fuzzed_vector_digest(name, n_envs, "fork")
        assert serial == fork, (
            f"fuzzed scenario {name} diverged between serial and fork "
            f"at n_envs={n_envs}: placement changed a seeded run"
        )


# -- the fleet-wide action path vs the scalar reference (§3.7) -------------

N_ACT_ENVS = 6

#: The default Lustre knobs, and a custom list: rate first (so action
#: indices map the other way round) and fractional steps (so the
#: integer window knob rounds half-to-even on store).
ACTION_PARAMETERS = {
    "lustre": None,
    "fractional": [
        TunableParameter("io_rate_limit", 50.0, 10_000.0, 333.3, 10_000.0),
        TunableParameter("max_rpcs_in_flight", 1, 64, 2.5, 8),
    ],
}


def _per_env(values):
    return st.lists(
        st.sampled_from(values), min_size=N_ACT_ENVS, max_size=N_ACT_ENVS
    )


@settings(max_examples=60, deadline=None)
@given(
    parameters=st.sampled_from(sorted(ACTION_PARAMETERS)),
    windows=_per_env([1, 2, 3, 6, 8, 9, 11, 62, 63, 64]),
    rates=_per_env([50.0, 200.0, 300.0, 383.3, 5000.0, 9800.0, 10000.0]),
    actions=_per_env([0, 1, 2, 3, 4]),
    minimum=st.sampled_from([None, 2, 8, 63]),
)
def test_fleet_actions_match_scalar_reference(
    parameters, windows, rates, actions, minimum
):
    fleet = make_env(
        "sim-lustre-vec",
        seed=5,
        n_envs=N_ACT_ENVS,
        workload_factory=_default_workload,
        parameters=ACTION_PARAMETERS[parameters],
        **ENV_KW,
    )
    reference = ActionChecker()
    if minimum is not None:
        fleet.checker.add_minimum("max_rpcs_in_flight", minimum)
        reference.add_minimum("max_rpcs_in_flight", minimum)
    try:
        fleet.reset()
        state, space = fleet.state, fleet.action_space
        state.window[:] = windows
        state.rate[:] = rates
        recorded, effects, params = [], [], []
        for window, rate, action in zip(windows, rates, actions):
            knobs = {
                "max_rpcs_in_flight": float(window),
                "io_rate_limit": float(rate),
            }

            def set_(name, value, knobs=knobs):
                # ControlAgent's setters: the window is an integer knob.
                if name == "max_rpcs_in_flight":
                    value = int(round(value))
                knobs[name] = float(value)

            action = reference.filter(space, action, knobs.__getitem__)
            recorded.append(action)
            effects.append(space.apply(action, knobs.__getitem__, set_))
            params.append(knobs)
        decided_on = state.rec_len - 1
        _obs, _rewards, infos = fleet.step(actions)
        assert [info["effect"] for info in infos] == effects
        assert [info["params"] for info in infos] == params
        np.testing.assert_array_equal(
            state.window, [p["max_rpcs_in_flight"] for p in params]
        )
        np.testing.assert_array_equal(
            state.rate, [p["io_rate_limit"] for p in params]
        )
        np.testing.assert_array_equal(
            state.rec_actions[np.arange(N_ACT_ENVS), decided_on], recorded
        )
        assert fleet.checker.vetoes == reference.vetoes
    finally:
        fleet.close()
