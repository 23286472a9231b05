"""Tests for the policy interpretability probes."""

import numpy as np
import pytest

from repro.core.actions import ActionSpace, TunableParameter
from repro.rl import (
    DQNAgent,
    Hyperparameters,
    format_policy_table,
    policy_table,
    q_sensitivity,
)

HP = Hyperparameters(hidden_layer_size=8, sampling_ticks_per_observation=2)


def make_space():
    return ActionSpace(
        [TunableParameter("max_rpcs_in_flight", 1, 64, 1, 8)]
    )


def make_agent(obs_dim=10, n_actions=3):
    return DQNAgent(obs_dim=obs_dim, n_actions=n_actions, hp=HP, rng=0)


class TestPolicyTable:
    def test_rows_cover_requested_values(self):
        agent = make_agent()
        rows = policy_table(
            agent,
            make_space(),
            base_obs=np.zeros(10),
            parameter="max_rpcs_in_flight",
            feature_indices=[0, 5],
            feature_scale=16.0,
            values=[1, 8, 32],
        )
        assert [r.value for r in rows] == [1.0, 8.0, 32.0]
        for r in rows:
            assert 0 <= r.action < 3
            assert r.action_label in ("NULL", "max_rpcs_in_flight +1",
                                      "max_rpcs_in_flight -1")
            assert r.q_values.shape == (3,)

    def test_default_values_span_range(self):
        agent = make_agent()
        rows = policy_table(
            agent,
            make_space(),
            np.zeros(10),
            "max_rpcs_in_flight",
            [0],
            16.0,
        )
        vals = [r.value for r in rows]
        assert vals[0] == 1.0 and vals[-1] <= 64.0
        assert len(vals) >= 10

    def test_probe_writes_scaled_feature(self):
        """The probed feature must actually change the network input."""
        agent = make_agent()
        space = make_space()
        r_low = policy_table(
            agent, space, np.zeros(10), "max_rpcs_in_flight", [0], 16.0,
            values=[1],
        )[0]
        r_high = policy_table(
            agent, space, np.zeros(10), "max_rpcs_in_flight", [0], 16.0,
            values=[64],
        )[0]
        assert not np.allclose(r_low.q_values, r_high.q_values)

    def test_unknown_parameter(self):
        agent = make_agent()
        with pytest.raises(KeyError):
            policy_table(agent, make_space(), np.zeros(10), "nope", [0], 1.0)

    def test_bad_indices(self):
        agent = make_agent()
        with pytest.raises(ValueError):
            policy_table(
                agent, make_space(), np.zeros(10),
                "max_rpcs_in_flight", [99], 1.0,
            )
        with pytest.raises(ValueError):
            policy_table(
                agent, make_space(), np.zeros(10),
                "max_rpcs_in_flight", [], 1.0,
            )

    def test_format(self):
        agent = make_agent()
        rows = policy_table(
            agent, make_space(), np.zeros(10),
            "max_rpcs_in_flight", [0], 16.0, values=[4, 8],
        )
        text = format_policy_table(rows, "max_rpcs_in_flight")
        assert "greedy action" in text
        assert text.count("\n") == 2


class TestQSensitivity:
    def test_shape_and_nonnegative(self):
        agent = make_agent()
        obs = np.random.default_rng(0).normal(size=(16, 10))
        sal = q_sensitivity(agent, obs)
        assert sal.shape == (10,)
        assert (sal >= 0).all()

    def test_single_observation_accepted(self):
        agent = make_agent()
        sal = q_sensitivity(agent, np.zeros(10))
        assert sal.shape == (10,)

    def test_matches_hand_written_chain_rule(self):
        """The saliency probe still gets the full input gradient (only
        training skips it), before and after a training step."""
        agent = make_agent()
        obs = np.random.default_rng(2).normal(size=(5, 10))

        def by_hand():
            fc0, fc1, fc2 = agent.online.net._dense
            h1 = np.tanh(obs @ fc0.W.value + fc0.b.value)
            h2 = np.tanh(h1 @ fc1.W.value + fc1.b.value)
            q = h2 @ fc2.W.value + fc2.b.value
            g = np.zeros_like(q)
            g[np.arange(5), np.argmax(q, axis=1)] = 1.0
            g = (g @ fc2.W.value.T) * (1.0 - h2**2)
            g = (g @ fc1.W.value.T) * (1.0 - h1**2)
            return np.abs(g @ fc0.W.value.T).mean(axis=0)

        np.testing.assert_allclose(q_sensitivity(agent, obs), by_hand(), rtol=1e-12)
        agent.online.td_backward(obs, np.zeros(5, dtype=np.int64), np.ones(5))
        agent.optimizer.step(agent.online.net.parameters())
        np.testing.assert_allclose(q_sensitivity(agent, obs), by_hand(), rtol=1e-12)

    def test_does_not_leak_gradients(self):
        agent = make_agent()
        q_sensitivity(agent, np.ones((4, 10)))
        for p in agent.online.net.parameters():
            np.testing.assert_array_equal(p.grad, 0.0)

    def test_width_mismatch_rejected(self):
        agent = make_agent()
        with pytest.raises(ValueError):
            q_sensitivity(agent, np.zeros((2, 7)))

    def test_irrelevant_feature_has_zero_saliency(self):
        """A feature whose first-layer weights are zeroed cannot matter."""
        agent = make_agent()
        first_dense = agent.online.net._dense[0]
        first_dense.W.value[3, :] = 0.0
        sal = q_sensitivity(agent, np.random.default_rng(1).normal(size=(8, 10)))
        assert sal[3] == pytest.approx(0.0, abs=1e-12)
