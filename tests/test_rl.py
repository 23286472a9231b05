"""Tests for Q-learning: hyperparams, epsilon, target, qnetwork, agent."""

import numpy as np
import pytest

from repro.nn import MLP, Adam, mse_loss
from repro.replaydb import MinibatchSampler, ReplayDB
from repro.replaydb.records import Minibatch
from repro.rl import DQNAgent, EpsilonSchedule, Hyperparameters, QNetwork, soft_update


class TestHyperparameters:
    def test_defaults_match_table1(self):
        hp = Hyperparameters()
        assert hp.action_tick_length == 1.0
        assert hp.epsilon_initial == 1.0
        assert hp.epsilon_final == 0.05
        assert hp.discount_rate == 0.99
        assert hp.minibatch_size == 32
        assert hp.missing_entry_tolerance == 0.20
        assert hp.n_hidden_layers == 2
        assert hp.adam_learning_rate == 1e-4
        assert hp.sampling_tick_length == 1.0
        assert hp.sampling_ticks_per_observation == 10
        assert hp.target_network_update_rate == 0.01
        assert hp.exploration_ticks == 7200  # 2 hours of 1 s ticks

    def test_paper_values_hidden_600(self):
        assert Hyperparameters.paper_values().hidden_layer_size == 600

    def test_validation(self):
        with pytest.raises(ValueError):
            Hyperparameters(discount_rate=1.5)
        with pytest.raises(ValueError):
            Hyperparameters(epsilon_final=0.9, epsilon_initial=0.5)
        with pytest.raises(ValueError):
            Hyperparameters(minibatch_size=0)

    def test_table_rows(self):
        rows = Hyperparameters().table()
        names = [n for n, _ in rows]
        assert "discount_rate" in names and len(rows) >= 12


class TestEpsilonSchedule:
    def test_linear_anneal(self):
        s = EpsilonSchedule(initial=1.0, final=0.0, anneal_ticks=10)
        values = [s.step() for _ in range(10)]
        assert values[0] == 1.0
        assert values[-1] == pytest.approx(0.1)
        assert s.value == pytest.approx(0.0)

    def test_floor_at_final(self):
        s = EpsilonSchedule(initial=1.0, final=0.05, anneal_ticks=10)
        for _ in range(100):
            s.step()
        assert s.value == 0.05

    def test_bump_raises_only_upward(self):
        s = EpsilonSchedule(initial=1.0, final=0.05, anneal_ticks=10, bump_value=0.2)
        for _ in range(100):
            s.step()
        s.bump()
        assert s.value == 0.2
        assert s.bumps == 1
        # bumping while epsilon is higher leaves epsilon alone, but the
        # notification still counts: bumps is workload-change telemetry,
        # not raised-epsilon telemetry.
        s2 = EpsilonSchedule(anneal_ticks=10)
        s2.bump()
        assert s2.value == 1.0 and s2.bumps == 1

    def test_anneal_continues_after_bump(self):
        s = EpsilonSchedule(initial=1.0, final=0.0, anneal_ticks=10, bump_value=0.5)
        for _ in range(100):
            s.step()
        s.bump()
        s.step()
        assert s.value == pytest.approx(0.4)

    def test_freeze_final(self):
        s = EpsilonSchedule()
        s.freeze_final()
        assert s.value == s.final

    def test_validation(self):
        with pytest.raises(ValueError):
            EpsilonSchedule(initial=0.1, final=0.5)
        with pytest.raises(ValueError):
            EpsilonSchedule(anneal_ticks=0)


class TestSoftUpdate:
    def test_alpha_one_copies(self):
        a = MLP([2, 3, 2], rng=0)
        b = MLP([2, 3, 2], rng=1)
        soft_update(a, b, alpha=1.0)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.value, pb.value)

    def test_alpha_zero_keeps(self):
        a = MLP([2, 3, 2], rng=0)
        before = a.get_weights()
        soft_update(a, MLP([2, 3, 2], rng=1), alpha=0.0)
        for w0, w1 in zip(before, a.get_weights()):
            np.testing.assert_array_equal(w0, w1)

    def test_blend_is_convex(self):
        a = MLP([2, 2, 2], rng=0)
        b = MLP([2, 2, 2], rng=1)
        wa = a.get_weights()
        wb = b.get_weights()
        soft_update(a, b, alpha=0.25)
        for w0, w1, wt in zip(wa, wb, a.get_weights()):
            np.testing.assert_allclose(wt, 0.75 * w0 + 0.25 * w1)

    def test_contraction_toward_online(self):
        """Repeated soft updates converge the target to the online net."""
        a = MLP([2, 3, 2], rng=0)
        b = MLP([2, 3, 2], rng=1)
        for _ in range(600):
            soft_update(a, b, alpha=0.05)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_allclose(pa.value, pb.value, atol=1e-8)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            soft_update(MLP([2, 3, 2], rng=0), MLP([2, 4, 2], rng=0), 0.5)


class TestQNetwork:
    def test_q_values_shape(self):
        q = QNetwork(MLP([4, 4, 3], rng=0))
        assert q.q_values(np.zeros((5, 4))).shape == (5, 3)
        assert q.n_actions == 3 and q.obs_dim == 4

    def test_best_action_argmax(self):
        q = QNetwork(MLP([2, 3, 4], rng=0))
        obs = np.array([0.3, -0.2])
        assert q.best_action(obs) == int(np.argmax(q.q_values(obs)))

    def test_td_backward_only_taken_action(self):
        q = QNetwork(MLP([3, 4, 2], rng=0))
        obs = np.random.default_rng(0).normal(size=(4, 3))
        actions = np.array([0, 1, 0, 1])
        targets = q.q_values(obs)[np.arange(4), actions]  # perfect targets
        q.net.zero_grad()
        loss = q.td_backward(obs, actions, targets)
        assert loss == pytest.approx(0.0)
        for p in q.net.parameters():
            np.testing.assert_allclose(p.grad, 0.0, atol=1e-12)

    @pytest.mark.parametrize("use_batchnorm", [False, True])
    def test_td_backward_grads_bit_equal_to_full_backward(self, use_batchnorm):
        """Training skips the first layer's input gradient; every
        parameter gradient must equal the full backward pass bit for
        bit (``MLP.backward`` with the input gradient on, as before)."""
        rng = np.random.default_rng(5)
        obs = rng.normal(size=(6, 5))
        actions = rng.integers(0, 3, size=6)
        targets = rng.normal(size=6)

        q = QNetwork(MLP([5, 7, 7, 3], use_batchnorm=use_batchnorm, rng=2))
        q.net.zero_grad()
        loss = q.td_backward(obs, actions, targets)

        ref = MLP([5, 7, 7, 3], use_batchnorm=use_batchnorm, rng=2)
        ref.zero_grad()
        q_all = ref.forward(obs)
        rows = np.arange(6)
        ref_loss, dpred = mse_loss(q_all[rows, actions], targets)
        grad = np.zeros_like(q_all)
        grad[rows, actions] = dpred
        grad_in = ref.backward(grad)

        assert grad_in.shape == obs.shape
        assert loss == ref_loss
        for mine, theirs in zip(q.net.parameters(), ref.parameters()):
            np.testing.assert_array_equal(mine.grad, theirs.grad)
        ref.zero_grad()
        assert ref.backward(grad, input_grad=False) is None
        for mine, theirs in zip(q.net.parameters(), ref.parameters()):
            np.testing.assert_array_equal(mine.grad, theirs.grad)

    def test_td_backward_validates(self):
        q = QNetwork(MLP([3, 4, 2], rng=0))
        with pytest.raises(ValueError):
            q.td_backward(np.zeros((2, 3)), np.array([0]), np.zeros(2))
        with pytest.raises(ValueError):
            q.td_backward(np.zeros((2, 3)), np.array([0, 5]), np.zeros(2))

    def test_bad_loss_name(self):
        with pytest.raises(ValueError):
            QNetwork(MLP([2, 2, 2], rng=0), loss="nope")


def synthetic_batch(obs_dim, n, rng, reward_of_action=None):
    s = rng.normal(size=(n, obs_dim))
    s2 = rng.normal(size=(n, obs_dim))
    a = rng.integers(0, 3, size=n)
    r = rng.normal(size=n) if reward_of_action is None else reward_of_action(a)
    return Minibatch(s_t=s, s_next=s2, actions=a, rewards=r.astype(np.float64))


class TestDQNAgent:
    def make(self, hp=None):
        hp = hp or Hyperparameters(
            hidden_layer_size=8, exploration_ticks=50, discount_rate=0.0
        )
        return DQNAgent(obs_dim=6, n_actions=3, hp=hp, rng=0)

    def test_act_range(self):
        agent = self.make()
        obs = np.zeros(6)
        for _ in range(20):
            assert 0 <= agent.act(obs) < 3

    def test_greedy_act_deterministic(self):
        agent = self.make()
        obs = np.ones(6)
        acts = {agent.act(obs, greedy=True) for _ in range(5)}
        assert len(acts) == 1
        # greedy never consumes epsilon schedule
        assert agent.epsilon.ticks == 0

    def test_epsilon_consumed_per_act(self):
        agent = self.make()
        before = agent.epsilon.value
        agent.act(np.zeros(6))
        assert agent.epsilon.ticks == 1
        assert agent.epsilon.value < before

    def test_train_step_reduces_loss_on_fixed_problem(self):
        """γ=0 turns DQN into regression on rewards: loss must fall."""
        hp = Hyperparameters(
            hidden_layer_size=16,
            discount_rate=0.0,
            adam_learning_rate=3e-3,
            target_network_update_rate=0.05,
        )
        agent = DQNAgent(obs_dim=4, n_actions=3, hp=hp, rng=0)
        rng = np.random.default_rng(0)
        # reward depends deterministically on the action
        batch = synthetic_batch(
            4, 64, rng, reward_of_action=lambda a: a.astype(np.float64)
        )
        first = agent.train_step(batch)
        for _ in range(300):
            last = agent.train_step(batch)
        assert last < first * 0.1

    def test_bellman_targets_gamma_zero_is_reward(self):
        agent = self.make()
        b = synthetic_batch(6, 8, np.random.default_rng(1))
        np.testing.assert_allclose(agent.bellman_targets(b), b.rewards)

    def test_bellman_targets_use_target_net_max(self):
        hp = Hyperparameters(hidden_layer_size=8, discount_rate=0.5)
        agent = DQNAgent(obs_dim=6, n_actions=3, hp=hp, rng=0)
        b = synthetic_batch(6, 4, np.random.default_rng(2))
        q_next = agent.target.q_values(b.s_next)
        expect = b.rewards + 0.5 * q_next.max(axis=1)
        np.testing.assert_allclose(agent.bellman_targets(b), expect)

    def test_workload_change_bumps_epsilon(self):
        agent = self.make()
        for _ in range(100):
            agent.act(np.zeros(6))
        assert agent.epsilon.value == 0.05
        agent.notify_workload_change()
        assert agent.epsilon.value == 0.20

    def test_workload_change_telemetry_counts_every_notification(self):
        """Regression: a change arriving while epsilon is still high
        must count in ``bumps`` even though epsilon does not move."""
        agent = self.make()
        agent.notify_workload_change()  # epsilon still at initial
        assert agent.epsilon.bumps == 1
        for _ in range(100):
            agent.act(np.zeros(6))
        agent.notify_workload_change()  # now it raises epsilon too
        assert agent.epsilon.bumps == 2
        assert agent.epsilon.value == 0.20

    def test_train_from_sampler_starved_returns_none(self):
        agent = self.make()
        db = ReplayDB(2)
        sampler = MinibatchSampler(db.cache, obs_ticks=3)
        assert agent.train_from_sampler(sampler) is None

    def test_loss_history_grows(self):
        agent = self.make()
        b = synthetic_batch(6, 8, np.random.default_rng(3))
        agent.train_step(b)
        agent.train_step(b)
        assert len(agent.loss_history) == 2
        assert agent.train_steps == 2

    def test_loss_history_bounded(self):
        """Long sweeps must not grow the trace without limit: the window
        keeps exactly the most recent losses, in order."""
        hp = Hyperparameters(
            hidden_layer_size=8, exploration_ticks=50, discount_rate=0.0
        )
        agent = DQNAgent(
            obs_dim=6, n_actions=3, hp=hp, loss_history_limit=10, rng=0
        )
        b = synthetic_batch(6, 8, np.random.default_rng(3))
        losses = [agent.train_step(b) for _ in range(25)]
        assert agent.train_steps == 25  # counters unaffected by the cap
        assert len(agent.loss_history) == 10
        assert list(agent.loss_history) == losses[-10:]

    def test_loss_history_limit_validated(self):
        with pytest.raises(ValueError, match="loss_history_limit"):
            DQNAgent(obs_dim=6, n_actions=3, loss_history_limit=0, rng=0)


class TestDoubleDQN:
    """The ``double_dqn`` target split (van Hasselt et al., 2016)."""

    GAMMA = 0.5

    def make(self, double: bool) -> DQNAgent:
        hp = Hyperparameters(hidden_layer_size=8, discount_rate=self.GAMMA)
        agent = DQNAgent(
            obs_dim=6, n_actions=3, hp=hp, double_dqn=double, rng=0
        )
        # Fresh agents clone online into target, which makes both
        # argmaxes agree everywhere and the flag unobservable; desync
        # the target so action *selection* and *evaluation* differ.
        perturb = np.random.default_rng(7)
        for p in agent.target.net.parameters():
            p.value += 0.5 * perturb.normal(size=p.value.shape)
        return agent

    def batch(self):
        return synthetic_batch(6, 16, np.random.default_rng(11))

    def test_double_targets_select_online_evaluate_target(self):
        """y = r + γ · Q_target(s', argmax_a Q_online(s', a))."""
        agent = self.make(double=True)
        b = self.batch()
        q_next_online = agent.online.q_values(b.s_next)
        q_next_target = agent.target.q_values(b.s_next)
        chosen = np.argmax(q_next_online, axis=1)
        expect = b.rewards + self.GAMMA * q_next_target[
            np.arange(len(b)), chosen
        ]
        np.testing.assert_allclose(agent.bellman_targets(b), expect)
        # The split must be observable: on some row the online argmax
        # disagrees with the target argmax, so double != vanilla.
        vanilla = b.rewards + self.GAMMA * q_next_target.max(axis=1)
        assert (chosen != np.argmax(q_next_target, axis=1)).any()
        assert not np.allclose(expect, vanilla)

    def test_double_false_reproduces_vanilla_max(self):
        """The default flag is Equation 1's plain max operator."""
        agent = self.make(double=False)
        b = self.batch()
        q_next_target = agent.target.q_values(b.s_next)
        expect = b.rewards + self.GAMMA * q_next_target.max(axis=1)
        np.testing.assert_allclose(agent.bellman_targets(b), expect)

    @pytest.mark.parametrize("double", [False, True])
    def test_train_step_loss_matches_hand_computed_targets(self, double):
        """train_step's reported loss is the MSE between the pre-update
        online Q(s,a) and the hand-computed TD target."""
        agent = self.make(double=double)
        b = self.batch()
        q_next_target = agent.target.q_values(b.s_next)
        if double:
            chosen = np.argmax(agent.online.q_values(b.s_next), axis=1)
            future = q_next_target[np.arange(len(b)), chosen]
        else:
            future = q_next_target.max(axis=1)
        targets = b.rewards + self.GAMMA * future
        q_taken = agent.online.q_values(b.s_t)[np.arange(len(b)), b.actions]
        expected_loss = float(np.mean((q_taken - targets) ** 2))
        assert agent.train_step(b) == pytest.approx(expected_loss)

    def test_double_never_exceeds_vanilla_targets(self):
        """Evaluating the online pick with θ⁻ can only lower the future
        term versus the max — the optimism-bias removal itself."""
        vanilla = self.make(double=False)
        double = self.make(double=True)
        b = self.batch()
        assert (double.bellman_targets(b) <= vanilla.bellman_targets(b) + 1e-12).all()
