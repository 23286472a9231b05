"""``DQNAgent.train_step`` against the step spelled out tensor by tensor.

The reference below is the SGD step in its plainest form: zero the
gradients, backpropagate Equation 1's loss with the accumulating
``MLP.backward``, run the textbook optimiser expressions once per
parameter (fresh arrays, no ``out=``), blend each tensor into the
target.  However ``train_step`` organises the same arithmetic — in
place, fused, blocked over a flat buffer — θ, θ⁻, every optimiser slot
and every loss must come out equal *to the byte* (``tobytes()``, so
the sign of a zero counts).

An oracle rather than hex constants: GEMM bits depend on the BLAS
kernel the host selects, and both sides here run on the same one.  The
repo's ``RolloutDigest`` goldens stay the same-machine check.
"""

import numpy as np
import pytest

from repro.nn import SGD, Adam, Momentum, RMSProp
from repro.nn.losses import huber_loss, mse_loss
from repro.replaydb.records import Minibatch
from repro.rl import DQNAgent, Hyperparameters


# -- the textbook updates: (state, t, g, value) -> new value ---------------
def sgd_reference(opt, state, t, g, value):
    return value - opt.lr * g


def momentum_reference(opt, state, t, g, value):
    state["v"] = opt.momentum * state["v"] - opt.lr * g
    return value + state["v"]


def rmsprop_reference(opt, state, t, g, value):
    state["sq"] = opt.rho * state["sq"] + (1.0 - opt.rho) * g**2
    return value - opt.lr * g / (np.sqrt(state["sq"]) + opt.eps)


def adam_reference(opt, state, t, g, value):
    state["m"] = opt.beta1 * state["m"] + (1.0 - opt.beta1) * g
    state["v"] = opt.beta2 * state["v"] + (1.0 - opt.beta2) * g**2
    bc1 = 1.0 - opt.beta1**t
    bc2 = 1.0 - opt.beta2**t
    return value - opt.lr * (state["m"] / bc1) / (
        np.sqrt(state["v"] / bc2) + opt.eps
    )


OPTIMISERS = {
    "sgd": (lambda: SGD(lr=0.05), sgd_reference),
    "momentum": (lambda: Momentum(lr=0.01, momentum=0.9), momentum_reference),
    "rmsprop": (lambda: RMSProp(lr=0.01), rmsprop_reference),
    "adam": (lambda: Adam(lr=1e-3), adam_reference),
}


class ReferenceStepper:
    """Steps a twin agent's networks the long way round.

    The twin is only a container for an identically initialised online
    and target network (and the unchanged ``bellman_targets``); its own
    ``train_step`` and optimiser are never called.
    """

    def __init__(self, twin: DQNAgent, update):
        self.twin = twin
        self.update = update
        self.opt = twin.optimizer  # hyperparameters only
        self.steps = 0
        #: parameter position -> slot name -> tensor
        self.state = [
            {name: np.zeros(p.value.shape) for name in self.opt.slots}
            for p in twin.online.net.parameters()
        ]
        self.losses = []

    def step(self, batch: Minibatch) -> None:
        twin = self.twin
        net = twin.online.net
        targets = twin.bellman_targets(batch)
        net.zero_grad()
        q_all = net.forward(batch.s_t)
        rows = np.arange(len(batch))
        loss_fn = mse_loss if twin.online.loss_name == "mse" else huber_loss
        loss, dpred = loss_fn(q_all[rows, batch.actions], targets)
        grad = np.zeros_like(q_all)
        grad[rows, batch.actions] = dpred
        net.backward(grad, input_grad=False)  # accumulates into the zeros
        self.steps += 1
        for p, state in zip(net.parameters(), self.state):
            p.value[...] = self.update(
                self.opt, state, self.steps, p.grad, p.value
            )
        alpha = twin.hp.target_network_update_rate
        for tp, op in zip(twin.target.net.parameters(), net.parameters()):
            tp.value[...] = tp.value * (1.0 - alpha) + alpha * op.value
        self.losses.append(loss)

    def slot_arrays(self):
        """Same keys, same order as ``Optimizer.state_arrays``."""
        kind = self.opt.kind
        out = {f"{kind}.steps": np.array([self.steps])}
        for name in self.opt.slots:
            for i, state in enumerate(self.state):
                out[f"{kind}.{name}.{i}"] = state[name]
        return out


def make_batch(rng, n, obs_dim, n_actions):
    return Minibatch(
        s_t=rng.normal(size=(n, obs_dim)),
        s_next=rng.normal(size=(n, obs_dim)),
        actions=rng.integers(0, n_actions, size=n),
        rewards=rng.normal(size=n),
    )


def make_pair(kind, obs_dim, n_actions, hidden, n_hidden_layers=2, **agent_kwargs):
    make, update = OPTIMISERS[kind]
    hp = Hyperparameters(
        hidden_layer_size=hidden,
        n_hidden_layers=n_hidden_layers,
        target_network_update_rate=0.05,
    )
    agent, twin = (
        DQNAgent(obs_dim, n_actions, hp=hp, optimizer=make(), rng=9, **agent_kwargs)
        for _ in range(2)
    )
    return agent, ReferenceStepper(twin, update)


def assert_same_bytes(name, mine, theirs):
    mine, theirs = np.asarray(mine), np.asarray(theirs)
    assert mine.shape == theirs.shape, name
    assert mine.dtype == theirs.dtype, name
    assert mine.tobytes() == theirs.tobytes(), name


def assert_agents_equal(agent: DQNAgent, ref: ReferenceStepper, losses):
    twin = ref.twin
    for label, mine, theirs in (
        ("theta", agent.online.net, twin.online.net),
        ("theta-", agent.target.net, twin.target.net),
    ):
        for p, q in zip(mine.parameters(), theirs.parameters(), strict=True):
            assert_same_bytes(f"{label} {p.name}", p.value, q.value)
        for a, b in zip(mine._norms, theirs._norms, strict=True):
            if a is not None:
                assert_same_bytes(f"{label} mean", a.running_mean, b.running_mean)
                assert_same_bytes(f"{label} var", a.running_var, b.running_var)
    mine, theirs = agent.optimizer.state_arrays(), ref.slot_arrays()
    assert list(mine) == list(theirs)
    for key in mine:
        assert_same_bytes(key, mine[key], theirs[key])
    assert_same_bytes("losses", np.array(losses), np.array(ref.losses))
    assert list(agent.loss_history) == ref.losses
    assert agent.train_steps == ref.steps == agent.optimizer.steps


def run_both(agent, ref, batches):
    losses = []
    for batch in batches:
        losses.append(agent.train_step(batch))
        ref.step(batch)
    assert_agents_equal(agent, ref, losses)


@pytest.mark.parametrize("loss", ["mse", "huber"])
@pytest.mark.parametrize("double_dqn", [False, True])
@pytest.mark.parametrize("use_batchnorm", [False, True])
@pytest.mark.parametrize("kind", sorted(OPTIMISERS))
def test_train_step_equals_reference(kind, use_batchnorm, double_dqn, loss):
    agent, ref = make_pair(
        kind, 11, 4, 7,
        use_batchnorm=use_batchnorm, double_dqn=double_dqn, loss=loss,
    )
    rng = np.random.default_rng(21)
    run_both(agent, ref, [make_batch(rng, 8, 11, 4) for _ in range(6)])


@pytest.mark.parametrize("kind", sorted(OPTIMISERS))
def test_parameter_count_straddles_blocks(kind):
    """68 555 parameters in tensors of 45 000 / 150 / 22 500 / 150 / 750
    / 5 elements: any power-of-two block between 1 Ki and 32 Ki elements
    has an edge inside ``fc0.W`` and another inside ``fc1.W``, and the
    last block is a partial one."""
    agent, ref = make_pair(kind, 300, 5, 150)
    assert agent.online.net.num_parameters() == 68_555
    rng = np.random.default_rng(22)
    run_both(agent, ref, [make_batch(rng, 16, 300, 5) for _ in range(3)])


@pytest.mark.parametrize("kind", sorted(OPTIMISERS))
def test_exact_zero_gradients_keep_their_sign(kind):
    """Dead input columns under all-negative output gradients.  With one
    action everywhere and targets far above any Q-value the output
    gradient is negative in one column and ``+0.0`` elsewhere, so behind
    a single hidden layer each unit's gradient has one sign across the
    batch; for the negative ones every product feeding a dead column's
    entry of ``fc0.W.grad`` is ``0.0 * negative``, i.e. ``-0.0``.  An
    accumulating backward adds them to ``+0.0`` (giving ``+0.0``); one
    that writes its result directly may store ``-0.0``.  Either way the
    stepped weights, the slots and the target must not differ in a
    single bit — twice, so the second step starts from slots the first
    one left."""
    obs_dim, n_actions = 12, 3
    agent, ref = make_pair(kind, obs_dim, n_actions, 6, n_hidden_layers=1)
    rng = np.random.default_rng(23)
    batches = []
    for _ in range(2):
        batch = make_batch(rng, 8, obs_dim, n_actions)
        batch.s_t[:, ::3] = 0.0
        batch.s_next[:, ::3] = 0.0
        batch.actions[:] = 1
        batch.rewards[:] = 1e3
        batches.append(batch)
    run_both(agent, ref, batches)
    taken = agent.online.net.parameters()[-1].grad  # output bias
    assert taken[1] < 0.0 and not taken[[0, 2]].any()


def test_adam_past_the_step_where_bias_correction_one_is_exact():
    """From t = 356 on (beta1 = 0.9), ``1 - beta1**t`` is exactly 1.0 and
    the sweep skips ``m / bc1``; the reference keeps dividing."""
    agent, ref = make_pair("adam", 11, 4, 7)
    assert 1.0 - agent.optimizer.beta1**356 == 1.0
    assert 1.0 - agent.optimizer.beta1**355 != 1.0
    rng = np.random.default_rng(25)
    run_both(agent, ref, [make_batch(rng, 4, 11, 4) for _ in range(360)])


def test_reference_is_not_vacuous():
    """The comparison can fail: one flipped low bit in one weight is seen."""
    agent, ref = make_pair("adam", 11, 4, 7)
    rng = np.random.default_rng(24)
    run_both(agent, ref, [make_batch(rng, 8, 11, 4)])
    w = ref.twin.online.net.parameters()[2].value
    w[0, 0] = np.nextafter(w[0, 0], np.inf)
    with pytest.raises(AssertionError, match="fc1.W"):
        assert_agents_equal(agent, ref, list(agent.loss_history))
