"""The parameter arena and the sweep over it: invariants, as exact tests.

Every ``MLP`` keeps its weights in one flat float64 vector (``theta``)
and its gradients in another (``nabla``); each ``Parameter.value`` /
``.grad`` is a reshaped view at a fixed offset.  The optimiser sweeps
those vectors block by block, so anything that *rebinds* a view, or
builds a network whose tensors live elsewhere, would silently train
memory nobody reads.  These tests pin the layout through every way a
network enters an agent, the validate-before-moving rule of the two
updates that used to half-apply, and the no-weight-sized-temporary
guarantee (as a ``tracemalloc`` peak — no wall clock anywhere).
"""

import tracemalloc

import numpy as np
import pytest

from repro.nn import (
    MLP,
    SGD,
    Adam,
    BatchNorm1d,
    Dense,
    Momentum,
    Parameter,
    RMSProp,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    load_checkpoint,
    save_checkpoint,
)
from repro.nn.optimizers import BLOCK
from repro.replaydb.records import Minibatch
from repro.rl import DQNAgent, Hyperparameters, soft_update
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.snapshot.layers import capture_agent, restore_agent
from repro.serve.protocol import PREFIX


def assert_packed(net: MLP) -> None:
    """Each tensor is a C-contiguous view at its offset in both arenas,
    and together, in ``parameters()`` order, they tile them exactly."""
    for arena in (net.theta, net.nabla):
        assert arena.ndim == 1 and arena.dtype == np.float64
        assert arena.flags.c_contiguous
    at = 0
    for p in net.parameters():
        for view, arena in ((p.value, net.theta), (p.grad, net.nabla)):
            assert np.shares_memory(view, arena), p.name
            assert view.flags.c_contiguous, p.name
            assert view.ctypes.data == arena.ctypes.data + 8 * at, p.name
        assert p.home[0] is net.theta and p.home[1] is net.nabla
        assert p.home[2] == at
        at += p.value.size
    assert at == net.theta.size == net.nabla.size == net.num_parameters()


def make_batch(rng, n, obs_dim, n_actions):
    return Minibatch(
        s_t=rng.normal(size=(n, obs_dim)),
        s_next=rng.normal(size=(n, obs_dim)),
        actions=rng.integers(0, n_actions, size=n),
        rewards=rng.normal(size=n),
    )


def small_agent(**kwargs) -> DQNAgent:
    hp = Hyperparameters(hidden_layer_size=6)
    return DQNAgent(9, 3, hp=hp, rng=4, **kwargs)


# -- layout ------------------------------------------------------------------
class TestLayout:
    @pytest.mark.parametrize("use_batchnorm", [False, True])
    def test_construction_packs_in_parameters_order(self, use_batchnorm):
        net = MLP([5, 7, 7, 3], use_batchnorm=use_batchnorm, rng=0)
        assert_packed(net)
        names = [p.name for p in net.parameters()]
        if use_batchnorm:
            assert names == [
                "fc0.W", "fc0.b", "bn0.gamma", "bn0.beta",
                "fc1.W", "fc1.b", "bn1.gamma", "bn1.beta",
                "fc2.W", "fc2.b",
            ]  # fmt: skip
        else:
            assert names == ["fc0.W", "fc0.b", "fc1.W", "fc1.b", "fc2.W", "fc2.b"]
        # The layers hold the very objects parameters() lists.
        assert net.parameters()[0] is net._dense[0].W
        assert net.parameters()[-1] is net._dense[-1].b

    def test_packing_keeps_the_initial_weights(self):
        """Same seed, same weights as a layer built on its own."""
        from repro.util.rng import derive_rng, ensure_rng

        net = MLP([4, 5, 2], rng=3)
        alone = Dense(4, 5, rng=derive_rng(ensure_rng(3), "layer", 0))
        assert net.parameters()[0].value.tobytes() == alone.W.value.tobytes()
        assert not net.nabla.any()

    def test_writes_go_through_both_ways(self):
        net = MLP([3, 4, 2], rng=0)
        w = net.parameters()[2]  # fc1.W, offset 3*4 + 4
        net.theta[16] = 42.0
        assert w.value[0, 0] == 42.0
        w.grad[1, 1] = -7.0
        assert net.nabla[16 + 3] == -7.0

    def test_loose_parameter_is_its_own_arena(self):
        p = Parameter("x", np.arange(6.0).reshape(2, 3))
        theta, nabla, start = p.home
        assert start == 0 and theta.shape == nabla.shape == (6,)
        assert np.shares_memory(p.value, theta) and np.shares_memory(p.grad, nabla)
        assert p.shape == (2, 3) and not p.grad.any()

    def test_weight_transfer_keeps_the_views(self, tmp_path):
        net = MLP([5, 7, 3], use_batchnorm=True, rng=0)
        views = [(p.value, p.grad) for p in net.parameters()]
        net.set_weights([w + 1.0 for w in net.get_weights()])
        net.zero_grad()
        for p, (value, grad) in zip(net.parameters(), views):
            assert p.value is value and p.grad is grad
        assert_packed(net)

        twin = net.clone()
        assert_packed(twin)
        assert twin.theta.tobytes() == net.theta.tobytes()
        assert not np.shares_memory(twin.theta, net.theta)

        save_checkpoint(tmp_path / "m.npz", net)
        loaded, _ = load_checkpoint(tmp_path / "m.npz")
        assert_packed(loaded)
        assert loaded.theta.tobytes() == net.theta.tobytes()
        assert_packed(checkpoint_from_bytes(checkpoint_to_bytes(net))[0])

    def test_get_weights_are_detached(self):
        net = MLP([3, 4, 2], rng=0)
        weights = net.get_weights()
        net.theta[...] = 0.0
        assert all(w.any() for w in weights[::2])
        assert not any(np.shares_memory(w, net.theta) for w in weights)

    def test_views_cannot_be_rebound(self):
        net = MLP([3, 4, 2], rng=0)
        p = net.parameters()[0]
        for attr in ("value", "grad", "home"):
            with pytest.raises(AttributeError, match="fc0.W"):
                setattr(p, attr, np.zeros((3, 4)))
        # In-place operators store the same object back: still allowed.
        value = p.value
        p.value += 1.0
        p.grad -= 1.0
        p.value *= 2.0
        assert p.value is value
        assert_packed(net)
        p.name = "renamed"


# -- every way a network enters an agent ------------------------------------------
def _load_checkpoint(agent, donor, tmp_path):
    """``CapesSession.load``: a checkpoint file into the live agent."""
    path = tmp_path / "model.npz"
    save_checkpoint(path, donor.online.net, optimizer=donor.optimizer)
    net, _ = load_checkpoint(path, optimizer=agent.optimizer)
    agent.adopt_network(net)


def _serve_checkpoint(agent, donor, tmp_path):
    """A served CHECKPOINT broadcast, adopted by the client's agent."""
    client = ServeClient("localhost", 0, "c0", frame_width=1, agent=agent)
    blob = checkpoint_to_bytes(donor.online.net)
    client._apply_checkpoint(protocol.pack_checkpoint(0, 1, blob)[PREFIX.size :])
    assert client.checkpoints_applied == 1


def _restore_snapshot(agent, donor, tmp_path):
    """A session snapshot's agent section."""
    restore_agent(agent, *capture_agent(donor))


class TestAdoption:
    def test_agent_networks_are_packed(self):
        agent = small_agent(use_batchnorm=True)
        assert_packed(agent.online.net)
        assert_packed(agent.target.net)
        assert not np.shares_memory(agent.online.net.theta, agent.target.net.theta)

    def test_adopt_network(self):
        agent = small_agent()
        donor = MLP.for_q_network(9, 3, hidden_size=6, rng=8)
        agent.adopt_network(donor)
        assert agent.online.net is donor
        assert_packed(agent.online.net)
        assert_packed(agent.target.net)
        assert agent.target.net.theta.tobytes() == donor.theta.tobytes()
        agent.adopt_network(donor.clone(), target_net=donor.clone())
        assert_packed(agent.online.net)
        assert_packed(agent.target.net)

    def test_optimizer_follows_adopted_networks(self):
        """The optimiser outlives the networks it steps: 3 steps, the
        state shipped as checkpoint bytes into *new* network objects
        (the checkpoint-load / snapshot-restore path), 3 more steps —
        equal to 6 uninterrupted steps on the original objects, byte
        for byte, and the abandoned networks are never touched again."""
        rng = np.random.default_rng(5)
        batches = [make_batch(rng, 8, 9, 3) for _ in range(6)]
        straight, hopped = small_agent(), small_agent()
        for batch in batches:
            straight.train_step(batch)
        for batch in batches[:3]:
            hopped.train_step(batch)
        old_online, old_target = hopped.online.net, hopped.target.net
        frozen = old_online.theta.copy(), old_target.theta.copy()
        net, _ = checkpoint_from_bytes(
            hopped.snapshot_weights(include_optimizer=True),
            optimizer=hopped.optimizer,
        )
        target_net, _ = checkpoint_from_bytes(
            checkpoint_to_bytes(hopped.target.net)
        )
        hopped.adopt_network(net, target_net)
        for batch in batches[3:]:
            hopped.train_step(batch)
        assert hopped.snapshot_weights(True) == straight.snapshot_weights(True)
        assert checkpoint_to_bytes(hopped.target.net) == checkpoint_to_bytes(
            straight.target.net
        )
        assert old_online.theta.tobytes() == frozen[0].tobytes()
        assert old_target.theta.tobytes() == frozen[1].tobytes()

    def test_snapshot_restore(self):
        rng = np.random.default_rng(6)
        batches = [make_batch(rng, 8, 9, 3) for _ in range(4)]
        original = small_agent()
        for batch in batches[:2]:
            original.train_step(batch)
        meta, arrays = capture_agent(original)
        restored = small_agent()
        restore_agent(restored, meta, arrays)
        assert_packed(restored.online.net)
        assert_packed(restored.target.net)
        for batch in batches[2:]:
            original.train_step(batch)
            restored.train_step(batch)
        assert restored.snapshot_weights(True) == original.snapshot_weights(True)
        assert checkpoint_to_bytes(restored.target.net) == checkpoint_to_bytes(
            original.target.net
        )

    @pytest.mark.parametrize(
        "enter", [_load_checkpoint, _serve_checkpoint, _restore_snapshot]
    )
    def test_next_step_blends_into_the_adopted_target(self, enter, tmp_path):
        """``train_step`` blends θ into θ⁻ through a blend bound to one
        network pair, so every entry path must rebind it: the next step
        moves the adopted target and never the abandoned networks."""
        rng = np.random.default_rng(7)
        agent, donor = small_agent(), DQNAgent(
            9, 3, hp=Hyperparameters(hidden_layer_size=6), rng=11
        )
        for _ in range(2):
            agent.train_step(make_batch(rng, 8, 9, 3))
            donor.train_step(make_batch(rng, 8, 9, 3))
        old_online, old_target = agent.online.net, agent.target.net
        frozen = old_online.theta.copy(), old_target.theta.copy()
        enter(agent, donor, tmp_path)
        assert agent.online.net is not old_online
        assert agent.target.net is not old_target
        assert_packed(agent.target.net)
        # The reference: the same step, then a separate soft update of a
        # copy of the adopted target.
        expected = agent.target.net.clone()
        agent.train_step(make_batch(rng, 8, 9, 3))
        soft_update(expected, agent.online.net, agent.hp.target_network_update_rate)
        assert agent.target.net.theta.tobytes() == expected.theta.tobytes()
        assert old_online.theta.tobytes() == frozen[0].tobytes()
        assert old_target.theta.tobytes() == frozen[1].tobytes()


# -- gradients: accumulate by default, write on request ---------------------------
class TestWriteMode:
    def test_dense_write_equals_zero_then_accumulate(self):
        rng = np.random.default_rng(0)
        x, g = rng.normal(size=(6, 4)), rng.normal(size=(6, 3))
        a, b = Dense(4, 3, rng=1), Dense(4, 3, rng=1)
        a.forward(x)
        b.forward(x)
        b.W.grad[...] = 99.0  # stale: must be overwritten, not added to
        b.b.grad[...] = -99.0
        gin_a = a.backward(g)
        gin_b = b.backward(g, accumulate=False)
        np.testing.assert_array_equal(gin_a, gin_b)
        np.testing.assert_array_equal(a.W.grad, b.W.grad)
        np.testing.assert_array_equal(a.b.grad, b.b.grad)
        # The default still accumulates on top of whatever is there.
        a.backward(g)
        np.testing.assert_array_equal(a.W.grad, b.W.grad + b.W.grad)

    def test_batchnorm_write_equals_zero_then_accumulate(self):
        rng = np.random.default_rng(1)
        x, g = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        a, b = BatchNorm1d(4), BatchNorm1d(4)
        a.forward(x)
        b.forward(x)
        b.gamma.grad[...] = 5.0
        b.beta.grad[...] = 5.0
        np.testing.assert_array_equal(a.backward(g), b.backward(g, accumulate=False))
        np.testing.assert_array_equal(a.gamma.grad, b.gamma.grad)
        np.testing.assert_array_equal(a.beta.grad, b.beta.grad)

    @pytest.mark.parametrize("use_batchnorm", [False, True])
    def test_mlp_write_needs_no_zero_grad(self, use_batchnorm):
        rng = np.random.default_rng(2)
        x, g = rng.normal(size=(5, 4)), rng.normal(size=(5, 2))
        a = MLP([4, 6, 6, 2], use_batchnorm=use_batchnorm, rng=3)
        b = a.clone()
        a.forward(x)
        b.forward(x)
        b.nabla[...] = 1e6
        a.backward(g)
        assert b.backward(g, input_grad=False, accumulate=False) is None
        np.testing.assert_array_equal(a.nabla, b.nabla)

    def test_no_optimiser_can_tell_minus_zero_from_plus_zero(self):
        """The one thing a direct write may change: a sum that starts
        from nothing instead of ``+0.0`` can leave an exact zero as
        ``-0.0`` (whether it does is up to the GEMM / reduction kernel;
        here it does not).  Stepped by all four optimisers next to
        ``+0.0``, weights and slots come out equal to the byte."""
        for make in (SGD, Momentum, RMSProp, Adam):
            plus, minus = (Parameter("b", np.array([0.0, 0.5, -0.5])) for _ in "pm")
            opts = make(lr=0.1), make(lr=0.1)
            for _ in range(3):
                plus.grad[...] = [0.0, 1.0, -2.0]
                minus.grad[...] = [-0.0, 1.0, -2.0]
                opts[0].step([plus])
                opts[1].step([minus])
            assert plus.value.tobytes() == minus.value.tobytes(), make.__name__
            for key, arr in opts[0].state_arrays().items():
                assert arr.tobytes() == opts[1].state_arrays()[key].tobytes(), key


# -- the sweep over arbitrary parameter lists ---------------------------------------
class TestSweep:
    def test_block_is_what_the_straddle_oracle_assumes(self):
        """``test_sgd_equivalence.test_parameter_count_straddles_blocks``
        puts block edges inside two tensors for any power-of-two block
        from 1 Ki to 32 Ki elements."""
        assert BLOCK in (1024, 2048, 4096, 8192, 16384, 32768)

    @pytest.mark.parametrize("make", [SGD, Momentum, RMSProp, Adam])
    def test_sublists_and_mixed_lists_step_like_loose_tensors(self, make):
        """A slice of a packed network (a run that does not start at the
        arena's head), a reordering of it (runs that do not merge) and a
        loose tensor in between: each parameter moves exactly as a loose
        copy of it stepped alone does."""
        rng = np.random.default_rng(3)
        net = MLP([4, 5, 5, 2], rng=1)
        extra = Parameter("extra", rng.normal(size=(3, 3)))
        ps = net.parameters()
        mixed = [ps[3], ps[4], extra, ps[1], ps[0]]
        copies = [Parameter(p.name, p.value.copy()) for p in mixed]
        opt, solo = make(lr=0.01), [make(lr=0.01) for _ in mixed]
        untouched = ps[2].value.copy()
        for _ in range(4):
            for p, c in zip(mixed, copies):
                p.grad[...] = c.grad[...] = rng.normal(size=p.shape)
            opt.step(mixed)
            for c, o in zip(copies, solo):
                o.step([c])
        for p, c in zip(mixed, copies):
            assert p.value.tobytes() == c.value.tobytes(), p.name
        assert ps[2].value.tobytes() == untouched.tobytes()
        state = opt.state_arrays()
        for i, o in enumerate(solo):
            for key, arr in o.state_arrays().items():
                if not key.endswith(".steps"):
                    mine = state[key[: key.rindex(".")] + f".{i}"]
                    assert mine.tobytes() == arr.tobytes(), (key, i)

    def test_after_sees_each_block_once_in_order(self):
        net = MLP([300, 150, 5], rng=0)  # 45 905 parameters: two blocks
        seen = []
        theta_before = net.theta.copy()
        net.nabla[...] = 1.0

        def after(lo, hi):
            # The block just updated has moved; nothing beyond it has.
            assert (net.theta[lo:hi] != theta_before[lo:hi]).all()
            assert net.theta[hi:].tobytes() == theta_before[hi:].tobytes()
            seen.append((lo, hi))

        SGD(lr=0.1).step(net.parameters(), after=after)
        assert seen == [(0, BLOCK), (BLOCK, net.num_parameters())]


# -- validate first, move nothing ------------------------------------------------
def weight_bytes(net: MLP) -> bytes:
    return b"".join(w.tobytes() for w in net.get_weights())


def unit_gradients(net: MLP) -> None:
    for p in net.parameters():
        p.grad[...] = 1.0


class TestNoHalfAppliedUpdates:
    """Written against the surface the parent commit already had, where
    the first two fail: each update checked tensor *i* only after it had
    moved tensors ``0…i-1``."""

    def test_soft_update_mismatch_moves_nothing(self):
        """fc0 matches, fc1 does not: the blend used to move fc0 before
        it noticed."""
        target, online = MLP([4, 6, 3], rng=0), MLP([4, 6, 2], rng=1)
        before = weight_bytes(target)
        with pytest.raises(ValueError, match=r"fc1\.W.*\(6, 3\).*\(6, 2\)"):
            soft_update(target, online, 0.5)
        assert weight_bytes(target) == before
        with pytest.raises(ValueError, match="4 vs 6 tensors"):
            soft_update(MLP([4, 6, 3], rng=0), MLP([4, 6, 6, 3], rng=0), 0.5)

    @pytest.mark.parametrize("make", [Momentum, RMSProp, Adam])
    def test_foreign_optimizer_state_moves_nothing(self, make):
        """Slots from a checkpoint of another topology whose first two
        tensors match: parameters 0 and 1 used to be stepped before
        parameter 2 died in a numpy broadcast error."""
        donor, donor_opt = MLP([4, 6, 3], rng=0), make(lr=0.01)
        unit_gradients(donor)
        donor_opt.step(donor.parameters())
        opt = make(lr=0.01)
        opt.load_state_arrays(donor_opt.state_arrays())
        net = MLP([4, 6, 2], rng=1)
        unit_gradients(net)
        before = weight_bytes(net)
        slot = rf"{opt.kind}\.{opt.slots[0]} "
        wrong = slot + r".*\(6, 3\).*fc1\.W.*\(6, 2\)"
        with pytest.raises(ValueError, match=wrong):
            opt.step(net.parameters())
        assert weight_bytes(net) == before
        assert opt.steps == 1
        for key, arr in donor_opt.state_arrays().items():
            assert opt.state_arrays()[key].tobytes() == arr.tobytes()
        # Too few tensors: the two that are there would fit.
        with pytest.raises(ValueError, match=slot + r".*fc0\.b'[^']*\]$"):
            opt.step(net.parameters()[:2])
        assert weight_bytes(net) == before

    def test_inconsistent_slots_rejected_at_first_step(self):
        """A checkpoint whose slots disagree with each other loads (the
        optimiser cannot know the parameters yet) and is refused, slot
        named, by the first step — which moves nothing."""
        opt = Adam(lr=0.01)
        p = Parameter("x", np.ones(3))
        p.grad[...] = 1.0
        opt.step([p])
        good = opt.state_arrays()
        before = p.value.tobytes()
        for bad, slot in (
            ({**good, "adam.v.0": np.zeros(4)}, "v"),  # v sized unlike m
            ({k: a for k, a in good.items() if k != "adam.v.0"}, "v"),  # no v
            ({**good, "adam.m.1": np.zeros(3)}, "m"),  # a tensor too many
        ):
            opt.load_state_arrays(bad)
            with pytest.raises(ValueError, match=rf"adam\.{slot} .*'x'"):
                opt.step([p])
            assert p.value.tobytes() == before and opt.steps == 1
        opt.load_state_arrays(good)
        opt.step([p])
        assert p.value.tobytes() != before and opt.steps == 2

    def test_set_weights_mismatch_moves_nothing(self):
        net = MLP([4, 6, 3], rng=0)
        before = weight_bytes(net)
        weights = net.get_weights()
        weights[0] += 1.0
        weights[2] = np.zeros((6, 2))
        with pytest.raises(ValueError, match=r"fc1\.W"):
            net.set_weights(weights)
        assert weight_bytes(net) == before


# -- nothing the size of a weight matrix is allocated ---------------------------------
def test_train_step_allocates_less_than_one_weight_matrix():
    """At obs 600 / hidden 300 the first weight matrix is 1.44 MB.  The
    step used to peak at 1.83 MB of fresh allocations (``x.T @ g``
    before the ``+=``, ``alpha * theta`` in the soft update); now its
    largest transients are activations and block-sized scratch."""
    agent = DQNAgent(600, 5, hp=Hyperparameters(hidden_layer_size=300), rng=0)
    batch = make_batch(np.random.default_rng(8), 32, 600, 5)
    agent.train_step(batch)  # slots exist from here on
    first = agent.online.net.parameters()[0]
    assert first.value.nbytes == 600 * 300 * 8
    tracemalloc.start()
    try:
        agent.train_step(batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < first.value.nbytes, f"peak {peak} B"
