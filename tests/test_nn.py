"""Tests for the NumPy DNN substrate: layers, MLP, losses, optimizers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    MLP,
    SGD,
    Adam,
    Dense,
    Identity,
    Momentum,
    ReLU,
    RMSProp,
    Tanh,
    he_uniform,
    huber_loss,
    load_checkpoint,
    mse_loss,
    save_checkpoint,
    xavier_uniform,
)
from repro.nn.checkpoint import checkpoint_from_bytes, checkpoint_to_bytes
from repro.nn.layers import Parameter


class TestInitializers:
    def test_xavier_bounds(self):
        w = xavier_uniform(100, 50, rng=0)
        bound = np.sqrt(6.0 / 150)
        assert w.shape == (100, 50)
        assert np.abs(w).max() <= bound

    def test_he_bounds(self):
        w = he_uniform(100, 50, rng=0)
        assert np.abs(w).max() <= np.sqrt(6.0 / 100)

    def test_deterministic_with_seed(self):
        np.testing.assert_array_equal(
            xavier_uniform(4, 4, rng=7), xavier_uniform(4, 4, rng=7)
        )

    def test_bad_fans(self):
        with pytest.raises(ValueError):
            xavier_uniform(0, 4)


class TestActivations:
    def test_tanh_forward_backward(self):
        a = Tanh()
        x = np.array([[0.0, 1.0, -1.0]])
        y = a.forward(x)
        np.testing.assert_allclose(y, np.tanh(x))
        g = a.backward(np.ones_like(x))
        np.testing.assert_allclose(g, 1.0 - np.tanh(x) ** 2)

    def test_relu(self):
        a = ReLU()
        x = np.array([[-1.0, 0.0, 2.0]])
        np.testing.assert_array_equal(a.forward(x), [[0.0, 0.0, 2.0]])
        np.testing.assert_array_equal(
            a.backward(np.ones_like(x)), [[0.0, 0.0, 1.0]]
        )

    def test_identity(self):
        a = Identity()
        x = np.array([[3.0]])
        assert a.forward(x) is x
        np.testing.assert_array_equal(a.backward(x), x)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            Tanh().backward(np.ones((1, 2)))


class TestDense:
    def test_forward_affine(self):
        d = Dense(2, 3, rng=0)
        d.W.value[...] = np.arange(6).reshape(2, 3)
        d.b.value[...] = [1.0, 1.0, 1.0]
        y = d.forward(np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(y, [[7.0, 10.0, 13.0]])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        d = Dense(4, 3, rng=1)
        x = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 3))

        def loss_at(Wflat):
            W_old = d.W.value.copy()
            d.W.value[...] = Wflat.reshape(4, 3)
            val, _ = mse_loss(d.forward(x), target)
            d.W.value[...] = W_old
            return val

        d.W.zero_grad()
        _, dpred = mse_loss(d.forward(x), target)
        d.backward(dpred)
        analytic = d.W.grad.ravel()

        eps = 1e-6
        W0 = d.W.value.ravel().copy()
        numeric = np.zeros_like(W0)
        for i in range(W0.size):
            up, dn = W0.copy(), W0.copy()
            up[i] += eps
            dn[i] -= eps
            numeric[i] = (loss_at(up) - loss_at(dn)) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)

    def test_input_gradient_shape(self):
        d = Dense(4, 2, rng=0)
        x = np.zeros((3, 4))
        d.forward(x)
        gin = d.backward(np.ones((3, 2)))
        assert gin.shape == (3, 4)

    def test_shape_validation(self):
        d = Dense(4, 2, rng=0)
        with pytest.raises(ValueError):
            d.forward(np.zeros((3, 5)))
        d.forward(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            d.backward(np.zeros((3, 3)))

    def test_gradients_accumulate(self):
        d = Dense(2, 2, rng=0)
        x = np.ones((1, 2))
        for _ in range(2):
            d.forward(x)
            d.backward(np.ones((1, 2)))
        np.testing.assert_allclose(d.W.grad, 2 * np.ones((2, 2)))
        d.W.zero_grad()
        np.testing.assert_array_equal(d.W.grad, 0)


class TestMLP:
    def test_q_topology_matches_paper(self):
        net = MLP.for_q_network(obs_dim=20, n_actions=5, rng=0)
        # input, two hidden of input width, output per action
        assert net.layer_dims == [20, 20, 20, 5]

    def test_hidden_size_override(self):
        net = MLP.for_q_network(20, 5, hidden_size=8, rng=0)
        assert net.layer_dims == [20, 8, 8, 5]

    def test_forward_batch_and_single(self):
        net = MLP([3, 4, 2], rng=0)
        batch = net.forward(np.zeros((7, 3)))
        single = net.forward(np.zeros(3))
        assert batch.shape == (7, 2)
        assert single.shape == (2,)

    def test_full_network_gradcheck(self):
        rng = np.random.default_rng(3)
        net = MLP([3, 5, 2], rng=2)
        x = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 2))
        net.zero_grad()
        _, dpred = mse_loss(net.forward(x), target)
        net.backward(dpred)
        params = net.parameters()
        eps = 1e-6
        for p in params:
            flat = p.value.ravel()
            grad = p.grad.ravel()
            idx = rng.integers(0, flat.size, size=min(6, flat.size))
            for i in idx:
                orig = flat[i]
                flat[i] = orig + eps
                up, _ = mse_loss(net.forward(x), target)
                flat[i] = orig - eps
                dn, _ = mse_loss(net.forward(x), target)
                flat[i] = orig
                num = (up - dn) / (2 * eps)
                assert grad[i] == pytest.approx(num, rel=1e-4, abs=1e-7)

    def test_clone_copies_weights_not_aliases(self):
        net = MLP([3, 4, 2], rng=0)
        twin = net.clone()
        np.testing.assert_array_equal(
            net.parameters()[0].value, twin.parameters()[0].value
        )
        twin.parameters()[0].value[...] += 1.0
        assert not np.allclose(
            net.parameters()[0].value, twin.parameters()[0].value
        )

    def test_set_weights_validates(self):
        net = MLP([3, 4, 2], rng=0)
        with pytest.raises(ValueError):
            net.set_weights([np.zeros((3, 4))])  # wrong count
        w = net.get_weights()
        w[0] = np.zeros((4, 3))  # wrong shape
        with pytest.raises(ValueError):
            net.set_weights(w)

    def test_num_parameters(self):
        net = MLP([3, 4, 2], rng=0)
        assert net.num_parameters() == 3 * 4 + 4 + 4 * 2 + 2

    def test_nbytes_positive(self):
        assert MLP([3, 4, 2], rng=0).nbytes() > 0

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            MLP([3])
        with pytest.raises(ValueError):
            MLP([3, 0, 2])


class TestLosses:
    def test_mse_value_and_grad(self):
        pred = np.array([1.0, 2.0])
        target = np.array([0.0, 0.0])
        val, grad = mse_loss(pred, target)
        assert val == pytest.approx(2.5)
        np.testing.assert_allclose(grad, [1.0, 2.0])

    def test_mse_zero_at_match(self):
        x = np.array([1.0, 2.0])
        val, grad = mse_loss(x, x)
        assert val == 0.0
        np.testing.assert_array_equal(grad, 0)

    def test_huber_quadratic_region(self):
        val, grad = huber_loss(np.array([0.5]), np.array([0.0]), delta=1.0)
        assert val == pytest.approx(0.125)
        np.testing.assert_allclose(grad, [0.5])

    def test_huber_linear_region_clips_gradient(self):
        val, grad = huber_loss(np.array([10.0]), np.array([0.0]), delta=1.0)
        assert val == pytest.approx(9.5)
        np.testing.assert_allclose(grad, [1.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss(np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError):
            huber_loss(np.zeros(2), np.zeros(3))


class OptimizerMixin:
    #: The exact keys ``state_arrays()`` holds after stepping one
    #: parameter — the checkpoint format, so spelled out per optimiser.
    state_keys: set

    def make(self):
        raise NotImplementedError

    def test_converges_on_quadratic(self):
        """Minimise ||x - c||^2; every optimiser must reach c."""
        opt = self.make()
        c = np.array([3.0, -2.0])
        p = Parameter("x", np.zeros(2))
        for _ in range(6000):
            p.zero_grad()
            p.grad[...] = 2 * (p.value - c)
            opt.step([p])
        np.testing.assert_allclose(p.value, c, atol=1e-2)

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            type(self.make())(lr=0.0)

    def test_state_roundtrip(self):
        """k steps, checkpoint, restore into a fresh optimiser, k more
        steps == 2k uninterrupted steps, bit for bit."""
        k = 4
        grads = np.random.default_rng(3).normal(size=(2 * k, 64))

        def run(net, opt, rows):
            for row in rows:
                at = 0
                for p in net.parameters():
                    p.grad[...] = row[at : at + p.value.size].reshape(p.shape)
                    at += p.value.size
                opt.step(net.parameters())

        straight, straight_opt = MLP([3, 4, 2], rng=0), self.make()
        run(straight, straight_opt, grads)

        first, first_opt = MLP([3, 4, 2], rng=0), self.make()
        run(first, first_opt, grads[:k])
        resumed_opt = self.make()
        resumed, _ = checkpoint_from_bytes(
            checkpoint_to_bytes(first, optimizer=first_opt),
            optimizer=resumed_opt,
        )
        assert resumed_opt.steps == k
        run(resumed, resumed_opt, grads[k:])

        assert resumed_opt.steps == straight_opt.steps == 2 * k
        for a, b in zip(straight.get_weights(), resumed.get_weights()):
            np.testing.assert_array_equal(a, b)

    def test_state_arrays_are_detached_copies_of_declared_state(self):
        """Capture, step, the captured dict is unchanged — and it holds
        the documented keys only (no working memory)."""
        opt = self.make()
        p = Parameter("x", np.ones(3))
        for _ in range(3):
            p.grad[...] = p.value
            opt.step([p])
        captured = opt.state_arrays()
        assert set(captured) == self.state_keys
        frozen = {key: arr.copy() for key, arr in captured.items()}
        p.grad[...] = -2.0
        opt.step([p])
        for key, arr in captured.items():
            np.testing.assert_array_equal(arr, frozen[key])


class TestSGD(OptimizerMixin):
    state_keys = {"sgd.steps"}

    def make(self):
        return SGD(lr=0.05)


class TestMomentum(OptimizerMixin):
    state_keys = {"momentum.steps", "momentum.v.0"}

    def make(self):
        return Momentum(lr=0.01, momentum=0.9)


class TestRMSProp(OptimizerMixin):
    state_keys = {"rmsprop.steps", "rmsprop.sq.0"}

    def make(self):
        return RMSProp(lr=0.01)


class TestAdam(OptimizerMixin):
    state_keys = {"adam.steps", "adam.m.0", "adam.v.0"}

    def make(self):
        return Adam(lr=0.05)

    def test_steps_counter(self):
        opt = Adam(lr=0.01)
        p = Parameter("x", np.zeros(2))
        opt.step([p])
        opt.step([p])
        assert opt.steps == 2

    def test_in_place_update_is_bit_equal_to_textbook(self):
        """50 steps of the in-place update against the allocating
        textbook expressions: equal to the last bit, through exact-zero
        gradients and a change of parameter shapes mid-run."""
        opt = Adam(lr=1e-3)
        rng = np.random.default_rng(11)

        def fresh(shapes):
            params = [
                Parameter(f"p{i}", rng.normal(size=shape))
                for i, shape in enumerate(shapes)
            ]
            return (
                params,
                [p.value.copy() for p in params],
                [np.zeros(shape) for shape in shapes],
                [np.zeros(shape) for shape in shapes],
            )

        params, values, ms, vs = fresh([(7, 5), (5,)])
        for t in range(1, 51):
            if t == 26:
                # A differently shaped network takes over the optimiser
                # (moments dropped, step count kept): the scratch of the
                # old shapes must not be reused.
                params, values, ms, vs = fresh([(4, 9), (9,), (2,)])
                opt.load_state_arrays({"adam.steps": np.array([25])})
            bc1 = 1.0 - opt.beta1**t
            bc2 = 1.0 - opt.beta2**t
            for i, p in enumerate(params):
                g = rng.normal(size=p.shape)
                g[rng.random(p.shape) < 0.3] = 0.0
                if t % 10 == 0:
                    g[...] = 0.0
                p.grad[...] = g
                ms[i] = opt.beta1 * ms[i] + (1.0 - opt.beta1) * g
                vs[i] = opt.beta2 * vs[i] + (1.0 - opt.beta2) * g**2
                values[i] = values[i] - opt.lr * (ms[i] / bc1) / (
                    np.sqrt(vs[i] / bc2) + opt.eps
                )
            opt.step(params)
            state = opt.state_arrays()
            for i, p in enumerate(params):
                np.testing.assert_array_equal(p.value, values[i])
                np.testing.assert_array_equal(state[f"adam.m.{i}"], ms[i])
                np.testing.assert_array_equal(state[f"adam.v.{i}"], vs[i])
        assert opt.steps == 50

    def test_loads_pre_existing_checkpoint_keys(self):
        """``adam.steps`` / ``adam.m.i`` / ``adam.v.i`` are the keys old
        checkpoints carry; they must keep loading."""
        opt = Adam(lr=0.01)
        opt.load_state_arrays(
            {
                "adam.steps": np.array([7]),
                "adam.m.0": np.full(3, 0.5),
                "adam.v.0": np.full(3, 0.25),
            }
        )
        assert opt.steps == 7
        state = opt.state_arrays()
        assert list(state) == ["adam.steps", "adam.m.0", "adam.v.0"]
        np.testing.assert_array_equal(state["adam.m.0"], np.full(3, 0.5))
        np.testing.assert_array_equal(state["adam.v.0"], np.full(3, 0.25))


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        net = MLP([3, 4, 2], rng=0)
        opt = Adam(lr=0.01)
        # make some optimizer state
        net.zero_grad()
        _, d = mse_loss(net.forward(np.ones((1, 3))), np.zeros((1, 2)))
        net.backward(d)
        opt.step(net.parameters())
        path = tmp_path / "model.npz"
        save_checkpoint(path, net, optimizer=opt, extra={"epsilon": 0.3})

        opt2 = Adam(lr=0.01)
        net2, extras = load_checkpoint(path, optimizer=opt2)
        assert net2.layer_dims == net.layer_dims
        for a, b in zip(net.get_weights(), net2.get_weights()):
            np.testing.assert_array_equal(a, b)
        assert opt2.steps == 1
        assert float(extras["epsilon"]) == pytest.approx(0.3)

    def test_outputs_identical_after_reload(self, tmp_path):
        net = MLP([5, 6, 3], rng=1)
        path = tmp_path / "m.npz"
        save_checkpoint(path, net)
        net2, _ = load_checkpoint(path)
        x = np.random.default_rng(0).normal(size=(4, 5))
        np.testing.assert_array_equal(net.forward(x), net2.forward(x))


@settings(max_examples=20, deadline=None)
@given(
    batch=st.integers(min_value=1, max_value=8),
    dim=st.integers(min_value=1, max_value=6),
)
def test_mlp_output_finite_for_any_shape(batch, dim):
    """Property: forward pass is finite for bounded random inputs."""
    net = MLP([dim, dim, 2], rng=0)
    x = np.random.default_rng(1).normal(size=(batch, dim))
    out = net.forward(x)
    assert out.shape == (batch, 2)
    assert np.isfinite(out).all()
