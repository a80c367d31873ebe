"""Autodiff engine: forward ops, gradient correctness, Adam, samplers."""

import gc
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivae import compute as C
from hivae import training as T
from hivae.imputation import impute_map, impute_sample
from hivae.tabular import HeterogeneousTable, MissingMask, Schema

from conftest import StubRng, finite_difference, max_rel_err


def fd_check(build_scalar, params, tol=1e-4, step=1e-4):
    """Assert analytic gradients of build_scalar() match central differences."""
    loss = build_scalar()
    C.backward(loss)
    analytic = [p.grad.copy() for p in params]
    C.zero_grads(params)
    numeric = finite_difference(lambda: float(build_scalar().values), params, step=step)
    for a, n in zip(analytic, numeric):
        assert max_rel_err(a, n) < tol


class TestForwardDense:
    def test_identity_map(self):
        layer = C.DenseLayer(C.parameter(np.eye(2)), C.parameter(np.zeros(2)), "identity")
        out = C.forward_dense(layer, C.constant([[1.0, 2.0]]))
        assert out.values.tolist() == [[1.0, 2.0]]

    def test_relu(self):
        layer = C.DenseLayer(C.parameter(np.eye(2)), C.parameter(np.zeros(2)), "relu")
        out = C.forward_dense(layer, C.constant([[-1.0, 3.0]]))
        assert out.values.tolist() == [[0.0, 3.0]]

    def test_softplus_at_zero(self):
        layer = C.DenseLayer(C.parameter(np.eye(1)), C.parameter(np.zeros(1)), "softplus")
        out = C.forward_dense(layer, C.constant([[0.0]]))
        assert out.values[0, 0] == pytest.approx(math.log(2.0))

    def test_shape_mismatch(self):
        layer = C.DenseLayer(C.parameter(np.eye(2)), C.parameter(np.zeros(2)), "identity")
        with pytest.raises(ValueError):
            C.forward_dense(layer, C.constant([[1.0, 2.0, 3.0]]))

    def test_init_bounds(self):
        rng = np.random.default_rng(0)
        layer = C.init_dense(30, 20, "relu", rng)
        bound = math.sqrt(6.0 / 50.0)
        assert np.all(np.abs(layer.weights.values) <= bound)
        assert np.all(layer.bias.values == 0.0)


class TestBackward:
    def test_square(self):
        x = C.parameter([[3.0]])
        C.backward(C.tsum(x * x))
        assert x.grad[0, 0] == pytest.approx(6.0)

    def test_softplus_grad_at_zero(self):
        x = C.parameter([[0.0]])
        C.backward(C.tsum(C.softplus(x)))
        assert x.grad[0, 0] == pytest.approx(0.5)

    def test_two_layer_net_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        l1 = C.init_dense(4, 5, "softplus", rng)
        l2 = C.init_dense(5, 2, "identity", rng)
        x = C.constant(rng.normal(size=(3, 4)))
        params = [l1.weights, l1.bias, l2.weights, l2.bias]

        def scalar():
            return C.tsum(C.sigmoid(C.forward_dense(l2, C.forward_dense(l1, x))))

        fd_check(scalar, params)

    def test_repeated_backward_accumulates(self):
        x = C.parameter([[2.0]])
        loss = C.tsum(x * x)
        C.backward(loss)
        C.backward(loss)
        assert x.grad[0, 0] == pytest.approx(8.0)

    def test_dropped_graph_leaves_no_cyclic_garbage(self, small_synthetic):
        # an ELBO graph and its backward closures are freed by reference counting
        table, mask = small_synthetic
        config = T.TrainConfig(dim_z=3, dim_s=2, dim_y=2, epochs=1, batch_size=20, seed=0)
        state = T.build_model(table.schema, config, np.random.default_rng(0))
        rows = range(table.n_rows)
        gc.collect()
        gc.disable()
        try:
            elbo = T.elbo_batch(state, table, mask, rows, 0.5, np.random.default_rng(1))
            C.backward(elbo)
            del elbo
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_non_scalar_loss_rejected(self):
        x = C.parameter([[1.0, 2.0]])
        with pytest.raises(ValueError):
            C.backward(x * x)


class TestLazyGradients:
    @pytest.fixture
    def created(self, monkeypatch):
        """Every tensor created while the test runs, in creation order."""
        made = []
        init = C.Tensor.__init__

        def recording_init(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            made.append(tensor)

        monkeypatch.setattr(C.Tensor, "__init__", recording_init)
        return made

    @pytest.fixture
    def state(self, small_synthetic):
        table, _ = small_synthetic
        config = T.TrainConfig(dim_z=3, dim_s=2, dim_y=2, epochs=1, batch_size=20, seed=0)
        return T.build_model(table.schema, config, np.random.default_rng(0))

    def test_map_imputation_allocates_no_gradient(self, small_synthetic, state, created):
        params = set(map(id, state.parameters()))
        assert all(t.grad is not None for t in created if id(t) in params)
        start = len(created)
        impute_map(state, *small_synthetic)
        graph = created[start:]
        assert graph and all(t.grad is None for t in graph)

    def test_imputation_records_no_graph(self, small_synthetic, state, created):
        start = len(created)
        impute_map(state, *small_synthetic)
        impute_sample(state, *small_synthetic, np.random.default_rng(0))
        graph = created[start:]
        assert graph and all(not t.requires_grad and not t._parents for t in graph)

    def test_no_grad_is_restored_after_an_exception(self, small_synthetic, state):
        table, mask = small_synthetic
        other = HeterogeneousTable(Schema(table.schema.columns[:2]), table.cells[:, :2])
        with pytest.raises(T.ModelFormatError):
            impute_map(state, other, MissingMask(mask.observed[:, :2]))
        with pytest.raises(RuntimeError), C.no_grad():
            raise RuntimeError
        elbo = T.elbo_batch(state, table, mask, range(table.n_rows), 0.5, np.random.default_rng(1))
        C.backward(elbo)
        assert elbo.requires_grad
        assert all(np.any(p.grad != 0.0) for p in state.parameters())

    def test_training_after_imputation_is_unchanged(self, small_synthetic):
        table, mask = small_synthetic
        config = T.TrainConfig(dim_z=3, dim_s=2, dim_y=2, epochs=3, batch_size=20, seed=1)
        fresh = T.train(table, mask, config).training_log
        impute_map(T.train(table, mask, config), table, mask)
        assert T.train(table, mask, config).training_log == fresh

    def test_backward_never_writes_a_constant(self, small_synthetic, state, created):
        table, mask = small_synthetic
        start = len(created)
        elbo = T.elbo_batch(state, table, mask, range(table.n_rows), 0.5, np.random.default_rng(1))
        C.backward(elbo)
        constants = [t for t in created[start:] if not t.requires_grad]
        assert constants and all(t.grad is None for t in constants)
        assert np.any(state.generative.g_layers[0].weights.grad != 0.0)

    def test_two_passes_double_the_parameter_gradients(self, small_synthetic, state):
        table, mask = small_synthetic
        elbo = T.elbo_batch(state, table, mask, range(table.n_rows), 0.5, np.random.default_rng(1))
        params = state.parameters()
        C.backward(elbo)
        once = [p.grad.copy() for p in params]
        C.backward(elbo)
        for g, p in zip(once, params):
            np.testing.assert_allclose(p.grad, 2.0 * g, rtol=1e-9, atol=1e-12)


OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / (b * b + 1.0),
    "matmul": lambda a, b: C.matmul(a, b),
    "exp": lambda a, b: C.exp(a),
    "log": lambda a, b: C.log(a * a + 1.0),
    "softplus": lambda a, b: C.softplus(a),
    "sigmoid": lambda a, b: C.sigmoid(a),
    "relu": lambda a, b: C.relu(a + 0.07),  # keep clear of the kink
    "clip": lambda a, b: C.clip(a, -0.9, 0.9),
    "clip_lo": lambda a, b: C.clip(a, -0.5),
    "concat": lambda a, b: C.concat([a, b]),
    "narrow": lambda a, b: C.narrow(a, 1, 2),
    "take": lambda a, b: C.take(a, np.array([2, 0]), axis=1),
    "reshape": lambda a, b: C.reshape(a, (9,)) * C.reshape(b, (9,)),
    "cumsum": lambda a, b: C.cumsum(a),
    "softmax": lambda a, b: C.softmax(a),
    "linear": lambda a, b: C.linear(a, b, C.tsum(b, axis=0)),
    "narrow_clip": lambda a, b: C.narrow_clip(a * b, 0, 2, -0.3, 0.3),
    "group_dense_squeezed": lambda a, b: C.group_dense(
        C.reshape(a, (3, 3, 1)), C.narrow(b, 0, 2), C.reshape(b, (3, 3, 1)),
        C.tsum(a, axis=1, keepdims=True), squeeze=True,
    ),
    "gumbel_softmax": lambda a, b: C.sample_gumbel_softmax(a * b, 0.7, np.random.default_rng(1)),
    "gaussian_reparam": lambda a, b: C.sample_gaussian_reparam(a, b, np.random.default_rng(2)),
    "gaussian_kl": lambda a, b: C.gaussian_kl(a, b, a * b),
    "uniform_kl": lambda a, b: C.uniform_kl(a - b),
    "cumulative_logit_log_prob": lambda a, b: C.cumulative_logit_log_prob(
        C.cumsum(C.exp(b)), C.tsum(a, axis=1), np.array([0, 2, 3])
    ),
    "sum_axis": lambda a, b: C.tsum(a, axis=1, keepdims=True) * b,
    "sum_axis_dropped": lambda a, b: C.tsum(a, axis=0) * C.tsum(b, axis=1),
    "broadcast_bias": lambda a, b: a + C.narrow(b, 0, 1, axis=0),
    # a broadcast (1, 3) row as the first or the second operand
    "broadcast_sub_first": lambda a, b: C.narrow(a, 1, 1, axis=0) - b,
    "broadcast_sub_second": lambda a, b: a - C.narrow(b, 2, 1, axis=0),
    "broadcast_mul_first": lambda a, b: C.narrow(a, 0, 1, axis=0) * b,
    "broadcast_mul_second": lambda a, b: a * C.narrow(b, 1, 1, axis=0),
    "broadcast_div_first": lambda a, b: C.narrow(a, 2, 1, axis=0) / (b * b + 1.0),
}


class TestEveryOpGradient:
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_matches_finite_differences(self, name):
        # inputs bounded away from 0 keep the true gradients well above the
        # finite-difference noise floor; the seed depends on the name alone,
        # so adding an entry leaves the other entries' draws as they were
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        signs = rng.choice([-1.0, 1.0], size=(3, 3))
        a = C.parameter(signs * rng.uniform(0.2, 0.9, size=(3, 3)))
        b = C.parameter(-signs * rng.uniform(0.2, 0.9, size=(3, 3)))
        op = OPS[name]

        def scalar():
            out = op(a, b)
            return C.tsum(out * out)  # exercise non-uniform output grads

        fd_check(scalar, [a, b])


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = C.parameter([[1.0, -2.0]])
        state = C.AdamState()
        C.adam_step(state, [p])
        assert p.values.tolist() == [[1.0, -2.0]]

    def test_constant_gradient_descends(self):
        p = C.parameter([[0.0]])
        state = C.AdamState()
        for _ in range(50):
            p.grad[...] = 2.5
            C.adam_step(state, [p])
        assert p.values[0, 0] < 0.0

    def test_quadratic_bowl_decreases(self):
        p = C.parameter([[1.0, -1.5]])
        state = C.AdamState()
        losses = []
        for _ in range(100):
            loss = C.tsum(p * p)
            losses.append(float(loss.values))
            C.backward(loss)
            C.adam_step(state, [p])
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_grads_zeroed_after_step(self):
        p = C.parameter([[1.0]])
        p.grad[...] = 3.0
        C.adam_step(C.AdamState(), [p])
        assert p.grad[0, 0] == 0.0


class TestGaussianReparam:
    def test_zero_noise_returns_mu(self):
        mu = C.constant([[1.0, -2.0]])
        lv = C.constant([[0.3, -0.7]])
        out = C.sample_gaussian_reparam(mu, lv, StubRng(normal=0.0))
        assert np.array_equal(out.values, mu.values)

    def test_clamped_floor_collapses_to_mu(self):
        mu = C.constant([[0.5]])
        lv = C.constant([[-30.0]])
        out = C.sample_gaussian_reparam(mu, lv, np.random.default_rng(0))
        assert abs(out.values[0, 0] - 0.5) < 5e-3

    def test_monte_carlo_moments(self):
        rng = np.random.default_rng(11)
        mu = C.constant(np.zeros((100_000, 1)))
        lv = C.constant(np.zeros((100_000, 1)))
        draws = C.sample_gaussian_reparam(mu, lv, rng).values
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.05

    def test_differentiable(self):
        mu = C.parameter([[0.2, 0.4]])
        lv = C.parameter([[-0.1, 0.3]])
        rng_seed = 7

        def scalar():
            rng = np.random.default_rng(rng_seed)
            z = C.sample_gaussian_reparam(mu, lv, rng)
            return C.tsum(z * z)

        fd_check(scalar, [mu, lv])


class TestGumbelSoftmax:
    def test_simplex_output(self):
        rng = np.random.default_rng(1)
        logits = C.constant(rng.normal(size=(50, 6)))
        s = C.sample_gumbel_softmax(logits, 0.7, rng).values
        assert np.all(s > 0.0)
        assert np.allclose(s.sum(axis=1), 1.0, atol=1e-9)

    def test_sharp_temperature_dominant_logit(self):
        rng = np.random.default_rng(2)
        logits = C.constant(np.tile([10.0, 0.0, 0.0], (10_000, 1)))
        s = C.sample_gumbel_softmax(logits, 1e-3, rng).values
        assert np.mean(s.max(axis=1) > 0.999) >= 0.99

    def test_symmetric_logits_split_argmax(self):
        rng = np.random.default_rng(3)
        logits = C.constant(np.zeros((10_000, 2)))
        s = C.sample_gumbel_softmax(logits, 1.0, rng).values
        wins = np.mean(np.argmax(s, axis=1) == 0)
        assert abs(wins - 0.5) < 0.02

    def test_requires_positive_temperature(self):
        with pytest.raises(ValueError):
            C.sample_gumbel_softmax(C.constant([[0.0, 1.0]]), 0.0, np.random.default_rng(0))

    def test_differentiable(self):
        logits = C.parameter([[0.3, -0.5, 0.1]])

        def scalar():
            rng = np.random.default_rng(5)
            s = C.sample_gumbel_softmax(logits, 0.8, rng)
            return C.tsum(s * C.constant([[1.0, 2.0, 3.0]]))

        fd_check(scalar, [logits], tol=1e-3)


class TestNumericalSafety:
    @given(st.lists(st.floats(-50.0, 50.0), min_size=6, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_extreme_inputs_stay_finite(self, raw):
        x = C.constant(np.array(raw).reshape(2, 3))
        rng = np.random.default_rng(0)
        l1 = C.init_dense(3, 4, "softplus", rng)
        l2 = C.init_dense(4, 2, "identity", rng)
        out = C.forward_dense(l2, C.forward_dense(l1, x))
        lv = C.clip(out, -C.LOG_VAR_CLAMP, C.LOG_VAR_CLAMP)
        loss = C.tsum(C.exp(lv) + C.sigmoid(out) + C.softplus(out))
        C.backward(loss)
        assert np.isfinite(loss.values).all()
        for p in (l1.weights, l1.bias, l2.weights, l2.bias):
            assert np.isfinite(p.grad).all()
            p.grad[...] = 0.0

    def test_softplus_no_overflow(self):
        out = C.softplus(C.constant([[800.0, -800.0]]))
        assert np.isfinite(out.values).all()
        assert out.values[0, 0] == pytest.approx(800.0)


class TestDeterminism:
    def _run(self, seed):
        rng = np.random.default_rng(seed)
        layer = C.init_dense(3, 3, "softplus", rng)
        x = C.constant(rng.normal(size=(4, 3)))
        state = C.AdamState()
        trace = []
        for _ in range(5):
            z = C.sample_gaussian_reparam(
                C.forward_dense(layer, x), C.constant(np.zeros((4, 3))), rng
            )
            loss = C.tsum(z * z)
            C.backward(loss)
            C.adam_step(state, [layer.weights, layer.bias])
            trace.append(float(loss.values))
        return trace, layer.weights.values.copy()

    def test_fixed_seed_bit_identical(self):
        t1, w1 = self._run(123)
        t2, w2 = self._run(123)
        assert t1 == t2
        assert np.array_equal(w1, w2)
