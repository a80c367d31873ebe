"""Decoder heads: parameter mapping, likelihoods, modes, draws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from hivae import compute as C
from hivae import generative as G
from hivae.kinds import (
    VAR_FLOOR,
    CategoricalParams,
    LogNormalParams,
    NormalParams,
    OrdinalParams,
    PoissonParams,
)
from hivae.recognition import LatentSample
from hivae.tabular import ColumnSpec, NormalizationStats, Schema


def softplus_inv(y):
    return math.log(math.expm1(y))


def build(schema, dim_s=2, dim_z=2, dim_y=2, layers=1, seed=0):
    return G.build_generative(schema, dim_s, dim_z, dim_y, layers, np.random.default_rng(seed))


def unit_stats(schema, shift=0.0, scale=1.0):
    numeric = np.array([not c.is_nominal for c in schema.columns])
    return NormalizationStats(np.where(numeric, shift, 0.0), np.where(numeric, scale, 1.0))


def latent(nets, s, z):
    return LatentSample(C.constant(np.atleast_2d(s)), C.constant(np.atleast_2d(z)), 1.0)


def zero_nets(nets):
    for layer in nets.g_layers:
        layer.weights.values[...] = 0.0
        layer.bias.values[...] = 0.0
    for head in nets.heads:
        for stack in (head.loc_layers, head.scale_layers or []):
            for layer in stack:
                layer.weights.values[...] = 0.0
                layer.bias.values[...] = 0.0
    nets.prior_mu_table.values[...] = 0.0


class TestDecode:
    def test_zero_categorical_head_is_uniform(self):
        schema = Schema((ColumnSpec("c", "cat", 3),))
        nets = build(schema)
        zero_nets(nets)
        [params] = G.decode(nets, latent(nets, [1.0, 0.0], [0.0, 0.0]), unit_stats(schema))
        assert np.allclose(params.probs.values, 1.0 / 3.0)

    def test_ordinal_thresholds_cumulative(self):
        schema = Schema((ColumnSpec("o", "ordinal", 3),))
        nets = build(schema)
        zero_nets(nets)
        nets.heads[0].scale_layers[0].bias.values[...] = [softplus_inv(1.0), softplus_inv(2.0)]
        [params] = G.decode(nets, latent(nets, [1.0, 0.0], [0.0, 0.0]), unit_stats(schema))
        assert np.allclose(params.thresholds.values[0], [1.0, 3.0])
        assert params.thresholds.values[0, 0] < params.thresholds.values[0, 1]

    def test_normal_denormalization(self):
        schema = Schema((ColumnSpec("r", "real"),))
        nets = build(schema)
        zero_nets(nets)
        nets.heads[0].scale_layers[0].bias.values[...] = softplus_inv(1.0)  # raw var 1
        stats = unit_stats(schema, shift=10.0, scale=2.0)
        [params] = G.decode(nets, latent(nets, [1.0, 0.0], [0.0, 0.0]), stats)
        assert params.mu.values[0, 0] == pytest.approx(10.0)
        assert params.var.values[0, 0] == pytest.approx(4.0)

    def test_poisson_rate_not_denormalized(self):
        schema = Schema((ColumnSpec("n", "count"),))
        nets = build(schema)
        zero_nets(nets)
        stats = unit_stats(schema, shift=5.0, scale=3.0)
        [params] = G.decode(nets, latent(nets, [1.0, 0.0], [0.0, 0.0]), stats)
        assert params.rate.values[0, 0] == pytest.approx(math.log(2.0))  # softplus(0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_simplices_and_increasing_thresholds(self, seed):
        schema = Schema((ColumnSpec("c", "cat", 4), ColumnSpec("o", "ordinal", 5)))
        nets = build(schema, seed=seed)
        rng = np.random.default_rng(seed)
        lat = latent(nets, rng.dirichlet(np.ones(2), size=3), rng.normal(size=(3, 2)) * 5)
        cat, order = G.decode(nets, lat, unit_stats(schema))
        for params in (cat, order):
            p = params.probs.values
            assert np.all(p >= 0.0)
            assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
        th = order.thresholds.values
        assert np.all(np.diff(th, axis=1) > 0.0)

    def test_normalize_then_denormalize_is_identity(self):
        # decoder means, pushed back through the encoder transform, land on the
        # raw head output for any stats
        schema = Schema((ColumnSpec("r", "real"),))
        nets = build(schema, seed=3)
        zero_nets(nets)
        raw_mean = 0.37
        nets.heads[0].loc_layers[0].bias.values[...] = raw_mean
        for shift, scale in [(0.0, 1.0), (-4.0, 0.25), (113.0, 17.0)]:
            stats = unit_stats(schema, shift=shift, scale=scale)
            [params] = G.decode(nets, latent(nets, [1.0, 0.0], [0.0, 0.0]), stats)
            renormalized = (params.mu.values[0, 0] - shift) / scale
            assert abs(renormalized - raw_mean) < 1e-9


class TestUnderflow:
    def test_categorical_gradient_survives_an_underflowed_probability(self):
        schema = Schema((ColumnSpec("c", "cat", 3),))
        nets = build(schema)
        zero_nets(nets)
        bias = nets.named_parameters()["gen.head0.loc.0.b"]
        bias.values[...] = [100.0, 0.0]  # logits (0, 100, 0): class 0 has probability e^-100
        [params] = G.decode(nets, latent(nets, [1.0, 0.0], [0.0, 0.0]), unit_stats(schema))
        assert params.probs.values[0, 0] < 1e-30
        ll = G.log_likelihood(params, [0.0])
        C.backward(C.tsum(ll))
        # d/dlogit_k log p_0 = -p_k for k = 1, 2
        assert bias.grad == pytest.approx([-1.0, -math.exp(-100.0)], rel=1e-12, abs=0.0)
        assert ll.values[0, 0] == pytest.approx(-100.0)

    @pytest.mark.parametrize("location", [100.0, -100.0])
    def test_ordinal_gradient_survives_an_underflowed_probability(self, location):
        # thresholds (1, 2, 3): class 1 has probability sigmoid(2 - loc) - sigmoid(1 - loc),
        # about e^-98 (1 - e^-1) at loc = 100 and e^-101 (1 - e^-1) at loc = -100
        schema = Schema((ColumnSpec("o", "ordinal", 4),))
        nets = build(schema)
        zero_nets(nets)
        nets.heads[0].scale_layers[0].bias.values[...] = softplus_inv(1.0)
        bias = nets.named_parameters()["gen.head0.loc.0.b"]
        bias.values[...] = location
        [params] = G.decode(nets, latent(nets, [1.0, 0.0], [0.0, 0.0]), unit_stats(schema))
        assert params.probs.values[0, 1] < 1e-30
        ll = G.log_likelihood(params, [1.0])
        C.backward(C.tsum(ll))
        expected = (-98.0 if location > 0 else -101.0) + math.log(1.0 - math.exp(-1.0))
        assert ll.values[0, 0] == pytest.approx(expected, rel=1e-12)
        # d/dloc log(sigmoid(b) - sigmoid(a)) = sigmoid(a) - sigmoid(-b), about -sign(loc)
        assert bias.grad == pytest.approx([-math.copysign(1.0, location)], rel=1e-12)


class TestLogLikelihood:
    def test_standard_normal_at_zero(self):
        params = NormalParams(C.constant([[0.0]]), C.constant([[1.0]]))
        assert G.log_likelihood(params, [0.0]).values[0, 0] == pytest.approx(
            -0.5 * math.log(2 * math.pi)
        )

    def test_poisson_unit_rate_at_zero(self):
        params = PoissonParams(C.constant([[1.0]]))
        assert G.log_likelihood(params, [0.0]).values[0, 0] == pytest.approx(-1.0)

    def test_ordinal_probabilities_from_sigmoid_arithmetic(self):
        # oracle: probs are adjacent differences of sigmoid(threshold - location)
        thresholds = np.array([[-1.0, 1.0]])
        location = np.array([[0.0]])
        cdf = expit(thresholds - location)
        expected = np.array([cdf[0, 0], cdf[0, 1] - cdf[0, 0], 1.0 - cdf[0, 1]])
        probs = np.concatenate([cdf, [[1.0]]], axis=1) - np.concatenate([[[0.0]], cdf], axis=1)
        assert np.allclose(probs[0], expected)
        assert probs.sum() == pytest.approx(1.0)
        params = OrdinalParams(C.constant(thresholds), C.constant(location))
        for r in range(3):
            got = G.log_likelihood(params, [float(r)]).values[0, 0]
            assert got == pytest.approx(math.log(expected[r]))
        assert expected[0] == pytest.approx(0.2689, abs=1e-4)
        assert expected[1] == pytest.approx(0.4621, abs=1e-4)

    def test_lognormal_rejects_nonpositive(self):
        params = LogNormalParams(C.constant([[0.0]]), C.constant([[1.0]]))
        with pytest.raises(ValueError):
            G.log_likelihood(params, [-1.0])

    def test_lognormal_jacobian(self):
        # density of ln-Normal(0,1) at x: N(ln x; 0,1) / x
        params = LogNormalParams(C.constant([[0.0]]), C.constant([[1.0]]))
        x = 2.5
        expected = math.log(
            math.exp(-0.5 * math.log(x) ** 2) / (x * math.sqrt(2 * math.pi))
        )
        assert G.log_likelihood(params, [x]).values[0, 0] == pytest.approx(expected)


class TestNormalizationOracles:
    """Each likelihood integrates/sums to one against an independent oracle."""

    def test_normal_quadrature(self):
        params = NormalParams(C.constant([[0.3]]), C.constant([[2.1]]))
        sd = math.sqrt(2.1)
        grid = np.linspace(0.3 - 12 * sd, 0.3 + 12 * sd, 40_001)
        dens = np.exp(G.log_likelihood(params, grid).values[:, 0])
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-4)

    def test_lognormal_quadrature(self):
        m, v = 0.4, 0.8
        params = LogNormalParams(C.constant([[m]]), C.constant([[v]]))
        u = np.linspace(m - 10 * math.sqrt(v), m + 10 * math.sqrt(v), 40_001)
        x = np.exp(u)
        dens = np.exp(G.log_likelihood(params, x).values[:, 0])
        assert np.trapezoid(dens * x, u) == pytest.approx(1.0, abs=1e-4)  # du = dx/x

    def test_poisson_exhaustive_sum(self):
        params = PoissonParams(C.constant([[6.5]]))
        xs = np.arange(0.0, 10_001.0)
        mass = np.exp(G.log_likelihood(params, xs).values[:, 0])
        assert mass.sum() == pytest.approx(1.0, abs=1e-4)

    def test_discrete_heads_sum_exactly(self):
        schema = Schema((ColumnSpec("c", "cat", 6), ColumnSpec("o", "ordinal", 5)))
        nets = build(schema, seed=11)
        rng = np.random.default_rng(2)
        lat = latent(nets, [[0.2, 0.8]], rng.normal(size=(1, 2)))
        cat, order = G.decode(nets, lat, unit_stats(schema))
        assert cat.probs.values.sum() == pytest.approx(1.0, abs=1e-12)
        assert order.probs.values.sum() == pytest.approx(1.0, abs=1e-12)


class TestMode:
    def test_lognormal_mode(self):
        params = LogNormalParams(C.constant([[0.0]]), C.constant([[1.0]]))
        assert G.mode(params)[0] == pytest.approx(math.exp(-1.0))

    def test_poisson_floor(self):
        assert G.mode(PoissonParams(C.constant([[2.7]])))[0] == 2.0
        assert G.mode(PoissonParams(C.constant([[3.0]])))[0] == 3.0

    def test_categorical_argmax(self):
        params = CategoricalParams(logits=C.constant(np.log([[0.2, 0.5, 0.3]])))
        assert G.mode(params)[0] == 1.0

    def test_categorical_tie_lowest(self):
        params = CategoricalParams(logits=C.constant(np.log([[0.4, 0.4, 0.2]])))
        assert G.mode(params)[0] == 0.0


class TestSample:
    def test_floored_variance_collapses(self):
        params = NormalParams(C.constant([[5.0]]), C.constant([[VAR_FLOOR]]))
        draw = params.sample(np.random.default_rng(0))
        assert draw[0] == pytest.approx(5.0, abs=1e-2)

    def test_deterministic_categorical(self):
        params = CategoricalParams(logits=C.constant(np.tile([0.0, -800.0, -800.0], (100, 1))))
        draws = params.sample(np.random.default_rng(1))
        assert np.all(draws == 0.0)

    def test_poisson_monte_carlo_mean(self):
        params = PoissonParams(C.constant(np.full((100_000, 1), 4.0)))
        draws = params.sample(np.random.default_rng(2))
        assert abs(draws.mean() - 4.0) < 0.05

    def test_ordinal_draw_histogram(self):
        probs = np.array([0.5, 0.3, 0.2])  # cdf sigmoid(0) = 0.5, sigmoid(log 4) = 0.8
        params = OrdinalParams(
            C.constant(np.tile([0.0, math.log(4.0)], (50_000, 1))),
            C.constant(np.zeros((50_000, 1))),
        )
        draws = params.sample(np.random.default_rng(3))
        freq = np.bincount(draws.astype(int), minlength=3) / 50_000
        assert np.allclose(freq, probs, atol=0.01)
