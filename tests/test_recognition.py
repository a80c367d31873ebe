"""Encoder behaviour: missing-blindness, sampling, MAP, factorized fusion."""

import numpy as np

from hivae import compute as C
from hivae import recognition as R
from hivae.tabular import (
    ColumnSpec,
    HeterogeneousTable,
    MissingMask,
    Schema,
    encode_inputs,
    fit_normalization,
    identity_stats,
)

from conftest import finite_difference, max_rel_err


def small_nets(width=4, dim_s=3, dim_z=2, seed=0, layers=1):
    schema = Schema(tuple(ColumnSpec(f"r{i}", "real") for i in range(width)))
    rng = np.random.default_rng(seed)
    nets = R.build_encoder(schema, dim_s, dim_z, layers, R.INPUT_DROPOUT, rng)
    return nets


class TestEncode:
    def test_all_missing_rows_are_bias_only(self):
        nets = small_nets()
        zeros = np.zeros((2, 4))
        params = R.encode(nets, zeros)
        z_mu = R.map_latent(params).z_mu
        assert np.array_equal(params.s_logits.values[0], params.s_logits.values[1])
        assert np.array_equal(z_mu.values[0], z_mu.values[1])
        assert np.array_equal(params.s_logits.values[0], nets.s_layers[0].bias.values)

    def test_zero_weight_s_net_gives_softmax_of_bias(self):
        nets = small_nets()
        nets.s_layers[0].weights.values[...] = 0.0
        nets.s_layers[0].bias.values[...] = [0.5, -0.5, 1.0]
        params = R.encode(nets, np.random.default_rng(0).normal(size=(3, 4)))
        assert np.allclose(params.s_logits.values, [0.5, -0.5, 1.0])
        pi = np.exp([0.5, -0.5, 1.0])
        pi /= pi.sum()
        got = C.softmax(params.s_logits, axis=1).values
        assert np.allclose(got, pi)

    def test_masked_cells_cannot_reach_outputs(self, mixed_table):
        table, mask = mixed_table
        stats = fit_normalization(table, mask, range(table.n_rows))
        rng = np.random.default_rng(1)
        nets = R.build_encoder(table.schema, 3, 2, 1, R.INPUT_DROPOUT, rng)

        def everything(tbl):
            x = encode_inputs(tbl, mask, stats, range(tbl.n_rows))
            params = R.encode(nets, x)
            sample = R.sample_latent(params, 0.5, np.random.default_rng(77))
            mp = R.map_latent(params)
            return (
                params.s_logits.values,
                mp.z_mu.values,
                sample.s_soft.values,
                sample.z.values,
                mp.z.values,
            )

        base = everything(table)
        cells = table.cells.copy()
        cells[~mask.observed] = -999.0
        for a, b in zip(base, everything(HeterogeneousTable(table.schema, cells))):
            assert np.array_equal(a, b)


class TestSampleLatent:
    def test_sharp_tau_yields_one_hot(self):
        nets = small_nets()
        nets.s_layers[0].weights.values[...] = 0.0
        nets.s_layers[0].bias.values[...] = [8.0, 0.0, 0.0]
        params = R.encode(nets, np.zeros((200, 4)))
        sample = R.sample_latent(params, 1e-4, np.random.default_rng(0))
        hard_share = np.mean(sample.s_soft.values.max(axis=1) > 0.999)
        assert hard_share > 0.98

    def test_collapsed_variance_returns_mean(self):
        nets = small_nets()
        # force the log-variance head far below the clamp floor
        nets.z_layers[0].weights.values[...] = 0.0
        nets.z_layers[0].bias.values[nets.dim_z :] = -30.0
        params = R.encode(nets, np.zeros((4, 4)))
        sample = R.sample_latent(params, 0.5, np.random.default_rng(0))
        mu, _ = params.conditioner(sample.s_soft)
        assert np.allclose(sample.z.values, mu.values, atol=5e-3)

    def test_gradients_reach_every_encoder_parameter(self):
        nets = small_nets(seed=4)
        x = np.random.default_rng(2).normal(size=(6, 4))
        params_list = nets.parameters()

        def scalar():
            params = R.encode(nets, x)
            sample = R.sample_latent(params, 0.7, np.random.default_rng(31))
            weights = C.constant(np.arange(1.0, nets.dim_z + 1.0)[None, :])
            return C.tsum(sample.z * sample.z * weights) + C.tsum(
                C.softmax(params.s_logits, axis=1) * C.constant([[0.3, -1.0, 0.4]])
            )

        loss = scalar()
        C.backward(loss)
        analytic = [p.grad.copy() for p in params_list]
        for g in analytic:
            assert np.any(g != 0.0)
        C.zero_grads(params_list)
        numeric = finite_difference(lambda: float(scalar().values), params_list)
        for a, n in zip(analytic, numeric):
            assert max_rel_err(a, n) < 1e-3


class TestMapLatent:
    def test_argmax_one_hot(self):
        nets = small_nets()
        nets.s_layers[0].weights.values[...] = 0.0
        nets.s_layers[0].bias.values[...] = [0.0, 5.0, 1.0]
        mp = R.map_latent(R.encode(nets, np.zeros((1, 4))))
        assert mp.s_soft.values[0].tolist() == [0.0, 1.0, 0.0]

    def test_tie_breaks_to_lowest_index(self):
        logits = C.constant([[1.0, 1.0]])
        assert R.hard_assignment(logits.values)[0].tolist() == [1.0, 0.0]

    def test_z_is_conditional_mean_under_hard_s(self):
        nets = small_nets(seed=9)
        x = np.random.default_rng(3).normal(size=(5, 4))
        params = R.encode(nets, x)
        mp = R.map_latent(params)
        hard = R.hard_assignment(params.s_logits.values)
        mu, _ = R.z_params(nets, C.constant(x), C.constant(hard))
        assert np.array_equal(mp.z.values, mu.values)


def factorized_setup(n_cols=2, dim_z=3, seed=0):
    schema = Schema(tuple(ColumnSpec(f"r{i}", "real") for i in range(n_cols)))
    rng = np.random.default_rng(seed)
    nets = R.build_encoder(schema, 1, dim_z, 1, R.FACTORIZED, rng)
    return schema, nets


class TestFactorized:
    def test_empty_observation_set_returns_prior(self):
        schema, nets = factorized_setup()
        table = HeterogeneousTable(schema, np.zeros((3, 2)))
        mask = MissingMask(np.zeros((3, 2), dtype=bool))
        params = R.encode_factorized(nets, table, mask, identity_stats(schema), range(3))
        mp = R.map_latent(params)
        assert np.allclose(mp.z_mu.values, 0.0)
        assert np.allclose(np.exp(mp.z_log_var.values), 1.0)

    def test_single_unit_variance_attribute_halves(self):
        schema, nets = factorized_setup(n_cols=1)
        mu_d = np.array([0.8, -0.4, 1.2])
        for stack in nets.per_column:
            stack[0].weights.values[...] = 0.0
            stack[0].bias.values[:3] = mu_d
            stack[0].bias.values[3:] = 0.0  # log var 0 -> unit variance
        table = HeterogeneousTable(schema, np.zeros((1, 1)))
        mask = MissingMask(np.ones((1, 1), dtype=bool))
        mp = R.map_latent(R.encode_factorized(nets, table, mask, identity_stats(schema), [0]))
        assert np.allclose(np.exp(mp.z_log_var.values), 0.5)
        assert np.allclose(mp.z_mu.values, mu_d / 2.0)

    def test_matches_product_of_gaussians_oracle(self):
        schema, nets = factorized_setup(n_cols=2, dim_z=3, seed=5)
        rng = np.random.default_rng(8)
        mus = rng.normal(size=(2, 3))
        log_vars = rng.uniform(-1.0, 1.0, size=(2, 3))
        for d, stack in enumerate(nets.per_column):
            stack[0].weights.values[...] = 0.0
            stack[0].bias.values[:3] = mus[d]
            stack[0].bias.values[3:] = log_vars[d]
        table = HeterogeneousTable(schema, np.zeros((1, 2)))
        mask = MissingMask(np.ones((1, 2), dtype=bool))
        mp = R.map_latent(R.encode_factorized(nets, table, mask, identity_stats(schema), [0]))

        # direct diagonal product-of-Gaussians computation
        prec = 1.0 + np.sum(np.exp(-log_vars), axis=0)
        mean = (np.sum(mus * np.exp(-log_vars), axis=0)) / prec
        assert np.allclose(mp.z_mu.values[0], mean, atol=1e-10)
        assert np.allclose(np.exp(mp.z_log_var.values[0]), 1.0 / prec, atol=1e-10)

    def test_precision_monotone_in_observations(self):
        schema, nets = factorized_setup(n_cols=4, dim_z=2, seed=3)
        table = HeterogeneousTable(schema, np.random.default_rng(0).normal(size=(1, 4)))
        prev = np.zeros(2)
        for k in range(5):
            observed = np.zeros((1, 4), dtype=bool)
            observed[0, :k] = True
            params = R.encode_factorized(
                nets, table, MissingMask(observed), identity_stats(schema), [0]
            )
            prec = np.exp(-R.map_latent(params).z_log_var.values[0])
            assert np.all(prec >= prev - 1e-12)
            prev = prec

    def test_trainable_through_fusion(self):
        schema, nets = factorized_setup(n_cols=2, dim_z=2, seed=1)
        table = HeterogeneousTable(schema, np.random.default_rng(4).normal(size=(3, 2)))
        mask = MissingMask(np.array([[True, True], [True, False], [False, True]]))
        params_list = nets.parameters()

        def scalar():
            params = R.encode_factorized(nets, table, mask, identity_stats(schema), range(3))
            mp = R.map_latent(params)
            return C.tsum(mp.z_mu * mp.z_mu) + C.tsum(C.exp(mp.z_log_var))

        loss = scalar()
        C.backward(loss)
        analytic = [p.grad.copy() for p in params_list]
        C.zero_grads(params_list)
        numeric = finite_difference(lambda: float(scalar().values), params_list)
        for a, n in zip(analytic, numeric):
            assert max_rel_err(a, n) < 1e-4
