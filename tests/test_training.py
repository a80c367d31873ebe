"""ELBO assembly, KL oracles, the optimization loop, and persistence."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivae import benchmark as B
from hivae import compute as C
from hivae import recognition as R
from hivae import training as T
from hivae.imputation import impute_map
from hivae.tabular import ColumnSpec, HeterogeneousTable, MissingMask, Schema

from conftest import finite_difference, max_rel_err


def zero_model(schema, config):
    state = T.build_model(schema, config, np.random.default_rng(0))
    for p in T.named_parameters(state).values():
        p.values[...] = 0.0
    return state


class TestElboBatch:
    def test_matching_posterior_and_prior_leaves_reconstruction_only(self):
        schema = Schema((ColumnSpec("r", "real"),))
        config = T.TrainConfig(dim_z=2, dim_s=1, dim_y=1, epochs=1, batch_size=4, seed=0)
        state = zero_model(schema, config)
        table = HeterogeneousTable(schema, np.array([[0.4], [-0.2], [1.0]]))
        mask = MissingMask(np.ones((3, 1), dtype=bool))
        elbo = float(T.elbo_batch(state, table, mask, range(3), 0.5, np.random.default_rng(0)).values)
        # zero nets: q(z) = N(0, I) = p(z|s), single component -> both KL terms 0
        # reconstruction: batch-normalized data under N(mean=shift, var=scale^2 * softplus(0))
        stats = T.fit_normalization(table, mask, range(3))
        st_ = stats.require(0)
        var = st_.scale**2 * math.log(2.0)
        recon = sum(
            -0.5 * math.log(2 * math.pi * var) - (x - st_.shift) ** 2 / (2 * var)
            for x in table.cells[:, 0]
        )
        assert elbo == pytest.approx(recon, rel=1e-12)

    def test_fully_missing_row_contributes_negative_kl_only(self):
        schema = Schema((ColumnSpec("r", "real"), ColumnSpec("c", "cat", 3)))
        config = T.TrainConfig(dim_z=2, dim_s=1, dim_y=1, epochs=1, batch_size=1, seed=0)
        state = T.build_model(schema, config, np.random.default_rng(7))
        table = HeterogeneousTable(schema, np.array([[0.3, 1.0]]))
        mask = MissingMask(np.zeros((1, 2), dtype=bool))
        rng_seed = 5
        elbo = float(
            T.elbo_batch(state, table, mask, [0], 0.7, np.random.default_rng(rng_seed)).values
        )
        # independent recomputation: recon is empty, s-KL is 0 at L=1, so the
        # ELBO must equal -KL(q(z|bias) || p(z|prior embedding))
        bias = state.encoder.z_layers[0].bias.values
        w = state.encoder.z_layers[0].weights.values
        # all-missing input is zero except the one-hot s slot
        pre = w[-1] + bias  # s one-hot picks the last input row
        k = config.dim_z
        mu_q, log_var_q = pre[:k], np.clip(pre[k:], -15, 15)
        mu_p = state.generative.prior_mu_table.values[0]
        kl = 0.5 * np.sum(np.exp(log_var_q) + (mu_p - mu_q) ** 2 - 1.0 - log_var_q)
        assert elbo == pytest.approx(-kl, rel=1e-10)

    def test_masked_cells_never_move_the_elbo(self, small_synthetic):
        table, mask = small_synthetic
        config = T.TrainConfig(dim_z=3, dim_s=2, dim_y=2, epochs=1, batch_size=40, seed=1)
        state = T.build_model(table.schema, config, np.random.default_rng(1))

        def value(tbl):
            return float(
                T.elbo_batch(state, tbl, mask, range(tbl.n_rows), 0.6, np.random.default_rng(3)).values
            )

        base = value(table)
        cells = table.cells.copy()
        cells[~mask.observed] = 77.7
        assert value(HeterogeneousTable(table.schema, cells)) == base

    def test_gradient_matches_finite_differences_on_tiny_model(self):
        # 4 rows x 3 columns, K=2, L=2, fixed sampling noise
        schema = Schema(
            (ColumnSpec("r", "real"), ColumnSpec("c", "cat", 2), ColumnSpec("o", "ordinal", 3))
        )
        rng = np.random.default_rng(0)
        cells = np.column_stack(
            [rng.normal(size=4), rng.integers(0, 2, 4).astype(float), rng.integers(0, 3, 4).astype(float)]
        )
        table = HeterogeneousTable(schema, cells)
        mask = MissingMask(rng.random((4, 3)) > 0.3)
        config = T.TrainConfig(dim_z=2, dim_s=2, dim_y=2, epochs=1, batch_size=4, seed=0)
        state = T.build_model(schema, config, np.random.default_rng(2))
        params = list(T.named_parameters(state).values())

        def scalar():
            return T.elbo_batch(state, table, mask, range(4), 0.8, np.random.default_rng(11))

        loss = scalar()
        C.backward(loss)
        analytic = [p.grad.copy() for p in params]
        C.zero_grads(params)
        numeric = finite_difference(lambda: float(scalar().values), params)
        for a, n in zip(analytic, numeric):
            assert max_rel_err(a, n) < 1e-3

    def test_exact_enumeration_close_to_sampled_kl_in_expectation(self):
        table = B.synthetic_table(20, seed=3)
        mask = B.generate_mcar_mask(table, 0.2, seed=4)
        config = T.TrainConfig(dim_z=2, dim_s=3, dim_y=2, epochs=1, batch_size=20, seed=0)
        state = T.build_model(table.schema, config, np.random.default_rng(5))
        exact = float(
            T.elbo_batch(state, table, mask, range(20), 0.5, np.random.default_rng(9), exact_s_kl=True).values
        )
        assert math.isfinite(exact)
        with pytest.raises(ValueError):
            big = T.TrainConfig(dim_z=2, dim_s=17, dim_y=2, epochs=1, batch_size=20, seed=0)
            T.elbo_batch(
                T.build_model(table.schema, big, np.random.default_rng(0)),
                table,
                mask,
                range(20),
                0.5,
                np.random.default_rng(9),
                exact_s_kl=True,
            )

    def test_one_z_net_forward_per_elbo_and_per_map_imputation(self, small_synthetic, monkeypatch):
        table, mask = small_synthetic
        config = T.TrainConfig(dim_z=2, dim_s=3, dim_y=2, epochs=1, batch_size=20, seed=0)
        state = T.build_model(table.schema, config, np.random.default_rng(0))
        calls = []
        z_params = R.z_params

        def counted(*args):
            calls.append(args)
            return z_params(*args)

        monkeypatch.setattr(R, "z_params", counted)
        T.elbo_batch(state, table, mask, range(20), 0.5, np.random.default_rng(1))
        assert len(calls) == 1
        impute_map(state, table, mask)
        assert len(calls) == 2


class TestKLOracles:
    def test_gaussian_kl_matches_monte_carlo(self):
        rng = np.random.default_rng(0)
        for _ in range(3):
            k = 4
            mu_q = rng.normal(size=(1, k))
            log_var_q = rng.uniform(-1.5, 1.0, size=(1, k))
            mu_p = rng.normal(size=(1, k))
            closed = float(
                T.gaussian_kl(C.constant(mu_q), C.constant(log_var_q), C.constant(mu_p)).values[0]
            )
            n = 100_000
            std = np.exp(0.5 * log_var_q)
            z = mu_q + std * rng.standard_normal((n, k))
            log_q = -0.5 * np.sum(np.log(2 * np.pi) + log_var_q + (z - mu_q) ** 2 / std**2, axis=1)
            log_p = -0.5 * np.sum(np.log(2 * np.pi) + (z - mu_p) ** 2, axis=1)
            diffs = log_q - log_p
            se = diffs.std(ddof=1) / math.sqrt(n)
            assert abs(diffs.mean() - closed) < 3 * se + 1e-12

    def test_categorical_kl_matches_monte_carlo(self):
        rng = np.random.default_rng(1)
        for _ in range(3):
            L = 5
            logits = rng.normal(size=(1, L))
            closed = float(T.categorical_kl(C.constant(logits)).values[0])
            pi = np.exp(logits[0] - logits[0].max())
            pi /= pi.sum()
            n = 100_000
            draws = rng.choice(L, size=n, p=pi)
            vals = np.log(pi[draws]) - math.log(1.0 / L)
            se = vals.std(ddof=1) / math.sqrt(n)
            assert abs(vals.mean() - closed) < 3 * se + 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_kl_terms_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        k, L = 3, 4
        klz = T.gaussian_kl(
            C.constant(rng.normal(size=(2, k))),
            C.constant(rng.uniform(-4, 4, size=(2, k))),
            C.constant(rng.normal(size=(2, k))),
        ).values
        kls = T.categorical_kl(C.constant(rng.normal(size=(2, L)) * 5)).values
        assert np.all(klz >= -1e-9)
        assert np.all(kls >= -1e-9)

    def test_single_component_s_kl_identically_zero(self):
        logits = C.constant(np.random.default_rng(0).normal(size=(10, 1)))
        assert np.all(T.categorical_kl(logits).values == 0.0)


class TestTrain:
    def test_fixed_seed_reproduces_parameters(self, small_synthetic):
        table, mask = small_synthetic
        config = T.TrainConfig(dim_z=3, dim_s=2, dim_y=2, epochs=4, batch_size=16, seed=9)
        s1 = T.train(table, mask, config)
        s2 = T.train(table, mask, config)
        for (n1, p1), (n2, p2) in zip(
            T.named_parameters(s1).items(), T.named_parameters(s2).items()
        ):
            assert n1 == n2
            assert np.array_equal(p1.values, p2.values)
        assert s1.training_log == s2.training_log

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            T.TrainConfig(epochs=0)

    def test_tau_anneals_linearly(self):
        config = T.TrainConfig(epochs=3, tau_start=1.0, tau_end=0.001)
        taus = [T.tau_schedule(e, config) for e in range(3)]
        assert taus[0] == 1.0
        assert taus[-1] == pytest.approx(0.001)
        assert taus[1] == pytest.approx(0.5005)

    def test_elbo_trend_on_two_cluster_data(self):
        table = B.synthetic_table(500, seed=21)
        mask = B.generate_mcar_mask(table, 0.2, seed=22)
        config = T.TrainConfig(dim_z=4, dim_s=4, dim_y=3, epochs=120, batch_size=100, seed=2)
        state = T.train(table, mask, config)
        elbos = np.array([v for _, _, v in state.training_log])
        window = 50
        moving = np.convolve(elbos, np.ones(window) / window, mode="valid")
        slack = 0.005 * np.abs(moving[0])
        assert np.all(np.diff(moving) >= -slack)
        assert moving[-1] > moving[0]

    def test_short_final_batch_kept(self):
        table = B.synthetic_table(25, seed=1)
        mask = B.generate_mcar_mask(table, 0.1, seed=2)
        config = T.TrainConfig(dim_z=2, dim_s=2, dim_y=2, epochs=1, batch_size=20, seed=0)
        state = T.train(table, mask, config)  # 25 = 20 + 5, must not raise
        assert len(state.training_log) == 1

    def test_factorized_encoder_trains_and_imputes(self, small_synthetic):
        table, mask = small_synthetic
        config = T.TrainConfig(
            dim_z=3, dim_s=1, dim_y=2, epochs=3, batch_size=20, seed=0,
            encoder_mode="factorized",
        )
        state = T.train(table, mask, config)
        assert all(np.isfinite(v) for _, _, v in state.training_log)
        result = impute_map(state, table, mask)
        assert np.array_equal(result.completed.cells[mask.observed], table.cells[mask.observed])
        assert len(result.fills) == int((~mask.observed).sum())

    def test_factorized_requires_single_component(self):
        with pytest.raises(ValueError, match="dim_s"):
            T.TrainConfig(dim_s=2, encoder_mode="factorized")

    def test_two_layer_variant_trains_with_correct_gradients(self):
        table = B.synthetic_table(4, seed=3)
        mask = B.generate_mcar_mask(table, 0.3, seed=4)
        config = T.TrainConfig(dim_z=2, dim_s=2, dim_y=2, layers=2, epochs=1, batch_size=4, seed=0)
        state = T.build_model(table.schema, config, np.random.default_rng(0))
        params = list(T.named_parameters(state).values())

        def scalar():
            return T.elbo_batch(state, table, mask, range(4), 0.8, np.random.default_rng(11))

        loss = scalar()
        C.backward(loss)
        analytic = [p.grad.copy() for p in params]
        C.zero_grads(params)
        numeric = finite_difference(lambda: float(scalar().values), params)
        for a, n in zip(analytic, numeric):
            assert max_rel_err(a, n) < 1e-3


class TestPersistence:
    def test_roundtrip_is_bit_exact(self, small_synthetic, tmp_path):
        table, mask = small_synthetic
        config = T.TrainConfig(dim_z=3, dim_s=2, dim_y=2, epochs=2, batch_size=20, seed=3)
        state = T.train(table, mask, config)
        path = tmp_path / "model.json"
        T.save_model(state, path)
        loaded = T.load_model(path)
        for (n1, p1), (n2, p2) in zip(
            T.named_parameters(state).items(), T.named_parameters(loaded).items()
        ):
            assert n1 == n2
            assert np.array_equal(p1.values, p2.values)
        assert loaded.config == state.config
        assert loaded.training_log == state.training_log
        # imputations before and after persistence agree exactly
        r1 = impute_map(state, table, mask)
        r2 = impute_map(loaded, table, mask)
        assert np.array_equal(r1.completed.cells, r2.completed.cells)
        # a second save produces identical bytes
        path2 = tmp_path / "model2.json"
        T.save_model(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_truncated_file_is_corrupt(self, small_synthetic, tmp_path):
        table, mask = small_synthetic
        config = T.TrainConfig(dim_z=2, dim_s=2, dim_y=2, epochs=1, batch_size=20, seed=0)
        state = T.train(table, mask, config)
        path = tmp_path / "model.json"
        T.save_model(state, path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(T.ModelFormatError, match="corrupt"):
            T.load_model(path)

    @pytest.mark.parametrize("corruption", ["truncated", "swapped"])
    def test_stats_not_matching_schema_are_corrupt(self, small_synthetic, tmp_path, corruption):
        table, mask = small_synthetic
        config = T.TrainConfig(dim_z=2, dim_s=2, dim_y=2, epochs=1, batch_size=20, seed=0)
        state = T.train(table, mask, config)
        path = tmp_path / "model.json"
        T.save_model(state, path)
        doc = json.loads(path.read_text())
        stats = doc["stats"]
        if corruption == "truncated":
            del stats[3:]
        else:  # a numeric column's stats traded with a nominal column's null
            nominal = stats.index(None)
            stats[0], stats[nominal] = stats[nominal], stats[0]
        path.write_text(json.dumps(doc))
        with pytest.raises(T.ModelFormatError, match="corrupt"):
            T.load_model(path)

    def test_version_mismatch(self, small_synthetic, tmp_path):
        table, mask = small_synthetic
        config = T.TrainConfig(dim_z=2, dim_s=2, dim_y=2, epochs=1, batch_size=20, seed=0)
        state = T.train(table, mask, config)
        path = tmp_path / "model.json"
        T.save_model(state, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(T.ModelFormatError, match="version"):
            T.load_model(path)

    def test_schema_fingerprint_mismatch_on_impute(self, small_synthetic):
        table, mask = small_synthetic
        config = T.TrainConfig(dim_z=2, dim_s=2, dim_y=2, epochs=1, batch_size=20, seed=0)
        state = T.train(table, mask, config)
        other_schema = Schema(tuple(ColumnSpec(f"x{i}", "real") for i in range(6)))
        other = HeterogeneousTable(other_schema, np.zeros((2, 6)))
        with pytest.raises(T.ModelFormatError, match="fingerprint"):
            impute_map(state, other, MissingMask(np.ones((2, 6), dtype=bool)))
