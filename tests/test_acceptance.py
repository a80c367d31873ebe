"""Acceptance suite: nine exit criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines;
the whole suite is desk-scale (a few minutes on a laptop).
"""

import math
import time

import numpy as np

from hivae import benchmark as B
from hivae import compute as C
from hivae import generative as G
from hivae import recognition as R
from hivae import training as T
from hivae.imputation import impute_map, impute_sample, predict_target
from hivae.tabular import (
    ColumnSpec,
    HeterogeneousTable,
    MissingMask,
    Schema,
    encode_inputs,
    identity_stats,
)

from conftest import finite_difference, max_rel_err


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def tiny_schema() -> Schema:
    return Schema(
        (
            ColumnSpec("r", "real"),
            ColumnSpec("p", "pos"),
            ColumnSpec("n", "count"),
            ColumnSpec("c", "cat", 3),
            ColumnSpec("o", "ordinal", 4),
        )
    )


def tiny_table(n_rows: int, seed: int, schema=None) -> HeterogeneousTable:
    rng = np.random.default_rng(seed)
    schema = schema or tiny_schema()
    cols = []
    for col in schema.columns:
        if col.kind == "real":
            cols.append(rng.normal(0.5, 1.5, n_rows))
        elif col.kind == "pos":
            cols.append(np.exp(rng.normal(0.0, 0.7, n_rows)))
        elif col.kind == "count":
            cols.append(rng.poisson(3.0, n_rows).astype(float))
        else:
            cols.append(rng.integers(0, col.cardinality, n_rows).astype(float))
    return HeterogeneousTable(schema, np.column_stack(cols))


class TestCriterion1Gradients:
    def test_gradient_suite(self):
        t0 = time.time()
        worst = 0.0

        # dense layers, every activation
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            for act in C.ACTIVATIONS:
                layer = C.init_dense(3, 4, act, rng)
                x = rng.uniform(0.2, 1.0, size=(2, 3))  # clear of the relu kink
                params = [layer.weights, layer.bias]

                def scalar():
                    out = C.forward_dense(layer, C.constant(x))
                    return C.tsum(out * out)

                loss = scalar()
                C.backward(loss)
                analytic = [p.grad.copy() for p in params]
                C.zero_grads(params)
                numeric = finite_difference(lambda: float(scalar().values), params)
                for a, n in zip(analytic, numeric):
                    worst = max(worst, max_rel_err(a, n))

        # each likelihood term, both KL terms, and the full per-row ELBO
        for seed in range(20):
            table = tiny_table(3, seed=seed)
            rng = np.random.default_rng(2000 + seed)
            mask = MissingMask(rng.random((3, 5)) > 0.3)
            config = T.TrainConfig(
                dim_z=2, dim_s=2, dim_y=2, epochs=1, batch_size=3, seed=seed
            )
            state = T.build_model(table.schema, config, rng)
            gen_params = state.generative.parameters()
            stats = identity_stats(table.schema)

            def decode_scalar(col_index):
                lat = R.LatentSample(
                    C.constant([[0.3, 0.7], [0.9, 0.1], [0.5, 0.5]]),
                    C.constant(np.linspace(-0.4, 0.6, 6).reshape(3, 2)),
                    1.0,
                )
                liks = G.decode(state.generative, lat, stats)
                return C.tsum(G.log_likelihood(liks[col_index], table.cells[:, col_index]))

            for d in range(5):
                loss = decode_scalar(d)
                C.backward(loss)
                analytic = [p.grad.copy() for p in gen_params]
                C.zero_grads(gen_params)
                numeric = finite_difference(
                    lambda: float(decode_scalar(d).values), gen_params
                )
                for a, n in zip(analytic, numeric):
                    worst = max(worst, max_rel_err(a, n))

            all_params = list(T.named_parameters(state).values())

            def kl_scalar():
                batch = encode_inputs(table, mask, stats, range(3))
                params = R.encode(state.encoder, batch)
                s_soft = C.sample_gumbel_softmax(
                    params.s_logits, 0.8, np.random.default_rng(33)
                )
                mu, lv = params.conditioner(s_soft)
                mu_p = C.matmul(s_soft, state.generative.prior_mu_table)
                return C.tsum(T.gaussian_kl(mu, lv, mu_p)) + C.tsum(
                    T.categorical_kl(params.s_logits)
                )

            def elbo_scalar():
                return T.elbo_batch(state, table, mask, range(3), 0.8, np.random.default_rng(44))

            for fn in (kl_scalar, elbo_scalar):
                loss = fn()
                C.backward(loss)
                analytic = [p.grad.copy() for p in all_params]
                C.zero_grads(all_params)
                numeric = finite_difference(lambda: float(fn().values), all_params)
                for a, n in zip(analytic, numeric):
                    worst = max(worst, max_rel_err(a, n))

        elapsed = time.time() - t0
        report(
            1,
            "gradient suite",
            worst < 1e-3 and elapsed < 60.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s",
        )


class TestCriterion2ObservedOnly:
    def test_masked_cells_are_inert(self):
        schema = Schema(
            (
                ColumnSpec("r1", "real"),
                ColumnSpec("r2", "real"),
                ColumnSpec("p", "pos"),
                ColumnSpec("n", "count"),
                ColumnSpec("c", "cat", 3),
                ColumnSpec("o", "ordinal", 4),
            )
        )
        table = tiny_table(50, seed=1, schema=schema)
        mask = B.generate_mcar_mask(table, 0.3, seed=2)
        config = T.TrainConfig(dim_z=3, dim_s=3, dim_y=2, epochs=2, batch_size=25, seed=0)
        model = T.train(table, mask, config)

        def snapshot(tbl):
            elbo = T.elbo_batch(model, tbl, mask, range(50), 0.5, np.random.default_rng(7))
            batch = encode_inputs(tbl, mask, model.stats, range(50))
            params = R.encode(model.encoder, batch)
            imputed = impute_map(model, tbl, mask)
            return (
                float(elbo.values),
                params.s_logits.values.copy(),
                R.map_latent(params).z_mu.values.copy(),
                imputed.completed.cells[~mask.observed].copy(),
            )

        base = snapshot(table)
        cells = table.cells.copy()
        rng = np.random.default_rng(3)
        cells[~mask.observed] = rng.normal(size=int((~mask.observed).sum())) * 50.0
        perturbed = snapshot(HeterogeneousTable(schema, cells))
        ok = (
            base[0] == perturbed[0]
            and np.array_equal(base[1], perturbed[1])
            and np.array_equal(base[2], perturbed[2])
            and np.array_equal(base[3], perturbed[3])
        )
        report(2, "observed-only invariance", ok, "ELBO/encoder/imputation deltas all 0")


class TestCriterion3LikelihoodNormalization:
    def test_densities_normalize(self):
        worst = 0.0
        for seed in range(5):
            table = tiny_table(4, seed=seed)
            config = T.TrainConfig(dim_z=2, dim_s=2, dim_y=2, epochs=1, batch_size=4, seed=seed)
            state = T.build_model(table.schema, config, np.random.default_rng(seed))
            rng = np.random.default_rng(100 + seed)
            lat = R.LatentSample(
                C.constant(rng.dirichlet(np.ones(2), size=1)),
                C.constant(rng.normal(size=(1, 2))),
                1.0,
            )
            stats = identity_stats(table.schema)
            normal, lognormal, poisson, cat, ordinal = G.decode(state.generative, lat, stats)

            mu, var = normal.mu.values[0, 0], normal.var.values[0, 0]
            grid = np.linspace(mu - 12 * math.sqrt(var), mu + 12 * math.sqrt(var), 20_001)
            dens = np.exp(G.log_likelihood(normal, grid).values[:, 0])
            worst = max(worst, abs(np.trapezoid(dens, grid) - 1.0))

            m, v = lognormal.mu.values[0, 0], lognormal.var.values[0, 0]
            u = np.linspace(m - 10 * math.sqrt(v), m + 10 * math.sqrt(v), 20_001)
            dens = np.exp(G.log_likelihood(lognormal, np.exp(u)).values[:, 0])
            worst = max(worst, abs(np.trapezoid(dens * np.exp(u), u) - 1.0))

            xs = np.arange(0.0, 10_001.0)
            mass = np.exp(G.log_likelihood(poisson, xs).values[:, 0])
            worst = max(worst, abs(mass.sum() - 1.0))

            worst = max(worst, abs(cat.probs.values.sum() - 1.0))
            worst = max(worst, abs(ordinal.probs.values.sum() - 1.0))
            assert np.all(np.diff(ordinal.thresholds.values, axis=1) > 0.0)
        report(3, "likelihood normalization", worst < 1e-4, f"worst deviation {worst:.2e}")


class TestCriterion4KLOracle:
    def test_closed_forms_match_monte_carlo(self):
        rng = np.random.default_rng(0)
        n = 100_000
        ok = True
        for _ in range(10):
            k = int(rng.integers(2, 6))
            mu_q = rng.normal(size=(1, k))
            log_var_q = rng.uniform(-1.5, 1.0, size=(1, k))
            mu_p = rng.normal(size=(1, k))
            closed = float(
                T.gaussian_kl(C.constant(mu_q), C.constant(log_var_q), C.constant(mu_p)).values[0]
            )
            std = np.exp(0.5 * log_var_q)
            z = mu_q + std * rng.standard_normal((n, k))
            log_q = -0.5 * np.sum(np.log(2 * np.pi) + log_var_q + ((z - mu_q) / std) ** 2, axis=1)
            log_p = -0.5 * np.sum(np.log(2 * np.pi) + (z - mu_p) ** 2, axis=1)
            diffs = log_q - log_p
            se = diffs.std(ddof=1) / math.sqrt(n)
            ok &= abs(diffs.mean() - closed) < 3 * se + 1e-12

            L = int(rng.integers(2, 8))
            logits = rng.normal(size=(1, L)) * 2.0
            closed_s = float(T.categorical_kl(C.constant(logits)).values[0])
            pi = np.exp(logits[0] - logits[0].max())
            pi /= pi.sum()
            draws = rng.choice(L, size=n, p=pi)
            vals = np.log(pi[draws]) - math.log(1.0 / L)
            se_s = vals.std(ddof=1) / math.sqrt(n)
            ok &= abs(vals.mean() - closed_s) < 3 * se_s + 1e-12
        report(4, "KL oracle", ok, "10 draws x 1e5 samples, within 3 SE")


class TestCriterion5FactorizedOracle:
    def test_fusion_matches_gaussian_product(self):
        worst = 0.0
        rng = np.random.default_rng(0)
        for trial in range(10):
            n_cols, k = 4, 3
            schema = Schema(tuple(ColumnSpec(f"r{i}", "real") for i in range(n_cols)))
            nets = R.build_encoder(schema, 1, k, 1, R.FACTORIZED, np.random.default_rng(trial))
            mus = rng.normal(size=(n_cols, k))
            log_vars = rng.uniform(-2.0, 2.0, size=(n_cols, k))
            for d, stack in enumerate(nets.per_column):
                stack[0].weights.values[...] = 0.0
                stack[0].bias.values[:k] = mus[d]
                stack[0].bias.values[k:] = log_vars[d]
            observed = rng.random((1, n_cols)) > 0.4
            table = HeterogeneousTable(schema, np.zeros((1, n_cols)))
            mp = R.map_latent(R.encode_factorized(
                nets, table, MissingMask(observed), identity_stats(schema), [0]
            ))
            sel = observed[0]
            prec = 1.0 + np.exp(-log_vars[sel]).sum(axis=0)
            mean = (mus[sel] * np.exp(-log_vars[sel])).sum(axis=0) / prec
            worst = max(worst, float(np.abs(mp.z_mu.values[0] - mean).max()))
            worst = max(
                worst, float(np.abs(np.exp(mp.z_log_var.values[0]) - 1.0 / prec).max())
            )
        # empty observation set returns the prior
        schema = Schema((ColumnSpec("r", "real"),))
        nets = R.build_encoder(schema, 1, 3, 1, R.FACTORIZED, np.random.default_rng(0))
        table = HeterogeneousTable(schema, np.zeros((2, 1)))
        mp = R.map_latent(R.encode_factorized(
            nets, table, MissingMask(np.zeros((2, 1), dtype=bool)), identity_stats(schema), [0, 1]
        ))
        prior_ok = np.allclose(mp.z_mu.values, 0.0, atol=1e-15) and np.allclose(
            np.exp(mp.z_log_var.values), 1.0, atol=1e-15
        )
        report(5, "factorized-encoder oracle", worst < 1e-10 and prior_ok, f"max dev {worst:.2e}")


class TestCriterion6DirectionalImputation:
    def test_beats_mean_mode_on_synthetic_data(self):
        t0 = time.time()
        table = B.synthetic_table(1000, seed=7)
        avg_wins, nominal_wins = 0, 0
        details = []
        for seed in range(5):
            mask = B.generate_mcar_mask(table, 0.2, seed=100 + seed)
            config = T.TrainConfig(epochs=500, batch_size=200, seed=seed)
            model = T.train(table, mask, config)
            hi = B.score_imputation(
                table, impute_map(model, table, mask).completed, mask,
                method="hivae_map", fraction=0.2, repeat=seed,
            )
            mm = B.score_imputation(
                table, B.mean_mode_impute(table, mask).completed, mask,
                method="mean_mode", fraction=0.2, repeat=seed,
            )
            avg_wins += hi.avg_err <= mm.avg_err
            nominal_wins += hi.nominal_err < mm.nominal_err
            details.append(f"{hi.avg_err:.3f}/{mm.avg_err:.3f}")
        elapsed = time.time() - t0
        report(
            6,
            "directional imputation",
            avg_wins >= 4 and nominal_wins >= 4 and elapsed < 600.0,
            f"avg wins {avg_wins}/5, nominal wins {nominal_wins}/5, "
            f"{elapsed:.0f}s, avg errs {details}",
        )


class TestCriterion7NormalizationAblation:
    def test_no_norm_fails_or_scores_worse(self):
        base = B.synthetic_table(1000, seed=7)
        cells = base.cells.copy()
        cells[:, 0] *= 1e4  # one wide-range column
        table = HeterogeneousTable(base.schema, cells)
        wins = 0
        details = []
        for seed in range(5):
            mask = B.generate_mcar_mask(table, 0.2, seed=200 + seed)
            outcomes = {}
            for norm in (True, False):
                config = T.TrainConfig(
                    epochs=300, batch_size=200, seed=seed, normalization=norm
                )
                try:
                    model = T.train(table, mask, config)
                    rep = B.score_imputation(
                        table, impute_map(model, table, mask).completed, mask,
                        method="x", fraction=0.2,
                    )
                    outcomes[norm] = rep.numeric_err
                except T.TrainingError:
                    outcomes[norm] = None  # the exit-3 arm
            if outcomes[False] is None or outcomes[False] >= outcomes[True]:
                wins += 1
            details.append(f"{outcomes[True]:.3f} vs {outcomes[False]}")
        report(7, "normalization ablation", wins >= 4, f"worse-or-fail on {wins}/5: {details}")


class TestCriterion8PredictiveProtocol:
    def test_beats_majority_baseline_with_margin(self):
        table = B.separable_table(500, seed=3)
        mask = MissingMask(np.ones(table.cells.shape, dtype=bool))
        majority = B.majority_class_error(table.cells[:, 2])
        wins = 0
        errs = []
        for seed in range(5):
            config = T.TrainConfig(epochs=300, batch_size=100, seed=seed)
            out = predict_target(table, mask, "label", 0.5, config, np.random.default_rng(seed))
            errs.append(out.accuracy_error)
            wins += out.accuracy_error <= 0.8 * majority  # >= 20% relative gain
        report(
            8,
            "predictive protocol",
            wins == 5,
            f"errors {['%.3f' % e for e in errs]} vs majority {majority:.3f}",
        )


class TestCriterion9DeterminismPersistence:
    def test_bit_identical_runs_and_roundtrip(self, tmp_path):
        table = B.synthetic_table(120, seed=9)
        mask = B.generate_mcar_mask(table, 0.25, seed=10)
        config = T.TrainConfig(dim_z=4, dim_s=3, dim_y=2, epochs=5, batch_size=40, seed=11)

        paths = []
        imputations = []
        for name in ("a.json", "b.json"):
            model = T.train(table, mask, config)
            path = tmp_path / name
            T.save_model(model, path)
            paths.append(path.read_bytes())
            imputations.append(impute_map(model, table, mask).completed.cells)
        files_identical = paths[0] == paths[1]
        imputations_identical = np.array_equal(imputations[0], imputations[1])

        reloaded = T.load_model(tmp_path / "a.json")
        model = T.train(table, mask, config)
        roundtrip_exact = all(
            np.array_equal(p.values, q.values)
            for p, q in zip(
                T.named_parameters(model).values(), T.named_parameters(reloaded).values()
            )
        )
        sample_match = np.array_equal(
            impute_sample(model, table, mask, np.random.default_rng(5)).completed.cells,
            impute_sample(reloaded, table, mask, np.random.default_rng(5)).completed.cells,
        )
        ok = files_identical and imputations_identical and roundtrip_exact and sample_match
        report(9, "determinism & persistence", ok, "model files and imputations bit-identical")
