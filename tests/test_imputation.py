"""MAP/sampling imputation and the held-out-label prediction protocol."""

import numpy as np
import pytest
from scipy.stats import chisquare

from hivae import benchmark as B
from hivae import training as T
from hivae.imputation import impute_map, impute_sample, predict_target
from hivae.tabular import (
    ColumnSpec,
    DataError,
    HeterogeneousTable,
    MissingMask,
    NormalizationStats,
    Schema,
)


def trained_small(table, mask, seed=0, epochs=3):
    config = T.TrainConfig(dim_z=3, dim_s=2, dim_y=2, epochs=epochs, batch_size=20, seed=seed)
    return T.train(table, mask, config)


class TestImputeMap:
    def test_all_observed_returns_input(self, small_synthetic):
        table, _ = small_synthetic
        full = MissingMask(np.ones(table.cells.shape, dtype=bool))
        model = trained_small(table, full)
        result = impute_map(model, table, full)
        assert np.array_equal(result.completed.cells, table.cells)
        assert result.records() == []

    def test_missing_categorical_gets_argmax(self, small_synthetic):
        table, mask = small_synthetic
        model = trained_small(table, mask)
        result = impute_map(model, table, mask)
        cat_cols = [d for d, c in enumerate(table.schema.columns) if c.kind == "cat"]
        for rec in result.records():
            if rec["col"] in cat_cols:
                probs = rec["params"]["probs"]
                assert rec["value"] == float(np.argmax(probs))

    def test_bias_only_real_column_fills_global_shift(self):
        # zero weights, single component: decoded mean is the denormalized bias
        schema = Schema((ColumnSpec("r", "real"),))
        config = T.TrainConfig(dim_z=2, dim_s=1, dim_y=1, epochs=1, batch_size=2, seed=0)
        state = T.build_model(schema, config, np.random.default_rng(0))
        for p in T.named_parameters(state).values():
            p.values[...] = 0.0
        state.stats = NormalizationStats([3.0], [2.0])
        table = HeterogeneousTable(schema, np.array([[0.0], [1.0]]))
        mask = MissingMask(np.array([[False], [True]]))
        result = impute_map(state, table, mask)
        # hand evaluation: head mean = 0, denormalized mean = 2*0 + 3 = 3
        assert result.completed.cells[0, 0] == pytest.approx(3.0)

    def test_deterministic(self, small_synthetic):
        table, mask = small_synthetic
        model = trained_small(table, mask)
        r1 = impute_map(model, table, mask)
        r2 = impute_map(model, table, mask)
        assert np.array_equal(r1.completed.cells, r2.completed.cells)

    def test_observed_cells_preserved_and_fills_type_valid(self, small_synthetic):
        table, mask = small_synthetic
        model = trained_small(table, mask)
        for result in (
            impute_map(model, table, mask),
            impute_sample(model, table, mask, np.random.default_rng(5)),
        ):
            assert np.array_equal(
                result.completed.cells[mask.observed], table.cells[mask.observed]
            )
            for d, col in enumerate(table.schema.columns):
                filled = result.completed.cells[~mask.observed[:, d], d]
                if col.kind == "pos":
                    assert np.all(filled > 0.0)
                elif col.kind == "count":
                    assert np.all(filled >= 0.0)
                    assert np.all(filled == np.floor(filled))
                elif col.is_nominal:
                    assert np.all((filled >= 0) & (filled < col.cardinality))
                    assert np.all(filled == np.floor(filled))


class TestImputeSample:
    def test_two_seeds_differ_only_on_missing_cells(self, small_synthetic):
        table, mask = small_synthetic
        model = trained_small(table, mask)
        r1 = impute_sample(model, table, mask, np.random.default_rng(1))
        r2 = impute_sample(model, table, mask, np.random.default_rng(2))
        assert np.array_equal(r1.completed.cells[mask.observed], r2.completed.cells[mask.observed])
        assert not np.array_equal(r1.completed.cells, r2.completed.cells)

    def test_collapsed_model_sampling_matches_map_on_numerics(self):
        # zero nets floor every variance, so draws coincide with the mode
        schema = Schema((ColumnSpec("r", "real"), ColumnSpec("p", "pos")))
        config = T.TrainConfig(dim_z=2, dim_s=1, dim_y=1, epochs=1, batch_size=2, seed=0)
        state = T.build_model(schema, config, np.random.default_rng(0))
        for p in T.named_parameters(state).values():
            p.values[...] = 0.0
        # raw variance softplus(0)=ln 2 is not degenerate; push the scale bias down
        for head in state.generative.heads:
            head.scale_layers[0].bias.values[...] = -40.0
        state.stats = NormalizationStats([1.5, 0.2], [0.5, 0.3])
        table = HeterogeneousTable(schema, np.array([[0.0, 1.0]]))
        mask = MissingMask(np.array([[False, False]]))
        map_cells = impute_map(state, table, mask).completed.cells
        sample_cells = impute_sample(state, table, mask, np.random.default_rng(0)).completed.cells
        assert np.allclose(map_cells, sample_cells, atol=1e-3)

    def test_sampled_fills_match_decoded_distribution(self):
        # latent-independent decoder (zero weights) so every draw shares one
        # categorical distribution; chi-square goodness of fit on 1000 fills
        schema = Schema((ColumnSpec("c", "cat", 3),))
        config = T.TrainConfig(dim_z=2, dim_s=1, dim_y=1, epochs=1, batch_size=2, seed=0)
        state = T.build_model(schema, config, np.random.default_rng(0))
        for p in T.named_parameters(state).values():
            p.values[...] = 0.0
        state.generative.heads[0].loc_layers[0].bias.values[...] = [0.8, -0.4]
        table = HeterogeneousTable(schema, np.zeros((1, 1)))
        mask = MissingMask(np.array([[False]]))
        rng = np.random.default_rng(123)
        draws = [
            impute_sample(state, table, mask, rng).completed.cells[0, 0] for _ in range(1000)
        ]
        probs = impute_sample(state, table, mask, rng).records()[0]["params"]["probs"]
        counts = np.bincount(np.asarray(draws, dtype=int), minlength=3)
        result = chisquare(counts, np.asarray(probs) * 1000)
        assert result.pvalue > 0.01


class TestPredictTarget:
    def test_separable_data_beats_majority_baseline(self):
        table = B.separable_table(500, seed=11)
        mask = MissingMask(np.ones(table.cells.shape, dtype=bool))
        config = T.TrainConfig(epochs=300, batch_size=100, seed=0)
        out = predict_target(table, mask, "label", 0.5, config, np.random.default_rng(0))
        majority = B.majority_class_error(table.cells[:, 2])
        assert out.accuracy_error < majority

    def test_half_fraction_keeps_ceil_half_visible(self):
        table = B.separable_table(7, seed=0)
        mask = MissingMask(np.ones(table.cells.shape, dtype=bool))
        config = T.TrainConfig(dim_z=2, dim_s=2, dim_y=2, epochs=1, batch_size=7, seed=0)
        out = predict_target(table, mask, "label", 0.5, config, np.random.default_rng(1))
        assert len(out.held_out_rows) == 7 - 4  # ceil(7/2) = 4 visible

    def test_constant_label_gives_zero_error(self):
        rng = np.random.default_rng(3)
        schema = Schema((ColumnSpec("x", "real"), ColumnSpec("label", "cat", 2)))
        cells = np.column_stack([rng.normal(size=40), np.zeros(40)])
        table = HeterogeneousTable(schema, cells)
        mask = MissingMask(np.ones((40, 2), dtype=bool))
        config = T.TrainConfig(dim_z=2, dim_s=2, dim_y=2, epochs=250, batch_size=20, seed=0)
        out = predict_target(table, mask, "label", 0.5, config, np.random.default_rng(2))
        assert out.accuracy_error == 0.0

    def test_too_few_labels_to_hold_out_is_a_data_error(self):
        # 3 observed labels, ceil(20 * 0.5) = 10 kept visible: none would be held out
        table = B.separable_table(20, seed=0)
        observed = np.ones(table.cells.shape, dtype=bool)
        observed[3:, 2] = False
        config = T.TrainConfig(dim_z=2, dim_s=2, dim_y=2, epochs=1, batch_size=20, seed=0)
        with pytest.raises(DataError, match="'label' has 3 observed labels"):
            predict_target(table, MissingMask(observed), "label", 0.5, config,
                           np.random.default_rng(0))

    def test_rejects_non_categorical_target(self, small_synthetic):
        table, mask = small_synthetic
        config = T.TrainConfig(epochs=1)
        with pytest.raises(ValueError, match="categorical"):
            predict_target(table, mask, "real_a", 0.5, config, np.random.default_rng(0))

    def test_rejects_bad_fraction(self, small_synthetic):
        table, mask = small_synthetic
        config = T.TrainConfig(epochs=1)
        with pytest.raises(ValueError, match="fraction"):
            predict_target(table, mask, "cat_a", 1.0, config, np.random.default_rng(0))
