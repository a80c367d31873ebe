"""MCAR masking, error metrics, the baseline, and the experiment grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivae import benchmark as B
from hivae import training as T
from hivae.tabular import ColumnSpec, DataError, HeterogeneousTable, MissingMask, Schema


class TestMcarMask:
    def test_zero_fraction_observes_everything(self, small_synthetic):
        table, _ = small_synthetic
        mask = B.generate_mcar_mask(table, 0.0, seed=1)
        assert mask.observed.all()

    def test_binomial_concentration(self):
        table = HeterogeneousTable(
            Schema(tuple(ColumnSpec(f"r{i}", "real") for i in range(100))),
            np.zeros((1000, 100)),
        )
        mask = B.generate_mcar_mask(table, 0.2, seed=3)
        share = 1.0 - mask.observed.mean()
        assert abs(share - 0.2) < 0.005

    def test_same_seed_same_mask(self, small_synthetic):
        table, _ = small_synthetic
        m1 = B.generate_mcar_mask(table, 0.3, seed=9)
        m2 = B.generate_mcar_mask(table, 0.3, seed=9)
        assert np.array_equal(m1.observed, m2.observed)

    def test_fraction_bounds(self, small_synthetic):
        table, _ = small_synthetic
        with pytest.raises(ValueError):
            B.generate_mcar_mask(table, 1.0, seed=0)


class TestNrmse:
    def test_perfect_imputation(self):
        assert B.nrmse([0.0, 2.0], [0.0, 2.0]) == 0.0

    def test_swapped_extremes(self):
        # direct arithmetic: MSE = 4, range = 2 -> sqrt(4)/2 = 1
        assert B.nrmse([0.0, 2.0], [2.0, 0.0]) == pytest.approx(1.0)

    def test_single_cell_error_equal_to_range(self):
        truth = np.array([0.0, 4.0, 1.0])
        imputed = np.array([4.0, 4.0, 1.0])
        scored = np.array([True, False, False])
        assert B.nrmse(truth, imputed, scored) == pytest.approx(1.0)

    def test_zero_range_is_undefined(self):
        with pytest.raises(B.MetricUndefinedError):
            B.nrmse([3.0, 3.0], [3.0, 3.0])

    def test_empty_evaluation_warns(self):
        with pytest.warns(UserWarning):
            value = B.nrmse([0.0, 1.0], [0.0, 1.0], np.array([False, False]))
        assert value == 0.0


class TestDiscreteMetrics:
    def test_accuracy_all_correct(self):
        assert B.accuracy_error([0, 1, 2], [0, 1, 2]) == 0.0

    def test_accuracy_all_wrong(self):
        assert B.accuracy_error([0, 1, 2], [1, 2, 0]) == 1.0

    def test_accuracy_quarter(self):
        assert B.accuracy_error([0, 0, 0, 0], [0, 0, 0, 1]) == 0.25

    def test_displacement_exact(self):
        assert B.displacement_error([2, 3], [2, 3], 5) == 0.0

    def test_displacement_off_by_one(self):
        assert B.displacement_error([0, 1, 2, 3], [1, 2, 3, 4], 5) == pytest.approx(0.2)

    def test_displacement_mixed(self):
        # direct arithmetic: (0 + 2/4)/2 = 0.25
        assert B.displacement_error([1, 0], [1, 2], 4) == pytest.approx(0.25)


class TestMeanModeImpute:
    def test_real_mean(self):
        schema = Schema((ColumnSpec("r", "real"),))
        table = HeterogeneousTable(schema, np.array([[1.0], [3.0], [0.0]]))
        mask = MissingMask(np.array([[True], [True], [False]]))
        result = B.mean_mode_impute(table, mask)
        assert result.completed.cells[2, 0] == 2.0

    def test_categorical_mode(self):
        schema = Schema((ColumnSpec("c", "cat", 2),))
        table = HeterogeneousTable(schema, np.array([[0.0], [0.0], [1.0], [0.0]]))
        mask = MissingMask(np.array([[True], [True], [True], [False]]))
        result = B.mean_mode_impute(table, mask)
        assert result.completed.cells[3, 0] == 0.0

    def test_count_rounds_half_up(self):
        # mean of {1, 2} = 1.5, half-up rounding gives 2
        schema = Schema((ColumnSpec("n", "count"),))
        table = HeterogeneousTable(schema, np.array([[1.0], [2.0], [0.0]]))
        mask = MissingMask(np.array([[True], [True], [False]]))
        result = B.mean_mode_impute(table, mask)
        assert result.completed.cells[2, 0] == 2.0

    def test_modal_tie_breaks_low(self):
        schema = Schema((ColumnSpec("c", "cat", 3),))
        table = HeterogeneousTable(schema, np.array([[2.0], [1.0], [0.0]]))
        mask = MissingMask(np.array([[True], [True], [False]]))
        result = B.mean_mode_impute(table, mask)
        assert result.completed.cells[2, 0] == 1.0  # {2, 1} tie -> lowest class

    def test_fully_missing_column_fails(self):
        schema = Schema((ColumnSpec("r", "real"),))
        table = HeterogeneousTable(schema, np.array([[1.0], [2.0]]))
        mask = MissingMask(np.zeros((2, 1), dtype=bool))
        with pytest.raises(DataError, match="observed"):
            B.mean_mode_impute(table, mask)

    def test_row_permutation_invariant(self, small_synthetic):
        table, mask = small_synthetic
        perm = np.random.default_rng(0).permutation(table.n_rows)
        permuted = HeterogeneousTable(table.schema, table.cells[perm])
        pmask = MissingMask(mask.observed[perm])
        r1 = B.mean_mode_impute(table, mask).completed.cells[perm]
        r2 = B.mean_mode_impute(permuted, pmask).completed.cells
        # means match up to summation order
        assert np.allclose(r1, r2, rtol=1e-12, atol=1e-12)


    def test_records_name_the_statistic_of_each_masked_cell(self, small_synthetic):
        table, mask = small_synthetic
        result = B.mean_mode_impute(table, mask)
        assert result.method == "mean_mode"
        records = result.records()
        assert [(rec["col"], rec["row"]) for rec in records] == [
            (d, n) for d in range(table.n_cols) for n in np.flatnonzero(~mask.observed[:, d])
        ]
        for rec in records:
            col = table.schema.columns[rec["col"]]
            statistic = "mode" if col.is_nominal else "mean"
            assert rec["method"] == "mean_mode"
            assert rec["value"] == result.completed.cells[rec["row"], rec["col"]]
            assert rec["params"] == {"kind": col.kind, "statistic": statistic}

    def test_records_of_a_small_table(self):
        schema = Schema(
            (ColumnSpec("r", "real"), ColumnSpec("n", "count"), ColumnSpec("c", "cat", 3))
        )
        cells = np.array([[1.0, 2.0, 0.0], [2.5, 3.0, 2.0], [-0.5, 0.0, 2.0], [4.0, 1.0, 1.0]])
        observed = np.array([[1, 0, 1], [1, 1, 1], [0, 1, 0], [1, 0, 1]], dtype=bool)
        result = B.mean_mode_impute(HeterogeneousTable(schema, cells), MissingMask(observed))
        assert result.records() == [
            {"row": 2, "col": 0, "method": "mean_mode", "value": 2.5,
             "params": {"kind": "real", "statistic": "mean"}},
            {"row": 0, "col": 1, "method": "mean_mode", "value": 2.0,
             "params": {"kind": "count", "statistic": "mean"}},
            {"row": 3, "col": 1, "method": "mean_mode", "value": 2.0,
             "params": {"kind": "count", "statistic": "mean"}},
            {"row": 2, "col": 2, "method": "mean_mode", "value": 0.0,
             "params": {"kind": "cat", "statistic": "mode"}},
        ]


class TestScoring:
    def test_avg_err_is_unweighted_column_mean(self, small_synthetic):
        table, mask = small_synthetic
        report = B.score_imputation(
            table, B.mean_mode_impute(table, mask).completed, mask, method="mean_mode", fraction=0.25
        )
        assert report.avg_err == pytest.approx(
            np.mean([s.value for s in report.per_column])
        )
        kinds = {s.name: s.metric for s in report.per_column}
        assert kinds["real_a"] == "nrmse"
        assert kinds["count_a"] == "nrmse"
        assert kinds["cat_a"] == "accuracy"
        assert kinds["ord_a"] == "displacement"

    def test_rejects_modified_observed_cells(self, small_synthetic):
        table, mask = small_synthetic
        tampered = table.cells.copy()
        tampered[mask.observed] += 1.0
        with pytest.raises(DataError, match="^observed cells were modified by the imputation$"):
            B.score_imputation(
                table, HeterogeneousTable(table.schema, tampered), mask, method="x", fraction=0.1
            )

    def test_zero_range_column_names_culprit(self):
        schema = Schema((ColumnSpec("flat", "real"),))
        table = HeterogeneousTable(schema, np.full((3, 1), 2.0))
        mask = MissingMask(np.array([[True], [True], [False]]))
        with pytest.raises(B.MetricUndefinedError, match="flat"):
            B.score_imputation(
                table, B.mean_mode_impute(table, mask).completed, mask, method="x", fraction=0.1
            )


class TestRunBenchmark:
    def test_unknown_method_rejected(self, small_synthetic):
        table, _ = small_synthetic
        with pytest.raises(ValueError, match="unknown"):
            B.run_benchmark(table, T.TrainConfig(epochs=1), [0.1], 1, ["oracle"], seed=0)

    @pytest.mark.parametrize(
        "fractions,repeats,methods",
        [([0.1], 0, ["mean_mode"]), ([0.1], -2, ["mean_mode"]), ([], 1, ["mean_mode"]),
         ([0.1], 1, [])],
        ids=["no_repeats", "negative_repeats", "no_fractions", "no_methods"],
    )
    def test_empty_grid_rejected(self, small_synthetic, fractions, repeats, methods):
        table, _ = small_synthetic
        with pytest.raises(ValueError, match=r"need repeats >= 1 \(got -?\d+\), a fraction"):
            B.run_benchmark(table, T.TrainConfig(epochs=1), fractions, repeats, methods, seed=0)

    def test_zero_fraction_warning_report(self, small_synthetic):
        table, _ = small_synthetic
        [report] = B.run_benchmark(
            table, T.TrainConfig(epochs=1), [0.0], 1, ["mean_mode"], seed=0
        )
        assert report.n_scored_cells == 0
        assert len(report.warnings) == table.n_cols
        assert report.avg_err == 0.0

    def test_same_master_seed_reproduces_reports(self, small_synthetic):
        table, _ = small_synthetic
        config = T.TrainConfig(dim_z=2, dim_s=2, dim_y=2, epochs=2, batch_size=20, seed=0)
        methods = ["hivae_map", "hivae_sample", "mean_mode"]
        r1 = B.run_benchmark(table, config, [0.2], 2, methods, seed=5)
        r2 = B.run_benchmark(table, config, [0.2], 2, methods, seed=5)
        assert r1 == r2
        assert len(r1) == 6  # 1 fraction x 2 repeats x 3 methods

    def test_grid_order_fixed(self, small_synthetic):
        table, _ = small_synthetic
        config = T.TrainConfig(dim_z=2, dim_s=2, dim_y=2, epochs=1, batch_size=20, seed=0)
        reports = B.run_benchmark(table, config, [0.1, 0.3], 2, ["mean_mode"], seed=1)
        coords = [(r.fraction, r.repeat) for r in reports]
        assert coords == [(0.1, 0), (0.1, 1), (0.3, 0), (0.3, 1)]


class TestSyntheticData:
    def test_reproducible(self):
        t1 = B.synthetic_table(50, seed=4)
        t2 = B.synthetic_table(50, seed=4)
        assert np.array_equal(t1.cells, t2.cells)

    @pytest.mark.parametrize("n_rows", [0, -3])
    def test_rejects_an_empty_table(self, n_rows):
        with pytest.raises(ValueError, match=f"^n_rows must be >= 1, got {n_rows}$"):
            B.synthetic_table(n_rows)

    def test_a_single_row_is_a_table(self):
        assert B.synthetic_table(1, seed=2).cells.shape == (1, 7)

    def test_schema_matches_cells(self):
        table = B.synthetic_table(100, seed=0)
        assert table.n_cols == 7
        for d, col in enumerate(table.schema.columns):
            vals = table.cells[:, d]
            if col.kind == "pos":
                assert np.all(vals > 0)
            elif col.kind == "count":
                assert np.all(vals == np.floor(vals)) and np.all(vals >= 0)
            elif col.is_nominal:
                assert np.all((vals >= 0) & (vals < col.cardinality))

    @given(st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_separable_label_is_function_of_features(self, seed):
        table = B.separable_table(100, seed=seed)
        centers = np.array([[3.0, 0.0], [-3.0, 3.0], [0.0, -3.0]])
        feats, labels = table.cells[:, :2], table.cells[:, 2]
        nearest = np.argmin(
            ((feats[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2), axis=1
        )
        assert np.mean(nearest == labels) > 0.97
