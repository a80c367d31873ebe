"""Exit codes, reproducibility, and file outputs of every subcommand."""

import json

import numpy as np
import pytest

from hivae import benchmark as B
from hivae.cli import main
from hivae.tabular import HeterogeneousTable, MissingMask, write_mask, write_table

TYPES = "real_a,real\nreal_b,real\npos_a,pos\ncount_a,count\ncat_a,cat,3\ncat_b,cat,3\nord_a,ordinal,4\n"


@pytest.fixture
def dataset(tmp_path):
    table = B.synthetic_table(60, seed=8)
    mask = B.generate_mcar_mask(table, 0.2, seed=9)
    data = tmp_path / "data.csv"
    types = tmp_path / "types.csv"
    maskf = tmp_path / "mask.csv"
    write_table(table, data)
    write_mask(mask, maskf)
    types.write_text(TYPES)
    return table, mask, str(data), str(types), str(maskf)


FAST = ["--dim-z", "2", "--dim-s", "2", "--dim-y", "2", "--epochs", "2", "--batch", "30"]


class TestTrain:
    def test_writes_model_and_epoch_log(self, dataset, tmp_path, capsys):
        _, _, data, types, maskf = dataset
        out = str(tmp_path / "model.json")
        code = main(["train", "--data", data, "--types", types, "--mask", maskf,
                     "--out", out, "--seed", "1", *FAST])
        assert code == 0
        doc = json.loads(open(out).read())
        assert doc["format"] == "hivae-model"
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("epoch=")]
        assert len(lines) == 2

    def test_missing_types_is_usage_error(self, dataset, tmp_path):
        _, _, data, _, _ = dataset
        code = main(["train", "--data", data, "--out", str(tmp_path / "m.json")])
        assert code == 1

    @pytest.mark.parametrize(
        "flags", [["--tau-start", "inf"], ["--tau-start", "inf", "--tau-end", "inf"]],
        ids=["start", "both"],
    )
    def test_infinite_temperature_is_usage_error(self, dataset, tmp_path, capsys, flags):
        _, _, data, types, _ = dataset
        out = tmp_path / "m.json"
        code = main(["train", "--data", data, "--types", types, "--out", str(out), *FAST, *flags])
        assert code == 1
        assert capsys.readouterr().err == "error: need 0 < tau_end <= tau_start < inf\n"
        assert not out.exists()

    def test_last_epoch_ends_at_tau_end_from_a_huge_tau_start(self, dataset, tmp_path, capsys):
        """The interpolated last temperature, 1e300 + (1e-3 - 1e300) * 1.0, rounds to 0."""
        _, _, data, types, _ = dataset
        out = tmp_path / "m.json"
        code = main(["train", "--data", data, "--types", types, "--out", str(out),
                     *FAST, "--epochs", "3", "--tau-start", "1e300"])
        assert code == 0, capsys.readouterr().err
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("epoch=")]
        assert [l.split(",")[1] for l in lines] == ["tau=1e+300", "tau=5e+299", "tau=0.001"]
        assert json.loads(out.read_text())["format"] == "hivae-model"

    def test_bad_data_is_data_error(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("1,2\n3\n")
        types = tmp_path / "t.csv"
        types.write_text("a,real\nb,real\n")
        code = main(["train", "--data", str(data), "--types", str(types),
                     "--out", str(tmp_path / "m.json"), *FAST])
        assert code == 2

    def test_fixed_seed_bit_identical_model_files(self, dataset, tmp_path):
        _, _, data, types, maskf = dataset
        outs = []
        for name in ("m1.json", "m2.json"):
            out = str(tmp_path / name)
            assert main(["train", "--data", data, "--types", types, "--mask", maskf,
                         "--out", out, "--seed", "7", *FAST]) == 0
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]

    def test_column_without_observed_cells_exits_2(self, tmp_path, capsys):
        table = B.synthetic_table(40, seed=8)
        observed = np.ones(table.cells.shape, dtype=bool)
        observed[:, 3] = False
        data = tmp_path / "data.csv"
        write_table(table, data, MissingMask(observed))
        types = tmp_path / "types.csv"
        types.write_text(TYPES)
        out = tmp_path / "m.json"
        for command in (["train"], ["predict", "--target", "cat_a"]):
            code = main([*command, "--data", str(data), "--types", str(types),
                         "--out", str(out), *FAST])
            assert code == 2
            assert "column 'count_a' has no observed cells" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_no_norm_overflow_exits_3(self, tmp_path):
        # an extreme-range raw column overflows the unnormalized objective
        data = tmp_path / "wide.csv"
        data.write_text("\n".join(f"{v}" for v in ("1e155", "-1e155") * 5) + "\n")
        types = tmp_path / "t.csv"
        types.write_text("x,real\n")
        assert main(["train", "--data", str(data), "--types", str(types),
                     "--out", str(tmp_path / "m.json"), "--no-norm", *FAST]) == 3
        # a wide (but representable) column trains fine once normalized
        mild = tmp_path / "mild.csv"
        mild.write_text("\n".join(f"{v}" for v in ("1e6", "-1e6") * 5) + "\n")
        assert main(["train", "--data", str(mild), "--types", str(types),
                     "--out", str(tmp_path / "m2.json"), *FAST]) == 0


class TestImpute:
    @pytest.fixture
    def model(self, dataset, tmp_path):
        _, _, data, types, maskf = dataset
        out = str(tmp_path / "model.json")
        assert main(["train", "--data", data, "--types", types, "--mask", maskf,
                     "--out", out, "--seed", "1", *FAST]) == 0
        return out

    def test_map_twice_byte_identical(self, dataset, model, tmp_path):
        _, _, data, types, maskf = dataset
        outs = []
        for name in ("a.csv", "b.csv"):
            out = str(tmp_path / name)
            assert main(["impute", "--model", model, "--data", data, "--types", types,
                         "--mask", maskf, "--method", "map", "--out", out]) == 0
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]

    def test_sample_with_seed_reproducible(self, dataset, model, tmp_path):
        _, _, data, types, maskf = dataset
        outs = []
        for name in ("a.csv", "b.csv"):
            out = str(tmp_path / name)
            assert main(["impute", "--model", model, "--data", data, "--types", types,
                         "--mask", maskf, "--method", "sample", "--seed", "4", "--out", out]) == 0
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]

    def test_sample_without_seed_echoes_one(self, dataset, model, tmp_path, capsys):
        _, _, data, types, maskf = dataset
        out = str(tmp_path / "c.csv")
        assert main(["impute", "--model", model, "--data", data, "--types", types,
                     "--mask", maskf, "--method", "sample", "--out", out]) == 0
        assert "seed=" in capsys.readouterr().err

    def test_schema_mismatch_exits_2(self, model, tmp_path):
        data = tmp_path / "other.csv"
        data.write_text("1.0,2.0\n")
        types = tmp_path / "other_types.csv"
        types.write_text("a,real\nb,real\n")
        code = main(["impute", "--model", model, "--data", str(data),
                     "--types", str(types), "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_writes_fill_sidecar(self, dataset, model, tmp_path):
        _, _, data, types, maskf = dataset
        out = str(tmp_path / "filled.csv")
        assert main(["impute", "--model", model, "--data", data, "--types", types,
                     "--mask", maskf, "--out", out]) == 0
        fills = json.loads(open(out + ".fills.json").read())
        assert fills and {"row", "col", "method", "value", "params"} <= set(fills[0])


class TestEvaluate:
    def test_perfect_imputation_scores_zero(self, dataset, tmp_path, capsys):
        table, mask, data, types, maskf = dataset
        truth = tmp_path / "truth.csv"
        write_table(table, truth)  # complete file doubles as its own imputation
        out = str(tmp_path / "report.json")
        code = main(["evaluate", "--truth", str(truth), "--imputed", str(truth),
                     "--types", types, "--mask", maskf, "--out", out])
        assert code == 0
        report = json.loads(open(out).read())
        assert report["avg_err"] == 0.0

    def test_all_observed_mask_warns_empty(self, dataset, tmp_path, capsys):
        table, _, data, types, _ = dataset
        truth = tmp_path / "truth.csv"
        write_table(table, truth)
        full = tmp_path / "full_mask.csv"
        full.write_text("\n".join(",".join("1" for _ in range(7)) for _ in range(60)) + "\n")
        out = str(tmp_path / "report.json")
        code = main(["evaluate", "--truth", str(truth), "--imputed", str(truth),
                     "--types", types, "--mask", str(full), "--out", out])
        assert code == 0
        assert "warning" in capsys.readouterr().err

    def test_hand_built_two_column_case(self, tmp_path):
        # arithmetic oracle: NRMSE = sqrt(1)/range 4 = 0.25; accuracy = 1/2
        types = tmp_path / "t.csv"
        types.write_text("x,real\nc,cat,2\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("0.0,0\n4.0,1\n2.0,0\n1.0,1\n")
        imputed = tmp_path / "imp.csv"
        imputed.write_text("1.0,1\n4.0,1\n2.0,0\n1.0,1\n")
        maskf = tmp_path / "m.csv"
        maskf.write_text("0,0\n1,0\n1,1\n1,1\n")
        out = str(tmp_path / "report.json")
        assert main(["evaluate", "--truth", str(truth), "--imputed", str(imputed),
                     "--types", str(types), "--mask", str(maskf), "--out", out]) == 0
        report = json.loads(open(out).read())
        by_name = {s["name"]: s["value"] for s in report["per_column"]}
        assert by_name["x"] == pytest.approx(0.25)
        assert by_name["c"] == pytest.approx(0.5)

    def test_incomplete_truth_file_exits_2(self, tmp_path):
        types = tmp_path / "t.csv"
        types.write_text("x,real\ny,real\n")
        holey = tmp_path / "holey.csv"
        holey.write_text("1.0,2.0\n3.0,\n")
        maskf = tmp_path / "m.csv"
        maskf.write_text("1,1\n1,0\n")
        code = main(["evaluate", "--truth", str(holey), "--imputed", str(holey),
                     "--types", str(types), "--mask", str(maskf),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2

    def test_zero_range_column_exits_2(self, tmp_path, capsys):
        types = tmp_path / "t.csv"
        types.write_text("flat,real\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("2.0\n2.0\n")
        maskf = tmp_path / "m.csv"
        maskf.write_text("1\n0\n")
        code = main(["evaluate", "--truth", str(truth), "--imputed", str(truth),
                     "--types", str(types), "--mask", str(maskf),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "flat" in capsys.readouterr().err

    def test_row_count_mismatch_exits_2(self, tmp_path, capsys):
        types = tmp_path / "t.csv"
        types.write_text("x,real\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("1.0\n2.0\n3.0\n")
        imputed = tmp_path / "imp.csv"
        imputed.write_text("1.0\n2.0\n")
        maskf = tmp_path / "m.csv"
        maskf.write_text("1\n0\n1\n")
        out = tmp_path / "r.json"
        code = main(["evaluate", "--truth", str(truth), "--imputed", str(imputed),
                     "--types", str(types), "--mask", str(maskf), "--out", str(out)])
        assert code == 2
        assert "shape" in capsys.readouterr().err
        assert not out.exists()


    def test_modified_observed_cell_exits_2(self, dataset, tmp_path, capsys):
        table, mask, _, types, maskf = dataset
        truth, imputed = tmp_path / "truth.csv", tmp_path / "imputed.csv"
        write_table(table, truth)
        cells = table.cells.copy()
        cells[np.argmax(mask.observed[:, 0]), 0] += 1.0  # one observed real cell
        write_table(HeterogeneousTable(table.schema, cells), imputed)
        out = tmp_path / "r.json"
        code = main(["evaluate", "--truth", str(truth), "--imputed", str(imputed),
                     "--types", types, "--mask", maskf, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "data error: observed cells were modified by the imputation\n"
        )
        assert not out.exists()

    def test_internal_assertion_is_not_a_data_error(self, dataset, tmp_path, monkeypatch):
        table, _, _, types, maskf = dataset
        truth = tmp_path / "truth.csv"
        write_table(table, truth)

        def broken(*args, **kwargs):
            raise AssertionError("internal invariant")

        monkeypatch.setattr(B, "score_imputation", broken)
        with pytest.raises(AssertionError, match="internal invariant"):
            main(["evaluate", "--truth", str(truth), "--imputed", str(truth),
                  "--types", types, "--mask", maskf, "--out", str(tmp_path / "r.json")])


class TestBenchmark:
    @pytest.mark.parametrize("rows", ["0", "-1"])
    def test_no_rows_is_an_error(self, rows, tmp_path, capsys):
        out = tmp_path / "b.json"
        code = main(["benchmark", "--synthetic", "--rows", rows, "--methods", "mean_mode",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: n_rows must be >= 1, got {rows}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--repeats", "0"], ["--repeats", "-2"], ["--fractions", ","], ["--methods", ","]],
        ids=["no_repeats", "negative_repeats", "no_fractions", "no_methods"],
    )
    def test_empty_grid_is_an_error(self, flags, tmp_path, capsys):
        out = tmp_path / "b.json"
        code = main(["benchmark", "--synthetic", "--rows", "20", *flags, "--out", str(out), *FAST])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: need repeats >= 1 (got ")
        assert not out.exists()

    def test_incomplete_data_file_exits_2(self, tmp_path):
        # an empty field would otherwise be scored as the 0.0 sentinel
        types = tmp_path / "t.csv"
        types.write_text("x,real\np,pos\n")
        holey = tmp_path / "holey.csv"
        holey.write_text("1.0,2.0\n3.0,\n2.0,1.5\n")
        code = main(["benchmark", "--data", str(holey), "--types", str(types),
                     "--fractions", "0.2", "--repeats", "1", "--methods", "mean_mode",
                     "--out", str(tmp_path / "b.json")])
        assert code == 2

    def test_data_without_types_is_usage_error(self, dataset, tmp_path, capsys):
        _, _, data, _, _ = dataset
        code = main(["benchmark", "--data", data, "--out", str(tmp_path / "b.json")])
        assert code == 1
        assert "--types is required with --data" in capsys.readouterr().err
        assert not (tmp_path / "b.json").exists()

    def test_synthetic_grid(self, tmp_path):
        out = str(tmp_path / "bench.json")
        code = main(["benchmark", "--synthetic", "--rows", "50",
                     "--fractions", "0.1,0.3", "--repeats", "2",
                     "--methods", "mean_mode", "--seed", "3", "--out", out, *FAST])
        assert code == 0
        reports = json.loads(open(out).read())
        assert len(reports) == 4  # 2 fractions x 2 repeats x 1 method

    def test_unknown_method_is_usage_error(self, tmp_path):
        code = main(["benchmark", "--synthetic", "--methods", "magic",
                     "--out", str(tmp_path / "b.json")])
        assert code == 1

    def test_fixed_seed_identical_report_files(self, tmp_path):
        outs = []
        for name in ("b1.json", "b2.json"):
            out = str(tmp_path / name)
            assert main(["benchmark", "--synthetic", "--rows", "40",
                         "--fractions", "0.2", "--repeats", "1",
                         "--methods", "hivae_map,mean_mode", "--seed", "5",
                         "--out", out, *FAST]) == 0
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]


class TestPredict:
    def test_non_categorical_target_is_usage_error(self, dataset, tmp_path):
        _, _, data, types, _ = dataset
        code = main(["predict", "--data", data, "--types", types, "--target", "real_a",
                     "--out", str(tmp_path / "p.json"), *FAST])
        assert code == 1

    def test_unknown_target_is_usage_error(self, dataset, tmp_path):
        _, _, data, types, _ = dataset
        code = main(["predict", "--data", data, "--types", types, "--target", "nope",
                     "--out", str(tmp_path / "p.json"), *FAST])
        assert code == 1

    def test_target_without_observed_labels_exits_2(self, tmp_path, capsys):
        table = B.separable_table(20, seed=2)
        data = tmp_path / "sep.csv"
        observed = np.ones(table.cells.shape, dtype=bool)
        observed[:, 2] = False
        write_table(table, data, MissingMask(observed))
        types = tmp_path / "sep_types.csv"
        types.write_text("feat_x,real\nfeat_y,real\nlabel,cat,3\n")
        out = tmp_path / "pred.json"
        code = main(["predict", "--data", str(data), "--types", str(types),
                     "--target", "label", "--out", str(out), *FAST])
        assert code == 2
        assert "'label'" in capsys.readouterr().err
        assert not out.exists()

    def test_too_few_labels_to_hold_out_exits_2(self, tmp_path, capsys):
        table = B.separable_table(20, seed=0)
        data = tmp_path / "sep.csv"
        observed = np.ones(table.cells.shape, dtype=bool)
        observed[3:, 2] = False  # 3 labels, 10 kept visible
        write_table(table, data, MissingMask(observed))
        types = tmp_path / "sep_types.csv"
        types.write_text("feat_x,real\nfeat_y,real\nlabel,cat,3\n")
        out = tmp_path / "pred.json"
        code = main(["predict", "--data", str(data), "--types", str(types),
                     "--target", "label", "--out", str(out), *FAST])
        assert code == 2
        assert "none is held out" in capsys.readouterr().err
        assert not out.exists()

    def test_writes_predictions(self, tmp_path):
        table = B.separable_table(60, seed=2)
        data = tmp_path / "sep.csv"
        write_table(table, data)
        types = tmp_path / "sep_types.csv"
        types.write_text("feat_x,real\nfeat_y,real\nlabel,cat,3\n")
        out = str(tmp_path / "pred.json")
        code = main(["predict", "--data", str(data), "--types", str(types),
                     "--target", "label", "--seed", "0", "--out", out, *FAST])
        assert code == 0
        doc = json.loads(open(out).read())
        assert doc["n_held_out"] == 30
        assert 0.0 <= doc["accuracy_error"] <= 1.0
        assert len(doc["predictions"]) == 30

    def test_fixed_seed_identical_prediction_files(self, tmp_path):
        table = B.separable_table(40, seed=2)
        data = tmp_path / "sep.csv"
        write_table(table, data)
        types = tmp_path / "sep_types.csv"
        types.write_text("feat_x,real\nfeat_y,real\nlabel,cat,3\n")
        outs = []
        for name in ("p1.json", "p2.json"):
            out = str(tmp_path / name)
            assert main(["predict", "--data", str(data), "--types", str(types),
                         "--target", "label", "--seed", "3", "--out", out, *FAST]) == 0
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]
