"""Self-tests of the benchmark's tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench

They fail if a traced function is still reachable unwrapped from some hivae
module, if a traced call site is never reached, or if tracing changes what
training does.  They do not pin today's op counts, which later changes to the
package are meant to lower.
"""

import importlib
import json
import math
from dataclasses import replace

import numpy as np

from paths import ROOT

import tracing
import workloads as W
from hivae import benchmark as B
from hivae import cli, tabular, training

# Names bound by ``from ... import`` at the time the benchmark was written.
NAMED_IMPORTS = [
    ("hivae.training", "fit_normalization", "tabular.fit_normalization"),
    ("hivae.training", "encode_inputs", "tabular.encode_inputs"),
    ("hivae.imputation", "encode_inputs", "tabular.encode_inputs"),
    ("hivae.recognition", "encode_inputs", "tabular.encode_inputs"),
    ("hivae.cli", "load_dataset", "tabular.load_dataset"),
    ("hivae.cli", "write_table", "tabular.write_table"),
    ("hivae.cli", "load_model", "training.load_model"),
    ("hivae.cli", "save_model", "training.save_model"),
]


def test_every_lookup_site_is_wrapped_and_restored():
    funcs = tracing.originals()
    assert set(funcs) == set(tracing.TARGETS)
    sites = tracing.lookup_sites(funcs)
    with tracing.installed(tracing.Tracer()):
        assert tracing.lookup_sites(funcs) == []
        for module, attr, name in NAMED_IMPORTS:
            assert getattr(importlib.import_module(module), attr).__wrapped__ is funcs[name]
    assert tracing.lookup_sites(funcs) == sites


def small_inputs():
    table = B.synthetic_table(120, seed=3)
    mask = B.generate_mcar_mask(table, 0.2, seed=4)
    # two layers, so the encoder's ReLU is exercised too
    config = training.TrainConfig(epochs=2, batch_size=40, layers=2, seed=5)
    return table, mask, config


def test_traced_training_matches_untraced():
    table, mask, config = small_inputs()
    plain = training.train(table, mask, config)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = training.train(table, mask, config)
    steps = config.epochs * math.ceil(table.n_rows / config.batch_size)
    assert tracer.calls[tracing.STEP] == steps
    assert traced.training_log == plain.training_log
    for a, b in zip(plain.parameters(), traced.parameters()):
        assert np.array_equal(a.values, b.values)


def test_traced_pipeline_reaches_every_span(tmp_path):
    table, mask, config = small_inputs()
    W.write_types(table.schema, tmp_path / "types.csv")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        state = training.train(table, mask, config)
        training.save_model(state, tmp_path / "model.json")
        tabular.write_table(table, tmp_path / "data.csv", mask)
        status = cli.main([
            "impute", "--model", str(tmp_path / "model.json"),
            "--data", str(tmp_path / "data.csv"), "--types", str(tmp_path / "types.csv"),
            "--out", str(tmp_path / "out.csv"),
        ])
        completed = B.mean_mode_impute(table, mask).completed
        B.score_imputation(table, completed, mask, method="mean_mode", fraction=0.2)
    assert status == 0
    assert [name for name in tracing.TARGETS if tracer.calls[name] == 0] == []
    assert tracer.gc_collections > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer()
    tracer.calls[tracing.STEP] = 1
    produced = {
        **tracing.per_step_metrics(tracer),
        **tracing.pipeline_metrics(tracer),
        "trace.fit_overhead_ratio": (1.0, "ratio"),
        "trace.cli_overhead_ratio": (1.0, "ratio"),
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in produced.items()
    }


def test_wide_table_tiles_are_distinct():
    wide = W.WORKLOADS["wide"]
    table = W.make_table(replace(wide, rows=50), seed=0)
    assert table.n_cols == 70
    blocks = [table.cells[:, 7 * t : 7 * t + 7] for t in range(10)]
    assert all(not np.array_equal(blocks[0], b) for b in blocks[1:])
