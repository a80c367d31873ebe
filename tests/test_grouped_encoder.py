"""The grouped factorized encoder against its per-column reference: the
encoder that ran one dense stack per column and folded each column's expert
into running sums with the prior.

Stacking the nets changes the order of the matmul reductions, and the
experts are summed over D in one reduction, so posterior moments and
gradients are compared within tolerances.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from hivae import compute as C
from hivae import recognition as R
from hivae import training as T
from hivae.imputation import impute_map
from hivae.tabular import (
    ColumnSpec,
    HeterogeneousTable,
    MissingMask,
    Schema,
    encode_inputs,
    fit_normalization,
    load_dataset,
)

DATA = Path(__file__).parent / "data"

# moments and gradients: relative to the largest entry of each array
RTOL = 1e-12
FILL_RTOL = 1e-12


def wide_block_schema() -> Schema:
    """Every kind, with several columns per cat and ordinal group, so the
    groups' input blocks are (B, G, width) with G and width above 1."""
    return Schema(
        (
            ColumnSpec("o5a", "ordinal", 5),
            ColumnSpec("r1", "real"),
            ColumnSpec("c4a", "cat", 4),
            ColumnSpec("n", "count"),
            ColumnSpec("c4b", "cat", 4),
            ColumnSpec("p", "pos"),
            ColumnSpec("o5b", "ordinal", 5),
            ColumnSpec("r2", "real"),
            ColumnSpec("c2", "cat", 2),
        )
    )


def interleaved_schema() -> Schema:
    """The decoder reference's schema: groups that are not contiguous."""
    return Schema(
        (
            ColumnSpec("r1", "real"),
            ColumnSpec("c3", "cat", 3),
            ColumnSpec("r2", "real"),
            ColumnSpec("o4", "ordinal", 4),
            ColumnSpec("c2", "cat", 2),
            ColumnSpec("p", "pos"),
            ColumnSpec("n", "count"),
        )
    )


def random_table(schema: Schema, n_rows: int, seed: int) -> HeterogeneousTable:
    rng = np.random.default_rng(seed)
    draws = {
        "real": lambda c: rng.normal(1.0, 2.0, n_rows),
        "pos": lambda c: np.exp(rng.normal(0.0, 0.7, n_rows)),
        "count": lambda c: rng.poisson(3.0, n_rows).astype(float),
        "cat": lambda c: rng.integers(0, c.cardinality, n_rows).astype(float),
        "ordinal": lambda c: rng.integers(0, c.cardinality, n_rows).astype(float),
    }
    return HeterogeneousTable(schema, np.column_stack([draws[c.kind](c) for c in schema.columns]))


def reference_encode_factorized(nets, table, mask, stats, rows):
    """The per-column loop: column d's own stack on its slots, then
    precision and weighted-mean running sums that start at the prior."""
    rows = np.asarray(rows, dtype=np.intp)
    x = C.constant(encode_inputs(table, mask, stats, rows))
    B, K = rows.size, nets.dim_z
    precision = C.constant(np.ones((B, K)))
    weighted_mu = C.constant(np.zeros((B, K)))
    for d, (off, width) in enumerate(table.schema.slot_ranges()):
        obs = C.constant(mask.observed[rows, d].astype(np.float64)[:, None])
        out = C.forward_stack(nets.per_column[d], C.narrow(x, off, width))
        mu_d = C.narrow(out, 0, K)
        log_var_d = C.clip(C.narrow(out, K, K), -C.LOG_VAR_CLAMP, C.LOG_VAR_CLAMP)
        prec_d = C.exp(-log_var_d)
        precision = precision + prec_d * obs
        weighted_mu = weighted_mu + mu_d * prec_d * obs
    return weighted_mu / precision, -C.log(precision)


CASES = [
    pytest.param((schema, layers), id=f"{schema.__name__}-{layers}")
    for schema in (wide_block_schema, interleaved_schema)
    for layers in (1, 2)
]


@pytest.fixture(params=CASES)
def setup(request):
    make_schema, layers = request.param
    schema = make_schema()
    table = random_table(schema, 50, seed=layers)
    observed = np.random.default_rng(7).random(table.cells.shape) > 0.3
    observed[:, 1] = False  # a fully masked column: its nets get no gradient
    observed[3] = False  # a row with no observation: the prior
    mask = MissingMask(observed)
    stats = fit_normalization(table, mask, range(table.n_rows))
    nets = R.build_encoder(schema, 1, 3, layers, R.FACTORIZED, np.random.default_rng(11))
    for t in nets.parameters():  # trained-looking weights, not the fresh draws
        t.values[...] += np.random.default_rng(t.values.size).normal(0.0, 0.5, t.values.shape)
    return nets, table, mask, stats


def moments_and_grads(nets, encoder, table, mask, stats, rows):
    """z_mu and z_log_var, and every enc.col{d} gradient of a weighted sum of them."""
    params = nets.parameters()
    C.zero_grads(params)
    mu, log_var = encoder(nets, table, mask, stats, rows)
    rng = np.random.default_rng(3)
    loss = C.tsum(mu * rng.normal(size=mu.values.shape))
    C.backward(loss + C.tsum(log_var * rng.normal(size=log_var.values.shape)))
    grads = [p.grad.copy() for p in params]
    C.zero_grads(params)
    return mu.values, log_var.values, grads


def close(got, want, rtol=RTOL):
    return np.abs(got - want).max() <= rtol * np.abs(want).max()


def test_moments_and_gradients_match_the_per_column_loop(setup):
    nets, table, mask, stats = setup
    rows = np.arange(table.n_rows)

    def grouped(*args):
        latent = R.map_latent(R.encode_factorized(*args))
        return latent.z_mu, latent.z_log_var

    got = moments_and_grads(nets, grouped, table, mask, stats, rows)
    want = moments_and_grads(nets, reference_encode_factorized, table, mask, stats, rows)
    assert close(got[0], want[0]) and close(got[1], want[1])
    assert np.array_equal(got[0][3], np.zeros(3)) and np.array_equal(got[1][3], np.zeros(3))
    names = list(nets.named_parameters())
    for name, g, ref in zip(names, got[2], want[2]):
        if name.startswith("enc.col1."):  # the fully masked column
            assert not g.any() and not ref.any(), name
        else:
            assert ref.any() and close(g, ref), name


def test_fresh_nets_have_the_per_column_initial_values():
    schema = wide_block_schema()
    for layers in (1, 2):
        nets = R.build_encoder(schema, 1, 3, layers, R.FACTORIZED, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        for col, stack in zip(schema.columns, nets.per_column):
            for layer, ref in zip(stack, C.init_stack(col.encoded_width, 6, layers, rng)):
                assert np.array_equal(layer.weights.values, ref.weights.values)
                assert np.array_equal(layer.bias.values, ref.bias.values)
                assert layer.activation == ref.activation


def test_per_column_tensors_are_views_of_the_group_storage():
    schema = wide_block_schema()
    nets = R.build_encoder(schema, 1, 3, 2, R.FACTORIZED, np.random.default_rng(0))
    for group, stacked in zip(schema.groups, nets.group_layers):
        for j, d in enumerate(group.columns.tolist()):
            for layer, storage in zip(nets.per_column[d], stacked):
                layer.weights.values[...] = d + 0.5
                layer.bias.grad[...] = -d
                assert np.all(storage.weights.values[j] == d + 0.5)
                assert np.all(storage.bias.grad[j] == -d)


class TestParentModelFile:
    """A layers=2 factorized model on the interleaved schema, written by the
    per-column encoder's save_model, with the MAP fills that encoder made."""

    def test_loads_and_saves_back_byte_identical(self, tmp_path):
        model = T.load_model(DATA / "interleaved_factorized_model.json")
        assert (model.config.encoder_mode, model.config.layers) == (R.FACTORIZED, 2)
        T.save_model(model, tmp_path / "again.json")
        written = (DATA / "interleaved_factorized_model.json").read_bytes()
        assert (tmp_path / "again.json").read_bytes() == written

    def test_imputes_the_recorded_fills(self):
        model = T.load_model(DATA / "interleaved_factorized_model.json")
        table, mask = load_dataset(DATA / "interleaved_data.csv", DATA / "interleaved_types.csv")
        want, _ = load_dataset(
            DATA / "interleaved_factorized_map.csv", DATA / "interleaved_types.csv"
        )
        result = impute_map(model, table, mask)
        nominal = np.array([c.is_nominal for c in table.schema.columns])
        cells = result.completed.cells
        assert np.array_equal(cells[:, nominal], want.cells[:, nominal])
        assert np.allclose(cells[:, ~nominal], want.cells[:, ~nominal], rtol=FILL_RTOL, atol=0.0)
        recorded = json.loads((DATA / "interleaved_factorized_map.csv.fills.json").read_text())
        records = result.records()
        assert [(r["row"], r["col"]) for r in records] == [(r["row"], r["col"]) for r in recorded]
        for rec, ref in zip(records, recorded):
            for key, value in ref["params"].items():
                if key != "kind":
                    assert np.allclose(rec["params"][key], value, rtol=FILL_RTOL, atol=0.0), key
