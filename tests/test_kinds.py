"""Properties over random schemas: 1-6 columns of every kind, random masks."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hivae import generative as G
from hivae import recognition as R
from hivae import training as T
from hivae.imputation import impute_map, impute_sample
from hivae.kinds import KINDS
from hivae.tabular import (
    ColumnSpec,
    DataError,
    HeterogeneousTable,
    MissingMask,
    Schema,
    encode_inputs,
    fit_normalization,
)

# in-support draws of n cells of a column with the given class count
IN_SUPPORT = {
    "real": lambda rng, n, card: rng.normal(0.5, 3.0, n),
    "pos": lambda rng, n, card: np.exp(rng.normal(0.0, 1.0, n)),
    "count": lambda rng, n, card: rng.poisson(3.0, n).astype(float),
    "cat": lambda rng, n, card: rng.integers(0, card, n).astype(float),
    "ordinal": lambda rng, n, card: rng.integers(0, card, n).astype(float),
}


@st.composite
def datasets(draw):
    """(table with the 0.0 sentinel in masked cells, the same table with
    in-support junk there, mask, seed)."""
    specs = draw(
        st.lists(st.tuples(st.sampled_from(sorted(KINDS)), st.integers(2, 5)),
                 min_size=1, max_size=6)
    )
    schema = Schema(tuple(
        ColumnSpec(f"c{i}", kind, card if KINDS[kind].nominal else 0)
        for i, (kind, card) in enumerate(specs)
    ))
    n = draw(st.integers(1, 20))
    seed = draw(st.integers(0, 2**32 - 1))
    missing_rate = draw(st.sampled_from([0.0, 0.3, 0.7]))
    rng = np.random.default_rng(seed)
    cols, junk = [], []
    for col in schema.columns:
        cols.append(IN_SUPPORT[col.kind](rng, n, col.cardinality))
        junk.append(IN_SUPPORT[col.kind](rng, n, col.cardinality))
    observed = rng.random((n, len(schema))) >= missing_rate
    cells = np.column_stack(cols)
    perturbed = np.where(observed, cells, np.column_stack(junk))
    cells[~observed] = 0.0
    return (HeterogeneousTable(schema, cells), HeterogeneousTable(schema, perturbed),
            MissingMask(observed), seed)


def rejects_unobserved_column(table, mask, config) -> bool:
    """Whether some column has no observed cell; train must then raise the
    DataError that names the first such column."""
    unobserved = [
        col.name for col, seen in zip(table.schema.columns, mask.observed.any(axis=0)) if not seen
    ]
    if unobserved:
        with pytest.raises(DataError, match=f"^column {unobserved[0]!r} has no observed cells$"):
            T.train(table, mask, config)
    return bool(unobserved)


# both encoders, each with a dim_s it accepts
ENCODERS = pytest.mark.parametrize("mode", [R.INPUT_DROPOUT, R.FACTORIZED])


def small_config(mode=R.INPUT_DROPOUT, **kw) -> T.TrainConfig:
    dim_s = 1 if mode == R.FACTORIZED else 3
    return T.TrainConfig(dim_z=2, dim_s=dim_s, dim_y=2, encoder_mode=mode, **kw)


def small_model(schema, mode=R.INPUT_DROPOUT):
    config = small_config(mode, epochs=1, batch_size=20, seed=0)
    return T.build_model(schema, config, np.random.default_rng(0))


@ENCODERS
@given(datasets())
@settings(max_examples=25, deadline=None)
def test_masked_cells_change_neither_encoding_nor_elbo(mode, data):
    table, perturbed, mask, seed = data
    rows = range(table.n_rows)
    stats = fit_normalization(table, mask, rows)
    again = fit_normalization(perturbed, mask, rows)
    assert np.array_equal(again.shift, stats.shift) and np.array_equal(again.scale, stats.scale)
    assert np.array_equal(
        encode_inputs(table, mask, stats, rows),
        encode_inputs(perturbed, mask, stats, rows),
    )
    state = small_model(table.schema, mode)
    elbos = [
        T.elbo_batch(state, t, mask, rows, 0.7, np.random.default_rng(seed)).values
        for t in (table, perturbed)
    ]
    assert np.isfinite(elbos[0])
    assert np.array_equal(elbos[0], elbos[1])


@given(datasets())
@settings(max_examples=25, deadline=None)
def test_decode_gives_each_column_its_kind_class(data):
    _, table, mask, seed = data
    rows = np.arange(table.n_rows)
    stats = fit_normalization(table, mask, rows)
    state = small_model(table.schema)
    posterior = R.encode(state.encoder, encode_inputs(table, mask, stats, rows))
    latent = R.sample_latent(posterior, 0.7, np.random.default_rng(seed))
    liks = G.decode(state.generative, latent, stats)
    assert len(liks) == len(table.schema)
    for d, (col, lik) in enumerate(zip(table.schema.columns, liks)):
        assert type(lik) is KINDS[col.kind]
        block, j = liks.columns[d]
        assert lik.summary(0, rows) == block.summary(j, rows)  # one column is a one-column block
        ll = G.log_likelihood(lik, table.cells[:, d]).values[mask.observed[:, d]]
        assert np.all(np.isfinite(ll))


# the params keys of each kind's sidecar record
SUMMARY_KEYS = {
    "real": {"kind", "mean", "var"},
    "pos": {"kind", "log_mean", "log_var"},
    "count": {"kind", "rate"},
    "cat": {"kind", "probs"},
    "ordinal": {"kind", "probs", "thresholds", "location"},
}


@ENCODERS
@pytest.mark.parametrize("method", ["map", "sample"])
@given(datasets())
@settings(max_examples=15, deadline=None)
def test_trained_model_imputes_in_support_and_survives_a_round_trip(
    tmp_path_factory, mode, method, data
):
    table, _, mask, seed = data
    config = small_config(mode, epochs=1, batch_size=20, seed=seed)
    if rejects_unobserved_column(table, mask, config):
        return
    model = T.train(table, mask, config)

    def impute(state):
        if method == "map":
            return impute_map(state, table, mask)
        return impute_sample(state, table, mask, np.random.default_rng(seed))

    result = impute(model)
    cells = result.completed.cells
    assert np.array_equal(cells[mask.observed], table.cells[mask.observed])
    for d, col in enumerate(table.schema.columns):
        filled = cells[~mask.observed[:, d], d]
        assert np.all(np.isfinite(filled))
        assert not np.any(col.kind_class.unsupported(filled, col.cardinality))
    records = result.records()
    assert [(rec["col"], rec["row"]) for rec in records] == [
        (d, n) for d in range(table.n_cols) for n in np.flatnonzero(~mask.observed[:, d])
    ]
    for rec in records:
        kind = table.schema.columns[rec["col"]].kind
        assert rec["value"] == cells[rec["row"], rec["col"]]
        assert rec["params"]["kind"] == kind
        assert set(rec["params"]) == SUMMARY_KEYS[kind]
    path = tmp_path_factory.mktemp("model") / "model.json"
    T.save_model(model, path)
    again = impute(T.load_model(path))
    assert np.array_equal(again.completed.cells, cells)
    assert again.records() == records


@given(datasets())
@settings(max_examples=10, deadline=None)
def test_multi_epoch_training_stays_finite_in_support_and_round_trips(tmp_path_factory, data):
    table, _, mask, seed = data
    assume(table.n_rows >= 2)  # per-batch stats differ from the full-table stats
    config = T.TrainConfig(
        dim_z=2, dim_s=3, dim_y=2, epochs=3, batch_size=(table.n_rows + 1) // 2, seed=seed
    )
    if rejects_unobserved_column(table, mask, config):
        return
    model = T.train(table, mask, config)
    assert [epoch for epoch, _, _ in model.training_log] == [0, 1, 2]
    assert all(np.isfinite(elbo) for _, _, elbo in model.training_log)
    full = fit_normalization(table, mask, range(table.n_rows))
    assert np.array_equal(model.stats.shift, full.shift)
    assert np.array_equal(model.stats.scale, full.scale)

    result = impute_map(model, table, mask)
    cells = result.completed.cells
    assert np.array_equal(cells[mask.observed], table.cells[mask.observed])
    for d, col in enumerate(table.schema.columns):
        filled = cells[~mask.observed[:, d], d]
        assert np.all(np.isfinite(filled))
        assert not np.any(col.kind_class.unsupported(filled, col.cardinality))
    path = tmp_path_factory.mktemp("model") / "model.json"
    T.save_model(model, path)
    again = impute_map(T.load_model(path), table, mask)
    assert np.array_equal(again.completed.cells, cells)
    assert again.records() == result.records()
