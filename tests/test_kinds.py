"""Properties over random schemas: 1-6 columns of every kind, random masks."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hivae import generative as G
from hivae import recognition as R
from hivae import training as T
from hivae.imputation import impute_map
from hivae.kinds import KINDS
from hivae.tabular import (
    ColumnSpec,
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


def small_model(schema):
    config = T.TrainConfig(dim_z=2, dim_s=3, dim_y=2, epochs=1, batch_size=20, seed=0)
    return T.build_model(schema, config, np.random.default_rng(0))


@given(datasets())
@settings(max_examples=25, deadline=None)
def test_masked_cells_change_neither_encoding_nor_elbo(data):
    table, perturbed, mask, seed = data
    rows = range(table.n_rows)
    stats = fit_normalization(table, mask, rows)
    assert fit_normalization(perturbed, mask, rows) == stats
    assert np.array_equal(
        encode_inputs(table, mask, stats, rows).values,
        encode_inputs(perturbed, mask, stats, rows).values,
    )
    state = small_model(table.schema)
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
        ll = G.log_likelihood(lik, table.cells[:, d]).values[mask.observed[:, d]]
        assert np.all(np.isfinite(ll))


@given(datasets())
@settings(max_examples=15, deadline=None)
def test_trained_model_imputes_in_support_and_survives_a_round_trip(tmp_path_factory, data):
    table, _, mask, seed = data
    config = T.TrainConfig(dim_z=2, dim_s=3, dim_y=2, epochs=1, batch_size=20, seed=seed)
    model = T.train(table, mask, config)
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
    assert again.fills == result.fills
