"""The kind-grouped decoder, encoder input and normalization against per-column
references: the decoder that built one head and one likelihood per column,
and the column-at-a-time encode_inputs and fit_normalization.

Stacking the heads changes the order of the matmul reductions, and the fused
likelihoods round their own way, so ELBO, gradients and fills are compared
within tolerances; encode_inputs must stay bit-identical.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln

from hivae import compute as C
from hivae import generative as G
from hivae import recognition as R
from hivae import training as T
from hivae.imputation import impute_map, impute_sample
from hivae.kinds import GAP_FLOOR, RATE_FLOOR, VAR_FLOOR
from hivae.tabular import (
    SCALE_FLOOR,
    ColumnSpec,
    HeterogeneousTable,
    MissingMask,
    NormalizationStats,
    Schema,
    encode_inputs,
    fit_normalization,
    load_dataset,
)

DATA = Path(__file__).parent / "data"

# ELBO and fills: relative; gradients: relative to the largest entry of the
# parameter's gradient (single entries near zero carry only absolute error)
ELBO_RTOL = 1e-12
GRAD_RTOL = 1e-11
FILL_RTOL = 1e-12
STATS_RTOL = 1e-13
PROB_FLOOR = 1e-30  # the per-column decoder's floor under log(p)


def interleaved_schema() -> Schema:
    """Groups that are not contiguous, and two cat cardinalities kept apart."""
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


def interleaved_table(n_rows: int, seed: int) -> HeterogeneousTable:
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n_rows, 2))
    cells = np.column_stack(
        [
            3.0 + 2.0 * h[:, 0] + 0.3 * rng.normal(size=n_rows),
            np.argmax(h @ rng.normal(size=(2, 3)), axis=1),
            -1.0 + h[:, 1] + 0.3 * rng.normal(size=n_rows),
            np.digitize(h[:, 0] + h[:, 1], [-1.0, 0.0, 1.0]),
            (h[:, 1] > 0).astype(float),
            np.exp(0.5 * h[:, 0] + 0.1 * rng.normal(size=n_rows)),
            rng.poisson(np.exp(0.5 * h[:, 1] + 1.0)),
        ]
    ).astype(float)
    return HeterogeneousTable(interleaved_schema(), cells)


# ---------------------------------------------------------------------------
# Per-column references
# ---------------------------------------------------------------------------


def reference_fit_normalization(table, mask, rows):
    rows = np.asarray(rows, dtype=np.intp)
    shift, scale = np.zeros(table.n_cols), np.ones(table.n_cols)
    for d, col in enumerate(table.schema.columns):
        if col.is_nominal:
            continue
        vals = table.cells[rows, d][mask.observed[rows, d]]
        if vals.size:
            t = col.kind_class.transform(vals)
            shift[d], scale[d] = np.mean(t), max(np.std(t), SCALE_FLOOR)
    return NormalizationStats(shift, scale)


def reference_encode_inputs(table, mask, stats, rows):
    rows = np.asarray(rows, dtype=np.intp)
    out = np.zeros((rows.size, table.schema.encoded_width))
    for d, (col, (off, width)) in enumerate(zip(table.schema.columns, table.schema.slot_ranges())):
        obs = mask.observed[rows, d]
        values = table.cells[rows, d][obs]
        if col.is_nominal:
            slots, classes = np.arange(width)[None, :], values.astype(np.intp)[:, None]
            rule = np.equal if col.kind == "cat" else np.less_equal
            block = rule(slots, classes).astype(np.float64)
        else:
            block = ((col.kind_class.transform(values) - stats.shift[d]) / stats.scale[d])[:, None]
        out[obs, off : off + width] = block
    return out


def reference_column(col, loc, raw_scale, shift, scale):
    """(log_prob(x) -> (B, 1) tensor, mode (B,)) of one column's head outputs."""
    B = loc.values.shape[0]
    if col.kind in ("real", "pos"):
        mu = loc * scale + shift
        var = C.clip(C.softplus(raw_scale), lo=VAR_FLOOR) * (scale**2)

        def normal(x):
            diff = C.constant(x[:, None]) - mu
            return -0.5 * C.LOG_2PI - 0.5 * C.log(var) - diff * diff / (var * 2.0)

        if col.kind == "real":
            return normal, mu.values[:, 0]
        mode = np.exp(mu.values[:, 0] - var.values[:, 0])
        return (lambda x: normal(np.log(x)) - C.constant(np.log(x)[:, None])), mode
    if col.kind == "count":
        rate = C.clip(C.softplus(loc), lo=RATE_FLOOR)

        def poisson(x):
            x = x[:, None]
            return C.constant(x) * C.log(rate) - rate - C.constant(gammaln(x + 1.0))

        return poisson, np.floor(rate.values[:, 0])
    zeros, ones = C.constant(np.zeros((B, 1))), C.constant(np.ones((B, 1)))
    if col.kind == "cat":
        probs = C.softmax(C.concat([zeros, loc]), axis=1)
    else:
        thresholds = C.cumsum(C.clip(C.softplus(raw_scale), lo=GAP_FLOOR), axis=1)
        cdf = C.sigmoid(thresholds - loc)
        probs = C.concat([cdf, ones]) - C.concat([zeros, cdf])

    def categorical(x):
        one_hot = (np.arange(col.cardinality) == x[:, None]).astype(np.float64)
        picked = C.log(C.clip(probs, lo=PROB_FLOOR)) * C.constant(one_hot)
        return C.tsum(picked, axis=1, keepdims=True)

    return categorical, np.argmax(probs.values, axis=1).astype(np.float64)


def column_layers(named, prefix, layers):
    """The per-column named tensors of one head as dense layers."""
    return [
        C.DenseLayer(named[f"{prefix}.{i}.w"], named[f"{prefix}.{i}.b"],
                     "relu" if i < layers - 1 else "identity")
        for i in range(layers)
    ]


def reference_decode(state, latent, stats):
    """One head per column over concat(y_d, s), reading the per-column names."""
    named, layers, dim_y = T.named_parameters(state), state.config.layers, state.config.dim_y
    s = latent.s_soft
    Y = C.forward_stack(state.generative.g_layers, latent.z)
    out = []
    for d, col in enumerate(state.schema.columns):
        y_d = C.narrow(Y, d * dim_y, dim_y)
        loc = C.forward_stack(column_layers(named, f"gen.head{d}.loc", layers), C.concat([y_d, s]))
        raw_scale = None
        if f"gen.head{d}.scale.0.w" in named:
            raw_scale = C.forward_stack(column_layers(named, f"gen.head{d}.scale", layers), s)
        out.append(reference_column(col, loc, raw_scale, stats.shift[d], stats.scale[d]))
    return out


def reference_elbo(state, table, mask, rows, tau, rng):
    rows = np.asarray(rows, dtype=np.intp)
    stats = reference_fit_normalization(table, mask, rows)
    params = R.posterior(state.encoder, table, mask, stats, rows)
    latent = R.sample_latent(params, tau, rng)
    terms = []
    for d, (log_prob, _) in enumerate(reference_decode(state, latent, stats)):
        col = table.schema.columns[d]
        obs = mask.observed[rows, d]
        x = np.where(obs, table.cells[rows, d], col.kind_class.safe_value)
        terms.append(log_prob(x) * C.constant(obs[:, None].astype(np.float64)))
    recon = C.tsum(C.concat(terms))
    mu_p = C.matmul(latent.s_soft, state.generative.prior_mu_table)
    kl_z = C.tsum(T.gaussian_kl(latent.z_mu, latent.z_log_var, mu_p))
    kl_s = C.tsum(T.categorical_kl(params.s_logits))
    return recon - kl_z - kl_s


def reference_map_cells(model, table, mask):
    params = R.posterior(model.encoder, table, mask, model.stats, range(table.n_rows))
    decoded = reference_decode(model, R.map_latent(params), model.stats)
    modes = np.column_stack([mode for _, mode in decoded])
    return np.where(mask.observed, table.cells, modes)


def reference_initial_values(schema, config, seed):
    """Per-column initial values in the draw order of the per-column decoder."""
    rng = np.random.default_rng(seed)
    encoder = R.build_encoder(
        schema, config.dim_s, config.dim_z, config.layers, config.encoder_mode, rng
    )
    heads = {}
    for d, col in enumerate(schema.columns):
        loc_w, scale_w = col.kind_class.head_widths(col.cardinality)
        heads[f"gen.head{d}.loc"] = C.init_stack(
            config.dim_y + config.dim_s, loc_w, config.layers, rng
        )
        if scale_w:
            heads[f"gen.head{d}.scale"] = C.init_stack(config.dim_s, scale_w, config.layers, rng)
    prior = rng.uniform(-0.05, 0.05, size=(config.dim_s, config.dim_z))
    g = C.init_stack(config.dim_z, len(schema) * config.dim_y, config.layers, rng)
    named = {
        **encoder.named_parameters(),
        "gen.prior_mu": C.constant(prior),
        **C.named_stacks({"gen.g": g}),
        **C.named_stacks(heads),
    }
    return {name: t.values for name, t in named.items()}


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

CONFIGS = [
    pytest.param(layers, mode, id=f"{mode}-{layers}")
    for mode in (R.INPUT_DROPOUT, R.FACTORIZED)
    for layers in (1, 2)
]


def config_for(layers, mode, **kw):
    dim_s = 1 if mode == R.FACTORIZED else 3
    return T.TrainConfig(
        dim_z=3, dim_s=dim_s, dim_y=2, layers=layers, encoder_mode=mode, seed=1, **kw
    )


@pytest.fixture(scope="module")
def data():
    table = interleaved_table(80, seed=3)
    rng = np.random.default_rng(4)
    observed = rng.random(table.cells.shape) > 0.3
    return table, MissingMask(observed)


def test_schema_groups_are_interleaved():
    groups = interleaved_schema().groups
    assert [(g.kind_class.kind, g.cardinality, g.columns.tolist()) for g in groups] == [
        ("real", 0, [0, 2]), ("cat", 3, [1]), ("ordinal", 4, [3]), ("cat", 2, [4]),
        ("pos", 0, [5]), ("count", 0, [6]),
    ]


@pytest.mark.parametrize("layers, mode", CONFIGS)
def test_fresh_model_has_the_per_column_initial_values(layers, mode):
    schema, config = interleaved_schema(), config_for(layers, mode)
    state = T.build_model(schema, config, np.random.default_rng(5))
    named = T.named_parameters(state)
    reference = reference_initial_values(schema, config, seed=5)
    assert list(named) == list(reference)
    for name, t in named.items():
        assert t.values.shape == reference[name].shape, name
        assert np.array_equal(t.values, reference[name]), name


@pytest.mark.parametrize("layers, mode", CONFIGS)
def test_elbo_and_gradients_match_the_per_column_decoder(data, layers, mode):
    table, mask = data
    state = T.train(table, mask, config_for(layers, mode, epochs=3, batch_size=40))
    named = T.named_parameters(state)
    params = list(named.values())
    rows = np.arange(10, 70)

    def value_and_grads(elbo_fn):
        elbo = elbo_fn(state, table, mask, rows, 0.6, np.random.default_rng(12))
        C.backward(elbo * (-1.0 / rows.size))
        grads = [p.grad.copy() for p in params]
        C.zero_grads(params)
        return float(elbo.values), grads

    ref_value, ref_grads = value_and_grads(reference_elbo)
    value, grads = value_and_grads(T.elbo_batch)
    assert value == pytest.approx(ref_value, rel=ELBO_RTOL)
    for name, g, ref in zip(named, grads, ref_grads):
        assert np.abs(g - ref).max() <= GRAD_RTOL * np.abs(ref).max(), name


@pytest.mark.parametrize("layers, mode", CONFIGS)
def test_map_fills_match_the_per_column_decoder(data, layers, mode):
    table, mask = data
    model = T.train(table, mask, config_for(layers, mode, epochs=3, batch_size=40))
    cells = impute_map(model, table, mask).completed.cells
    reference = reference_map_cells(model, table, mask)
    nominal = np.array([c.is_nominal for c in table.schema.columns])
    assert np.array_equal(cells[:, nominal], reference[:, nominal])
    assert np.allclose(cells[:, ~nominal], reference[:, ~nominal], rtol=FILL_RTOL, atol=0.0)


@pytest.mark.parametrize("seed", [0, 5])
def test_sampled_fills_draw_column_by_column_in_schema_order(seed):
    """One decoded column at a time, in schema order, is the draw order of
    impute_sample; drawing group by group would move the fills."""
    table = interleaved_table(200, seed=6)
    mask = MissingMask(np.random.default_rng(7).random(table.cells.shape) > 0.3)
    model = T.train(table, mask, config_for(1, R.INPUT_DROPOUT, epochs=2, batch_size=50))
    result = impute_sample(model, table, mask, np.random.default_rng(seed))

    rng = np.random.default_rng(seed)
    params = R.posterior(model.encoder, table, mask, model.stats, range(table.n_rows))
    decoded = G.decode(model.generative, R.sample_latent(params, model.config.tau_end, rng),
                       model.stats)
    draws = np.column_stack([decoded[d].sample(rng) for d in range(table.n_cols)])
    cells = np.where(mask.observed, table.cells, draws)
    records = []
    for d in range(table.n_cols):
        rows = np.flatnonzero(~mask.observed[:, d])
        records += [{"row": n, "col": d, "method": "sample", "value": cells[n, d],
                     "params": json.loads(p)}
                    for n, p in zip(rows.tolist(), decoded[d].summary(0, rows))]
    assert result.completed.cells.tobytes() == cells.tobytes()
    assert json.dumps(result.records(), sort_keys=True) == json.dumps(records, sort_keys=True)


def test_encode_inputs_is_bit_identical_to_the_column_loop(data):
    table, mask = data
    rows = np.arange(5, 75)
    stats = fit_normalization(table, mask, rows)
    got = encode_inputs(table, mask, stats, rows)
    want = reference_encode_inputs(table, mask, stats, rows)
    assert got.tobytes() == want.tobytes()


def test_fit_normalization_matches_the_column_loop(data):
    table, mask = data
    observed = mask.observed.copy()
    observed[:40, 2] = False  # r2 unobserved in the batch below: stays at (0, 1)
    mask = MissingMask(observed)
    for rows in (np.arange(40), np.arange(80), np.arange(0, 80, 3)):
        got = fit_normalization(table, mask, rows)
        want = reference_fit_normalization(table, mask, rows)
        assert np.allclose(got.shift, want.shift, rtol=STATS_RTOL, atol=0.0)
        assert np.allclose(got.scale, want.scale, rtol=STATS_RTOL, atol=0.0)
    assert (got.shift[2], got.scale[2]) != (0.0, 1.0)
    first = fit_normalization(table, mask, np.arange(40))
    assert (first.shift[2], first.scale[2]) == (0.0, 1.0)


class TestParentModelFile:
    """A layers=2 model on the interleaved schema, written by the per-column
    decoder's save_model, with the MAP fills that decoder made from it."""

    def test_loads_and_saves_back_byte_identical(self, tmp_path):
        model = T.load_model(DATA / "interleaved_model.json")
        assert model.config.layers == 2
        T.save_model(model, tmp_path / "again.json")
        written = (DATA / "interleaved_model.json").read_bytes()
        assert (tmp_path / "again.json").read_bytes() == written

    def test_imputes_the_recorded_fills(self):
        model = T.load_model(DATA / "interleaved_model.json")
        table, mask = load_dataset(DATA / "interleaved_data.csv", DATA / "interleaved_types.csv")
        want, _ = load_dataset(DATA / "interleaved_map.csv", DATA / "interleaved_types.csv")
        result = impute_map(model, table, mask)
        nominal = np.array([c.is_nominal for c in table.schema.columns])
        cells = result.completed.cells
        assert np.array_equal(cells[:, nominal], want.cells[:, nominal])
        assert np.allclose(cells[:, ~nominal], want.cells[:, ~nominal], rtol=FILL_RTOL, atol=0.0)
        recorded = json.loads((DATA / "interleaved_map.csv.fills.json").read_text())
        records = result.records()
        assert [(r["row"], r["col"]) for r in records] == [(r["row"], r["col"]) for r in recorded]
        for rec, ref in zip(records, recorded):
            for key, value in ref["params"].items():
                if key != "kind":
                    assert np.allclose(rec["params"][key], value, rtol=FILL_RTOL, atol=0.0), key
