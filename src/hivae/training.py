"""Observed-cell ELBO assembly, the annealed minibatch loop, and persistence.

The objective per row is

    sum_{observed d} log p(x_d | z, s)  -  KL(q(z | x, s) || p(z | s))
                                        -  KL(q(s | x) || p(s))

estimated with one Gumbel-softmax draw of s and one reparameterized draw of z
per row.  The Gaussian KL is closed-form at the sampled soft s (an exact
enumeration over components is available as a debug flag); the categorical KL
against the uniform mixture prior is analytic.  Missing cells contribute
nothing to any term.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import compute as C
from . import generative as G
from . import recognition as R
from .tabular import (
    ColumnSpec,
    ColumnStats,
    HeterogeneousTable,
    MissingMask,
    NormalizationStats,
    Schema,
    encode_inputs,  # noqa: F401  (bound here so the benchmark tracer wraps this lookup site)
    fit_normalization,
    identity_stats,
)

MODEL_FORMAT = "hivae-model"
MODEL_VERSION = 1

class TrainingError(RuntimeError):
    """Non-finite loss; carries the epoch/batch where optimization failed."""

    def __init__(self, epoch: int, batch: int):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


class ModelFormatError(RuntimeError):
    """Model file is corrupt, has the wrong version, or mismatched schema."""


@dataclass(frozen=True)
class TrainConfig:
    dim_z: int = 10
    dim_s: int = 10
    dim_y: int = 5
    layers: int = 1
    epochs: int = 2000
    batch_size: int = 1000
    tau_start: float = 1.0
    tau_end: float = 1e-3
    seed: int = 0
    encoder_mode: str = R.INPUT_DROPOUT
    normalization: bool = True

    def __post_init__(self):
        if min(self.dim_z, self.dim_s, self.dim_y) < 1:
            raise ValueError("dim_z, dim_s, dim_y must all be >= 1")
        if self.layers not in (1, 2):
            raise ValueError("layers must be 1 or 2")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (0.0 < self.tau_end <= self.tau_start):
            raise ValueError("need 0 < tau_end <= tau_start")
        if self.encoder_mode not in (R.INPUT_DROPOUT, R.FACTORIZED):
            raise ValueError(f"unknown encoder_mode {self.encoder_mode!r}")
        if self.encoder_mode == R.FACTORIZED and self.dim_s != 1:
            raise ValueError("factorized encoder requires dim_s = 1")


@dataclass
class ModelState:
    """Everything needed to reproduce imputations: nets, stats, config, log."""

    schema: Schema
    config: TrainConfig
    encoder: R.EncoderNets
    generative: G.GenerativeNets
    stats: NormalizationStats
    training_log: list = field(default_factory=list)  # (epoch, tau, elbo)

    def parameters(self) -> list[C.Tensor]:
        return self.encoder.parameters() + self.generative.parameters()

    def fingerprint(self) -> str:
        return self.schema.fingerprint()


def build_model(schema: Schema, config: TrainConfig, rng) -> ModelState:
    encoder = R.build_encoder(
        schema, config.dim_s, config.dim_z, config.layers, config.encoder_mode, rng
    )
    generative = G.build_generative(
        schema, config.dim_s, config.dim_z, config.dim_y, config.layers, rng
    )
    return ModelState(schema, config, encoder, generative, identity_stats(schema))


def named_parameters(state: ModelState) -> dict[str, C.Tensor]:
    """Stable name -> tensor map used by the optimizer and the model file."""
    names: dict[str, C.Tensor] = {}

    def add_stack(prefix, stack):
        for i, layer in enumerate(stack):
            names[f"{prefix}.{i}.w"] = layer.weights
            names[f"{prefix}.{i}.b"] = layer.bias

    enc = state.encoder
    if enc.mode == R.INPUT_DROPOUT:
        add_stack("enc.s", enc.s_layers)
        add_stack("enc.z", enc.z_layers)
    else:
        for d, stack in enumerate(enc.per_column):
            add_stack(f"enc.col{d}", stack)
    gen = state.generative
    names["gen.prior_mu"] = gen.prior_mu_table
    add_stack("gen.g", gen.g_layers)
    for d, head in enumerate(gen.heads):
        add_stack(f"gen.head{d}.loc", head.loc_layers)
        if head.scale_layers is not None:
            add_stack(f"gen.head{d}.scale", head.scale_layers)
    return names


def gaussian_kl(mu_q: C.Tensor, log_var_q: C.Tensor, mu_p: C.Tensor) -> C.Tensor:
    """KL( N(mu_q, diag e^lv) || N(mu_p, I) ) per row, closed form."""
    diff = mu_p - mu_q
    terms = C.exp(log_var_q) + diff * diff - 1.0 - log_var_q
    return 0.5 * C.tsum(terms, axis=1)


def categorical_kl(s_logits: C.Tensor) -> C.Tensor:
    """KL( softmax(logits) || uniform ) per row: log L minus entropy."""
    L = s_logits.values.shape[1]
    p = C.softmax(s_logits, axis=1)
    lp = C.log_softmax(s_logits, axis=1)
    return C.tsum(p * (lp + math.log(L)), axis=1)


def _safe_column(table: HeterogeneousTable, mask: MissingMask, rows, d: int) -> np.ndarray:
    vals = table.cells[rows, d].copy()
    vals[~mask.observed[rows, d]] = table.schema.columns[d].kind_class.safe_value
    return vals


def _batch_stats(state: ModelState, table, mask, rows) -> NormalizationStats:
    if state.config.normalization:
        return fit_normalization(table, mask, rows)
    return identity_stats(table.schema)


def elbo_batch(
    state: ModelState,
    table: HeterogeneousTable,
    mask: MissingMask,
    rows,
    tau: float,
    rng,
    exact_s_kl: bool = False,
) -> C.Tensor:
    """Single-sample ELBO of a set of rows, as a differentiable scalar.

    Normalization stats are fitted on this batch (training behaviour); the
    reconstruction term runs over observed cells only.  With exact_s_kl the
    Gaussian KL is enumerated over all mixture components instead of being
    evaluated at the sampled soft assignment (debug aid, dim_s <= 16).
    """
    rows = np.asarray(list(rows), dtype=np.intp)
    if rows.size == 0:
        raise ValueError("rows must be nonempty")
    stats = _batch_stats(state, table, mask, rows)
    params = R.posterior(state.encoder, table, mask, stats, rows)
    latent = R.sample_latent(params, tau, rng)

    recon = C.constant(0.0)
    for d, lik in enumerate(G.decode(state.generative, latent, stats)):
        obs = C.constant(mask.observed[rows, d].astype(np.float64)[:, None])
        ll = G.log_likelihood(lik, _safe_column(table, mask, rows, d))
        recon = recon + C.tsum(ll * obs)

    if exact_s_kl:
        L = state.config.dim_s
        if L > 16:
            raise ValueError("exact_s_kl enumeration is limited to dim_s <= 16")
        pi = C.softmax(params.s_logits, axis=1)
        kl_z = C.constant(0.0)
        for comp in range(L):
            e = np.zeros((rows.size, L))
            e[:, comp] = 1.0
            e = C.constant(e)
            mu_c, lv_c = params.conditioner(e)
            mu_p = C.matmul(e, state.generative.prior_mu_table)
            kl_z = kl_z + C.tsum(C.narrow(pi, comp, 1) * gaussian_kl(mu_c, lv_c, mu_p))
    else:
        mu_p = C.matmul(latent.s_soft, state.generative.prior_mu_table)
        kl_z = C.tsum(gaussian_kl(latent.z_mu, latent.z_log_var, mu_p))

    kl_s = C.tsum(categorical_kl(params.s_logits))
    return recon - kl_z - kl_s


def tau_schedule(epoch: int, config: TrainConfig) -> float:
    """Linear decrease from tau_start to tau_end over the epoch range."""
    if config.epochs == 1:
        return config.tau_start
    frac = epoch / (config.epochs - 1)
    return config.tau_start + (config.tau_end - config.tau_start) * frac


def train(
    table: HeterogeneousTable,
    mask: MissingMask,
    config: TrainConfig,
    progress=None,
) -> ModelState:
    """Fit a model by maximizing the observed-cell ELBO with Adam.

    Minibatches are reshuffled every epoch from the config seed; a trailing
    short batch is kept.  The returned state carries normalization stats
    fitted on all observed training cells, so inference is deterministic.
    progress, if given, is called with (epoch, tau, elbo) after every epoch.
    """
    if table.n_rows == 0:
        raise ValueError("table must be nonempty")
    mask.check_shape(table)
    rng = np.random.default_rng(config.seed)
    state = build_model(table.schema, config, rng)
    if config.normalization:
        state.stats = fit_normalization(table, mask, range(table.n_rows))

    params = list(named_parameters(state).values())
    adam = C.AdamState()
    n = table.n_rows
    for epoch in range(config.epochs):
        tau = tau_schedule(epoch, config)
        order = rng.permutation(n)
        epoch_elbo = 0.0
        for batch_idx, start in enumerate(range(0, n, config.batch_size)):
            rows = order[start : start + config.batch_size]
            elbo = elbo_batch(state, table, mask, rows, tau, rng)
            value = float(elbo.values)
            if not math.isfinite(value):
                raise TrainingError(epoch, batch_idx)
            loss = elbo * (-1.0 / rows.size)
            C.backward(loss)
            C.adam_step(adam, params)
            epoch_elbo += value
        state.training_log.append((epoch, tau, epoch_elbo))
        if progress is not None:
            progress(epoch, tau, epoch_elbo)
    return state


# ---------------------------------------------------------------------------
# Persistence: versioned self-describing JSON with exact float round-trip.
# ---------------------------------------------------------------------------


def save_model(state: ModelState, path) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "config": asdict(state.config),
        "schema": [[c.name, c.kind, c.cardinality] for c in state.schema.columns],
        "schema_fingerprint": state.fingerprint(),
        "stats": [
            None if st is None else [st.shift, st.scale, st.domain]
            for st in state.stats.per_column
        ],
        "training_log": [[int(e), float(t), float(v)] for e, t, v in state.training_log],
        "params": {
            name: {"shape": list(t.values.shape), "values": t.values.ravel().tolist()}
            for name, t in named_parameters(state).items()
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_model(path) -> ModelState:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"{path}: corrupt model file ({exc})") from None
    try:
        if doc["format"] != MODEL_FORMAT:
            raise ModelFormatError(f"{path}: not a model file (format {doc['format']!r})")
        if doc["version"] != MODEL_VERSION:
            raise ModelFormatError(
                f"{path}: unsupported model version {doc['version']} "
                f"(expected {MODEL_VERSION})"
            )
        schema = Schema(tuple(ColumnSpec(n, k, c) for n, k, c in doc["schema"]))
        config = TrainConfig(**doc["config"])
        stats = NormalizationStats(
            tuple(
                None if st is None else ColumnStats(st[0], st[1], st[2])
                for st in doc["stats"]
            )
        )
        if len(stats.per_column) != len(schema) or any(
            (st is None) != col.is_nominal for st, col in zip(stats.per_column, schema.columns)
        ):
            raise ModelFormatError(f"{path}: corrupt model file (stats do not match schema)")
        state = build_model(schema, config, np.random.default_rng(0))
        state.stats = stats
        state.training_log = [(int(e), float(t), float(v)) for e, t, v in doc["training_log"]]
        named = named_parameters(state)
        if set(named) != set(doc["params"]):
            raise ModelFormatError(f"{path}: parameter set does not match architecture")
        for name, tensor in named.items():
            entry = doc["params"][name]
            values = np.array(entry["values"]).reshape(entry["shape"])
            if values.shape != tensor.values.shape:
                raise ModelFormatError(
                    f"{path}: parameter {name} has shape {values.shape}, "
                    f"expected {tensor.values.shape}"
                )
            tensor.values[...] = values
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ModelFormatError(f"{path}: corrupt model file ({exc})") from None
    return state


def require_schema(state: ModelState, table: HeterogeneousTable) -> None:
    if state.fingerprint() != table.schema.fingerprint():
        raise ModelFormatError(
            f"schema fingerprint mismatch: model {state.fingerprint()} "
            f"vs data {table.schema.fingerprint()}"
        )
