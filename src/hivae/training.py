"""Observed-cell ELBO assembly, the annealed minibatch loop, and persistence.

The objective per row is

    sum_{observed d} log p(x_d | z, s)  -  KL(q(z | x, s) || p(z | s))
                                        -  KL(q(s | x) || p(s))

estimated with one Gumbel-softmax draw of s and one reparameterized draw of z
per row.  The Gaussian KL is closed-form at the sampled soft s; the
categorical KL against the uniform mixture prior is analytic.  Missing cells
contribute nothing to any term.
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
    SCALE_FLOOR,
    ColumnSpec,
    DataError,
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
    """Non-finite loss, or non-finite gradient of the named parameter; carries
    the epoch/batch where optimization failed."""

    def __init__(self, epoch: int, batch: int, parameter: str | None = None):
        what = "loss" if parameter is None else f"gradient of parameter {parameter}"
        super().__init__(f"non-finite {what} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch
        self.parameter = parameter


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
        if not (0.0 < self.tau_end <= self.tau_start < math.inf):
            raise ValueError("need 0 < tau_end <= tau_start < inf")
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
        return list(named_parameters(self).values())


def build_model(schema: Schema, config: TrainConfig, rng) -> ModelState:
    encoder = R.build_encoder(
        schema, config.dim_s, config.dim_z, config.layers, config.encoder_mode, rng
    )
    generative = G.build_generative(
        schema, config.dim_s, config.dim_z, config.dim_y, config.layers, rng
    )
    return ModelState(schema, config, encoder, generative, identity_stats(schema))


def named_parameters(state: ModelState) -> dict[str, C.Tensor]:
    """Stable name -> tensor map of the model file and of gradient error reports."""
    return {**state.encoder.named_parameters(), **state.generative.named_parameters()}


def gaussian_kl(mu_q: C.Tensor, log_var_q: C.Tensor, mu_p: C.Tensor) -> C.Tensor:
    """KL( N(mu_q, diag e^lv) || N(mu_p, I) ) per row, closed form."""
    return C.gaussian_kl(mu_q, log_var_q, mu_p)


def categorical_kl(s_logits: C.Tensor) -> C.Tensor:
    """KL( softmax(logits) || uniform ) per row: log L minus entropy."""
    return C.uniform_kl(s_logits)


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
) -> C.Tensor:
    """Single-sample ELBO of a set of rows, as a differentiable scalar.

    Normalization stats are fitted on this batch (training behaviour).  The
    reconstruction is one masked sum: the groups' (B, G) log-likelihood
    blocks, side by side in group column order, times the observed mask in
    that order, so missing cells contribute nothing.
    """
    rows = np.asarray(rows, dtype=np.intp)
    if rows.size == 0:
        raise ValueError("rows must be nonempty")
    stats = _batch_stats(state, table, mask, rows)
    params = R.posterior(state.encoder, table, mask, stats, rows)
    latent = R.sample_latent(params, tau, rng)

    cells, observed = table.cells[rows], mask.observed[rows]
    decoded = G.decode(state.generative, latent, stats)
    blocks = []
    for group, block in zip(decoded.groups, decoded.blocks):
        obs = observed[:, group.columns]
        x = np.where(obs, cells[:, group.columns], group.kind_class.safe_value)  # in-support
        blocks.append(G.log_likelihood(block, x))
    order = np.concatenate([group.columns for group in decoded.groups])
    recon = C.tsum(C.concat(blocks, axis=1) * observed[:, order].astype(np.float64))

    mu_p = C.matmul(latent.s_soft, state.generative.prior_mu_table)
    kl_z = C.tsum(gaussian_kl(latent.z_mu, latent.z_log_var, mu_p))
    kl_s = C.tsum(categorical_kl(params.s_logits))
    return recon - kl_z - kl_s


def tau_schedule(epoch: int, config: TrainConfig) -> float:
    """Linear decrease from tau_start to tau_end over the epoch range."""
    if config.epochs == 1:
        return config.tau_start
    if epoch == config.epochs - 1:  # the formula below can round a tiny tau_end to 0
        return config.tau_end
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
    A column with no observed cell is a DataError, as for the mean/mode
    baseline.  progress, if given, is called with (epoch, tau, elbo) after
    every epoch.
    """
    if table.n_rows == 0:
        raise ValueError("table must be nonempty")
    mask.check_shape(table)
    for col, seen in zip(table.schema.columns, mask.observed.any(axis=0)):
        if not seen:
            raise DataError(f"column {col.name!r} has no observed cells")
    rng = np.random.default_rng(config.seed)
    state = build_model(table.schema, config, rng)
    state.stats = _batch_stats(state, table, mask, range(table.n_rows))

    named = named_parameters(state)
    flats = [state.encoder.flat, state.generative.flat]
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
            if not all(np.isfinite(flat.grad).all() for flat in flats):
                name = next(name for name, p in named.items() if not np.isfinite(p.grad).all())
                raise TrainingError(epoch, batch_idx, name)
            C.adam_step(adam, flats)
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
        "schema_fingerprint": state.schema.fingerprint(),
        "stats": [
            None if c.is_nominal else [shift, scale, c.kind_class.domain]
            for c, shift, scale in zip(state.schema.columns, state.stats.shift, state.stats.scale)
        ],
        "training_log": [[int(e), float(t), float(v)] for e, t, v in state.training_log],
        "params": {
            name: {"shape": list(t.values.shape), "values": t.values.ravel().tolist()}
            for name, t in named_parameters(state).items()
        },
    }
    write_json(path, doc)


def write_json(path, doc) -> None:
    with open(path, "w") as fh:
        # dumps runs the C encoder; dump would run the pure-Python one
        fh.write(json.dumps(doc, sort_keys=True))
        fh.write("\n")


def _stats_fit(entry: list | None, col: ColumnSpec) -> bool:
    """Whether save_model could have written this stats entry for this column:
    null for a nominal column, else [shift, scale, domain] with a finite shift,
    a finite scale of at least SCALE_FLOOR and the kind's transform domain."""
    if entry is None:
        return col.is_nominal
    shift, scale, domain = entry
    return (
        not col.is_nominal
        and math.isfinite(shift)
        and SCALE_FLOOR <= scale < math.inf
        and domain == col.kind_class.domain
    )


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
        entries = doc["stats"]
        if len(entries) != len(schema) or not all(map(_stats_fit, entries, schema.columns)):
            raise ModelFormatError(f"{path}: corrupt model file (stats do not match schema)")
        state = build_model(schema, config, np.random.default_rng(0))
        pairs = [(0.0, 1.0) if e is None else e[:2] for e in entries]
        state.stats = NormalizationStats(*zip(*pairs))
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
            if not np.isfinite(values).all():
                raise ModelFormatError(f"{path}: corrupt model file (non-finite parameter {name})")
            tensor.values[...] = values
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ModelFormatError(f"{path}: corrupt model file ({exc})") from None
    return state


def require_schema(state: ModelState, table: HeterogeneousTable) -> None:
    if state.schema.fingerprint() != table.schema.fingerprint():
        raise ModelFormatError(
            f"schema fingerprint mismatch: model {state.schema.fingerprint()} "
            f"vs data {table.schema.fingerprint()}"
        )
