"""Filling missing cells from a trained model, and the label-prediction protocol.

MAP imputation is a three-step deterministic pass: take the argmax mixture
assignment and the posterior mean of z, decode every column's distribution at
that point, and write each missing cell's distribution mode.  The sampling
variant instead draws the latent pair at the final annealing temperature and
then draws each cell from its decoded distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import generative as G
from . import recognition as R
# encode_inputs is bound here so the benchmark tracer wraps this lookup site
from .tabular import HeterogeneousTable, MissingMask, encode_inputs  # noqa: F401
from .training import ModelState, TrainConfig, require_schema, train


@dataclass(frozen=True)
class FillRecord:
    row: int
    col: int
    method: str  # "map_mode" | "sample"
    value: float
    params: dict


@dataclass(frozen=True)
class ImputationResult:
    completed: HeterogeneousTable
    fills: tuple[FillRecord, ...]


def _fill(table, mask, per_column_values, method, liks) -> ImputationResult:
    completed = table.cells.copy()
    fills = []
    for d in range(table.n_cols):
        missing = ~mask.observed[:, d]
        if not missing.any():
            continue
        completed[missing, d] = per_column_values[d][missing]
        for n in np.flatnonzero(missing):
            fills.append(
                FillRecord(
                    row=int(n),
                    col=int(d),
                    method=method,
                    value=float(completed[n, d]),
                    params=G.params_summary(liks[d], int(n)),
                )
            )
    return ImputationResult(HeterogeneousTable(table.schema, completed), tuple(fills))


def impute_map(model: ModelState, table: HeterogeneousTable, mask: MissingMask) -> ImputationResult:
    """Deterministic imputation: distribution modes at the MAP latent point."""
    require_schema(model, table)
    mask.check_shape(table)
    params = R.posterior(model.encoder, table, mask, model.stats, range(table.n_rows))
    latent = R.map_latent(params)
    liks = G.decode(model.generative, latent, model.stats)
    values = [G.mode(lik) for lik in liks]
    return _fill(table, mask, values, "map_mode", liks)


def impute_sample(
    model: ModelState, table: HeterogeneousTable, mask: MissingMask, rng
) -> ImputationResult:
    """Stochastic imputation: one posterior draw, one draw per missing cell."""
    require_schema(model, table)
    mask.check_shape(table)
    params = R.posterior(model.encoder, table, mask, model.stats, range(table.n_rows))
    latent = R.sample_latent(params, model.config.tau_end, rng)
    liks = G.decode(model.generative, latent, model.stats)
    values = [G.sample(lik, rng) for lik in liks]
    return _fill(table, mask, values, "sample", liks)


@dataclass(frozen=True)
class PredictionOutcome:
    target_column: str
    held_out_rows: tuple[int, ...]
    predicted: np.ndarray
    truth: np.ndarray
    accuracy_error: float


def predict_target(
    table: HeterogeneousTable,
    mask: MissingMask,
    target_column: str,
    train_fraction: float,
    config: TrainConfig,
    rng,
) -> PredictionOutcome:
    """Treat held-out labels as missing cells and impute them.

    Keeps ceil(N * train_fraction) labels visible (chosen at random among rows
    whose label is observed), hides the rest, trains on everything visible,
    and scores MAP imputations of the hidden labels against the truth.
    """
    t = table.schema.column_index(target_column)
    if table.schema.columns[t].kind != "cat":
        raise ValueError(f"target column {target_column!r} must be categorical")
    if not (0.0 < train_fraction < 1.0):
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    mask.check_shape(table)

    eligible = np.flatnonzero(mask.observed[:, t])
    n_visible = min(math.ceil(table.n_rows * train_fraction), eligible.size)
    order = rng.permutation(eligible)
    held_out = np.sort(order[n_visible:])

    observed = mask.observed.copy()
    observed[held_out, t] = False
    train_mask = MissingMask(observed)

    model = train(table, train_mask, config)
    result = impute_map(model, table, train_mask)

    predicted = result.completed.cells[held_out, t]
    truth = table.cells[held_out, t]
    error = float(np.mean(predicted != truth)) if held_out.size else 0.0
    return PredictionOutcome(
        target_column=target_column,
        held_out_rows=tuple(int(r) for r in held_out),
        predicted=predicted,
        truth=truth,
        accuracy_error=error,
    )
