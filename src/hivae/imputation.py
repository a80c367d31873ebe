"""Filling missing cells from a trained model, and the label-prediction protocol.

MAP imputation is a three-step deterministic pass: take the argmax mixture
assignment and the posterior mean of z, decode every column's distribution at
that point, and write each missing cell's distribution mode.  The sampling
variant instead draws the latent pair at the final annealing temperature and
then draws each cell from its decoded distribution.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import compute as C
from . import generative as G
from . import recognition as R
from .kinds import json_floats
# encode_inputs is bound here so the benchmark tracer wraps this lookup site
from .tabular import DataError, HeterogeneousTable, MissingMask, encode_inputs  # noqa: F401
from .training import ModelState, TrainConfig, require_schema, train


@dataclass(frozen=True)
class ImputationResult:
    """The completed table, per column d the filled rows (ascending), and the
    source of their decoded-distribution summaries: summaries(d, rows) gives
    one params object's JSON text per row, built when asked for."""

    completed: HeterogeneousTable
    method: str  # "map_mode" | "sample" | "mean_mode"
    rows: tuple[np.ndarray, ...]
    summaries: Callable[[int, np.ndarray], list[str]]

    def column_text(self, d: int) -> str:
        """Column d's sidecar records as JSON text without the enclosing brackets."""
        rows = self.rows[d]
        record = f'{{"col": {d}, "method": "{self.method}", "params": %s, "row": %d, "value": %s}}'
        values = json_floats(self.completed.cells[rows, d])
        return ", ".join(record % r for r in zip(self.summaries(d, rows), rows.tolist(), values))

    def records(self) -> list[dict]:
        """The sidecar: one record per filled cell, column by column."""
        texts = filter(None, map(self.column_text, range(len(self.rows))))
        return json.loads("[" + ", ".join(texts) + "]")


def filled(table, mask, values, method, summaries) -> ImputationResult:
    """The table with values written into the cells the mask leaves missing."""
    missing = ~mask.observed
    completed = HeterogeneousTable(table.schema, np.where(missing, values, table.cells))
    rows = tuple(np.flatnonzero(column) for column in missing.T)
    return ImputationResult(completed, method, rows, summaries)


def _summaries(decoded):
    """Column d's summaries at the given rows, from its group's decoded block."""
    return lambda d, rows: G.params_summary(*decoded.columns[d], rows)


def _posterior(model, table, mask):
    require_schema(model, table)
    mask.check_shape(table)
    return R.posterior(model.encoder, table, mask, model.stats, range(table.n_rows))


def impute_map(model: ModelState, table: HeterogeneousTable, mask: MissingMask) -> ImputationResult:
    """Deterministic imputation: distribution modes at the MAP latent point."""
    with C.no_grad():
        # the posterior is not bound to a name: it is freed once the latent point is taken
        latent = R.map_latent(_posterior(model, table, mask))
        decoded = G.decode(model.generative, latent, model.stats)
    values = np.empty(table.cells.shape)
    for group, block in zip(decoded.groups, decoded.blocks):
        values[:, group.columns] = G.mode(block)
    return filled(table, mask, values, "map_mode", _summaries(decoded))


def impute_sample(
    model: ModelState, table: HeterogeneousTable, mask: MissingMask, rng
) -> ImputationResult:
    """Stochastic imputation: one posterior draw, one draw per missing cell."""
    with C.no_grad():
        latent = R.sample_latent(_posterior(model, table, mask), model.config.tau_end, rng)
        decoded = G.decode(model.generative, latent, model.stats)
    # column by column in schema order: draws stay in that order
    values = np.column_stack([block.sample(rng, j) for block, j in decoded.columns])
    return filled(table, mask, values, "sample", _summaries(decoded))


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
    and scores MAP imputations of the hidden labels against the truth.  A
    target with no label left to hide is a DataError.
    """
    t = table.schema.column_index(target_column)
    if table.schema.columns[t].kind != "cat":
        raise ValueError(f"target column {target_column!r} must be categorical")
    if not (0.0 < train_fraction < 1.0):
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    mask.check_shape(table)

    eligible = np.flatnonzero(mask.observed[:, t])
    if eligible.size == 0:
        raise DataError(f"target column {target_column!r} has no observed labels")
    n_visible = math.ceil(table.n_rows * train_fraction)
    if eligible.size <= n_visible:
        raise DataError(
            f"target column {target_column!r} has {eligible.size} observed labels, and "
            f"{n_visible} stay visible at train fraction {train_fraction}: none is held out"
        )
    order = rng.permutation(eligible)
    held_out = np.sort(order[n_visible:])

    observed = mask.observed.copy()
    observed[held_out, t] = False
    train_mask = MissingMask(observed)

    model = train(table, train_mask, config)
    result = impute_map(model, table, train_mask)

    predicted = result.completed.cells[held_out, t]
    truth = table.cells[held_out, t]
    error = float(np.mean(predicted != truth))
    return PredictionOutcome(
        target_column=target_column,
        held_out_rows=tuple(int(r) for r in held_out),
        predicted=predicted,
        truth=truth,
        accuracy_error=error,
    )
