"""Workload definitions and their seeded inputs.

Every workload fits a model with ``hivae.training.train`` to the leading rows
of a masked table and then fills all of that table's masked cells with the
``hivae impute --method map`` command, as a user fits on a sample and imputes
the whole table.  The workloads differ in table shape and batch size.

The table family (cluster centres and column maps of ``synthetic_table``) is
fixed per workload, and ``--seed`` draws which rows are used, the MCAR mask
and the training seeds.  Fixing the family keeps ``map_avg_err`` a measure of
the model rather than of how hard one random family happens to be: over
synthetic_table seeds its quartiles lie about a quarter of the median apart,
over seeds of one family a few per cent.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

import paths  # noqa: F401

from hivae import benchmark as B
from hivae import tabular as T
from hivae.training import TrainConfig

MISSING_FRACTION = 0.2
POOL_FACTOR = 4  # rows are drawn without replacement from a pool this many times larger


@dataclass(frozen=True)
class Workload:
    name: str
    tiles: int  # synthetic_table tiles side by side, D = 7 * tiles
    rows: int  # rows of the table that is masked and imputed
    fit_rows: int  # leading rows of that table the model is trained on
    batch_size: int
    fit_epochs: int  # epochs of one train() call
    check_quality: bool  # a run fails unless MAP imputes better than mean/mode

    def config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            dim_s=10, dim_z=10, dim_y=5, layers=1,
            epochs=self.fit_epochs, batch_size=self.batch_size, seed=seed,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's reference setup (a small graph on large arrays), then
        # one forward pass at batch 50k with CSV and sidecar I/O.
        Workload("ref", 1, 50000, 5000, 1000, 200, True),
        # Ten independent tiles: per-node Python overhead and per-column
        # loops, in training and in the CLI.  Six epochs are too few for MAP
        # to beat mean/mode on 70 columns, so quality is not checked.
        Workload("wide", 10, 5000, 1000, 100, 6, False),
    )
}


def derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def make_table(workload: Workload, seed: int) -> T.HeterogeneousTable:
    """``workload.rows`` rows of ``workload.tiles`` synthetic tables side by side.

    Tile t comes from ``synthetic_table`` with seed t, so the tiles are
    independent tables rather than copies of one.
    """
    pool = POOL_FACTOR * workload.rows
    rows = np.sort(np.random.default_rng(seed).choice(pool, workload.rows, replace=False))
    parts = [B.synthetic_table(pool, seed=t) for t in range(workload.tiles)]
    if workload.tiles == 1:
        return T.HeterogeneousTable(parts[0].schema, parts[0].cells[rows])
    schema = T.Schema(
        tuple(
            T.ColumnSpec(f"{c.name}_t{t}", c.kind, c.cardinality)
            for t, part in enumerate(parts)
            for c in part.schema.columns
        )
    )
    return T.HeterogeneousTable(schema, np.hstack([p.cells[rows] for p in parts]))


def make_inputs(workload: Workload, seed: int):
    """(table, mask): the ground-truth table and its MCAR observed-cell mask."""
    table = make_table(workload, seed)
    mask = B.generate_mcar_mask(table, MISSING_FRACTION, derived_seed(seed, 1))
    return table, mask


def fit_inputs(workload: Workload, table, mask):
    """(table, mask) the model is trained on: the leading ``fit_rows`` rows."""
    n = workload.fit_rows
    return T.HeterogeneousTable(table.schema, table.cells[:n]), T.MissingMask(mask.observed[:n])


def write_types(schema: T.Schema, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for c in schema.columns:
            w.writerow([c.name, c.kind, c.cardinality])
