#!/usr/bin/env python3
"""Autodiff nodes and median wall time of one training step.

A step is what `training.train` runs per minibatch: `elbo_batch`, `backward`
of the loss scaled by -1/batch, and `adam_step`.  The table is --cols / 7
built-in synthetic tables side by side, tile t drawn with seed t as perfbench
builds its `wide` table, with --batch rows and 20% MCAR missingness; every
step takes all of its rows.  The model has perfbench's sizes (one hidden
layer, dim_z = dim_s = 10, dim_y = 5).  The node count is the number of
`compute._node` calls in one step.

    PYTHONPATH=src python3 scripts/step_time.py --cols 7 --batch 200
"""

import argparse
import statistics
import time

import numpy as np

from hivae import benchmark as B
from hivae import compute as C
from hivae import training as T
from hivae.tabular import ColumnSpec, HeterogeneousTable, Schema


def tiled_table(tiles: int, rows: int) -> HeterogeneousTable:
    """`tiles` synthetic tables side by side (D = 7 * tiles), tile t with seed t."""
    parts = [B.synthetic_table(rows, seed=t) for t in range(tiles)]
    if tiles == 1:
        return parts[0]
    columns = tuple(
        ColumnSpec(f"{c.name}_t{t}", c.kind, c.cardinality)
        for t, part in enumerate(parts) for c in part.schema.columns
    )
    return HeterogeneousTable(Schema(columns), np.hstack([p.cells for p in parts]))


def count_nodes(fn) -> int:
    """The number of `compute._node` calls that fn() makes."""
    nodes = 0
    node = C._node

    def counted(values, *pairs):
        nonlocal nodes
        nodes += 1
        return node(values, *pairs)

    C._node = counted
    try:
        fn()
    finally:
        C._node = node
    return nodes


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--cols", type=int, default=7, help="table width D, a multiple of 7")
    ap.add_argument("--batch", type=int, default=200)
    ap.add_argument("--steps", type=int, default=300, help="timed steps")
    ap.add_argument("--warmup", type=int, default=20, help="untimed steps first")
    args = ap.parse_args()
    if args.cols < 1 or args.cols % 7:
        ap.error("--cols must be a positive multiple of 7")
    if args.steps < 2:
        ap.error("--steps must be at least 2")

    table = tiled_table(args.cols // 7, args.batch)
    mask = B.generate_mcar_mask(table, 0.2, seed=1)
    config = T.TrainConfig(dim_z=10, dim_s=10, dim_y=5, layers=1, batch_size=args.batch)
    rng = np.random.default_rng(0)
    state = T.build_model(table.schema, config, rng)
    flats = [state.encoder.flat, state.generative.flat]
    adam = C.AdamState()
    rows = np.arange(table.n_rows)

    def step():
        elbo = T.elbo_batch(state, table, mask, rows, config.tau_start, rng)
        C.backward(elbo * (-1.0 / rows.size))
        C.adam_step(adam, flats)

    nodes = count_nodes(step)
    for _ in range(args.warmup):
        step()
    times = []
    for _ in range(args.steps):
        t0 = time.perf_counter()
        step()
        times.append(time.perf_counter() - t0)
    q1, median, q3 = statistics.quantiles(times, n=4)
    print(
        f"cols={args.cols} batch={args.batch} nodes_per_step={nodes} "
        f"step_ms median={1e3 * median:.3f} q1={1e3 * q1:.3f} q3={1e3 * q3:.3f} "
        f"over {args.steps} steps"
    )


if __name__ == "__main__":
    main()
