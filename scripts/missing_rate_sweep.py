#!/usr/bin/env python3
"""Missing-rate sweep on the built-in synthetic dataset.

Trains at each deletion fraction and compares MAP imputation against the
mean/mode baseline, averaged over repeats.  Desk-scale defaults finish in a
few minutes; raise --epochs/--repeats for tighter curves.

    python3 scripts/missing_rate_sweep.py --rows 1000 --epochs 500 --out sweep.json
"""

import argparse
import json
from collections import defaultdict
from dataclasses import asdict

import numpy as np

from hivae import benchmark as B
from hivae.training import TrainConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=1000)
    ap.add_argument("--fractions", default="0.1,0.2,0.3,0.4,0.5")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--epochs", type=int, default=500)
    ap.add_argument("--batch", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--methods", default="hivae_map,hivae_sample,mean_mode")
    ap.add_argument("--out", default=None, help="optional JSON report path")
    args = ap.parse_args()

    table = B.synthetic_table(args.rows, seed=args.seed)
    config = TrainConfig(epochs=args.epochs, batch_size=args.batch, seed=args.seed)
    fractions = [float(f) for f in args.fractions.split(",")]
    methods = args.methods.split(",")
    reports = B.run_benchmark(table, config, fractions, args.repeats, methods, args.seed)

    grouped = defaultdict(list)
    for r in reports:
        grouped[(r.fraction, r.method)].append(r)
    print(f"{'fraction':>8} {'method':>14} {'avg_err':>10} {'numeric':>10} {'nominal':>10}")
    for (fraction, method), rs in sorted(grouped.items()):
        avg = np.mean([r.avg_err for r in rs])
        num = np.mean([r.numeric_err for r in rs])
        nom = np.mean([r.nominal_err for r in rs])
        print(f"{fraction:>8.2f} {method:>14} {avg:>10.4f} {num:>10.4f} {nom:>10.4f}")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump([asdict(r) for r in reports], fh, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
