"""Command-line surface: train, impute, evaluate, benchmark, predict.

Exit codes: 0 success, 1 usage error, 2 data error (bad files, schema or
fingerprint mismatch, undefined metric), 3 numerical failure (non-finite loss
or gradient).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

import numpy as np

from . import benchmark as B
from . import imputation as I
from .recognition import FACTORIZED, INPUT_DROPOUT
from .tabular import TabularError, load_dataset, load_mask, write_table
from .training import (
    ModelFormatError,
    TrainConfig,
    TrainingError,
    load_model,
    save_model,
    train,
    write_json,
)


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _add_config_flags(p: Parser) -> None:
    d = TrainConfig()

    def flag(name, default, text, **kw):
        p.add_argument(name, type=type(default), default=default, help=text.format(default), **kw)

    flag("--dim-z", d.dim_z, "latent code dimension (default {})")
    flag("--dim-s", d.dim_s, "mixture components (default {})")
    flag("--dim-y", d.dim_y, "per-column shared width (default {})")
    flag("--layers", d.layers, "dense layers per net", choices=(1, 2))
    flag("--epochs", d.epochs, "training epochs (default {})")
    flag("--batch", d.batch_size, "minibatch size (default {})")
    flag("--tau-start", d.tau_start, "initial Gumbel temperature")
    flag("--tau-end", d.tau_end, "final Gumbel temperature")
    p.add_argument(
        "--encoder",
        choices=("dropout", "factorized"),
        default="dropout",
        help="posterior family: zero-filled input net, or per-column Gaussian product",
    )
    p.add_argument(
        "--no-norm",
        action="store_true",
        help="disable the per-batch (de-)normalization of numeric columns",
    )


def _config(args) -> TrainConfig:
    return TrainConfig(
        dim_z=args.dim_z,
        dim_s=args.dim_s,
        dim_y=args.dim_y,
        layers=args.layers,
        epochs=args.epochs,
        batch_size=args.batch,
        tau_start=args.tau_start,
        tau_end=args.tau_end,
        seed=args.seed,
        encoder_mode=FACTORIZED if args.encoder == "factorized" else INPUT_DROPOUT,
        normalization=not args.no_norm,
    )


def build_parser() -> Parser:
    parser = Parser(prog="hivae", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and write a model file")
    p.add_argument("--data", required=True)
    p.add_argument("--types", required=True)
    p.add_argument("--mask", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("impute", help="fill missing cells from a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--types", required=True)
    p.add_argument("--mask", default=None)
    p.add_argument("--method", choices=("map", "sample"), default="map")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("evaluate", help="score an imputed table on masked cells")
    p.add_argument("--truth", required=True)
    p.add_argument("--imputed", required=True)
    p.add_argument("--types", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("benchmark", help="missing-rate sweep against the mean/mode baseline")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--data")
    src.add_argument("--synthetic", action="store_true")
    p.add_argument("--types", default=None)
    p.add_argument("--rows", type=int, default=1000, help="rows for --synthetic (default 1000)")
    p.add_argument("--fractions", default="0.1,0.2,0.3,0.4,0.5")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--methods", default="hivae_map,mean_mode")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("predict", help="hold out labels, train, and impute them")
    p.add_argument("--data", required=True)
    p.add_argument("--types", required=True)
    p.add_argument("--target", required=True, help="name of the categorical target column")
    p.add_argument("--train-fraction", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_predict)

    return parser


def cmd_train(args) -> int:
    table, mask = load_dataset(args.data, args.types, args.mask)
    config = _config(args)

    def progress(epoch, tau, elbo):
        print(f"epoch={epoch},tau={tau:.6g},elbo={elbo:.10g}")

    state = train(table, mask, config, progress=progress)
    save_model(state, args.out)
    print(f"model written to {args.out}", file=sys.stderr)
    return 0


def cmd_impute(args) -> int:
    model = load_model(args.model)
    table, mask = load_dataset(args.data, args.types, args.mask)
    if args.method == "map":
        result = I.impute_map(model, table, mask)
    else:
        seed = args.seed
        if seed is None:
            seed = int(np.random.SeedSequence().generate_state(1)[0])
            print(f"seed={seed}", file=sys.stderr)
        result = I.impute_sample(model, table, mask, np.random.default_rng(seed))
    write_table(result.completed, args.out)
    sidecar = args.out + ".fills.json"
    with open(sidecar, "w") as fh:
        # the bytes of json.dumps(result.records(), sort_keys=True), one column at a time
        fh.write("[")
        for i, text in enumerate(filter(None, map(result.column_text, range(len(result.rows))))):
            fh.write(", " + text if i else text)
        fh.write("]\n")
    n_filled = sum(rows.size for rows in result.rows)
    print(f"{n_filled} cells filled; sidecar {sidecar}", file=sys.stderr)
    return 0


def _print_report(report: B.MetricsReport) -> None:
    print(
        f"method={report.method} fraction={report.fraction:g} repeat={report.repeat} "
        f"avg_err={report.avg_err:.4f} "
        f"numeric={'-' if report.numeric_err is None else f'{report.numeric_err:.4f}'} "
        f"nominal={'-' if report.nominal_err is None else f'{report.nominal_err:.4f}'}"
    )


def cmd_evaluate(args) -> int:
    truth, truth_mask = load_dataset(args.truth, args.types)
    imputed, imputed_mask = load_dataset(args.imputed, args.types)
    for name, m in ((args.truth, truth_mask), (args.imputed, imputed_mask)):
        if not m.observed.all():
            raise TabularError(f"{name}: must be a complete table (no empty cells)")
    mask = load_mask(args.mask)
    report = B.score_imputation(truth, imputed, mask, method="evaluate", fraction=0.0)
    write_json(args.out, asdict(report))
    for score in report.per_column:
        print(f"{score.name}: {score.metric}={score.value:.4f} over {score.n_cells} cells")
    print(f"avg_err={report.avg_err:.4f}")
    for note in report.warnings:
        print(f"warning: {note}", file=sys.stderr)
    return 0


def cmd_benchmark(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    fractions = [float(f) for f in args.fractions.split(",") if f.strip()]
    if args.synthetic:
        table = B.synthetic_table(n_rows=args.rows, seed=args.seed)
    else:
        if args.types is None:
            raise UsageError("--types is required with --data")
        table, mask = load_dataset(args.data, args.types)
        if not mask.observed.all():
            raise TabularError(f"{args.data}: must be a complete table (no empty cells)")
    config = _config(args)
    reports = B.run_benchmark(table, config, fractions, args.repeats, methods, args.seed)
    write_json(args.out, [asdict(r) for r in reports])
    for report in reports:
        _print_report(report)
    return 0


def cmd_predict(args) -> int:
    table, mask = load_dataset(args.data, args.types)
    try:
        t = table.schema.column_index(args.target)
    except TabularError as exc:
        raise UsageError(str(exc)) from None
    config = _config(args)
    outcome = I.predict_target(
        table, mask, args.target, args.train_fraction, config, np.random.default_rng(args.seed)
    )
    doc = {
        "target": outcome.target_column,
        "train_fraction": args.train_fraction,
        "n_held_out": len(outcome.held_out_rows),
        "accuracy_error": outcome.accuracy_error,
        "majority_error": B.majority_class_error(table.cells[mask.observed[:, t], t]),
        "predictions": [
            {"row": r, "predicted": int(p), "truth": int(v)}
            for r, p, v in zip(outcome.held_out_rows, outcome.predicted, outcome.truth)
        ],
    }
    write_json(args.out, doc)
    print(f"accuracy_error={outcome.accuracy_error:.4f} over {doc['n_held_out']} held-out labels")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TabularError, ModelFormatError, B.MetricUndefinedError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
