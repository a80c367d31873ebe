"""MCAR masking, per-type imputation metrics, the mean/mode baseline, and the
missing-rate experiment grid.

Columns are scored by the one metric their kind names (``hivae.kinds``): NRMSE
for real/pos/count, accuracy error for categorical, displacement error for
ordinal.  The headline number is the unweighted mean of per-column errors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .imputation import ImputationResult, filled, impute_map, impute_sample
from .tabular import DataError, HeterogeneousTable, MissingMask, Schema, ColumnSpec
from .training import TrainConfig, train

METHODS = ("hivae_map", "hivae_sample", "mean_mode")


class MetricUndefinedError(ValueError):
    """The metric denominator is degenerate (e.g. zero-range column)."""


def generate_mcar_mask(table: HeterogeneousTable, fraction: float, seed: int) -> MissingMask:
    """Mask each cell independently with the given probability."""
    if not (0.0 <= fraction < 1.0):
        raise ValueError(f"fraction must be in [0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    observed = rng.random(table.cells.shape) >= fraction
    return MissingMask(observed)


def _scored_subset(truth, imputed, scored):
    truth = np.asarray(truth, dtype=np.float64)
    imputed = np.asarray(imputed, dtype=np.float64)
    if truth.shape != imputed.shape:
        raise ValueError("truth/imputed length mismatch")
    if scored is None:
        return truth, imputed
    scored = np.asarray(scored, dtype=bool)
    return truth[scored], imputed[scored]


def nrmse(truth, imputed, scored=None) -> float:
    """Root mean square error over scored cells, divided by the range of the
    full truth column (kept stable across repeats)."""
    truth = np.asarray(truth, dtype=np.float64)
    value_range = float(truth.max() - truth.min())
    if value_range <= 0.0:
        raise MetricUndefinedError("column has zero value range; NRMSE is undefined")
    t, i = _scored_subset(truth, imputed, scored)
    if t.size == 0:
        warnings.warn("NRMSE over an empty evaluation set; reporting 0")
        return 0.0
    return float(np.sqrt(np.mean((t - i) ** 2)) / value_range)


def accuracy_error(truth, imputed, scored=None) -> float:
    """Fraction of mismatched classes over scored cells."""
    t, i = _scored_subset(truth, imputed, scored)
    if t.size == 0:
        warnings.warn("accuracy error over an empty evaluation set; reporting 0")
        return 0.0
    return float(np.mean(t != i))


def displacement_error(truth, imputed, cardinality: int, scored=None) -> float:
    """Mean absolute class distance over scored cells, divided by the class count."""
    t, i = _scored_subset(truth, imputed, scored)
    if t.size == 0:
        warnings.warn("displacement error over an empty evaluation set; reporting 0")
        return 0.0
    return float(np.mean(np.abs(t - i)) / cardinality)


# a kind's ``metric`` -> error of one column (truth, imputed, scored cells, spec)
_COLUMN_ERROR = {
    "nrmse": lambda t, i, scored, col: nrmse(t, i, scored),
    "accuracy": lambda t, i, scored, col: accuracy_error(t, i, scored),
    "displacement": lambda t, i, scored, col: displacement_error(t, i, col.cardinality, scored),
}


def mean_mode_impute(table: HeterogeneousTable, mask: MissingMask) -> ImputationResult:
    """Baseline: observed mean for numeric columns (counts rounded half-up),
    observed modal class for nominal columns (ties to the lowest index)."""
    mask.check_shape(table)
    fills, params = [], []
    for d, col in enumerate(table.schema.columns):
        vals = table.cells[mask.observed[:, d], d]
        if vals.size == 0:
            raise DataError(f"column {col.name!r} has no observed cells")
        fill, stat = col.kind_class.baseline(vals, col.cardinality)
        fills.append(fill)
        params.append(f'{{"kind": "{col.kind}", "statistic": "{stat}"}}')
    return filled(
        table, mask, np.array(fills), "mean_mode", lambda d, rows: [params[d]] * rows.size
    )


@dataclass(frozen=True)
class ColumnScore:
    name: str
    kind: str
    metric: str
    value: float
    n_cells: int


@dataclass(frozen=True)
class MetricsReport:
    method: str
    fraction: float
    repeat: int
    seed: int
    per_column: tuple[ColumnScore, ...]
    avg_err: float
    numeric_err: float | None
    nominal_err: float | None
    n_scored_cells: int
    warnings: tuple[str, ...] = ()


def score_imputation(
    truth: HeterogeneousTable,
    imputed: HeterogeneousTable,
    mask: MissingMask,
    *,
    method: str,
    fraction: float,
    repeat: int = 0,
    seed: int = 0,
) -> MetricsReport:
    """Score an imputation against ground truth on the masked cells only.

    Guards the evaluation protocol: observed cells must be untouched copies of
    the truth, and only cells the mask hides enter any metric.
    """
    mask.check_shape(truth)
    if truth.cells.shape != imputed.cells.shape:
        raise DataError(f"imputed shape {imputed.cells.shape} != truth shape {truth.cells.shape}")
    if not np.array_equal(truth.cells[mask.observed], imputed.cells[mask.observed]):
        raise DataError("observed cells were modified by the imputation")

    scores = []
    notes = []
    for d, col in enumerate(truth.schema.columns):
        scored = ~mask.observed[:, d]
        n_cells = int(scored.sum())
        metric = col.kind_class.metric
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                value = _COLUMN_ERROR[metric](truth.cells[:, d], imputed.cells[:, d], scored, col)
            except MetricUndefinedError as exc:
                raise MetricUndefinedError(f"column {col.name!r}: {exc}") from None
        if n_cells == 0:
            notes.append(f"column {col.name!r}: no masked cells to score")
        scores.append(ColumnScore(col.name, col.kind, metric, value, n_cells))

    numeric = [s.value for s, col in zip(scores, truth.schema.columns) if not col.is_nominal]
    nominal = [s.value for s, col in zip(scores, truth.schema.columns) if col.is_nominal]
    return MetricsReport(
        method=method,
        fraction=fraction,
        repeat=repeat,
        seed=seed,
        per_column=tuple(scores),
        avg_err=float(np.mean([s.value for s in scores])),
        numeric_err=float(np.mean(numeric)) if numeric else None,
        nominal_err=float(np.mean(nominal)) if nominal else None,
        n_scored_cells=int(sum(s.n_cells for s in scores)),
        warnings=tuple(notes),
    )


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def run_benchmark(
    table: HeterogeneousTable,
    config: TrainConfig,
    fractions,
    repeats: int,
    methods,
    seed: int,
) -> list[MetricsReport]:
    """Missing-rate sweep: fresh MCAR mask per (fraction, repeat), every method
    imputes the same masked dataset, masked cells are scored per kind.

    hivae_map and hivae_sample share one trained model per grid cell; training
    and masking seeds derive deterministically from the master seed.
    """
    methods, fractions = list(methods), list(fractions)
    if repeats < 1 or not fractions or not methods:
        raise ValueError(f"need repeats >= 1 (got {repeats}), a fraction and a method")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {METHODS}")
    reports = []
    for fi, fraction in enumerate(fractions):
        for rep in range(repeats):
            mask = generate_mcar_mask(table, fraction, _derived_seed(seed, fi, rep, 0))
            model = None
            if any(m.startswith("hivae") for m in methods):
                cfg = replace(config, seed=_derived_seed(seed, fi, rep, 1))
                model = train(table, mask, cfg)
            for method in methods:
                if method == "mean_mode":
                    result = mean_mode_impute(table, mask)
                elif method == "hivae_map":
                    result = impute_map(model, table, mask)
                else:
                    rng = np.random.default_rng(_derived_seed(seed, fi, rep, 2))
                    result = impute_sample(model, table, mask, rng)
                reports.append(
                    score_imputation(
                        table,
                        result.completed,
                        mask,
                        method=method,
                        fraction=fraction,
                        repeat=rep,
                        seed=seed,
                    )
                )
    return reports


# ---------------------------------------------------------------------------
# Synthetic datasets (documented generators so every oracle is reproducible)
# ---------------------------------------------------------------------------


def synthetic_schema() -> Schema:
    return Schema(
        (
            ColumnSpec("real_a", "real"),
            ColumnSpec("real_b", "real"),
            ColumnSpec("pos_a", "pos"),
            ColumnSpec("count_a", "count"),
            ColumnSpec("cat_a", "cat", 3),
            ColumnSpec("cat_b", "cat", 3),
            ColumnSpec("ord_a", "ordinal", 4),
        )
    )


def synthetic_table(n_rows: int = 1000, seed: int = 0) -> HeterogeneousTable:
    """Correlated mixed-type data driven by a 2-component latent mixture.

    Recipe: draw a hidden factor h from a 2-component Gaussian mixture in 4
    dimensions (component means drawn once from the seeded generator, scaled
    by 2, unit noise).  Columns are fixed random maps of h:

        real_a, real_b   linear maps plus 0.15 observation noise
        pos_a            exp(0.5 * linear map + 0.1 noise)
        count_a          Poisson(softplus(linear map))
        cat_a, cat_b     argmax of 3 linear scores
        ord_a            linear score binned at its quartiles (4 classes)
    """
    if n_rows < 1:
        raise ValueError(f"n_rows must be >= 1, got {n_rows}")
    rng = np.random.default_rng(seed)
    centers = 2.0 * rng.standard_normal((2, 4))
    comp = rng.integers(0, 2, size=n_rows)
    h = centers[comp] + rng.standard_normal((n_rows, 4))

    w_real = rng.standard_normal((4, 2))
    w_pos = rng.standard_normal(4)
    w_count = rng.standard_normal(4)
    w_cat_a = rng.standard_normal((4, 3))
    w_cat_b = rng.standard_normal((4, 3))
    w_ord = rng.standard_normal(4)

    reals = h @ w_real + 0.15 * rng.standard_normal((n_rows, 2))
    pos = np.exp(0.5 * (h @ w_pos) + 0.1 * rng.standard_normal(n_rows))
    count = rng.poisson(np.logaddexp(0.0, h @ w_count)).astype(np.float64)
    cat_a = np.argmax(h @ w_cat_a, axis=1).astype(np.float64)
    cat_b = np.argmax(h @ w_cat_b, axis=1).astype(np.float64)
    score = h @ w_ord
    bins = np.quantile(score, [0.25, 0.5, 0.75])
    ordinal = np.digitize(score, bins).astype(np.float64)

    cells = np.column_stack([reals[:, 0], reals[:, 1], pos, count, cat_a, cat_b, ordinal])
    return HeterogeneousTable(synthetic_schema(), cells)


def separable_schema(n_classes: int = 3) -> Schema:
    return Schema(
        (
            ColumnSpec("feat_x", "real"),
            ColumnSpec("feat_y", "real"),
            ColumnSpec("label", "cat", n_classes),
        )
    )


def separable_table(n_rows: int = 500, seed: int = 0) -> HeterogeneousTable:
    """Three well-separated 2-D clusters; the label names the cluster, so it is
    a deterministic function of the two features up to negligible overlap."""
    rng = np.random.default_rng(seed)
    centers = np.array([[3.0, 0.0], [-3.0, 3.0], [0.0, -3.0]])
    label = rng.integers(0, 3, size=n_rows)
    feats = centers[label] + 0.7 * rng.standard_normal((n_rows, 2))
    cells = np.column_stack([feats[:, 0], feats[:, 1], label.astype(np.float64)])
    return HeterogeneousTable(separable_schema(), cells)


def majority_class_error(labels) -> float:
    """Error of always predicting the most common class."""
    labels = np.asarray(labels, dtype=np.intp)
    counts = np.bincount(labels)
    return float(1.0 - counts.max() / labels.size)
