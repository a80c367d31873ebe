"""Benchmark of the hivae package: fit and impute workloads, end to end and per layer.

    python3 perfbench/run.py --workload ref --seed 1 --seconds 45 --trace 0

Run it from the root of a source checkout; it imports hivae from ``src/``.
Each workload is one closed-loop caller (one process, one thread, BLAS and
OpenMP pinned to one thread).  For the first third of ``--seconds`` it fits
models with ``training.train`` (at least one); for the rest, and at least
``MIN_CLI_RUNS`` times, it fills the masked cells of the workload's table
with ``hivae impute --method map`` and the first model.  Then it times
``SETUP_PROBES`` fresh set-up processes.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines above it repeat the metrics by name and unit, the environment, the
sha256 of the completed CSV and of its sidecar, and ``fail_rate``.

End-to-end metrics (``--trace 0``); every time is scaled to a nominal host
speed by speed.py's sampler, because this shared host's own speed drifts by
more than the bounds allow.  The raw wall-time figures are printed above the
JSON line.
  setup_s            median time of fresh processes that import hivae, run
                     build_model and load the run's saved model
  train_rows_per_s   training rows per second, median over epochs (the first
                     epoch of each train() call, which holds model set-up, is left out)
  impute_rows_per_s  table rows / median time of the whole CLI command
  peak_rss_mb        peak RSS of the CLI process, median over runs
  map_avg_err        score_imputation avg_err of the CLI's MAP fills on the masked
                     cells, from the first fit; deterministic at a fixed seed

Per-layer metrics (``--trace 1``) come from a separate run that traces public
functions from outside (tracing.py).  ``*_per_step`` values are totals of one
traced train() call divided by its optimizer steps; ``*.s`` and ``*.calls``
are totals of one save / CLI impute / score pass.  The run also makes the fit
and the CLI command untraced and reports traced over untraced time, both
scaled to the nominal host speed.  The speed sampler runs in the traced run
too, so each span's time holds its share (about 4%) of the sampler's kernel.

``attempted`` counts operations: train() calls, CLI commands, set-up probes
and the whole-run checks (MAP beats mean/mode on ref; traced training
equals untraced).  An operation fails on a TrainingError, a non-zero exit
status or a failed output check.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from paths import ROOT, SRC, WORK  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from hivae import benchmark as B  # noqa: E402
from hivae import tabular as T  # noqa: E402
from hivae import training  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
MIN_CLI_RUNS = 3
# One CLI run varies by about 15% on a shared 2-CPU machine, more than tracing
# costs, so the CLI overhead is the median ratio of a few untraced/traced pairs.
CLI_TRACE_PAIRS = 3
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        self.failed += bool(problems)
        self.failures.extend(f"{what}: {p}" for p in problems)
        return not problems


def environment() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (
        f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={np.__version__} blas={blas.get('name')}-{blas.get('version')} "
        f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}"
    )


def run_child(argv, files):
    """(exit status, wall s, nominal s, peak RSS in MB) of one child process.

    The child writes its speed sampler's totals to ``files["speed"]``; the
    nominal time is None when it exits with an error.
    """
    Path(files["speed"]).unlink(missing_ok=True)
    with open(files["log"], "wb") as log:
        t0 = perf_counter()
        child = subprocess.Popen(argv, stdout=log, stderr=log, env=CHILD_ENV, cwd=ROOT)
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        wall = perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    nominal = None
    if child.returncode == 0:
        with open(files["speed"]) as fh:
            nominal = speed.Totals.from_dict(json.load(fh)).nominal_s(wall)
    return child.returncode, wall, nominal, usage.ru_maxrss / 1024.0


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def fit_checked(ledger, workload, table, mask, seed, sampler, epochs):
    """train() once under ``sampler``, appending the speed.Totals window of
    every epoch but the first."""
    last = [sampler.totals()]

    def progress(epoch, tau, elbo):
        now = sampler.totals()
        if epoch > 0:
            epochs.append(now - last[0])
        last[0] = now

    try:
        state = training.train(table, mask, workload.config(seed), progress=progress)
    except training.TrainingError as exc:
        ledger.record(f"fit seed={seed}", [str(exc)])
        return None
    elbos = [v for _, _, v in state.training_log]
    problems = []
    if len(elbos) != workload.fit_epochs or not all(math.isfinite(v) for v in elbos):
        problems.append("training log is incomplete or not finite")
    ledger.record(f"fit seed={seed}", problems)
    return state


def check_output(files, mask):
    """Problems with one CLI output; returns (problems, completed cell grid)."""
    with open(files["data"], newline="") as fh:
        given = np.array(list(csv.reader(fh)), dtype=str)
    with open(files["out"], newline="") as fh:
        got = np.array(list(csv.reader(fh)), dtype=str)
    if got.shape != given.shape:
        return [f"completed CSV has shape {got.shape}, input {given.shape}"], None
    missing = ~mask.observed
    problems = []
    if not np.array_equal(got[mask.observed], given[mask.observed]):
        problems.append("observed cells differ from the input")
    if (got[missing] == "").any():
        problems.append("masked cells left empty")
    with open(str(files["out"]) + ".fills.json") as fh:
        fills = json.load(fh)
    hits = np.zeros(got.shape, dtype=int)
    differ = 0
    for rec in fills:
        r, c = rec["row"], rec["col"]
        if not (0 <= r < got.shape[0] and 0 <= c < got.shape[1]):
            differ += 1
            continue
        hits[r, c] += 1
        differ += got[r, c] == "" or float(got[r, c]) != rec["value"]
    if differ:
        problems.append(f"{differ} sidecar records do not match a CSV cell")
    if not np.array_equal(hits, missing):
        problems.append("sidecar does not hold exactly one record per masked cell")
    if problems:
        return problems, None
    return [], got.astype(np.float64)


def closed_loop(deadline, at_least):
    """Yield 0, 1, ...: at least ``at_least`` times, then while the next
    operation, taking as long as the shortest so far, still ends by the deadline."""
    i, shortest = 0, math.inf
    while i < at_least or perf_counter() + shortest <= deadline:
        t0 = perf_counter()
        yield i
        i, shortest = i + 1, min(shortest, perf_counter() - t0)


def impute_runs(ledger, files, mask, loop, trace_out=None):
    """Run the CLI once per step of ``loop``; check every output.

    The first output is checked cell by cell; each later one must have the
    same sha256 as the first.  Returns (wall times, nominal times of the
    runs that exited with 0, peak RSS, digests, completed grid).
    """
    walls, nominal, rss, digests, completed = [], [], [], None, None
    args = [
        "impute", "--model", str(files["model"]), "--data", str(files["data"]),
        "--types", str(files["types"]), "--method", "map", "--out", str(files["out"]),
    ]
    argv = [sys.executable, str(HERE / "cli_child.py"), str(files["speed"]),
            "-" if trace_out is None else str(trace_out), *args]
    for _ in loop:
        status, wall, nominal_s, peak = run_child(argv, files)
        what = f"cli run {len(walls) + 1}"
        walls.append(wall)
        rss.append(peak)
        if status != 0:
            log = Path(files["log"]).read_text(errors="replace").strip()
            ledger.record(what, [f"exit status {status}: {log[-300:]}"])
            continue
        nominal.append(nominal_s)
        run_digests = (sha256(files["out"]), sha256(str(files["out"]) + ".fills.json"))
        if digests is None:
            problems, completed = check_output(files, mask)
            if not problems:
                digests = run_digests
            ledger.record(what, problems)
        else:
            ledger.record(what, [] if run_digests == digests else ["output differs from run 1"])
    return walls, nominal, rss, digests, completed


def setup_probes(ledger, files):
    """(wall times, nominal times) of the successful set-up probes."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(files["speed"]),
            str(files["types"]), str(files["model"])]
    walls, nominal = [], []
    for i in range(SETUP_PROBES):
        status, wall, nominal_s, _ = run_child(argv, files)
        if ledger.record(f"setup probe {i + 1}", [] if status == 0 else [f"exit status {status}"]):
            walls.append(wall)
            nominal.append(nominal_s)
    return walls, nominal


def avg_err(table, mask, cells):
    imputed = T.HeterogeneousTable(table.schema, cells)
    return B.score_imputation(table, imputed, mask, method="hivae_map", fraction=0.2).avg_err


def quality(ledger, workload, table, mask, completed):
    """(map avg_err, mean_mode avg_err); MAP must beat mean/mode where checked."""
    map_err = avg_err(table, mask, completed)
    mm_err = avg_err(table, mask, B.mean_mode_impute(table, mask).completed.cells)
    if workload.check_quality:
        ledger.record(
            "quality check",
            [] if map_err < mm_err else [f"hivae_map {map_err:.4f} >= mean_mode {mm_err:.4f}"],
        )
    return map_err, mm_err


def prepare(workload, seed, work):
    table, mask = W.make_inputs(workload, seed)
    files = {
        "data": work / "data.csv", "types": work / "types.csv", "model": work / "model.json",
        "out": work / "completed.csv", "log": work / "child.log", "trace": work / "trace.json",
        "speed": work / "speed.json",
    }
    T.write_table(table, files["data"], mask)
    W.write_types(table.schema, files["types"])
    return table, mask, files


def rate(rows, times):
    return rows / statistics.median(times)


def measure(workload, seed, seconds, work):
    """The timed run: end-to-end metrics."""
    ledger = Ledger()
    table, mask, files = prepare(workload, seed, work)
    fit_table, fit_mask = W.fit_inputs(workload, table, mask)
    epochs, model = [], None
    start = perf_counter()
    with speed.Sampler() as sampler:
        for i in closed_loop(start + seconds / 3, 1):
            state = fit_checked(ledger, workload, fit_table, fit_mask,
                                W.derived_seed(seed, 2, i), sampler, epochs)
            if i == 0:
                model = state
    if model is None:
        raise SystemExit(f"perfbench: the first fit failed: {ledger.failures}")
    training.save_model(model, files["model"])

    walls, cli_s, rss, digests, completed = impute_runs(
        ledger, files, mask, closed_loop(start + seconds, MIN_CLI_RUNS))
    if completed is None:
        raise SystemExit(f"perfbench: no CLI run produced a correct output: {ledger.failures}")
    map_err, mm_err = quality(ledger, workload, table, mask, completed)
    setup_walls, setup = setup_probes(ledger, files)

    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "train_rows_per_s": (rate(workload.fit_rows, [e.nominal_s() for e in epochs]), "rows/s"),
        "impute_rows_per_s": (rate(workload.rows, cli_s), "rows/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "map_avg_err": (map_err, "unitless"),
    }
    notes = [
        f"epochs_timed={len(epochs)} cli_runs={len(walls)} setup_probes={len(setup)}",
        f"wall_clock setup_s={statistics.median(setup_walls):.6g} "
        f"train_rows_per_s={rate(workload.fit_rows, [e.t for e in epochs]):.6g} "
        f"impute_rows_per_s={rate(workload.rows, walls):.6g}",
        f"mean_mode_avg_err={mm_err:.6f}",
        f"sha256 completed={digests[0]} sidecar={digests[1]}",
    ]
    return ledger, metrics, notes


def measure_traced(workload, seed, work):
    """The traced run: per-layer metrics and the tracing overhead."""
    ledger = Ledger()
    table, mask, files = prepare(workload, seed, work)
    fit_table, fit_mask = W.fit_inputs(workload, table, mask)
    fit_seed = W.derived_seed(seed, 2, 0)

    fit_tracer = tracing.Tracer()
    with speed.Sampler() as sampler:
        t0 = sampler.totals()
        plain = fit_checked(ledger, workload, fit_table, fit_mask, fit_seed, sampler, [])
        t1 = sampler.totals()
        with tracing.installed(fit_tracer):
            traced = fit_checked(ledger, workload, fit_table, fit_mask, fit_seed, sampler, [])
        t2 = sampler.totals()
    if plain is None or traced is None:
        raise SystemExit(f"perfbench: a fit failed: {ledger.failures}")
    fit_plain_s, fit_traced_s = (t1 - t0).nominal_s(), (t2 - t1).nominal_s()
    steps = workload.fit_epochs * math.ceil(workload.fit_rows / workload.batch_size)
    problems = []
    if traced.training_log != plain.training_log:
        problems.append("traced training differs from untraced")
    if fit_tracer.calls[tracing.STEP] != steps:
        problems.append(f"traced {fit_tracer.calls[tracing.STEP]} steps, expected {steps}")
    ledger.record("trace check", problems)

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        training.save_model(traced, files["model"])
    cli_ratios = []
    for _ in range(CLI_TRACE_PAIRS):
        _, cli_plain, _, _, _ = impute_runs(ledger, files, mask, range(1))
        _, cli_traced, _, _, completed = impute_runs(
            ledger, files, mask, range(1), trace_out=files["trace"])
        if completed is None or not cli_plain:
            raise SystemExit(f"perfbench: a CLI run failed: {ledger.failures}")
        cli_ratios.append(cli_traced[0] / cli_plain[0])
    with open(files["trace"]) as fh:
        tracer.merge(json.load(fh))
    with tracing.installed(tracer):
        quality(ledger, workload, table, mask, completed)

    metrics = {
        **tracing.per_step_metrics(fit_tracer),
        **tracing.pipeline_metrics(tracer),
        "trace.fit_overhead_ratio": (fit_traced_s / fit_plain_s, "ratio"),
        "trace.cli_overhead_ratio": (statistics.median(cli_ratios), "ratio"),
    }
    notes = [f"steps_traced={steps} fit_untraced_nominal_s={fit_plain_s:.3f} "
             f"cli_untraced_nominal_s={cli_plain[0]:.3f} cli_pairs={CLI_TRACE_PAIRS}"]
    missing = sorted(set(tracing.TARGETS) - set(tracing.originals()))
    if missing:
        notes.append(f"not defined by the package, reported as 0: {' '.join(missing)}")
    return ledger, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = W.WORKLOADS[args.workload]

    work = WORK / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            ledger, metrics, notes = measure_traced(workload, args.seed, work)
        else:
            ledger, metrics, notes = measure(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload={workload.name} seed={args.seed} trace={args.trace} {environment()}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_rate = {ledger.failed / ledger.attempted:.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} operations)")
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
