"""Outside-in tracing of hivae's layers, for the traced benchmark run only.

``installed(tracer)`` replaces each traced public function with a timing
wrapper at every place it is looked up: the module that defines it and every
hivae module that imported it by name (``from .tabular import encode_inputs``
binds a second reference that patching ``tabular`` alone would miss).  The
wrappers keep, per span name, the call count, the inclusive time and the self
time (inclusive minus the time of traced calls made inside it).  Garbage
collector pauses are taken from ``gc.callbacks``.  Nothing is patched outside
the ``with`` block, so the timed runs execute the program untouched.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

OPS = (
    "add", "sub", "mul", "div", "matmul", "tsum", "exp", "log", "softplus",
    "sigmoid", "relu", "clip", "concat", "narrow", "cumsum",
)

# span name -> (defining module, function name)
TARGETS = {
    **{f"compute.{op}": ("hivae.compute", op) for op in OPS},
    "compute.backward": ("hivae.compute", "backward"),
    "compute.adam_step": ("hivae.compute", "adam_step"),
    "compute.sample_gumbel_softmax": ("hivae.compute", "sample_gumbel_softmax"),
    "compute.sample_gaussian_reparam": ("hivae.compute", "sample_gaussian_reparam"),
    "tabular.fit_normalization": ("hivae.tabular", "fit_normalization"),
    "tabular.encode_inputs": ("hivae.tabular", "encode_inputs"),
    "tabular.load_dataset": ("hivae.tabular", "load_dataset"),
    "tabular.write_table": ("hivae.tabular", "write_table"),
    "recognition.encode": ("hivae.recognition", "encode"),
    "recognition.z_params": ("hivae.recognition", "z_params"),
    "recognition.map_latent": ("hivae.recognition", "map_latent"),
    "generative.decode": ("hivae.generative", "decode"),
    "generative.log_likelihood": ("hivae.generative", "log_likelihood"),
    "generative.mode": ("hivae.generative", "mode"),
    "generative.params_summary": ("hivae.generative", "params_summary"),
    "training.elbo_batch": ("hivae.training", "elbo_batch"),
    "training.gaussian_kl": ("hivae.training", "gaussian_kl"),
    "training.categorical_kl": ("hivae.training", "categorical_kl"),
    "training.load_model": ("hivae.training", "load_model"),
    "training.save_model": ("hivae.training", "save_model"),
    "imputation.impute_map": ("hivae.imputation", "impute_map"),
    "cli.impute": ("hivae.cli", "cmd_impute"),
    "benchmark.score_imputation": ("hivae.benchmark", "score_imputation"),
    "benchmark.mean_mode_impute": ("hivae.benchmark", "mean_mode_impute"),
}

STEP = "compute.adam_step"  # one call per optimizer step


class Tracer:
    """Per-span-name call counts, inclusive and self times, and GC pauses."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.gc_collections = 0
        self.gc_pause = 0.0
        self._open = []  # time spent in traced children, one entry per open span
        self._gc_start = 0.0

    def wrap(self, name, fn):
        open_spans, calls, total, self_time = self._open, self.calls, self.total, self.self_time

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                calls[name] += 1
                total[name] += dt
                self_time[name] += dt - inner

        return functools.update_wrapper(traced, fn)

    def on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_pause += perf_counter() - self._gc_start
            self.gc_collections += 1

    def to_dict(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self_time": dict(self.self_time),
            "gc_collections": self.gc_collections,
            "gc_pause": self.gc_pause,
        }

    def merge(self, doc: dict) -> None:
        """Add the counts of another tracer's ``to_dict`` (e.g. a child process)."""
        for key in ("calls", "total", "self_time"):
            mine = getattr(self, key)
            for name, value in doc[key].items():
                mine[name] += value
        self.gc_collections += doc["gc_collections"]
        self.gc_pause += doc["gc_pause"]


def originals() -> dict:
    """span name -> the untraced function object, for every target that exists.

    A target the package no longer defines is left out, and its metrics read 0.
    """
    found = {
        name: getattr(importlib.import_module(mod), attr, None)
        for name, (mod, attr) in TARGETS.items()
    }
    return {name: fn for name, fn in found.items() if fn is not None}


def lookup_sites(originals_by_name: dict) -> list[tuple[object, str, str]]:
    """(module, attribute, span name) for every hivae global bound to a target."""
    by_id = {id(fn): name for name, fn in originals_by_name.items()}
    sites = []
    modules = [m for n, m in sorted(sys.modules.items()) if n == "hivae" or n.startswith("hivae.")]
    for module in modules:
        for attr, value in vars(module).items():
            if id(value) in by_id:
                sites.append((module, attr, by_id[id(value)]))
    return sites


@contextmanager
def installed(tracer: Tracer):
    """Trace every target at every lookup site for the duration of the block."""
    importlib.import_module("hivae.cli")  # not imported by the package itself
    funcs = originals()
    wrappers = {name: tracer.wrap(name, fn) for name, fn in funcs.items()}
    sites = lookup_sites(funcs)
    for module, attr, name in sites:
        setattr(module, attr, wrappers[name])
    gc.callbacks.append(tracer.on_gc)
    try:
        yield tracer
    finally:
        gc.callbacks.remove(tracer.on_gc)
        for module, attr, name in sites:
            setattr(module, attr, funcs[name])


def per_step_metrics(tracer: Tracer) -> dict:
    """Metrics of the training phase, divided by the number of optimizer steps."""
    steps = tracer.calls[STEP]
    if steps == 0:
        raise ValueError("traced training phase made no optimizer step")
    calls = {op: tracer.calls[f"compute.{op}"] for op in OPS}
    out = {
        "compute.ops_per_step": (sum(calls.values()) / steps, "count"),
        **{f"compute.{op}.calls_per_step": (n / steps, "count") for op, n in calls.items()},
        "compute.ops.fwd_s_per_step": (
            sum(tracer.total[f"compute.{op}"] for op in OPS) / steps, "s"),
        "gc.pause_s_per_step": (tracer.gc_pause / steps, "s"),
        "gc.collections_per_step": (tracer.gc_collections / steps, "count"),
        "recognition.z_params.calls_per_step": (
            tracer.calls["recognition.z_params"] / steps, "count"),
        "generative.log_likelihood.calls_per_step": (
            tracer.calls["generative.log_likelihood"] / steps, "count"),
    }
    for name in (
        "compute.backward", "compute.adam_step", "compute.sample_gumbel_softmax",
        "compute.sample_gaussian_reparam", "tabular.fit_normalization",
        "tabular.encode_inputs", "recognition.encode", "generative.decode",
        "generative.log_likelihood", "training.elbo_batch", "training.gaussian_kl",
        "training.categorical_kl",
    ):
        out[f"{name}.s_per_step"] = (tracer.total[name] / steps, "s")
    return out


def pipeline_metrics(tracer: Tracer) -> dict:
    """Whole-call metrics of the save / impute / score phase."""
    out = {
        f"{name}.s": (tracer.total[name], "s")
        for name in (
            "tabular.load_dataset", "tabular.write_table", "recognition.map_latent",
            "generative.mode", "generative.params_summary", "training.load_model",
            "training.save_model", "imputation.impute_map",
            "benchmark.score_imputation", "benchmark.mean_mode_impute",
        )
    }
    out["generative.params_summary.calls"] = (tracer.calls["generative.params_summary"], "count")
    out["cli.impute.self_s"] = (tracer.self_time["cli.impute"], "s")
    return out
