"""The runtime needs numpy alone: the CLI runs with scipy unimportable, and the
numpy stand-ins for scipy's special functions agree with scipy within the
bounds stated here.  scipy itself is only the tests' oracle."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
from scipy.special import expit, gammaln

import hivae
from hivae import benchmark as B
from hivae.compute import logistic
from hivae.kinds import log_factorial
from hivae.tabular import write_table

LOGISTIC_ULPS = 8  # observed: <= 4 ulp apart in ~1.7% of entries, 3-4 ulp only near x ~ -37
LOG_FACTORIAL_RTOL = 2e-15  # observed for k = 0..200000: <= 6.7e-16 relative, 9.3e-10 absolute


def run_python(code, *args):
    env = dict(os.environ)
    src = str(Path(hivae.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_importing_the_cli_loads_no_scipy():
    done = run_python("import sys, hivae.cli; print(sorted(m for m in sys.modules "
                      "if m.split('.')[0] == 'scipy'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


CLI_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # importing scipy or any of its modules now raises ImportError
from hivae.cli import main

data, types, model, out = sys.argv[1:]
io = ["--data", data, "--types", types]
assert main(["train", *io, "--out", model, "--epochs", "2", "--batch", "30"]) == 0
assert main(["impute", "--model", model, *io, "--method", "map", "--out", out + ".map.csv"]) == 0
assert main(["impute", "--model", model, *io, "--method", "sample", "--seed", "3",
             "--out", out + ".sample.csv"]) == 0
"""


def test_train_and_impute_run_without_scipy(tmp_path):
    table = B.synthetic_table(60, seed=8)  # every kind: real, pos, count, cat, ordinal
    write_table(table, tmp_path / "data.csv", B.generate_mcar_mask(table, 0.2, seed=9))
    (tmp_path / "types.csv").write_text("".join(
        f"{c.name},{c.kind}" + (f",{c.cardinality}\n" if c.is_nominal else "\n")
        for c in table.schema.columns))
    done = run_python(CLI_WITHOUT_SCIPY, str(tmp_path / "data.csv"), str(tmp_path / "types.csv"),
                      str(tmp_path / "model.json"), str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    for name in ("model.json", "out.map.csv.fills.json", "out.sample.csv.fills.json"):
        assert (tmp_path / name).stat().st_size > 0


def ulp_distance(a, b):
    """Units in the last place between same-signed finite floats (or zeros)."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_logistic_matches_expit_within_the_ulp_bound():
    tiny = np.geomspace(5e-324, 1e-300, 2001)  # subnormal and near-subnormal inputs
    x = np.concatenate([
        np.linspace(-800.0, 800.0, 400_001),
        np.linspace(-745.2, -708.0, 20_001),  # outputs in the subnormal range, then exactly 0
        np.random.default_rng(0).standard_normal(200_000),
        tiny, -tiny, [-np.inf, np.inf, 0.0, -0.0],
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e^-x overflowing below -709.78 stays silent
        got = logistic(x)
    want = expit(x)
    assert ulp_distance(got, want).max() <= LOGISTIC_ULPS
    assert got[x < -745.2].tolist() == want[x < -745.2].tolist()  # both exactly 0
    assert ((got > 0) & (got < np.finfo(float).tiny)).any()  # the subnormal range was reached
    assert logistic(np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]


def test_log_factorial_matches_gammaln_within_the_relative_bound():
    k = np.arange(200_001, dtype=np.float64)
    got = log_factorial(k)
    np.testing.assert_allclose(got, gammaln(k + 1.0), rtol=LOG_FACTORIAL_RTOL, atol=0.0)
    assert got[:2].tolist() == [0.0, 0.0]


def test_log_factorial_keeps_the_block_shape():
    x = np.random.default_rng(1).poisson(4.0, (50, 3)).astype(np.float64)
    got = log_factorial(x)
    assert got.shape == x.shape
    assert got.tolist() == [[math.lgamma(v + 1.0) for v in row] for row in x.tolist()]
