"""Tooling that reaches into the package by name."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_finds_every_name_it_patches():
    # perfbench/trace_child.py wraps library functions where their callers
    # bind them; a deleted or renamed name makes install() raise.  install()
    # patches modules globally, so it runs in a child process.
    code = ("import sys; sys.path.insert(0, 'perfbench'); "
            "from trace_child import Tracer, install; install(Tracer())")
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
def test_script_help_runs(script):
    # the scripts import public names at the top, so --help fails when one
    # of those names is deleted or renamed
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--help"], cwd=ROOT,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


# Imports the CLI, runs estimate (mean and quantile, L = 4) and a small
# simulate in one process, then fails if any scipy module was loaded.
# argv[1] is a scratch directory.
_NO_SCIPY_RUN = """
import json, sys
from pathlib import Path

import pytest
import mivest.cli
from mivest.dataio import write_table_csv
from mivest.simulation import DGPSpec, generate

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert not scipy_modules(), scipy_modules()
work = Path(sys.argv[1])
table, _ = generate(DGPSpec(family="dual_binary_iv", n=600, seed=3))
write_table_csv(table, work / "d.csv", covariate_names=["x1", "x2"])
doc = {"format": "mivest-config/1",
       "data": {"outcome": "y", "response": "r", "instruments": ["z"],
                "covariates": ["x1", "x2"]},
       "estimation": {"folds": 2, "repetitions": 1, "seed": 1},
       "simulation": {"family": "dual_binary_iv", "n": 300, "replications": 2,
                      "oracle_draws": 20000}}
for kind in ("mean", "quantile"):
    doc["functional"] = {"kind": kind, "q": 0.5} if kind == "quantile" else {"kind": kind}
    (work / f"{kind}.yaml").write_text(json.dumps(doc))
    argv = ["estimate", "--config", str(work / f"{kind}.yaml"), "--data", str(work / "d.csv")]
    assert mivest.cli.main(argv) == 0
assert mivest.cli.main(["simulate", "--config", str(work / "mean.yaml")]) == 0
assert not scipy_modules(), scipy_modules()
"""


def test_cli_runs_without_loading_scipy(tmp_path):
    # importing scipy.special costs about as much as a small estimate; only
    # the single-family closed-form oracles (robustness) need it, and they
    # import it where they call it
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN, str(tmp_path)], cwd=ROOT,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
