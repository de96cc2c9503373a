"""Tooling that reaches into the package by name."""

import json
import os
import re
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


_BENCH_WORKLOADS = ("estimate-dual-mean", "estimate-single-mean", "estimate-dual-quantile",
                    "simulate-dual")


@pytest.mark.parametrize("name", _BENCH_WORKLOADS)
def test_benchmark_workload_matches_its_pinned_outputs(name, tmp_path, monkeypatch):
    # one run of input variant 0 per workload, checked as perfbench checks
    # every invocation: point estimates within PIN_TOL of pinned.json, plus
    # the oracle checks, so a drift past the pins fails here first
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import WORKLOADS, check_report, load_pinned, write_inputs

    assert set(WORKLOADS) == set(_BENCH_WORKLOADS)
    w = WORKLOADS[name]
    pinned = load_pinned()[name]["0"]
    inputs = write_inputs(w, 0, tmp_path)
    assert inputs["sha256"] == pinned["sha256"]
    proc = subprocess.run(
        [sys.executable, "-m", "mivest.cli", *inputs["args"], "--out", str(tmp_path / "r.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env=dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                 MKL_NUM_THREADS="1"),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
    assert check_report(w, report, pinned) == []


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


@pytest.mark.parametrize("study", sorted(p.name for p in (ROOT / "studies").glob("*.yaml")))
def test_study_configs_run(study, tmp_path):
    # the committed study configs are run as the README lists them, so a
    # renamed config key or family fails here
    from mivest.cli import main
    from mivest.dataio import load_config
    from mivest.simulation import FAMILIES

    path = str(ROOT / "studies" / study)
    assert load_config(path).simulation.family in FAMILIES
    assert main(["robustness", "--config", path, "--n", "5000",
                 "--out", str(tmp_path / "r.json")]) == 0


# Imports the CLI, runs estimate (mean and quantile, L = 4, then the mean
# winsorized) and a small winsorized simulate in one process, then fails if
# any scipy, numpy.ma or numpy.char module was loaded.  argv[1] is a scratch
# directory.
_NO_SCIPY_RUN = """
import json, sys
from pathlib import Path

import pytest
import mivest.cli
from mivest.dataio import write_table_csv
from mivest.simulation import DGPSpec, generate

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def masked_or_char_modules():
    return sorted(m for m in sys.modules if m.split(".")[:2] in (["numpy", "ma"],
                                                                 ["numpy", "char"]))

assert not scipy_modules(), scipy_modules()
assert not masked_or_char_modules(), masked_or_char_modules()
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
assert not masked_or_char_modules(), masked_or_char_modules()
doc["functional"] = {"kind": "mean"}
doc["estimation"]["winsorize"] = 5
(work / "winsorized.yaml").write_text(json.dumps(doc))
argv = ["estimate", "--config", str(work / "winsorized.yaml"), "--data", str(work / "d.csv")]
assert mivest.cli.main(argv) == 0
assert not masked_or_char_modules(), masked_or_char_modules()
assert mivest.cli.main(["simulate", "--config", str(work / "winsorized.yaml")]) == 0
assert not masked_or_char_modules(), masked_or_char_modules()
assert not scipy_modules(), scipy_modules()
"""


def test_cli_runs_without_loading_scipy(tmp_path):
    # importing scipy.special costs about as much as a small estimate; only
    # the single-family closed-form oracles (robustness) need it, and they
    # import it where they call it.  numpy.ma (about 17 ms of CPU) and
    # numpy.char stay unloaded by the estimates, winsorized or not, and by
    # the winsorized simulate
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN, str(tmp_path)], cwd=ROOT,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_sees_the_fold_loop_of_a_mean_estimate(tmp_path):
    # `estimate` reaches the fold loop through the CLI's crossfit_beta
    # binding, which the tracer wraps, so the fold time lands in that span
    from mivest.dataio import write_table_csv
    from mivest.simulation import DGPSpec, generate

    table, _ = generate(DGPSpec(family="single_binary_iv", n=600, seed=3))
    write_table_csv(table, tmp_path / "d.csv", covariate_names=["x1", "x2"])
    doc = {"format": "mivest-config/1",
           "data": {"outcome": "y", "response": "r", "instruments": ["z"],
                    "covariates": ["x1", "x2"]},
           "functional": {"kind": "mean"},
           "estimation": {"folds": 3, "repetitions": 1, "seed": 1}}
    (tmp_path / "c.yaml").write_text(json.dumps(doc))
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/trace_child.py", str(spans_path), "--",
         "estimate", "--config", str(tmp_path / "c.yaml"), "--data", str(tmp_path / "d.csv")],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text())["spans"]
    folds = [end - start for name, start, end, _, _ in spans
             if name == "crossfit.crossfit_beta"]
    assert len(folds) == 1 and folds[0] > 0


def test_readme_quickstart_runs(tmp_path):
    # the README's Python blocks are the documented library entry points
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert blocks
    for block in blocks:
        proc = subprocess.run(
            [sys.executable, "-c", block], cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr


def test_committed_bench_records_share_one_shape():
    # every BENCH_*.json records the change, the harness and the machine,
    # and per workload the parent's and the change's result lines of the
    # alternating pairs, the seed and a summary of each end-to-end metric;
    # it names only workloads and metrics that BENCHMARK.json declares
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"]}
    summary_keys = {f"{side}_{stat}" for side in ("parent", "change")
                    for stat in ("median", "q1", "q3")} | {"change_better_pairs"}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert {"change", "harness", "machine", "end_to_end"} <= set(doc), path.name
        assert doc["end_to_end"] and set(doc["end_to_end"]) <= workloads, path.name
        assert set(doc.get("trace", {})) <= workloads, path.name
        for name, entry in doc["end_to_end"].items():
            where = f"{path.name}: {name}"
            assert {"parent", "change", "pairs", "seed", "summary"} <= set(entry), where
            assert len(entry["parent"]) == len(entry["change"]) == entry["pairs"] > 0, where
            assert isinstance(entry["seed"], int), where
            for run in entry["parent"] + entry["change"]:
                assert set(run["metrics"]) == metrics, where
            assert set(entry["summary"]) == metrics, where
            for stats in entry["summary"].values():
                assert set(stats) == summary_keys, where
                assert 0 <= stats["change_better_pairs"] <= entry["pairs"], where
