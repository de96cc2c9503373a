"""Tooling that reaches into the package by name."""

import ast
import json
import math
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


def _run_workload(name, seed, tmp_path, monkeypatch):
    """One CLI run of a benchmark workload's input at `seed`, written by
    perfbench's own writer; returns the report and the problems that
    perfbench's check finds in it against the variant's pinned outputs."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import WORKLOADS, check_report, load_pinned, write_inputs

    assert set(WORKLOADS) == set(_BENCH_WORKLOADS)
    w = WORKLOADS[name]
    inputs = write_inputs(w, seed, tmp_path)
    pinned = load_pinned()[name][str(inputs["variant"])]
    assert inputs["sha256"] == pinned["sha256"]
    proc = subprocess.run(
        [sys.executable, "-m", "mivest.cli", *inputs["args"], "--out", str(tmp_path / "r.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env=dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                 MKL_NUM_THREADS="1"),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
    return report, check_report(w, report, pinned)


@pytest.mark.parametrize("name", _BENCH_WORKLOADS)
def test_benchmark_workload_matches_its_pinned_outputs(name, tmp_path, monkeypatch):
    # one run of input variant 0 per workload, checked as perfbench checks
    # every invocation: point estimates within PIN_TOL of pinned.json, plus
    # the oracle checks, so a drift past the pins fails here first
    _, problems = _run_workload(name, 0, tmp_path, monkeypatch)
    assert problems == []


def test_dual_mean_benchmark_input_fits_converge(tmp_path, monkeypatch):
    # input variant 7 has two per-level logistic fits of about 10 000 rows
    # whose last steps gain less than the likelihood sum's rounding, so a
    # likelihood comparison cannot order them; the step-size stop converges
    report, problems = _run_workload("estimate-dual-mean", 7, tmp_path, monkeypatch)
    assert problems == []
    for key in ("missing_mean", "population_mean"):
        assert report["results"][key]["diagnostics"]["nonconverged_fits"] == 0


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


def test_survey_script_output_validates_and_estimates(tmp_path):
    # the README's survey-shaped example: the script's CSV and config are
    # ready for validate and estimate as written
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    csv, config, out = (str(tmp_path / name) for name in ("s.csv", "s.yaml", "r.json"))

    def run(*argv):
        proc = subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    run(str(ROOT / "scripts" / "make_survey_csv.py"), "--n", "2000", "--csv", csv,
        "--config", config)
    run("-m", "mivest.cli", "validate", "--config", config, "--data", csv)
    run("-m", "mivest.cli", "estimate", "--config", config, "--data", csv, "--reps", "1",
        "--out", out)
    report = json.loads(Path(out).read_text(encoding="utf-8"))
    assert math.isfinite(report["results"]["missing_mean"]["estimate"])


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


def test_benchmark_tracer_sees_the_quantile_grid_pass(tmp_path, monkeypatch):
    # `estimate` roots both quantile reports through the CLI's
    # solve_functional binding, which the tracer wraps, so the grid pass's
    # psi-free fits land under that one span
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import WORKLOADS, write_inputs

    inputs = write_inputs(WORKLOADS["estimate-dual-quantile"], 0, tmp_path, scale=0.02)
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/trace_child.py", str(spans_path), "--", *inputs["args"]],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text())["spans"]
    solves = [i for i, (name, *_) in enumerate(spans) if name == "general.solve_functional"]
    assert len(solves) == 1
    fit_parents = {parent for name, _, _, parent, _ in spans if name.startswith("learners.fit_")}
    assert fit_parents == set(solves)


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


def test_readme_config_and_commands_parse():
    # the README's config block is a valid document, and each `mivest ...`
    # line of its command blocks parses with the CLI's own parser
    import yaml

    from mivest.cli import _build_parser
    from mivest.dataio import config_from_dict

    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", text, flags=re.S | re.M)
    configs = [body for lang, body in blocks if lang == "yaml"]
    assert configs
    for block in configs:
        config_from_dict(yaml.safe_load(block))
    commands = [line.split()[1:] for lang, body in blocks if not lang
                for line in body.splitlines() if line.startswith("mivest ")]
    assert len(commands) >= 7
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv)


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


def test_only_the_simulation_module_names_a_family():
    # a family is one entry of simulation._LAWS; every other module reads
    # it from there, so a family branch elsewhere fails here
    family = re.compile(r"FAMILY_SINGLE|FAMILY_DUAL|_binary_iv")
    hits = [f"{path.name}:{i}: {line.strip()}"
            for path in sorted((ROOT / "src" / "mivest").glob("*.py"))
            if path.name != "simulation.py"
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if family.search(line)]
    assert hits == []


# Held only by the benchmark tracer (perfbench/trace_child.py), which wraps
# them by name; they go when the library carries its own spans (ROADMAP
# item 18).  "binary.py" is a module that defines nothing.
_TRACER_HELD = {
    "binary.py",                            # ROADMAP item 18
    "crossfit.crossfit_population_mean",    # ROADMAP item 18
    "nuisance.fit_mu_component",            # ROADMAP item 18
}


def _module_definitions(tree):
    """The names a module binds at top level: functions, classes and
    assigned names, dunders left out."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def test_every_library_definition_has_a_caller():
    # a module-level definition counts as used when the library (the CLI
    # included) or scripts/ reads its name, or mivest.__all__ exports it;
    # an import alone, the tests and the benchmark do not count.  Methods
    # are not scanned, so an override such as _Parser.error needs no caller
    import mivest

    used = set(mivest.__all__)
    modules = {}
    for path in sorted((ROOT / "src" / "mivest").glob("*.py")) + sorted(
            (ROOT / "scripts").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        if path.parent.name == "mivest":
            modules[path.name] = _module_definitions(tree)
    # __init__.py binds only __all__: it is the package's export list
    found = {name for name, defs in modules.items() if not defs and name != "__init__.py"}
    found |= {f"{name[:-3]}.{d}" for name, defs in modules.items() for d in defs
              if d not in used}
    assert found - _TRACER_HELD == set(), "no caller"
    assert _TRACER_HELD - found == set(), "in use again, or gone: drop it from the allowlist"
