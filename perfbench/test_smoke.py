"""Smoke test of the benchmark at tiny sizes; it has no timing gates.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload runs in both modes, that the result line names
every metric of BENCHMARK.json with its unit, that the detail line records
the machine facts, and that the benchmark refuses to run without the program.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--scale", "0.02"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == PER_LAYER
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_reports_every_metric(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())

    detail = json.loads(lines[-2])["detail"]
    machine = detail["machine"]
    for key in ("nproc", "python", "numpy", "scipy", "blas", "pinned_env"):
        assert machine[key], key
    assert set(machine["pinned_env"].values()) == {"1"}
    assert detail["failed_share"] == 0.0 and detail["samples"] >= 1
    assert detail["inputs_sha256"]["config.yaml"]
    for name, _ in expected:
        assert name in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "estimate-dual-mean", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
