#!/usr/bin/env python3
"""mivest benchmark: runs the ``mivest`` CLI as a child process on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the CLI runs as ``python -m mivest.cli`` with
the checkout's ``src`` on PYTHONPATH.  A closed loop of one client: one
invocation at a time, ``--threads 1``, BLAS pinned to one thread.

--trace 0 repeats the untraced command until S seconds have passed and
reports the end-to-end metrics, medians over the invocations: the CLI child's
wall and CPU time (from that child's own rusage), its peak RSS, and the
wall time of a child that only imports ``mivest.cli``.  The times are given
at a fixed reference speed (see REFERENCE_S); the measured ones are printed
beside them.

--trace 1 alternates an untraced and a traced invocation until S seconds have
passed.  The traced one (trace_child.py) wraps each layer's public calls and
gives per-layer self time, call and iteration counts; its report must be
byte-identical to the untraced one.

Every report is checked (workloads.check_report).  The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
The benchmark exits non-zero, printing no result, when the program is absent.
"""

import os

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)    # before numpy is imported, here and in every child

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from workloads import VARIANTS, WORKLOADS, check_report, load_pinned, write_inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 5   # set-up children per run, two after each untraced invocation
CHILD_DEADLINE_S = 165.0    # every child is killed past this point of the run

# A fixed numpy and Python loop that does not use mivest, shaped like the
# fits (weighted Gram products, exp, log1p-exp), timed inside its own child
# after its imports.  The host's speed drifts by tens of percent over tens of
# seconds, so every time in the end-to-end metrics is reported at a fixed
# reference speed: multiplied by REFERENCE_S over this loop's time measured
# just before and just after it.
REFERENCE_S = 0.6
REFERENCE_TASK = """
import time
import numpy as np
F = np.random.default_rng(0).standard_normal((40000, 9))
t0, c0 = time.perf_counter(), time.process_time()
for _ in range(150):
    w = 1.0 / (1.0 + np.exp(-F[:, 1]))
    G = (F * w[:, None]).T @ F
    s = np.logaddexp(0.0, F[:, 2]).sum()
acc = 0.0
for i in range(600000):
    acc += i * 0.5
print(time.perf_counter() - t0, time.process_time() - c0)
"""

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]


def _layer_metrics() -> list[tuple[str, str]]:
    out = [("cli.self_s", "s"), ("dataio.ingest_csv.self_s", "s"),
           ("dataio.write_report.self_s", "s"), ("crossfit.crossfit_beta.self_s", "s"),
           ("crossfit.crossfit_population_mean.self_s", "s")]
    for span in ("nuisance.fit_nuisance_set", "nuisance.fit_mu_component",
                 "nuisance.evaluate_nuisances"):
        out += [(f"{span}.self_s", "s"), (f"{span}.calls", "count")]
    for span in ("learners.fit_multinomial", "learners.fit_logistic"):
        out += [(f"{span}.self_s", "s"), (f"{span}.calls", "count"),
                (f"{span}.newton_iters", "count"), (f"{span}.converged_share", "share")]
    out += [("learners.fit_linear.self_s", "s"), ("learners.fit_linear.calls", "count"),
            ("learners.PolyBasis.transform.self_s", "s"),
            ("learners.PolyBasis.transform.calls", "count"),
            ("learners.PolyBasis.transform.rows", "count"),
            ("learners.MultinomialModel.predict_proba.self_s", "s"),
            ("learners.MultinomialModel.predict_proba.calls", "count"),
            ("general.solve_functional.self_s", "s"), ("general.solve_functional.calls", "count"),
            ("simulation.oracle_beta.self_s", "s"), ("simulation.oracle_beta.draws_per_s", "1/s"),
            ("simulation.generate.self_s", "s"), ("simulation.generate.calls", "count"),
            ("simulation.run_monte_carlo.self_s", "s"),
            ("trace.total_s", "s"), ("trace.overhead_s", "s")]
    return out


PER_LAYER = _layer_metrics()


def child_env() -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def run_child(argv: list[str], log: Path, deadline: float) -> dict:
    """Spawn, wait with os.wait4 for this child's own rusage, and time it."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit_code": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}    # ru_maxrss is in KiB on Linux


def machine_facts() -> dict:
    blas = {}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "pyyaml": metadata.version("pyyaml"),
        "blas": blas,
        "pinned_env": PINNED_THREADS,
    }


def span_metrics(spans: list) -> dict[str, float]:
    """Per-layer values from one traced run: self time, calls, counters."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    agg: dict[str, dict] = {}
    for i, (name, start, end, _, counters) in enumerate(spans):
        a = agg.setdefault(name, {"self_s": 0.0, "calls": 0, "total_s": 0.0})
        a["self_s"] += end - start - child[i]
        a["total_s"] += end - start
        a["calls"] += 1
        for k, v in (counters or {}).items():
            a[k] = a.get(k, 0) + v
    out: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        span, _, field = metric.rpartition(".")
        a = agg.get(span, {})
        calls = a.get("calls", 0)
        if field == "converged_share":
            # no calls: nothing failed to converge
            out[metric] = a.get("converged", 0) / calls if calls else 1.0
        elif field == "draws_per_s":
            out[metric] = a["draws"] / a["total_s"] if calls else 0.0
        elif span != "trace":
            out[metric] = float(a.get(field, 0))
    return out


def med(rows: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rows)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink every input size (smoke test); skips the pinned checks")
    opts = ap.parse_args()
    deadline = time.monotonic() + CHILD_DEADLINE_S
    w = WORKLOADS[opts.workload]

    if not (SRC / "mivest" / "cli.py").is_file():
        print(f"error: {SRC / 'mivest' / 'cli.py'} not found; run from a mivest checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    try:
        return measure(w, opts, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(w, opts, work: Path, deadline: float) -> int:
    setup_argv = [sys.executable, "-c", "import mivest.cli"]
    warm = run_child(setup_argv, work / "setup.log", deadline)   # fills __pycache__
    if warm["exit_code"] != 0:
        print(f"error: `import mivest.cli` failed:\n{(work / 'setup.log').read_text()}",
              file=sys.stderr)
        return 2

    inputs = write_inputs(w, opts.seed, work, opts.scale)
    pinned = None
    problems: list[str] = []
    if opts.scale == 1.0:
        pinned = load_pinned().get(w.name, {}).get(str(inputs["variant"]))
        if pinned is None:
            problems.append(f"no pinned values for variant {inputs['variant']}")
        elif pinned["sha256"] != inputs["sha256"]:
            problems.append(f"inputs differ from the pinned inputs: {inputs['sha256']}")

    reports: set[str] = set()
    attempted = failed = 0

    def invoke(argv: list[str], tag: str) -> dict:
        """One checked CLI child; its report's sha256 goes into ``reports``."""
        nonlocal attempted, failed
        run = run_child(argv + ["--out", str(work / f"{tag}.json")], work / f"{tag}.log",
                        deadline)
        mine = []
        if run["exit_code"] != 0:
            mine.append(f"{tag}: exit code {run['exit_code']}: "
                        f"{(work / f'{tag}.log').read_text()[-400:]}")
        try:
            raw = (work / f"{tag}.json").read_bytes()
            mine += check_report(w, json.loads(raw), pinned)
            run["report_sha256"] = hashlib.sha256(raw).hexdigest()
            reports.add(run["report_sha256"])
        except (OSError, ValueError) as e:
            mine.append(f"{tag}: no readable report: {e}")
        attempted += 1
        failed += bool(mine)
        problems.extend(mine)
        return run

    cli = [sys.executable, "-m", "mivest.cli", *inputs["args"]]

    def reference() -> tuple[float, float]:
        """Wall and CPU seconds of the reference loop, timed inside its child."""
        run_child([sys.executable, "-c", REFERENCE_TASK], work / "ref.log", deadline)
        wall, cpu = (float(v) for v in (work / "ref.log").read_text().split())
        return wall, cpu

    def setup() -> dict:
        """One import-only child, its wall time also at the latest reference speed."""
        wall = run_child(setup_argv, work / "setup.log", deadline)["wall_s"]
        return {"wall_s": wall, "ref_wall_s": wall * REFERENCE_S / refs[-1][0]}

    refs = [] if opts.trace else [reference()]
    runs: list[dict] = []
    setups: list[dict] = []
    t0 = time.monotonic()
    while not runs or time.monotonic() - t0 < opts.seconds:
        i = len(runs)
        run = invoke(cli, f"r{i}")
        if opts.trace:
            spans = work / f"t{i}.spans.json"
            traced = invoke([sys.executable, str(BENCH_DIR / "trace_child.py"), str(spans),
                             "--", *inputs["args"]], f"t{i}")
            if traced.get("report_sha256") != run.get("report_sha256"):
                failed += 1
                problems.append(f"t{i}: traced report differs from the untraced report")
            elif traced["exit_code"] == 0:
                run["layers"] = span_metrics(json.loads(spans.read_text())["spans"])
                run["layers"]["trace.total_s"] = traced["wall_s"]
                run["layers"]["trace.overhead_s"] = traced["wall_s"] - run["wall_s"]
        else:
            refs.append(reference())
            for j, key in enumerate(("wall_s", "cpu_s")):
                run[f"ref_{key}"] = run[key] * REFERENCE_S / (0.5 * (refs[-2][j] + refs[-1][j]))
            for _ in range(min(2, SETUP_SAMPLES - len(setups))):
                setups.append(setup())
        runs.append(run)
        if time.monotonic() > deadline:
            problems.append("deadline reached")
            break
    if len(reports) > 1:
        problems.append("the reports of one run are not byte-identical")
    while not opts.trace and len(setups) < SETUP_SAMPLES:
        setups.append(setup())

    if opts.trace:
        layers = [r["layers"] for r in runs if "layers" in r]
        metrics = {name: {"value": statistics.median(t[name] for t in layers) if layers
                          else float("nan"), "unit": unit} for name, unit in PER_LAYER}
        measured = {}
    else:
        values = {"wall_s": med(runs, "ref_wall_s"), "cpu_s": med(runs, "ref_cpu_s"),
                  "peak_rss_mb": med(runs, "peak_rss_mb"), "setup_s": med(setups, "ref_wall_s")}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        measured = {"measured_wall_s": med(runs, "wall_s"), "measured_cpu_s": med(runs, "cpu_s"),
                    "measured_setup_s": med(setups, "wall_s"),
                    "reference_wall_s": statistics.median(r[0] for r in refs)}

    detail = {
        "workload": w.name, "seed": opts.seed, "variant": inputs["variant"],
        "variants": VARIANTS, "scale": opts.scale, "trace": opts.trace,
        "loop": "closed, one client, one invocation at a time, --threads 1",
        "samples": len(runs), "setup_samples": len(setups),
        "failed_share": failed / attempted, "inputs_sha256": inputs["sha256"],
        "machine": machine_facts(), "problems": problems, **measured,
        "invocations": [{k: v for k, v in r.items() if k != "layers"} for r in runs],
        "setups": setups,
    }
    shown = {**{k: (v, "s") for k, v in measured.items()},
             **{k: (m["value"], m["unit"]) for k, m in metrics.items()},
             "failed_share": (failed / attempted, "share")}
    for name, (value, unit) in shown.items():
        print(f"{w.name:<24} {name:<48} {value:>14.6g} {unit}")
    print(f"{w.name:<24} {len(runs)} samples, {failed} of {attempted} invocations failed")
    for p in problems:
        print(f"problem: {p}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
