"""Workload definitions, the benchmark's own input generator, and output checks.

Inputs are drawn here with numpy, following the family laws stated in the
``mivest.simulation`` docstring, and never with ``mivest.generate``: a change
to the library's draw loops must not change what the benchmark feeds it.
The program receives only the CSV and the YAML written below.

``--seed`` selects one of ``VARIANTS`` input variants (seed modulo
``VARIANTS``).  Every variant has point estimates pinned from the commit
that defined the benchmark (``pinned.json``), so every run can check its
outputs against them, whatever seed it is given.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VARIANTS = 16
CLAMP_EPS = 1e-9          # the library's clamp_to_one_minus_eps cap on P(R = 0)
PIN_TOL = 1e-5            # absolute; reordered float sums move estimates by ~1e-12,
                          # the reported standard errors are ~1e-2
ORACLE_SE_MULT = 4.0      # estimate-*-mean: |missing_mean - oracle| <= 4 SE
MC_SE_MULT = 5.0          # simulate: |oracle - 1.063| <= 5 mc_se + 5e-4 rounding
ORACLE_ROUNDING = 5e-4
ORACLE = {"single": 2.012, "dual": 1.063}   # brute-force values, README
REPORT_FORMAT = "mivest-report/1"
PINNED_PATH = Path(__file__).with_name("pinned.json")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # mivest subcommand
    family: str             # "single" or "dual"
    n: int                  # rows of the CSV (estimate) or per replication (simulate)
    functional: dict
    repetitions: int = 1
    winsorize: float | None = None
    replications: int = 0   # simulate only


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="estimate-dual-mean",
            command="estimate", family="dual", n=50_000,
            functional={"kind": "mean"}, repetitions=3,
        ),
        Workload(
            name="estimate-single-mean",
            command="estimate", family="single", n=100_000,
            functional={"kind": "mean"}, repetitions=1,
        ),
        Workload(
            name="estimate-dual-quantile",
            command="estimate", family="dual", n=20_000,
            functional={"kind": "quantile", "q": 0.5}, repetitions=1,
        ),
        Workload(
            name="simulate-dual",
            command="simulate", family="dual", n=2_000,
            functional={"kind": "mean"}, repetitions=3, winsorize=5.0, replications=20,
        ),
    )
}


def _expit(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def draw_family(family: str, n: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """One table from the single or dual family, clamped as the library does."""
    x1 = rng.uniform(0.0, 1.0, n)
    x2 = rng.uniform(0.0, 1.0, n)
    s = x1 + x2
    if family == "single":
        u = rng.normal(4.0, 0.5, n)
        z = (rng.uniform(size=n) < _expit(-1.0 + s)).astype(np.int64)
        alpha = -s - u / 4.0 + z * (s + 1.0)
        cols = {"z": z}
    else:
        u = rng.uniform(0.0, 1.0, n)
        z1 = (rng.uniform(size=n) < _expit((-1.0 + s) / 4.0)).astype(np.int64)
        z2 = (rng.uniform(size=n) < _expit((x1 - x2) / 4.0)).astype(np.int64)
        alpha = (-8.0 + x1 - x2 - u + z1 * (-1.0 - s) + z2 * (8.0 + x1 - x2)) / 4.0
        cols = {"z1": z1, "z2": z2}
    p_r0 = np.minimum(np.exp(alpha), 1.0 - CLAMP_EPS)
    r = (rng.uniform(size=n) >= p_r0).astype(np.int64)
    y = rng.normal(s * np.exp(u / 6.0), 0.5)
    return {"x1": x1, "x2": x2, **cols, "r": r, "y": y}


def _csv_text(cols: dict[str, np.ndarray]) -> str:
    names = list(cols)
    lists = [cols[c].tolist() for c in names]
    r_idx = names.index("r")
    y_idx = names.index("y")
    lines = [",".join(names)]
    for row in zip(*lists):
        cells = [repr(v) for v in row]
        if row[r_idx] == 0:
            cells[y_idx] = ""          # outcome unobserved for nonrespondents
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _config(w: Workload, variant: int, scale: float) -> dict:
    instruments = ["z"] if w.family == "single" else ["z1", "z2"]
    estimation = {"folds": 5, "repetitions": w.repetitions, "seed": 1000 + variant}
    if w.winsorize is not None:
        estimation["winsorize"] = w.winsorize
    cfg = {
        "format": "mivest-config/1",
        "data": {"outcome": "y", "response": "r", "instruments": instruments,
                 "covariates": ["x1", "x2"], "instrument_mode": "product"},
        "functional": w.functional,
        "estimation": estimation,
    }
    if w.command == "simulate":
        sim = {"family": "single_binary_iv" if w.family == "single" else "dual_binary_iv",
               "n": max(200, int(w.n * scale)),
               "replications": max(2, int(w.replications * scale))}
        if scale < 1.0:
            sim["oracle_draws"] = max(100_000, int(10_000_000 * scale))
        cfg["simulation"] = sim
    return cfg


def write_inputs(w: Workload, seed: int, workdir: Path, scale: float = 1.0) -> dict:
    """Write the workload's input files; returns the variant, CLI arguments and sha256s.

    ``scale`` < 1 shrinks every size for the smoke test; pinned values only
    exist for scale 1.
    """
    variant = seed % VARIANTS
    files: dict[str, Path] = {}
    cfg_path = workdir / "config.yaml"
    # JSON is valid YAML, and json.dumps is deterministic
    cfg_path.write_text(json.dumps(_config(w, variant, scale), sort_keys=True) + "\n",
                        encoding="utf-8")
    files["config.yaml"] = cfg_path
    args = [w.command, "--config", str(cfg_path)]
    if w.command == "estimate":
        index = list(WORKLOADS).index(w.name)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([index, variant])))
        n = max(500, int(w.n * scale))
        data_path = workdir / "data.csv"
        data_path.write_text(_csv_text(draw_family(w.family, n, rng)), encoding="utf-8")
        files["data.csv"] = data_path
        args += ["--data", str(data_path)]
    sha = {k: hashlib.sha256(p.read_bytes()).hexdigest() for k, p in files.items()}
    return {"variant": variant, "args": args + ["--threads", "1"], "sha256": sha}


# --------------------------------------------------------------------------
# outputs


def point_estimates(w: Workload, report: dict) -> dict[str, float]:
    """The numbers pinned per variant, keyed by their place in the report."""
    if w.command == "simulate":
        est = report["monte_carlo"]["estimators"]
        return {"oracle.value": report["oracle"]["value"],
                "if.mean": est["if"]["mean"], "id.mean": est["id"]["mean"]}
    res = report["results"]
    if w.functional["kind"] == "mean":
        return {k: res[k]["estimate"] for k in ("missing_mean", "population_mean")}
    return {k: res[k]["psi"] for k in ("missing_quantile", "population_quantile")}


def load_pinned() -> dict:
    if not PINNED_PATH.is_file():
        return {}
    return json.loads(PINNED_PATH.read_text(encoding="utf-8"))


def check_report(w: Workload, report: dict, pinned: dict | None) -> list[str]:
    """Problems with one report; empty when it passes.

    ``pinned`` is this variant's entry of pinned.json, or None at smoke-test
    scale, where the sizes are too small for the statistical checks and only
    the format and finiteness checks apply.
    """
    if report.get("format") != REPORT_FORMAT:
        return [f"format is {report.get('format')!r}"]
    try:
        points = point_estimates(w, report)
    except (KeyError, TypeError) as e:
        return [f"report lacks {e}"]
    problems = [f"{key} = {v!r} is not finite" for key, v in points.items()
                if not (isinstance(v, (int, float)) and math.isfinite(v))]
    if problems or pinned is None:
        return problems
    for key, v in points.items():
        if abs(v - pinned["values"][key]) > PIN_TOL:
            problems.append(f"{key} = {v!r}, pinned {pinned['values'][key]!r} (tol {PIN_TOL})")
    if w.command == "simulate":
        est = report["monte_carlo"]["estimators"]
        for name in ("if", "id"):
            if est[name]["n_failed"] != 0:
                problems.append(f"{name}: {est[name]['n_failed']} replications failed")
        orc = report["oracle"]
        tol = MC_SE_MULT * orc["mc_se"] + ORACLE_ROUNDING
        if abs(orc["value"] - ORACLE[w.family]) > tol:
            problems.append(f"oracle {orc['value']} is more than {tol:.5f} from {ORACLE[w.family]}")
    elif w.functional["kind"] == "mean":
        mm = report["results"]["missing_mean"]
        tol = ORACLE_SE_MULT * mm["std_error"]
        if abs(mm["estimate"] - ORACLE[w.family]) > tol:
            problems.append(f"missing_mean {mm['estimate']} is more than {ORACLE_SE_MULT:g} SE "
                            f"({tol:.5f}) from the oracle {ORACLE[w.family]}")
    return problems
