"""Command-line driver: estimate, simulate, oracle, robustness, validate.

Exit codes: 0 success, 2 data contract violation, 3 estimation failure,
4 configuration error.  Reports are written with write_report and are
byte-identical across reruns with the same seeds; the thread count is an
execution knob and never enters a report.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings
from typing import Any

from .corruption import run_robustness
# crossfit_population_mean has no caller here: it stays bound only because
# the benchmark tracer (perfbench/trace_child.py) wraps this binding.
from .crossfit import crossfit_beta, crossfit_population_mean  # noqa: F401
from .data import validate_table
from .dataio import (
    REPORT_FORMAT,
    AnalysisConfig,
    _read_config,
    config_from_dict,
    ingest_csv,
    write_report,
)
from .exceptions import (
    ConfigurationError,
    DataContractError,
    EstimationError,
    FitError,
    MivestError,
    _tally_messages,
)
from .general import solve_functional
from .simulation import _LAWS, oracle_beta, run_monte_carlo

DESIGN_TOLERANCE = 0.05


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 means "data error" here,
    # so reroute usage problems through the configuration-error path
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigurationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mivest", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, data: bool = False) -> None:
        p.add_argument("--config", required=True, help="YAML configuration file")
        if data:
            p.add_argument("--data", required=True, help="input CSV")
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=1,
                       help="worker processes for simulate's replications; the "
                            "other commands only check that it is at least 1")

    def estimation_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--folds", type=int, default=None)
        p.add_argument("--reps", type=int, default=None)
        p.add_argument("--ci-level", type=float, default=None, dest="ci_level")
        p.add_argument("--trim", choices=("floor", "drop"), default=None)
        p.add_argument("--winsorize", type=_number_or_off, default=None,
                       help="IQR multiple for influence-value clipping, or 'off'")

    p = sub.add_parser("estimate", help="nonrespondent and population functionals from a CSV")
    common(p, data=True)
    estimation_flags(p)

    p = sub.add_parser("simulate", help="Monte Carlo study on a synthetic family")
    common(p)
    estimation_flags(p)
    p.add_argument("--n", type=int, default=None, help="rows per replication")
    p.add_argument("--replications", type=int, default=None)

    p = sub.add_parser("oracle", help="brute-force truth of a synthetic family")
    common(p)
    p.add_argument("--draws", type=int, default=None)

    p = sub.add_parser("robustness", help="estimator behaviour under corrupted nuisances")
    common(p)
    p.add_argument("--n", type=int, default=100_000, dest="table_n", metavar="N",
                   help="table size (default 100000)")

    p = sub.add_parser("validate", help="table diagnostics for a CSV, no estimation")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)

    return parser


def _number_or_off(text: str) -> float | str:
    try:
        return text if text == "off" else float(text)
    except ValueError:  # argparse would reword it; a ConfigurationError passes through
        raise ConfigurationError(f"--winsorize must be a number or 'off', got {text!r}")


# the config key that each override flag sets, by the flag's argparse dest
_FLAG_KEYS = {
    "seed": ("estimation", "seed"),
    "folds": ("estimation", "folds"),
    "reps": ("estimation", "repetitions"),
    "ci_level": ("estimation", "ci_level"),
    "trim": ("estimation", "trim"),
    "winsorize": ("estimation", "winsorize"),
    "n": ("simulation", "n"),
    "replications": ("simulation", "replications"),
    "draws": ("simulation", "oracle_draws"),
}


def _load_config(args: argparse.Namespace) -> AnalysisConfig:
    """The config file's document, with each given flag written into its key."""
    doc = _read_config(args.config)
    for dest, (section, key) in _FLAG_KEYS.items():
        value = getattr(args, dest, None)
        if value is None or not isinstance(doc, dict):
            continue
        sec = doc.get(section)
        if isinstance(sec, dict):
            sec[key] = value
        elif sec is None and section != "simulation":
            # an absent simulation section stays absent, for the command to name
            doc[section] = {key: value}
    return config_from_dict(doc)


def _require_data(cfg: AnalysisConfig) -> None:
    if not cfg.has_data:
        raise ConfigurationError("this command needs a 'data' section in the config")


def _require_simulation(cfg: AnalysisConfig, command: str):
    """The config's simulation section, for a command that measures the
    mean functional alone (its oracle and scenarios are the mean's)."""
    if cfg.simulation is None:
        raise ConfigurationError("this command needs a 'simulation' section in the config")
    if cfg.functional.kind != "mean":
        raise ConfigurationError(
            f"{command} measures the mean functional only; "
            f"functional.kind is {cfg.functional.kind!r}")
    return cfg.simulation


def _emit(report: dict, out: str | None) -> None:
    if out:
        write_report(report, out)


def _fmt(x: float | None, nd: int = 6) -> str:
    return "none" if x is None else f"{x:.{nd}f}"


# --------------------------------------------------------------------------
# commands


def _estimate_entry(path: str, cfg: AnalysisConfig, prefix: str = "") -> dict:
    """One table's {"data", "results", "fit_warnings"} entry of the report.

    Ingests the CSV and estimates on it, printing the ingest and fit warnings
    to stderr behind `prefix`.  The fit warnings (a level that lacks a
    response class in some fold, say) are one {"message", "count"} entry per
    distinct message, in the order first raised; count is the number of times
    it was raised.  The entry leaves them out when there are none.
    """
    table, info = ingest_csv(path, cfg)
    for w in info.warnings:
        print(f"warning: {prefix}{w}", file=sys.stderr)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        entry: dict[str, Any] = {"data": info, "results": _estimate_results(table, cfg)}
    fit_warnings = _tally_messages(str(w.message) for w in caught)
    _print_fit_warnings(fit_warnings, prefix)
    if fit_warnings:
        entry["fit_warnings"] = fit_warnings
    return entry


def _print_fit_warnings(fit_warnings: list[dict], prefix: str = "") -> None:
    for w in fit_warnings:
        print(f"warning: {prefix}{w['message']} (raised {w['count']} times)", file=sys.stderr)


def _estimate_results(table, cfg: AnalysisConfig) -> dict:
    """Point estimates for one table: nonrespondent target plus population."""
    if cfg.functional.kind == "mean":
        # one influence function serves every L; the label only names L = 2
        label = "binary" if table.L == 2 else "general"
        missing, population = crossfit_beta(table, cfg.functional, cfg.learner, cfg.estimation)
        return {"missing_mean": {**dataclasses.asdict(missing), "estimator": label},
                "population_mean": {**dataclasses.asdict(population), "estimator": label}}
    q = cfg.functional.q
    missing, population = solve_functional(table, cfg.learner, q, cfg.estimation)
    return {
        "missing_quantile": {"q": q, "psi": missing.psi, "bracket": list(missing.bracket)},
        "population_quantile": {"q": q, "psi": population.psi,
                                "bracket": list(population.bracket)},
    }


def cmd_estimate(cfg: AnalysisConfig, args: argparse.Namespace) -> int:
    _require_data(cfg)
    report: dict[str, Any] = {
        "format": REPORT_FORMAT,
        "command": "estimate",
        "config": cfg.as_dict(),
    }
    if cfg.instrument_mode == "separate":
        # separate mode is product mode run once per instrument column
        per = {col: _estimate_entry(args.data, dataclasses.replace(
                   cfg, instruments=(col,), instrument_mode="product"), f"{col}: ")
               for col in cfg.instruments}
        report["per_instrument"] = per
        print(f"separate analyses for {len(per)} instruments")
        for col, entry in per.items():
            for name, res in entry["results"].items():
                point = res.get("estimate", res.get("psi"))
                print(f"  {col} {name}: {_fmt(point)}")
    else:
        report.update(_estimate_entry(args.data, cfg))
        info = report["data"]
        print(f"n={info.n} complete={info.n_complete} incomplete={info.n_incomplete} "
              f"levels={info.instrument_levels}")
        for name, res in report["results"].items():
            if "estimate" in res:
                lo, hi = res["ci"]
                print(f"{name}: {_fmt(res['estimate'])}  se={_fmt(res['std_error'])}  "
                      f"ci=[{_fmt(lo)}, {_fmt(hi)}]")
            else:
                print(f"{name}: psi={_fmt(res['psi'])} (q={res['q']})")
    _emit(report, args.out)
    return 0


def cmd_simulate(cfg: AnalysisConfig, args: argparse.Namespace) -> int:
    sim = _require_simulation(cfg, "simulate")
    dgp = sim.dgp(cfg.estimation.seed)
    oracle = oracle_beta(dgp, draws=sim.oracle_draws, functional=cfg.functional)
    mc = run_monte_carlo(dgp, sim.replications, cfg.learner, cfg.functional, oracle.value,
                         cfg.estimation, threads=args.threads)
    report = {
        "format": REPORT_FORMAT,
        "command": "simulate",
        "config": cfg.as_dict(),
        "oracle": oracle,
        "monte_carlo": mc,
    }
    _print_fit_warnings(mc.fit_warnings)
    _emit(report, args.out)

    names = sorted(mc.estimators)
    print(f"{sim.family}  n={sim.n}  replications={sim.replications}  "
          f"oracle={oracle.value:.4f}")
    print("  metric    " + "".join(f"{nm:>12}" for nm in names))
    for label in ("bias", "variance", "mse", "coverage"):
        values = (getattr(mc.estimators[nm], label) for nm in names)
        print(f"  {label:<10}" + "".join(f"{'--':>12}" if v is None else f"{v:12.5f}"
                                         for v in values))
    return 0


def cmd_oracle(cfg: AnalysisConfig, args: argparse.Namespace) -> int:
    sim = _require_simulation(cfg, "oracle")
    res = oracle_beta(sim.dgp(cfg.estimation.seed), draws=sim.oracle_draws,
                      functional=cfg.functional)
    reference = _LAWS[sim.family].design_beta
    agrees = abs(res.value - reference) <= DESIGN_TOLERANCE
    report = {
        "format": REPORT_FORMAT,
        "command": "oracle",
        "config": cfg.as_dict(),
        "oracle": res,
        "design_reference": reference,
        "design_tolerance": DESIGN_TOLERANCE,
        "agrees_with_design": agrees,
    }
    _emit(report, args.out)
    print(f"{sim.family}: oracle={res.value:.6f}  mc_se={res.mc_se:.6f}  "
          f"p_missing={res.p_missing:.4f}  clamp_fraction={res.clamp_fraction:.4f}")
    if agrees:
        print(f"agrees with the design value {reference} within {DESIGN_TOLERANCE}")
    else:
        print(f"DIFFERS from the design value {reference} by "
              f"{abs(res.value - reference):.4f} (> {DESIGN_TOLERANCE}); "
              "the clamp shifts the realized truth, downstream comparisons use the oracle")
    return 0


def cmd_robustness(cfg: AnalysisConfig, args: argparse.Namespace) -> int:
    sim = _require_simulation(cfg, "robustness")
    dgp = dataclasses.replace(sim.dgp(cfg.estimation.seed), n=args.table_n)
    rep = run_robustness(dgp, psi=cfg.functional.psi)
    report = {
        "format": REPORT_FORMAT,
        "command": "robustness",
        "config": cfg.as_dict(),
        "robustness": rep,
    }
    _emit(report, args.out)
    print(f"{sim.family}  n={args.table_n}  reference={rep.reference:.5f} "
          f"(quadrature error {rep.reference_error:.1e})")
    for row in rep.scenarios:
        ratio = row.abs_bias / row.mc_se if row.mc_se > 0 else float("inf")
        tag = "consistent" if row.expect_consistent else "control"
        print(f"  {row.scenario:<26} {tag:<10} estimate={row.estimate:9.5f}  "
              f"|bias|={row.abs_bias:8.5f}  ({ratio:5.1f} mc se)  "
              f"population_bias={row.population_bias:+.1e}")
    return 0


def cmd_validate(cfg: AnalysisConfig, args: argparse.Namespace) -> int:
    _require_data(cfg)
    table, info = ingest_csv(args.data, cfg)
    for w in info.warnings:
        print(f"warning: {w}")
    violations = validate_table(table)
    print(f"n={info.n} complete={info.n_complete} incomplete={info.n_incomplete} "
          f"levels={info.instrument_levels}")
    for enc in info.encodings:
        detail = enc.values if enc.kind == "categorical" else enc.edges
        print(f"instrument {enc.column}: {enc.kind}, {enc.levels} levels, {detail}")
    if not violations:
        print("table contract: ok")
        return 0
    for v in violations:
        where = f" rows {list(v.rows)}" if v.rows else ""
        print(f"violation [{v.code}]: {v.message}{where}")
    return 2


_COMMANDS = {
    "estimate": cmd_estimate,
    "simulate": cmd_simulate,
    "oracle": cmd_oracle,
    "robustness": cmd_robustness,
    "validate": cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        threads = getattr(args, "threads", 1)
        if threads < 1:
            raise ConfigurationError(f"--threads must be at least 1, got {threads}")
        cfg = _load_config(args)
        return _COMMANDS[args.command](cfg, args)
    except DataContractError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except ConfigurationError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 4
    except (EstimationError, FitError) as e:
        print(f"estimation error: {e}", file=sys.stderr)
        return 3
    except MivestError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
