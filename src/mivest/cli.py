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
    ingest_csv,
    ingest_csv_per_instrument,
    load_config,
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
# solve_functional, likewise, is bound here only for the tracer; `estimate`
# roots both quantile reports from one grid pass.
from .general import _solve_quantiles, solve_functional  # noqa: F401
from .simulation import (
    _LEVELS,
    FAMILY_DESIGN_BETA,
    DGPSpec,
    oracle_beta,
    run_monte_carlo,
)

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
        p.add_argument("--threads", type=int, default=1)

    def estimation_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--folds", type=int, default=None)
        p.add_argument("--reps", type=int, default=None)
        p.add_argument("--ci-level", type=float, default=None, dest="ci_level")
        p.add_argument("--trim", choices=("floor", "drop"), default=None)
        p.add_argument("--winsorize", default=None,
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
    p.add_argument("--n", type=int, default=None, help="table size (default 100000)")
    p.add_argument("--reference-draws", type=int, default=None, dest="reference_draws")

    p = sub.add_parser("validate", help="table diagnostics for a CSV, no estimation")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)

    return parser


def _apply_overrides(cfg: AnalysisConfig, args: argparse.Namespace) -> AnalysisConfig:
    rep: dict[str, Any] = {}
    if getattr(args, "seed", None) is not None:
        rep["seed"] = args.seed
    if getattr(args, "folds", None) is not None:
        rep["n_folds"] = args.folds
    if getattr(args, "reps", None) is not None:
        rep["repetitions"] = args.reps
    if getattr(args, "ci_level", None) is not None:
        rep["ci_level"] = args.ci_level
    if getattr(args, "trim", None) is not None:
        rep["trim"] = args.trim
    w = getattr(args, "winsorize", None)
    if w is not None:
        if w == "off":
            rep["winsorize"] = None
        else:
            try:
                rep["winsorize"] = float(w)
            except ValueError:
                raise ConfigurationError(f"--winsorize must be a number or 'off', got {w!r}")
    if not rep:
        return cfg
    cfg = dataclasses.replace(cfg, **rep)
    cfg.validate()
    return cfg


def _require_data(cfg: AnalysisConfig) -> None:
    if not cfg.has_data:
        raise ConfigurationError("this command needs a 'data' section in the config")


def _require_simulation(cfg: AnalysisConfig):
    if cfg.simulation is None:
        raise ConfigurationError("this command needs a 'simulation' section in the config")
    return cfg.simulation


def _emit(report: dict, out: str | None) -> None:
    if out:
        write_report(report, out)


def _fmt(x: float | None, nd: int = 6) -> str:
    return "none" if x is None else f"{x:.{nd}f}"


# --------------------------------------------------------------------------
# commands


def _estimate_one(table, cfg: AnalysisConfig) -> tuple[dict, list[dict]]:
    """Point estimates for one table, and the warnings raised computing them.

    The warnings (a level that lacks a response class in some fold, say)
    come back as one {"message", "count"} entry per distinct message, in
    the order first raised; count is the number of times it was raised.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = _estimate_results(table, cfg)
    return results, _tally_messages(str(w.message) for w in caught)


def _print_fit_warnings(fit_warnings: list[dict], prefix: str = "") -> None:
    for w in fit_warnings:
        print(f"warning: {prefix}{w['message']} (raised {w['count']} times)", file=sys.stderr)


def _estimator_label(estimator: str, L: int) -> str:
    """The mean reports' estimator label: "binary" at L = 2 under "auto".

    One influence function serves every L, so the label selects no code;
    "binary" on an instrument with L != 2 is a configuration error.
    """
    if estimator == "auto":
        return "binary" if L == 2 else "general"
    if estimator == "binary" and L != 2:
        raise ConfigurationError("binary estimator requires a two-level instrument")
    return estimator


def _estimate_results(table, cfg: AnalysisConfig) -> dict:
    """Point estimates for one table: nonrespondent target plus population."""
    label = _estimator_label(cfg.estimator, table.L)
    if cfg.functional.kind == "mean":
        missing, population = crossfit_beta(
            table, cfg.functional, cfg.learner,
            n_folds=cfg.n_folds, repetitions=cfg.repetitions, seed=cfg.seed,
            ci_level=cfg.ci_level, mode=cfg.mode, trim=cfg.trim,
            winsorize=cfg.winsorize,
        )
        return {"missing_mean": {**missing.as_dict(), "estimator": label},
                "population_mean": {**population.as_dict(), "estimator": label}}
    q = cfg.functional.q
    missing, population = _solve_quantiles(
        table, cfg.learner, q, ("missing", "population"),
        mode=cfg.mode, trim=cfg.trim, winsorize=cfg.winsorize,
    )
    return {
        "missing_quantile": {"q": q, "psi": missing.psi,
                             "iterations": missing.iterations,
                             "bracket": list(missing.bracket)},
        "population_quantile": {"q": q, "psi": population.psi,
                                "iterations": population.iterations,
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
        per: dict[str, Any] = {}
        for col, one, table, info in ingest_csv_per_instrument(args.data, cfg):
            for w in info.warnings:
                print(f"warning: {col}: {w}", file=sys.stderr)
            results, fit_warnings = _estimate_one(table, one)
            per[col] = {"data": info.as_dict(), "results": results}
            if fit_warnings:
                per[col]["fit_warnings"] = fit_warnings
            _print_fit_warnings(fit_warnings, prefix=f"{col}: ")
        report["per_instrument"] = per
        print(f"separate analyses for {len(per)} instruments")
        for col, entry in per.items():
            for name, res in entry["results"].items():
                point = res.get("estimate", res.get("psi"))
                print(f"  {col} {name}: {_fmt(point)}")
    else:
        table, info = ingest_csv(args.data, cfg)
        for w in info.warnings:
            print(f"warning: {w}", file=sys.stderr)
        results, fit_warnings = _estimate_one(table, cfg)
        _print_fit_warnings(fit_warnings)
        report["data"] = info.as_dict()
        report["results"] = results
        if fit_warnings:
            report["fit_warnings"] = fit_warnings
        print(f"n={info.n} complete={info.n_complete} incomplete={info.n_incomplete} "
              f"levels={info.L}")
        for name, res in results.items():
            if "estimate" in res:
                lo, hi = res["ci"]
                print(f"{name}: {_fmt(res['estimate'])}  se={_fmt(res['std_error'])}  "
                      f"ci=[{_fmt(lo)}, {_fmt(hi)}]")
            else:
                print(f"{name}: psi={_fmt(res['psi'])} (q={res['q']})")
    _emit(report, args.out)
    return 0


def cmd_simulate(cfg: AnalysisConfig, args: argparse.Namespace) -> int:
    sim = _require_simulation(cfg)
    n = args.n if args.n is not None else sim.n
    replications = args.replications if args.replications is not None else sim.replications
    if replications < 1:    # before the oracle draws its records
        raise ConfigurationError(f"--replications must be at least 1, got {replications}")
    dgp = DGPSpec(family=sim.family, n=n, seed=cfg.seed,
                  clamp_policy=sim.clamp_policy, parameters=sim.parameters)
    _estimator_label(cfg.estimator, _LEVELS[sim.family])  # simulate reports carry no label
    oracle = oracle_beta(dgp, draws=sim.oracle_draws, functional=cfg.functional)
    mc = run_monte_carlo(
        dgp, replications, cfg.learner, cfg.functional, oracle.value,
        n_folds=cfg.n_folds, repetitions=cfg.repetitions, ci_level=cfg.ci_level,
        mode=cfg.mode, trim=cfg.trim, winsorize=cfg.winsorize,
        threads=args.threads, master_seed=cfg.seed,
    )
    report = {
        "format": REPORT_FORMAT,
        "command": "simulate",
        "config": cfg.as_dict(),
        "oracle": dataclasses.asdict(oracle),
        "monte_carlo": mc.as_dict(),
    }
    _print_fit_warnings(mc.fit_warnings)
    _emit(report, args.out)

    names = sorted(mc.summaries)
    rows = [
        ("bias", lambda s: s.bias),
        ("variance", lambda s: s.variance),
        ("mse", lambda s: s.mse),
        ("coverage", lambda s: s.coverage),
    ]
    print(f"{sim.family}  n={n}  replications={replications}  oracle={oracle.value:.4f}")
    print("  metric    " + "".join(f"{nm:>12}" for nm in names))
    for label, get in rows:
        cells = []
        for nm in names:
            v = get(mc.summaries[nm])
            cells.append(f"{v:12.5f}" if v is not None else f"{'--':>12}")
        print(f"  {label:<10}" + "".join(cells))
    return 0


def cmd_oracle(cfg: AnalysisConfig, args: argparse.Namespace) -> int:
    sim = _require_simulation(cfg)
    draws = args.draws if args.draws is not None else sim.oracle_draws
    dgp = DGPSpec(family=sim.family, n=max(sim.n, 1), seed=cfg.seed,
                  clamp_policy=sim.clamp_policy, parameters=sim.parameters)
    res = oracle_beta(dgp, draws=draws, functional=cfg.functional)
    reference = FAMILY_DESIGN_BETA.get(sim.family)
    agrees = None if reference is None else abs(res.value - reference) <= DESIGN_TOLERANCE
    report = {
        "format": REPORT_FORMAT,
        "command": "oracle",
        "config": cfg.as_dict(),
        "oracle": dataclasses.asdict(res),
        "design_reference": reference,
        "design_tolerance": DESIGN_TOLERANCE,
        "agrees_with_design": agrees,
    }
    _emit(report, args.out)
    print(f"{sim.family}: oracle={res.value:.6f}  mc_se={res.mc_se:.6f}  "
          f"p_missing={res.p_missing:.4f}  clamp_fraction={res.clamp_fraction:.4f}")
    if agrees is None:
        print("no design reference for this family")
    elif agrees:
        print(f"agrees with the design value {reference} within {DESIGN_TOLERANCE}")
    else:
        print(f"DIFFERS from the design value {reference} by "
              f"{abs(res.value - reference):.4f} (> {DESIGN_TOLERANCE}); "
              "the clamp shifts the realized truth, downstream comparisons use the oracle")
    return 0


def cmd_robustness(cfg: AnalysisConfig, args: argparse.Namespace) -> int:
    sim = _require_simulation(cfg)
    n = args.n if args.n is not None else 100_000
    ref_draws = args.reference_draws if args.reference_draws is not None else 4_000_000
    psi = cfg.functional.psi if cfg.functional.kind == "mean" else 0.0
    rep = run_robustness(sim.family, n=n, seed=cfg.seed,
                         parameters=dict(sim.parameters), psi=psi,
                         reference_draws=ref_draws)
    report = {
        "format": REPORT_FORMAT,
        "command": "robustness",
        "config": cfg.as_dict(),
        "robustness": rep.as_dict(),
    }
    _emit(report, args.out)
    print(f"{sim.family}  n={n}  reference={rep.reference:.5f} "
          f"(mc_se {rep.reference_mc_se:.5f})")
    for row in rep.rows:
        ratio = row.abs_bias / row.mc_se if row.mc_se > 0 else float("inf")
        tag = "consistent" if row.expect_consistent else "control"
        print(f"  {row.scenario:<26} {tag:<10} estimate={row.estimate:9.5f}  "
              f"|bias|={row.abs_bias:8.5f}  ({ratio:5.1f} mc se)")
    return 0


def cmd_validate(cfg: AnalysisConfig, args: argparse.Namespace) -> int:
    _require_data(cfg)
    table, info = ingest_csv(args.data, cfg)
    for w in info.warnings:
        print(f"warning: {w}")
    violations = validate_table(table)
    print(f"n={info.n} complete={info.n_complete} incomplete={info.n_incomplete} "
          f"levels={info.L}")
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
        cfg = _apply_overrides(load_config(args.config), args)
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
