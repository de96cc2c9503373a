"""Cross-fitted estimation with repetition-median adjustment.

Fold hygiene: nuisances for fold k (including the incomplete-case share
pi0) are fitted on the complement of fold k and only evaluated on fold k.
Influence contributions are pooled across folds and averaged once.

Repetition: the whole split-fit-evaluate cycle runs `repetitions` times
with fresh fold draws.  The reported point estimate is the median of the
per-repetition estimates, and the reported variance is

    median_s [ var_s + (est_s - point)^2 ]

which charges each repetition for its distance from the consensus.

One repetition driver (crossfit_beta) runs one fold loop
(_crossfit_pass) per repetition, and one influence function
(mivest.general) serves every instrument: at L = 2 it is the binary one.
Each fold evaluates its nuisance set on its rows (evaluate_nuisances)
and runs the influence function's pass (general._phi_pass) over one target
column, the pass the quantile grid runs over 64.  Each fold's Diagnostics
comes from its fit and its evaluation; folds and repetitions are summed.
The nonrespondent mean beta and the population mean
(1 - pi0) alpha + pi0 beta are both computed from one shared split and one
nuisance fit per fold and repetition, so `mivest estimate` and every
`mivest simulate` replication fit K x S nuisance sets for both reports.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import FunctionalSpec, ObservationTable, evaluate_h
from .exceptions import (ConfigurationError, EstimationError, FitError,
                         NoIncompleteCasesError)
from .general import _evaluate_own, _phi_pass, _population_phi, normal_ci, variance_if
from .learners import LearnerConfig
from .nuisance import (
    Diagnostics,
    NuisanceSet,
    TrimPolicy,
    _require_codes_in_range,
    fit_nuisance_set,
    winsorize_values,
)

_DOMAIN_FOLDS = 2

FitterType = Callable[..., NuisanceSet]


@dataclass(frozen=True)
class FoldPlan:
    """A fold assignment: assignments[i] is the fold index of row i."""

    n: int
    n_folds: int
    seed: int
    repetition: int
    assignments: np.ndarray


def make_folds(n: int, n_folds: int, seed: int, repetition: int = 0) -> FoldPlan:
    """Balanced random folds; sizes differ by at most one row.

    The draw depends only on (seed, repetition), not on call order, so
    repetition r always sees the same split regardless of scheduling.
    """
    if n_folds < 2:
        raise ConfigurationError("n_folds must be at least 2")
    if n_folds > n:
        raise ConfigurationError(f"n_folds = {n_folds} exceeds n = {n}")
    ss = np.random.SeedSequence(seed, spawn_key=(_DOMAIN_FOLDS, repetition))
    rng = np.random.Generator(np.random.Philox(ss))
    perm = rng.permutation(n)
    assignments = np.empty(n, dtype=np.int64)
    assignments[perm] = np.arange(n) % n_folds
    assignments.setflags(write=False)
    return FoldPlan(
        n=n, n_folds=n_folds, seed=seed, repetition=repetition, assignments=assignments
    )


@dataclass
class CrossfitResult:
    """One repetition's pooled estimate and influence-value variance."""

    estimate: float
    variance: float
    n_kept: int
    diagnostics: Diagnostics
    pi0_by_fold: np.ndarray


def _check_repetitions(repetitions: int) -> None:
    if repetitions < 1:
        raise ConfigurationError("repetitions must be at least 1")
    if repetitions % 2 == 0:
        warnings.warn(
            "even repetition count makes the median an average of the middle "
            "pair; an odd count is recommended",
            UserWarning,
            stacklevel=3,
        )


def _crossfit_pass(
    table: ObservationTable,
    spec: FunctionalSpec,
    cfg: LearnerConfig,
    plan: FoldPlan,
    mode: str,
    trim: TrimPolicy,
    winsorize: float | None,
    fit: FitterType,
) -> tuple[CrossfitResult, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The fold loop: fit on each fold's complement, evaluate on the fold.

    Returns the repetition's pooled result and its per-row
    (phi, keep, coef, delta_own), from which the population functional is
    assembled without refitting.  coef is (1 - R_i) / pi0 of the row's fold.
    """
    diag = Diagnostics()
    phi = np.empty(table.n, dtype=float)
    keep = np.zeros(table.n, dtype=bool)
    coef = np.empty(table.n, dtype=float)
    delta_own = np.empty(table.n, dtype=float)
    pi0s = np.empty(plan.n_folds, dtype=float)

    for k in range(plan.n_folds):
        mask = plan.assignments == k
        train = table.subset(~mask)
        block = table.subset(mask)
        try:
            ns = fit(train, spec, cfg, mode=mode)
        except (FitError, EstimationError) as e:
            raise type(e)(f"fold {k}: {e}") from e
        if not ns.pi0 > 0:
            raise NoIncompleteCasesError(f"fold {k}: training split has no incomplete rows")
        ev, own = _evaluate_own(block, ns, trim)
        delta_own[mask], phi[mask] = next(
            _phi_pass(own, block.Z, [(block.rh(spec), ev.mu, ev.mu_marg)]))
        keep[mask] = own.keep
        coef[mask] = (1.0 - block.R.astype(float)) / ns.pi0
        pi0s[k] = ns.pi0
        diag += Diagnostics(floor_hits=own.floor_hits, prob_clips=ev.prob_clips,
                            nonconverged_fits=ns.nonconverged_fits)
        del ev, own     # the fold's evaluation is not kept alive through the next fit

    if winsorize is not None:
        raw, phi = phi, winsorize_values(phi, winsorize)
        diag += Diagnostics(winsorized=int(np.count_nonzero(phi != raw)))
    if not keep.any():
        raise EstimationError("trim policy removed every row")
    est = float(phi[keep].mean())
    centered = phi[keep] - coef[keep] * est
    result = CrossfitResult(
        estimate=est,
        variance=variance_if(centered),
        n_kept=int(keep.sum()),
        diagnostics=diag,
        pi0_by_fold=pi0s,
    )
    return result, (phi, keep, coef, delta_own)


def median_adjust(estimates: np.ndarray, variances: np.ndarray) -> tuple[float, float]:
    """Median point estimate with discordance-penalised variance.

    point = median_s(est_s); var = median_s(var_s + (est_s - point)^2).
    """
    est = np.asarray(estimates, dtype=float)
    var = np.asarray(variances, dtype=float)
    if est.size == 0 or est.shape != var.shape:
        raise EstimationError("median_adjust needs matching nonempty arrays")
    point = _median(est)
    adj = _median(var + (est - point) ** 2)
    return point, adj


def _median(values: np.ndarray) -> float:
    """np.median(values), the middle order statistic or the mean of the
    two middle ones (nan if any value is nan), without np.median's
    masked-array check, which on numpy 2.4 imports numpy.ma."""
    s = np.sort(values, axis=None)
    if np.isnan(s[-1]):
        return float("nan")
    mid = s.size // 2
    return float(s[mid] if s.size % 2 else (s[mid - 1] + s[mid]) / 2.0)


@dataclass
class EstimateReport:
    """Final deliverable of a cross-fitted run; its fields are the report's keys."""

    estimate: float
    variance: float
    std_error: float
    ci_level: float
    ci: tuple[float, float]
    n: int
    n_incomplete: int
    n_folds: int
    repetitions: int
    mode: str
    trim: str
    winsorize: float | None
    seed: int
    per_repetition: dict[str, list[float]]      # "estimates", "variances"
    diagnostics: Diagnostics


def _report(
    table: ObservationTable,
    est: np.ndarray,
    var: np.ndarray,
    diag: Diagnostics,
    *,
    n_folds: int,
    seed: int,
    ci_level: float,
    mode: str,
    trim: TrimPolicy,
    winsorize: float | None,
) -> EstimateReport:
    """Median-adjust per-repetition (estimate, variance) pairs into a report."""
    point, adj = median_adjust(est, var)
    return EstimateReport(
        estimate=point,
        variance=adj,
        std_error=float(np.sqrt(max(adj, 0.0))),
        ci_level=ci_level,
        ci=normal_ci(point, adj, ci_level),
        n=table.n,
        n_incomplete=table.n0,
        n_folds=n_folds,
        repetitions=len(est),
        mode=mode,
        trim=trim,
        winsorize=winsorize,
        seed=seed,
        per_repetition={"estimates": [float(x) for x in est],
                        "variances": [float(x) for x in var]},
        diagnostics=diag,
    )


def crossfit_beta(
    table: ObservationTable,
    spec: FunctionalSpec,
    cfg: LearnerConfig,
    *,
    n_folds: int = 5,
    repetitions: int = 1,
    seed: int = 0,
    ci_level: float = 0.95,
    mode: str = "marginalize",
    trim: TrimPolicy = "floor",
    winsorize: float | None = None,
    fitter: FitterType | None = None,
) -> tuple[EstimateReport, EstimateReport]:
    """Repeated cross-fitting: (missing, population) mean reports.

    missing is beta = E[h | R = 0]; population is (1 - pi0) alpha + pi0 beta,
    with alpha the complete-case mean of h (no model, no cross-fitting
    needed) and pi0 the full-sample share, so the identity
    estimate == (1 - pi0) alpha + pi0 beta holds in every repetition.
    Each repetition runs the fold loop once, on folds drawn from
    (seed, repetition), and both reports reduce its per-row values to
    (estimate, variance) pairs before the next repetition.  Each report is
    the median adjustment of those pairs with a normal interval.  `fitter`
    replaces fit_nuisance_set with the same signature.
    """
    if table.n1 == 0:
        raise EstimationError("no complete cases; population functional needs both")
    if table.n0 == 0:
        raise NoIncompleteCasesError("no rows with R = 0; the target is undefined")
    _check_repetitions(repetitions)
    _require_codes_in_range(table)      # a fold's rows may be absent from its training split
    alpha = float(np.mean(evaluate_h(spec, table.y_observed)))
    pi0 = table.n0 / table.n

    fit = fitter if fitter is not None else fit_nuisance_set
    R = table.R.astype(float)
    rh = table.rh(spec)

    results: list[CrossfitResult] = []
    pop_est = np.empty(repetitions, dtype=float)
    pop_var = np.empty(repetitions, dtype=float)
    for rep in range(repetitions):
        plan = make_folds(table.n, n_folds, seed, rep)
        res, (phi, keep, coef, delta_own) = _crossfit_pass(
            table, spec, cfg, plan, mode, trim, winsorize, fit)
        beta = res.estimate
        phi_pop = _population_phi(phi, coef, delta_own, R, rh, alpha, beta, pi0)
        pop_est[rep] = (1.0 - pi0) * alpha + pi0 * beta
        pop_var[rep] = variance_if(phi_pop[keep])
        results.append(res)

    diag = sum((r.diagnostics for r in results), Diagnostics())
    common = dict(n_folds=n_folds, seed=seed, ci_level=ci_level, mode=mode,
                  trim=trim, winsorize=winsorize)
    missing = _report(table, np.array([r.estimate for r in results]),
                      np.array([r.variance for r in results]), diag, **common)
    return missing, _report(table, pop_est, pop_var, diag, **common)


# No library code calls this: it stays bound because the benchmark tracer
# (perfbench/trace_child.py) wraps mivest.cli.crossfit_population_mean.
def crossfit_population_mean(table, spec, cfg, **kwargs) -> EstimateReport:
    """The population report of crossfit_beta with the same arguments."""
    return crossfit_beta(table, spec, cfg, **kwargs)[1]
