"""Cross-fitted estimation with repetition-median adjustment.

Fold hygiene: nuisances for fold k (including the incomplete-case share
pi0) are fitted on the complement of fold k and only evaluated on fold k.
Influence contributions are pooled across folds and averaged once.

Repetition: the whole split-fit-evaluate cycle runs `repetitions` times
with fresh fold draws.  The reported point estimate is the median of the
per-repetition estimates, and the reported variance is

    median_s [ var_s + (est_s - point)^2 ]

which charges each repetition for its distance from the consensus.

One fold loop (_crossfit_pass) serves every estimator here, and one
influence function (mivest.general) serves every instrument: at L = 2 it
is the binary one, so the `kind` argument validates and labels a report
but selects no code.  The nonrespondent mean beta and the population mean
(1 - pi0) alpha + pi0 beta are both computed from one shared split and one
nuisance fit per fold and repetition, so `mivest estimate` fits K x S
nuisance sets for both reports.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

from .data import FunctionalSpec, ObservationTable, evaluate_h
from .exceptions import (ConfigurationError, EstimationError, FitError,
                         NoIncompleteCasesError)
from .general import _phi_parts_general, _population_phi, normal_ci, variance_if
from .learners import LearnerConfig
from .nuisance import (
    Diagnostics,
    NuisanceSet,
    TrimPolicy,
    fit_nuisance_set,
    winsorize_values,
)

_DOMAIN_FOLDS = 2

EstimatorKind = Literal["auto", "binary", "general"]
FitterType = Callable[..., NuisanceSet]


@dataclass(frozen=True)
class FoldPlan:
    """A fold assignment: assignments[i] is the fold index of row i."""

    n: int
    n_folds: int
    seed: int
    repetition: int
    assignments: np.ndarray

    def fold_sizes(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.n_folds)


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


def _resolve_kind(kind: EstimatorKind, L: int) -> str:
    """The report's estimator label: "binary" at L = 2 unless asked otherwise."""
    if kind == "auto":
        return "binary" if L == 2 else "general"
    if kind == "binary" and L != 2:
        raise ConfigurationError("binary estimator requires a two-level instrument")
    return kind


@dataclass
class CrossfitResult:
    """One repetition's pooled estimate and influence-value variance."""

    estimate: float
    variance: float
    n: int
    n0: int
    n_kept: int
    plan: FoldPlan
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
        parts = _phi_parts_general(block, ns, spec, trim, diag)
        phi[mask] = parts.phi_tilde
        keep[mask] = parts.keep
        delta_own[mask] = parts.delta_own
        coef[mask] = (1.0 - block.R.astype(float)) / ns.pi0
        pi0s[k] = ns.pi0
        diag.merge(ns.diagnostics)

    if winsorize is not None:
        phi = winsorize_values(phi, winsorize, diag)
    if not keep.any():
        raise EstimationError("trim policy removed every row")
    est = float(phi[keep].mean())
    centered = phi[keep] - coef[keep] * est
    result = CrossfitResult(
        estimate=est,
        variance=variance_if(centered),
        n=table.n,
        n0=table.n0,
        n_kept=int(keep.sum()),
        plan=plan,
        diagnostics=diag,
        pi0_by_fold=pi0s,
    )
    return result, (phi, keep, coef, delta_own)


def crossfit_estimate(
    table: ObservationTable,
    spec: FunctionalSpec,
    cfg: LearnerConfig,
    *,
    n_folds: int = 5,
    seed: int = 0,
    repetition: int = 0,
    kind: EstimatorKind = "auto",
    mode: str = "marginalize",
    trim: TrimPolicy = "floor",
    winsorize: float | None = None,
    plan: FoldPlan | None = None,
    fitter: FitterType | None = None,
) -> CrossfitResult:
    """One cross-fitted pass: fit on fold complements, pool, grand-mean.

    `plan` overrides the internal fold draw (for tests); `fitter` replaces
    fit_nuisance_set with the same signature.
    """
    if table.n0 == 0:
        raise NoIncompleteCasesError("no rows with R = 0; the target is undefined")
    if plan is None:
        plan = make_folds(table.n, n_folds, seed, repetition)
    elif plan.n != table.n:
        raise ConfigurationError("fold plan was built for a different table size")
    fit = fitter if fitter is not None else fit_nuisance_set
    _resolve_kind(kind, table.L)
    result, _ = _crossfit_pass(table, spec, cfg, plan, mode, trim, winsorize, fit)
    return result


def median_adjust(estimates: np.ndarray, variances: np.ndarray) -> tuple[float, float]:
    """Median point estimate with discordance-penalised variance.

    point = median_s(est_s); var = median_s(var_s + (est_s - point)^2).
    """
    est = np.asarray(estimates, dtype=float)
    var = np.asarray(variances, dtype=float)
    if est.size == 0 or est.shape != var.shape:
        raise EstimationError("median_adjust needs matching nonempty arrays")
    point = float(np.median(est))
    adj = float(np.median(var + (est - point) ** 2))
    return point, adj


@dataclass
class EstimateReport:
    """Final deliverable of a cross-fitted run."""

    estimate: float
    variance: float
    std_error: float
    ci_level: float
    ci_lower: float
    ci_upper: float
    n: int
    n0: int
    n_folds: int
    repetitions: int
    kind: str
    mode: str
    trim: str
    winsorize: float | None
    seed: int
    per_repetition_estimates: list[float]
    per_repetition_variances: list[float]
    diagnostics: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "variance": self.variance,
            "std_error": self.std_error,
            "ci_level": self.ci_level,
            "ci": [self.ci_lower, self.ci_upper],
            "n": self.n,
            "n_incomplete": self.n0,
            "n_folds": self.n_folds,
            "repetitions": self.repetitions,
            "estimator": self.kind,
            "mode": self.mode,
            "trim": self.trim,
            "winsorize": self.winsorize,
            "seed": self.seed,
            "per_repetition": {
                "estimates": self.per_repetition_estimates,
                "variances": self.per_repetition_variances,
            },
            "diagnostics": self.diagnostics,
        }


def _report(
    table: ObservationTable,
    est: np.ndarray,
    var: np.ndarray,
    diag: Diagnostics,
    *,
    n_folds: int,
    seed: int,
    ci_level: float,
    kind: str,
    mode: str,
    trim: TrimPolicy,
    winsorize: float | None,
) -> EstimateReport:
    """Median-adjust per-repetition (estimate, variance) pairs into a report."""
    point, adj = median_adjust(est, var)
    lo, hi = normal_ci(point, adj, ci_level)
    return EstimateReport(
        estimate=point,
        variance=adj,
        std_error=float(np.sqrt(max(adj, 0.0))),
        ci_level=ci_level,
        ci_lower=lo,
        ci_upper=hi,
        n=table.n,
        n0=table.n0,
        n_folds=n_folds,
        repetitions=len(est),
        kind=kind,
        mode=mode,
        trim=trim,
        winsorize=winsorize,
        seed=seed,
        per_repetition_estimates=[float(x) for x in est],
        per_repetition_variances=[float(x) for x in var],
        diagnostics=diag.as_dict(),
    )


def _merged(results: list[CrossfitResult]) -> Diagnostics:
    diag = Diagnostics()
    for r in results:
        diag.merge(r.diagnostics)
    return diag


def crossfit_beta(
    table: ObservationTable,
    spec: FunctionalSpec,
    cfg: LearnerConfig,
    *,
    n_folds: int = 5,
    repetitions: int = 1,
    seed: int = 0,
    ci_level: float = 0.95,
    kind: EstimatorKind = "auto",
    mode: str = "marginalize",
    trim: TrimPolicy = "floor",
    winsorize: float | None = None,
    fitter: FitterType | None = None,
) -> EstimateReport:
    """Repeated cross-fitting, median adjustment, and a normal interval."""
    _check_repetitions(repetitions)
    results = [
        crossfit_estimate(
            table, spec, cfg,
            n_folds=n_folds, seed=seed, repetition=r, kind=kind,
            mode=mode, trim=trim, winsorize=winsorize, fitter=fitter,
        )
        for r in range(repetitions)
    ]
    return _report(
        table,
        np.array([r.estimate for r in results]),
        np.array([r.variance for r in results]),
        _merged(results),
        n_folds=n_folds, seed=seed, ci_level=ci_level,
        kind=_resolve_kind(kind, table.L), mode=mode, trim=trim, winsorize=winsorize,
    )


def _crossfit_mean_reports(
    table: ObservationTable,
    spec: FunctionalSpec,
    cfg: LearnerConfig,
    *,
    n_folds: int = 5,
    repetitions: int = 1,
    seed: int = 0,
    ci_level: float = 0.95,
    kind: EstimatorKind = "auto",
    mode: str = "marginalize",
    trim: TrimPolicy = "floor",
    winsorize: float | None = None,
    fitter: FitterType | None = None,
) -> tuple[EstimateReport, EstimateReport]:
    """(crossfit_beta report, crossfit_population_mean report) from one pass.

    Each repetition runs the fold loop once; both reports reduce its per-row
    values to (estimate, variance) pairs before the next repetition, so
    the result equals the two separate calls with half the nuisance fits.
    """
    if table.n1 == 0:
        raise EstimationError("no complete cases; population functional needs both")
    if table.n0 == 0:
        raise NoIncompleteCasesError("no rows with R = 0; the target is undefined")
    _check_repetitions(repetitions)
    alpha = float(np.mean(evaluate_h(spec, table.y_observed)))
    pi0 = table.n0 / table.n

    fit = fitter if fitter is not None else fit_nuisance_set
    label = _resolve_kind(kind, table.L)
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

    diag = _merged(results)
    common = dict(n_folds=n_folds, seed=seed, ci_level=ci_level, kind=label, mode=mode,
                  trim=trim, winsorize=winsorize)
    beta_report = _report(table, np.array([r.estimate for r in results]),
                          np.array([r.variance for r in results]), diag, **common)
    return beta_report, _report(table, pop_est, pop_var, diag, **common)


def crossfit_population_mean(
    table: ObservationTable,
    spec: FunctionalSpec,
    cfg: LearnerConfig,
    *,
    n_folds: int = 5,
    repetitions: int = 1,
    seed: int = 0,
    ci_level: float = 0.95,
    kind: EstimatorKind = "auto",
    mode: str = "marginalize",
    trim: TrimPolicy = "floor",
    winsorize: float | None = None,
    fitter: FitterType | None = None,
) -> EstimateReport:
    """Cross-fitted population functional (1 - pi0) alpha + pi0 beta.

    alpha is the complete-case mean of h (no model, no cross-fitting
    needed).  beta and the influence-value variance come from one shared
    fold pass per repetition: the same split and per-fold nuisance fits
    that crossfit_beta uses with equal arguments, which is how `mivest
    estimate` gets both mean reports from one pass.  pi0 in the
    composition is the full-sample share so the identity
    estimate == (1 - pi0) alpha + pi0 beta holds exactly.
    """
    return _crossfit_mean_reports(
        table, spec, cfg,
        n_folds=n_folds, repetitions=repetitions, seed=seed, ci_level=ci_level,
        kind=kind, mode=mode, trim=trim, winsorize=winsorize, fitter=fitter,
    )[1]
