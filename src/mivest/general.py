"""Estimators for discrete instruments with any number of levels.

Notation (functions of the nuisance set at a point x and level z):

    delta_r(z, x) = pi(z, x) - pi(x)
    delta_y(z, x) = mu(z, x) - mu(x)
    delta(z, x)   = delta_y / delta_r
    g(z, x)       = (1 - pi(z, x)) / (pi0 * delta_r(z, x))
    g(x)          = sum_z rho(z, x) g(z, x)

The target is beta = E[delta(Z, X) | R = 0], the mean of h(Y; psi) among
nonrespondents.  The influence-function estimator averages

    phi~ = (g(Z,x) - g(x)) * [R h - mu(Z,x) - delta(Z,x) (R - pi(Z,x))]
           + (1 - R) / pi0 * delta(Z,x)

over all rows; the centered influence value subtracts (1-R)/pi0 * beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .data import FunctionalSpec, ObservationTable, evaluate_h
from .exceptions import (
    DataContractError,
    EstimationError,
    NoIncompleteCasesError,
    WeakIdentificationError,
)
from .learners import LearnerConfig, PolyBasis, _ridge_solve
# fit_mu_component has no caller here; it stays bound because the benchmark
# tracer (perfbench/trace_child.py) wraps mivest.general.fit_mu_component.
from .nuisance import (  # noqa: F401
    Diagnostics,
    NuisanceEval,
    NuisanceSet,
    TrimPolicy,
    evaluate_nuisances,
    fit_mu_component,
    fit_nuisance_set,
    floor_mask,
    winsorize_values,
)


@dataclass
class PhiParts:
    """Uncentered influence values and row bookkeeping for one block."""

    phi_tilde: np.ndarray       # (n,) uncentered influence contributions
    keep: np.ndarray            # (n,) bool rows retained under the trim policy
    delta_own: np.ndarray       # (n,) delta at each row's own level
    floor_hits: int


@dataclass
class _OwnLevel:
    """The psi-free factors of phi~ at each row's own instrument level."""

    g_diff: np.ndarray          # (n,) g(Z_i, x_i) - g(x_i)
    den: np.ndarray             # (n,) floored delta_r(Z_i, x_i)
    r_resid: np.ndarray         # (n,) R_i - pi(Z_i, x_i)
    missing_w: np.ndarray       # (n,) (1 - R_i) / pi0
    keep: np.ndarray            # (n,) bool rows retained under the trim policy
    floor_hits: int


def _own_level(
    table: ObservationTable,
    ns: NuisanceSet,
    ev: NuisanceEval,
    trim: TrimPolicy,
) -> _OwnLevel:
    eps = ns.eps_den
    hits = floor_mask(ev.delta_r, eps)                  # (L, n)
    sign = np.where(ev.delta_r < 0, -1.0, 1.0)
    den = np.where(hits, sign * eps, ev.delta_r)
    g_all = (1.0 - ev.pi) / (ns.pi0 * den)
    g_x = np.einsum("lm,lm->m", ev.rho, g_all)

    if trim == "drop":
        keep = ~hits.any(axis=0)
    elif trim == "floor":
        keep = np.ones(table.n, dtype=bool)
    else:
        raise ValueError(f"unknown trim policy {trim!r}")
    rows = np.arange(table.n)
    z = table.Z
    R = table.R.astype(float)
    return _OwnLevel(
        g_diff=g_all[z, rows] - g_x,
        den=den[z, rows],
        r_resid=R - ev.pi[z, rows],
        missing_w=(1.0 - R) / ns.pi0,
        keep=keep,
        floor_hits=int(hits.sum()),
    )


def _phi_tilde(own: _OwnLevel, rh: np.ndarray, mu_z: np.ndarray,
               delta_z: np.ndarray) -> np.ndarray:
    return own.g_diff * (rh - mu_z - delta_z * own.r_resid) + own.missing_w * delta_z


def _phi_parts_general(
    table: ObservationTable,
    ns: NuisanceSet,
    spec: FunctionalSpec,
    trim: TrimPolicy,
    diag: Diagnostics | None,
) -> PhiParts:
    ev = evaluate_nuisances(ns, table.X)
    own = _own_level(table, ns, ev, trim)
    if diag is not None:
        diag.floor_hits += own.floor_hits
    rows = np.arange(table.n)
    z = table.Z
    if ev.delta is not None:
        delta_z = ev.delta[z, rows]
    else:
        delta_z = ev.delta_y[z, rows] / own.den
    phi_tilde = _phi_tilde(own, table.rh(spec), ev.mu[z, rows], delta_z)
    return PhiParts(phi_tilde=phi_tilde, keep=own.keep, delta_own=delta_z,
                    floor_hits=own.floor_hits)


def if_values_general(
    table: ObservationTable,
    ns: NuisanceSet,
    beta: float,
    spec: FunctionalSpec,
    *,
    trim: TrimPolicy = "floor",
    diag: Diagnostics | None = None,
) -> np.ndarray:
    """Centered influence values phi(beta) for every row."""
    parts = _phi_parts_general(table, ns, spec, trim, diag)
    R = table.R.astype(float)
    return parts.phi_tilde - (1.0 - R) / ns.pi0 * beta


def g_value(ns: NuisanceSet, z: int, x: np.ndarray, *, on_floor: str = "raise") -> float:
    """g(z, x) at a single point."""
    return float(ns.g(z, np.atleast_2d(np.asarray(x, dtype=float)), on_floor=on_floor)[0])


def _require_incomplete(table: ObservationTable, ns: NuisanceSet) -> None:
    if table.n0 == 0:
        raise NoIncompleteCasesError("no rows with R = 0; the target is undefined")
    if not ns.pi0 > 0:
        raise NoIncompleteCasesError("pi0 = 0 in the nuisance set")


def beta_id_general(
    table: ObservationTable,
    ns: NuisanceSet,
    *,
    trim: TrimPolicy = "floor",
    diag: Diagnostics | None = None,
) -> float:
    """Plug-in estimator: mean of delta(Z_i, X_i) over rows with R_i = 0."""
    _require_incomplete(table, ns)
    ev = evaluate_nuisances(ns, table.X)
    rows = np.arange(table.n)
    den_own = ev.delta_r[table.Z, rows]
    hits = floor_mask(den_own, ns.eps_den)
    if diag is not None:
        diag.floor_hits += int(hits.sum())
    if ev.delta is not None:
        delta_own = ev.delta[table.Z, rows]
    else:
        sign = np.where(den_own < 0, -1.0, 1.0)
        den = np.where(hits, sign * ns.eps_den, den_own)
        delta_own = ev.delta_y[table.Z, rows] / den
    mask = table.R == 0
    if trim == "drop":
        mask = mask & ~hits
    if not mask.any():
        raise NoIncompleteCasesError("trim policy removed every incomplete row")
    return float(delta_own[mask].mean())


def beta_if_general(
    table: ObservationTable,
    ns: NuisanceSet,
    spec: FunctionalSpec,
    *,
    trim: TrimPolicy = "floor",
    winsorize: float | None = None,
    diag: Diagnostics | None = None,
) -> float:
    """Influence-function estimator: mean of phi~ over retained rows.

    With winsorize = k, values outside [Q1 - k IQR, Q3 + k IQR] of the
    block's own influence-value distribution are pulled to the boundary.
    """
    _require_incomplete(table, ns)
    parts = _phi_parts_general(table, ns, spec, trim, diag)
    return _retained_mean(parts, winsorize, diag)


def _retained_mean(parts: PhiParts, winsorize: float | None,
                   diag: Diagnostics | None) -> float:
    phi = parts.phi_tilde
    if winsorize is not None:
        phi = winsorize_values(phi, winsorize, diag)
    if not parts.keep.any():
        raise EstimationError("trim policy removed every row")
    return float(phi[parts.keep].mean())


def variance_if(phi_values: np.ndarray) -> float:
    """Sampling variance of the estimator from centered influence values.

    Computes n^-2 sum(phi_i^2); consistent for Var(beta_hat) when the
    values are phi(beta_hat) evaluations.
    """
    phi = np.asarray(phi_values, dtype=float)
    n = phi.shape[0]
    if n == 0:
        raise EstimationError("variance_if needs at least one value")
    return float(np.sum(phi * phi) / (n * n))


def normal_ci(estimate: float, variance: float, level: float = 0.95) -> tuple[float, float]:
    """Two-sided normal interval estimate +/- z * sqrt(variance)."""
    if not 0.0 < level < 1.0:
        raise EstimationError("ci level must be in (0, 1)")
    zq = NormalDist().inv_cdf(0.5 + level / 2.0)
    hw = zq * float(np.sqrt(max(variance, 0.0)))
    return (estimate - hw, estimate + hw)


@dataclass
class PopulationMeanResult:
    """Estimate of E[h(Y; psi)] over the full population.

    estimate = P(R=1) * alpha + pi0 * beta with alpha the complete-case
    mean of h and beta the influence-function estimate for nonrespondents.
    """

    estimate: float
    variance: float
    alpha: float
    beta: float
    p_respond: float


def population_mean_if(
    table: ObservationTable,
    ns: NuisanceSet,
    spec: FunctionalSpec,
    *,
    trim: TrimPolicy = "floor",
    winsorize: float | None = None,
    diag: Diagnostics | None = None,
) -> PopulationMeanResult:
    """Population functional E[h] with its influence-function variance."""
    _require_incomplete(table, ns)
    if table.n1 == 0:
        raise EstimationError("no complete cases; population functional needs both")
    h_obs = evaluate_h(spec, table.y_observed)
    alpha = float(np.mean(h_obs))
    p1 = 1.0 - ns.pi0
    parts = _phi_parts_general(table, ns, spec, trim, diag)
    beta = _retained_mean(parts, winsorize, diag)
    R = table.R.astype(float)
    phi = _population_phi(parts.phi_tilde, (1.0 - R) / ns.pi0, parts.delta_own,
                          R, table.rh(spec), alpha, beta, ns.pi0)
    return PopulationMeanResult(
        estimate=p1 * alpha + ns.pi0 * beta,
        variance=variance_if(phi[parts.keep]),
        alpha=alpha,
        beta=beta,
        p_respond=p1,
    )


def _population_phi(
    phi_tilde: np.ndarray,
    coef: np.ndarray,
    delta_own: np.ndarray,
    R: np.ndarray,
    rh: np.ndarray,
    alpha: float,
    beta: float,
    pi0: float,
) -> np.ndarray:
    """Influence values of (1 - pi0) alpha + pi0 beta, row by row.

    phi_tilde and delta_own come from a nuisance set whose (1 - R_i) / pi0
    is coef; pi0 is the share that composes the estimate.
    """
    first = phi_tilde - coef * delta_own  # g-weighted bracket only
    return (
        pi0 * first
        + alpha * (R - (1.0 - pi0))
        + beta * (1.0 - R - pi0)
        + rh - R * alpha
        + (1.0 - R) * (delta_own - beta)
    )


@dataclass
class SolveResult:
    """Root of the estimated population moment in psi."""

    psi: float
    iterations: int
    bracket: tuple[float, float]
    grid: np.ndarray
    moments: np.ndarray


def solve_functional(
    table: ObservationTable,
    cfg: LearnerConfig,
    q: float,
    *,
    grid_size: int = 64,
    tol: float = 1e-6,
    mode: str = "marginalize",
    trim: TrimPolicy = "floor",
    winsorize: float | None = None,
    target: str = "population",
) -> SolveResult:
    """Solve for psi with h(y; psi) = 1{y >= psi} - q over the target group.

    target "population" roots M(psi) = P(R=1) alpha(psi) + pi0 beta_IF(psi);
    target "missing" roots beta_IF(psi) alone (quantile among nonrespondents).
    The moment is evaluated on a psi-grid spanning the observed outcome
    range in a single pass: the nuisance set is fitted and evaluated once
    on the whole table (in sample, no cross-fitting), and only mu depends
    on psi, so mu for every grid point comes from one ridge solve per level
    against all grid targets at once.  The root is found by bisection on
    the piecewise-linear interpolant of the grid moments; no sign change
    raises WeakIdentificationError.
    """
    (res,) = _solve_quantiles(table, cfg, q, (target,), grid_size=grid_size, tol=tol,
                              mode=mode, trim=trim, winsorize=winsorize)
    return res


def _solve_quantiles(
    table: ObservationTable,
    cfg: LearnerConfig,
    q: float,
    targets: tuple[str, ...],
    *,
    grid_size: int = 64,
    tol: float = 1e-6,
    mode: str = "marginalize",
    trim: TrimPolicy = "floor",
    winsorize: float | None = None,
) -> list[SolveResult]:
    """solve_functional for each of `targets`, all rooted from one grid pass."""
    for target in targets:
        if target not in ("population", "missing"):
            raise EstimationError(f"unknown solve target {target!r}")
    if table.n1 == 0:
        raise EstimationError("no observed outcomes; cannot bracket the quantile")
    if not 0.0 < q < 1.0:
        raise EstimationError("q must be in (0, 1)")
    fully_observed = table.n0 == 0
    if fully_observed and "missing" in targets:
        raise NoIncompleteCasesError("no rows with R = 0; the target is undefined")
    y = table.y_observed
    lo, hi = float(y.min()), float(y.max())
    if lo == hi:
        return [SolveResult(psi=lo, iterations=0, bracket=(lo, hi),
                            grid=np.array([lo]), moments=np.array([0.0]))
                for _ in targets]
    grid = np.linspace(lo, hi, grid_size)
    alpha = np.array([float(np.mean(evaluate_h(FunctionalSpec.quantile(q, psi=p), y)))
                      for p in grid])
    if fully_observed:
        return [_root(grid, alpha, tol)]
    beta, pi0 = _grid_beta(table, cfg, q, grid, mode=mode, trim=trim, winsorize=winsorize)
    moments = {"missing": beta, "population": (1.0 - pi0) * alpha + pi0 * beta}
    return [_root(grid, moments[target], tol) for target in targets]


def _grid_beta(
    table: ObservationTable,
    cfg: LearnerConfig,
    q: float,
    grid: np.ndarray,
    *,
    mode: str,
    trim: TrimPolicy,
    winsorize: float | None,
) -> tuple[np.ndarray, float]:
    """beta_IF(psi) at every grid point, and pi0, from one nuisance fit.

    pi, rho, pi0 and the basis do not depend on psi, so they are fitted and
    evaluated once.  mu(z, .) for all grid points comes from one ridge solve
    per level whose right-hand side has one column F_z' (R h) per grid
    point; direct mode adds one solve over all rows for mu(x).  Equals
    beta_if_general on a set refitted at each grid point, up to the
    rounding of the batched solve and products.
    """
    ns = fit_nuisance_set(table, FunctionalSpec.quantile(q, psi=grid[0]), cfg, mode=mode)
    ev = evaluate_nuisances(ns, table.X)
    own = _own_level(table, ns, ev, trim)
    if not own.keep.any():
        raise EstimationError("trim policy removed every row")
    rho = ev.rho
    del ev

    L, n = table.L, table.n
    direct = mode == "direct"
    F = PolyBasis(cfg.basis_df).fit(table.X).transform(table.X)
    # the rows of each mu model: one level each, plus all rows for mu(x)
    masks = [table.Z == z for z in range(L)] + ([slice(None)] if direct else [])
    blocks = [F[m] for m in masks]
    specs = [FunctionalSpec.quantile(q, psi=psi) for psi in grid]
    cross = np.empty((len(blocks), F.shape[1], grid.size))   # F_k' (R h) per psi
    for j, spec in enumerate(specs):
        rh = table.rh(spec)
        for k, (Fk, m) in enumerate(zip(blocks, masks)):
            cross[k, :, j] = Fk.T @ rh[m]
    # coef[j] holds mu's coefficients at grid[j], one column per model,
    # so F @ coef[j] is mu at every row
    coef = np.stack([_ridge_solve(Fk.T @ Fk, cross[k], cfg.ridge_lambda)
                     for k, Fk in enumerate(blocks)], axis=-1).transpose(1, 0, 2)

    rows = np.arange(n)
    beta = np.empty(grid.size)
    for j, spec in enumerate(specs):
        M = F @ coef[j]                                  # (n, L [+ 1])
        mu_z = M[rows, table.Z]
        mu_x = M[:, L] if direct else np.einsum("lm,lm->m", rho, M[:, :L].T)
        delta_z = (mu_z - mu_x) / own.den
        phi = _phi_tilde(own, table.rh(spec), mu_z, delta_z)
        if winsorize is not None:
            phi = winsorize_values(phi, winsorize)
        beta[j] = float(phi[own.keep].mean())
    return beta, ns.pi0


def _root(grid: np.ndarray, moments: np.ndarray, tol: float) -> SolveResult:
    """First sign change of the grid moments, bisected on the interpolant."""
    sign = np.sign(moments)
    crossings = np.flatnonzero(sign[:-1] * sign[1:] <= 0)
    exact = np.flatnonzero(moments == 0.0)
    if exact.size:
        p = float(grid[exact[0]])
        return SolveResult(psi=p, iterations=0, bracket=(p, p), grid=grid, moments=moments)
    if crossings.size == 0:
        raise WeakIdentificationError(
            "population moment has no sign change over the candidate grid"
        )
    i = int(crossings[0])
    a, b = float(grid[i]), float(grid[i + 1])
    fa, fb = float(moments[i]), float(moments[i + 1])

    def interp(p: float) -> float:
        t = (p - a) / (b - a)
        return fa + t * (fb - fa)

    it = 0
    lo_b, hi_b = a, b
    flo = fa
    while hi_b - lo_b > tol:
        it += 1
        mid = 0.5 * (lo_b + hi_b)
        fm = interp(mid)
        if fm == 0.0:
            lo_b = hi_b = mid
            break
        if np.sign(fm) == np.sign(flo):
            lo_b, flo = mid, fm
        else:
            hi_b = mid
        if it > 200:
            break
    psi = 0.5 * (lo_b + hi_b)
    return SolveResult(psi=psi, iterations=it, bracket=(a, b), grid=grid, moments=moments)
