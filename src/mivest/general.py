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

from .data import FunctionalSpec, ObservationTable
from .exceptions import EstimationError, NoIncompleteCasesError, WeakIdentificationError
from .learners import LearnerConfig, _ridge_solve
# fit_nuisance_set and fit_mu_component have no caller here; they stay bound
# because the benchmark tracer (perfbench/trace_child.py) wraps
# mivest.general.fit_nuisance_set and mivest.general.fit_mu_component.
from .nuisance import (  # noqa: F401
    Diagnostics,
    NuisanceSet,
    TrimPolicy,
    evaluate_nuisances,
    fit_mu_component,
    fit_nuisance_set,
    fit_propensities,
    floor_denominator,
    winsorize_values,
)

# psi values at which solve_functional evaluates its moments
_GRID_SIZE = 64
# grid points whose R h rows are built from one comparison; small enough
# that a block stays a few n-vectors
_GRID_BLOCK = 4


@dataclass
class PhiParts:
    """Uncentered influence values and row bookkeeping for one block."""

    phi_tilde: np.ndarray       # (n,) uncentered influence contributions
    keep: np.ndarray            # (n,) bool rows retained under the trim policy
    delta_own: np.ndarray       # (n,) delta at each row's own level


@dataclass
class _OwnLevel:
    """The psi-free factors of phi~ at each row's own instrument level; the
    per-row factors are (L, n) in _own_level's every-level form."""

    g_diff: np.ndarray          # (n,) g(Z_i, x_i) - g(x_i)
    den: np.ndarray             # (n,) floored delta_r(Z_i, x_i)
    r_resid: np.ndarray         # (n,) R_i - pi(Z_i, x_i)
    missing_w: np.ndarray       # (n,) (1 - R_i) / pi0
    keep: np.ndarray            # (n,) bool rows retained under the trim policy
    floor_hits: int


def _own_level(
    z: np.ndarray,
    R: np.ndarray,
    pi: np.ndarray,
    rho: np.ndarray,
    delta_r: np.ndarray,
    pi0: float,
    trim: TrimPolicy,
) -> _OwnLevel:
    """The psi-free factors from pi, rho and the unfloored delta_r, all (L, n).

    z is each row's level and R its response, both (n,).  z may also be
    np.arange(L)[:, None] with R the (L, n) expected response at every
    level: the factors are then (L, n), one row per level.
    """
    den, hits = floor_denominator(delta_r)              # (L, n)
    g_all = 1.0 - pi
    g_all /= pi0 * den
    g_x = np.einsum("lm,lm->m", rho, g_all)

    n = pi.shape[1]
    if trim == "drop":
        keep = ~hits.any(axis=0)
    elif trim == "floor":
        keep = np.ones(n, dtype=bool)
    else:
        raise ValueError(f"unknown trim policy {trim!r}")
    rows = np.arange(n)
    R = R.astype(float)
    return _OwnLevel(
        g_diff=g_all[z, rows] - g_x,
        den=den[z, rows],
        r_resid=R - pi[z, rows],
        missing_w=(1.0 - R) / pi0,
        keep=keep,
        floor_hits=int(hits.sum()),
    )


def _phi_tilde(own: _OwnLevel, rh: np.ndarray, mu_z: np.ndarray, delta_z: np.ndarray,
               out: np.ndarray | None = None,
               work: np.ndarray | None = None) -> np.ndarray:
    """g_diff * (rh - mu_z - delta_z * r_resid) + missing_w * delta_z.

    Written into out, with work as scratch, when they are given; the
    operations run in the order of the formula either way, so both give
    the same bits.
    """
    out = np.subtract(rh, mu_z, out=out)
    work = np.multiply(delta_z, own.r_resid, out=work)
    out -= work
    out *= own.g_diff
    np.multiply(own.missing_w, delta_z, out=work)
    out += work
    return out


def _phi_parts_general(
    table: ObservationTable,
    ns: NuisanceSet,
    spec: FunctionalSpec,
    trim: TrimPolicy,
    diag: Diagnostics | None,
) -> PhiParts:
    ev = evaluate_nuisances(ns, table.X)
    own = _own_level(table.Z, table.R, ev.pi, ev.rho, ev.delta_r, ns.pi0, trim)
    if diag is not None:
        diag.floor_hits += own.floor_hits
    rows = np.arange(table.n)
    z = table.Z
    delta_z = ev.delta_y[z, rows] / own.den
    phi_tilde = _phi_tilde(own, table.rh(spec), ev.mu[z, rows], delta_z)
    return PhiParts(phi_tilde=phi_tilde, keep=own.keep, delta_own=delta_z)


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
) -> float:
    """Plug-in estimator: mean of delta(Z_i, X_i) over rows with R_i = 0."""
    _require_incomplete(table, ns)
    ev = evaluate_nuisances(ns, table.X)
    rows = np.arange(table.n)
    den, hits = floor_denominator(ev.delta_r[table.Z, rows])
    delta_own = ev.delta_y[table.Z, rows] / den
    mask = table.R == 0
    if trim == "drop":
        mask = mask & ~hits
    if not mask.any():
        raise NoIncompleteCasesError("trim policy removed every incomplete row")
    return float(delta_own[mask].mean())


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


@dataclass(frozen=True)
class SolveResult:
    """Root of one estimated quantile moment in psi."""

    psi: float
    bracket: tuple[float, float]
    grid: np.ndarray
    moments: np.ndarray


def solve_functional(
    table: ObservationTable,
    cfg: LearnerConfig,
    q: float,
    *,
    mode: str = "marginalize",
    trim: TrimPolicy = "floor",
    winsorize: float | None = None,
) -> tuple[SolveResult, SolveResult]:
    """The q-quantile of the outcome among nonrespondents and in the population.

    With h(y; psi) = 1{y >= psi} - q, the missing target roots beta_IF(psi)
    and the population target roots M(psi) = P(R=1) alpha(psi) + pi0
    beta_IF(psi).  Returns (missing, population), as crossfit_beta does.
    Both moments are evaluated on one psi-grid spanning the observed
    outcome range in a single pass, in sample on the whole table (no
    cross-fitting): the table's basis is transformed once, only the
    psi-free models (pi, rho, pi0) are fitted and evaluated once on it, and
    mu for every grid point comes from one stacked ridge solve per level
    over all grid targets (_grid_beta).  Each psi is the root of the
    piecewise-linear interpolant of its grid moments (_root); a moment
    with no sign change raises WeakIdentificationError.
    """
    if table.n1 == 0:
        raise EstimationError("no observed outcomes; cannot bracket the quantile")
    if not 0.0 < q < 1.0:
        raise EstimationError("q must be in (0, 1)")
    if table.n0 == 0:
        raise NoIncompleteCasesError("no rows with R = 0; the target is undefined")
    y = table.y_observed
    lo, hi = float(y.min()), float(y.max())
    if lo == hi:
        point = SolveResult(psi=lo, bracket=(lo, hi), grid=np.array([lo]),
                            moments=np.array([0.0]))
        return point, point
    grid = np.linspace(lo, hi, _GRID_SIZE)
    # alpha(psi) = mean of h(y; psi) over the observed outcomes, a block of
    # grid points per comparison
    alpha = np.concatenate([np.mean((y >= grid[j:j + _GRID_BLOCK, None]) - q, axis=1)
                            for j in range(0, grid.size, _GRID_BLOCK)])
    beta, pi0 = _grid_beta(table, cfg, q, grid, mode=mode, trim=trim, winsorize=winsorize)
    return (_root(grid, beta, "missing"),
            _root(grid, (1.0 - pi0) * alpha + pi0 * beta, "population"))


def _rh_rows(table: ObservationTable, q_r: np.ndarray, psi: np.ndarray,
             out: np.ndarray) -> np.ndarray:
    """R h at each psi of a block of grid points, one row per point, from
    one comparison against the outcomes; written over out's first rows.

    q_r is q R.  1{Y >= psi} - q_r is R h(Y; psi) bit for bit
    ObservationTable.rh once the comparison is masked by R: an R = 0 row,
    whose Y is NaN (never >= psi) or a value validate_table flags, gets 0.
    """
    hit = np.greater_equal(table.Y, psi[:, None])
    np.logical_and(hit, table.R, out=hit)
    return np.subtract(hit, q_r, out=out[:psi.size])


def _mu_grid_coef(
    table: ObservationTable,
    F: np.ndarray,
    by_level: list[tuple[np.ndarray, np.ndarray]],
    q: float,
    grid: np.ndarray,
    cfg: LearnerConfig,
    direct: bool,
) -> np.ndarray:
    """mu's ridge coefficients at every grid point, (grid, K, d).

    coef[j] holds one row per model, mu(z, .) per level then mu(x) in
    direct mode, so coef[j] @ F.T is mu of every model at every row.  F is
    the table's basis and by_level its split by level, as fit_propensities
    returns them.  Each level's F_z' (R h), over R h gathered at the
    level's rows, and each level's Gram are the products a refit at that
    grid point makes; one system per grid point, not one multi-column
    solve, whose columns round differently, so mu has a refit's bits.
    """
    q_r = q * table.R
    L = len(by_level)
    RH = np.empty((_GRID_BLOCK, table.n))
    cross = np.empty((L + direct, grid.size, F.shape[1]))
    for j0 in range(0, grid.size, _GRID_BLOCK):
        for j, rh in enumerate(_rh_rows(table, q_r, grid[j0:j0 + _GRID_BLOCK], RH),
                               start=j0):
            for z, (r, Fz) in enumerate(by_level):
                cross[z, j] = Fz.T @ rh[r]
            if direct:      # mu(x) over all rows
                cross[L, j] = F.T @ rh
    grams = [Fz.T @ Fz for _, Fz in by_level] + ([F.T @ F] if direct else [])
    return np.stack([_ridge_solve(gram, cross[k], cfg.ridge_lambda)
                     for k, gram in enumerate(grams)], axis=1)


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
    """beta_IF(psi) at every grid point, and pi0, from one psi-free fit.

    pi, rho and pi0 do not depend on psi: fit_propensities fits them once
    and transforms the table's basis F once, and that F also evaluates pi
    and rho and serves every ridge solve.  R h at each grid point comes
    from one comparison against table.Y (_rh_rows).  mu(z, .) for all grid
    points is one stacked ridge solve per level over the level blocks
    fit_propensities split off for its pi fits, plus one over all rows for
    mu(x) in direct mode (_mu_grid_coef).  Each
    grid point's moment is evaluated in reused n-buffers, in _phi_tilde's
    operation order.  Equals the influence-function mean of _phi_parts_general
    (over its retained rows) on a set refitted at each grid point, up to the
    rounding of the matrix products that evaluate mu.
    F is column-major, as PolyBasis.transform returns it, so each grid
    point's mu is coef[j] @ F.T over the row-major (d, n) view of F, with
    no transposed copy.
    """
    props, F, by_level = fit_propensities(table, cfg, mode)
    direct = mode == "direct"
    coef = _mu_grid_coef(table, F, by_level, q, grid, cfg, direct)  # (grid, K, d)
    # the level blocks go before pi and rho are evaluated: their (L, n)
    # stacks need not be alive beside them
    del by_level
    pi, rho = props.pi(F), props.rho(F)
    pi_marg = props.pi_marg(F) if direct else np.einsum("lm,lm->m", rho, pi)
    own = _own_level(table.Z, table.R, pi, rho, pi - pi_marg[None, :], props.pi0, trim)
    del pi, pi_marg
    if not own.keep.any():
        raise EstimationError("trim policy removed every row")

    L, n = table.L, table.n
    K = L + direct                  # mu models: one per level, plus mu(x)
    q_r = q * table.R
    RH = np.empty((_GRID_BLOCK, n))
    own_flat = table.Z * n + np.arange(n)   # each row's own level in a (K, n) array
    keep = None if own.keep.all() else own.keep
    M = np.empty((K, n))
    mu_z, delta_z, phi, work = (np.empty(n) for _ in range(4))
    mu_x = M[L] if direct else np.empty(n)
    beta = np.empty(grid.size)
    for j0 in range(0, grid.size, _GRID_BLOCK):
        psi = grid[j0:j0 + _GRID_BLOCK]
        for j, rh in enumerate(_rh_rows(table, q_r, psi, RH), start=j0):
            np.matmul(coef[j], F.T, out=M)
            np.take(M, own_flat, out=mu_z)
            if not direct:
                np.einsum("lm,lm->m", rho, M, out=mu_x)
            np.subtract(mu_z, mu_x, out=delta_z)
            delta_z /= own.den
            _phi_tilde(own, rh, mu_z, delta_z, out=phi, work=work)
            w = phi if winsorize is None else winsorize_values(phi, winsorize)
            beta[j] = float(w.mean() if keep is None else w[keep].mean())
    return beta, props.pi0


def _root(grid: np.ndarray, moments: np.ndarray, target: str) -> SolveResult:
    """The root of the grid moments' piecewise-linear interpolant on the
    first grid interval whose ends do not share a strict sign: the end that
    is exactly 0, or else the one zero of the line between the ends."""
    sign = np.sign(moments)
    crossings = np.flatnonzero(sign[:-1] * sign[1:] <= 0)
    if crossings.size == 0:
        raise WeakIdentificationError(
            f"{target} moment has no sign change over the candidate grid")
    i = int(crossings[0])
    a, b = float(grid[i]), float(grid[i + 1])
    fa, fb = float(moments[i]), float(moments[i + 1])
    # a plus a non-negative step, which rounding can carry one ulp past b
    psi = a if fa == 0.0 else b if fb == 0.0 else min(a + fa * (b - a) / (fa - fb), b)
    return SolveResult(psi=psi, bracket=(a, b), grid=grid, moments=moments)
