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
from .exceptions import (
    DataContractError,
    EstimationError,
    NoIncompleteCasesError,
    WeakIdentificationError,
)
from .learners import LearnerConfig, _ridge_solve
# fit_nuisance_set and fit_mu_component have no caller here; they stay bound
# because the benchmark tracer (perfbench/trace_child.py) wraps
# mivest.general.fit_nuisance_set and mivest.general.fit_mu_component.
from .nuisance import (  # noqa: F401
    EPS_DEN,
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
    """The psi-free factors of phi~ at each row's own instrument level."""

    g_diff: np.ndarray          # (n,) g(Z_i, x_i) - g(x_i)
    den: np.ndarray             # (n,) floored delta_r(Z_i, x_i)
    r_resid: np.ndarray         # (n,) R_i - pi(Z_i, x_i)
    missing_w: np.ndarray       # (n,) (1 - R_i) / pi0
    keep: np.ndarray            # (n,) bool rows retained under the trim policy
    floor_hits: int


def _own_level(
    table: ObservationTable,
    pi: np.ndarray,
    rho: np.ndarray,
    delta_r: np.ndarray,
    pi0: float,
    eps: float,
    trim: TrimPolicy,
) -> _OwnLevel:
    """The psi-free factors from pi, rho and the unfloored delta_r, all (L, n)."""
    den, hits = floor_denominator(delta_r, eps)         # (L, n)
    g_all = 1.0 - pi
    g_all /= pi0 * den
    g_x = np.einsum("lm,lm->m", rho, g_all)

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
    own = _own_level(table, ev.pi, ev.rho, ev.delta_r, ns.pi0, ns.eps_den, trim)
    if diag is not None:
        diag.floor_hits += own.floor_hits
    rows = np.arange(table.n)
    z = table.Z
    delta_z = ev.delta_y[z, rows] / own.den
    phi_tilde = _phi_tilde(own, table.rh(spec), ev.mu[z, rows], delta_z)
    return PhiParts(phi_tilde=phi_tilde, keep=own.keep, delta_own=delta_z)


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
    den, hits = floor_denominator(ev.delta_r[table.Z, rows], ns.eps_den)
    if diag is not None:
        diag.floor_hits += int(hits.sum())
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
    range in a single pass, in sample on the whole table (no
    cross-fitting): the table's basis is transformed once, only the
    psi-free models (pi, rho, pi0) are fitted and evaluated once on it, and
    mu for every grid point comes from one stacked ridge solve per level
    over all grid targets (_grid_beta).  The root is found by bisection
    on the piecewise-linear interpolant of the grid moments; no sign change
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
    # alpha(psi) = mean of h(y; psi) over the observed outcomes, a block of
    # grid points per comparison
    alpha = np.concatenate([np.mean((y >= grid[j:j + _GRID_BLOCK, None]) - q, axis=1)
                            for j in range(0, grid.size, _GRID_BLOCK)])
    if fully_observed:
        return [_root(grid, alpha, tol)]
    beta, pi0 = _grid_beta(table, cfg, q, grid, y, mode=mode, trim=trim, winsorize=winsorize)
    moments = {"missing": beta, "population": (1.0 - pi0) * alpha + pi0 * beta}
    return [_root(grid, moments[target], tol) for target in targets]


def _rh_targets(table: ObservationTable, y: np.ndarray,
                q: float) -> tuple[np.ndarray, np.ndarray]:
    """(y_all, q_r) per row: the observed outcome y where R = 1 and -inf
    elsewhere, and q R.  1{y_all >= psi} - q_r is R h(y; psi) bit for bit
    ObservationTable.rh: an R = 0 row never reaches psi, so h is 0 there."""
    responded = table.R == 1
    y_all = np.full(table.n, -np.inf)
    y_all[responded] = y
    return y_all, np.where(responded, q, 0.0)


def _rh_rows(ys: np.ndarray, qs: np.ndarray, psi: np.ndarray,
             out: np.ndarray) -> np.ndarray:
    """R h at each psi of a block of grid points, one row per point, from
    one comparison against the outcomes; written over out's first rows."""
    return np.subtract(ys >= psi[:, None], qs, out=out[:psi.size])


def _mu_grid_coef(
    table: ObservationTable,
    F: np.ndarray,
    by_level: list[tuple[np.ndarray, np.ndarray]],
    y: np.ndarray,
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
    y_all, q_r = _rh_targets(table, y, q)
    L = len(by_level)
    RH = np.empty((_GRID_BLOCK, table.n))
    cross = np.empty((L + direct, grid.size, F.shape[1]))
    for j0 in range(0, grid.size, _GRID_BLOCK):
        for j, rh in enumerate(_rh_rows(y_all, q_r, grid[j0:j0 + _GRID_BLOCK], RH),
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
    y: np.ndarray,
    *,
    mode: str,
    trim: TrimPolicy,
    winsorize: float | None,
) -> tuple[np.ndarray, float]:
    """beta_IF(psi) at every grid point, and pi0, from one psi-free fit.

    y holds the observed outcomes.  pi, rho and pi0 do not depend on psi:
    fit_propensities fits them once and transforms the table's basis F
    once, and that F also evaluates pi and rho and serves every ridge
    solve.  mu(z, .) for all grid points is one stacked ridge solve per
    level over the level blocks fit_propensities split off for its pi fits,
    plus one over all rows for mu(x) in direct mode (_mu_grid_coef).  Each
    grid point's moment is evaluated in reused n-buffers, in _phi_tilde's
    operation order.  Equals beta_if_general on a set refitted at each grid
    point, up to the rounding of the matrix products that evaluate mu.
    F is column-major, as PolyBasis.transform returns it, so each grid
    point's mu is coef[j] @ F.T over the row-major (d, n) view of F, with
    no transposed copy.
    """
    props, F, by_level = fit_propensities(table, cfg, mode)
    direct = mode == "direct"
    coef = _mu_grid_coef(table, F, by_level, y, q, grid, cfg, direct)  # (grid, K, d)
    # the level blocks go before pi and rho are evaluated: their (L, n)
    # stacks need not be alive beside them
    del by_level
    pi, rho = props.pi(F), props.rho(F)
    pi_marg = props.pi_marg(F) if direct else np.einsum("lm,lm->m", rho, pi)
    own = _own_level(table, pi, rho, pi - pi_marg[None, :], props.pi0, EPS_DEN, trim)
    del pi, pi_marg
    if not own.keep.any():
        raise EstimationError("trim policy removed every row")

    L, n = table.L, table.n
    K = L + direct                  # mu models: one per level, plus mu(x)
    y_all, q_r = _rh_targets(table, y, q)
    RH = np.empty((_GRID_BLOCK, n))
    own_flat = table.Z * n + np.arange(n)   # each row's own level in a (K, n) array
    keep = None if own.keep.all() else own.keep
    M = np.empty((K, n))
    mu_z, delta_z, phi, work = (np.empty(n) for _ in range(4))
    mu_x = M[L] if direct else np.empty(n)
    beta = np.empty(grid.size)
    for j0 in range(0, grid.size, _GRID_BLOCK):
        psi = grid[j0:j0 + _GRID_BLOCK]
        for j, rh in enumerate(_rh_rows(y_all, q_r, psi, RH), start=j0):
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
