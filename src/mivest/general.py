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

from .data import EstimationConfig, ObservationTable, TrimPolicy
from .exceptions import EstimationError, NoIncompleteCasesError, WeakIdentificationError
from .learners import LearnerConfig
# fit_nuisance_set and fit_mu_component have no caller here; they stay bound
# because the benchmark tracer (perfbench/trace_child.py) wraps them here.  It
# also wraps evaluate_nuisances here, which _evaluate_own calls, and
# mivest.nuisance.fit_linear, which the grid's mu solve calls through _fit_mu.
from .nuisance import (  # noqa: F401
    NuisanceEval,
    NuisanceSet,
    _fit_mu,
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
class _OwnLevel:
    """The psi-free factors of phi~ at each row's own instrument level; the
    per-row factors are (L, n) in _own_level's every-level form."""

    g_diff: np.ndarray          # (n,) g(Z_i, x_i) - g(x_i)
    den: np.ndarray             # (n,) floored delta_r(Z_i, x_i)
    r_resid: np.ndarray         # (n,) R_i - pi(Z_i, x_i)
    missing_w: np.ndarray       # (n,) (1 - R_i) / pi0
    keep: np.ndarray            # (n,) bool rows retained under the trim policy
    floored: np.ndarray         # (n,) bool: delta_r(Z_i, x_i) was floored
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
        floored=hits[z, rows],
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


def _evaluate_own(table: ObservationTable, ns: NuisanceSet,
                  trim: TrimPolicy) -> tuple[NuisanceEval, _OwnLevel]:
    """One evaluate_nuisances call on the table's rows, and the psi-free
    factors of phi~ at each row's own level."""
    ev = evaluate_nuisances(ns, table.X)
    return ev, _own_level(table.Z, table.R, ev.pi, ev.rho, ev.delta_r, ns.pi0, trim)


def _phi_pass(own: _OwnLevel, z: np.ndarray, columns):
    """The own-level delta and phi~ of each target column.

    columns yields (rh, mu, mu_marg) per column: R h (n,), mu at every
    level (L, n), and mu's marginal (n,).  Yields (delta_z, phi~) per
    column, delta_z = (mu(Z_i, x_i) - mu(x_i)) / den and phi~ in
    _phi_tilde's operation order, both written into buffers that the next
    column reuses; a column whose rh is None yields its delta alone (phi~
    is None), which is what the plug-in reads.
    """
    n = own.den.shape[0]
    own_flat = z * n + np.arange(n)         # each row's own level in an (L, n) array
    mu_z, delta_z, phi, work = (np.empty(n) for _ in range(4))
    for rh, mu, mu_marg in columns:
        np.take(mu, own_flat, out=mu_z)
        np.subtract(mu_z, mu_marg, out=delta_z)
        delta_z /= own.den
        yield delta_z, (None if rh is None else
                        _phi_tilde(own, rh, mu_z, delta_z, out=phi, work=work))


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
    """Plug-in estimator: mean of delta(Z_i, X_i) over rows with R_i = 0.

    delta is read from the influence function's pass (_phi_pass).  Under
    trim "drop" it leaves out an R = 0 row whose own level's |delta_r| is
    floored, the only denominator its delta divides by; the
    influence-function estimators leave out a row when any level is
    floored, since g(x) reads every level.
    """
    _require_incomplete(table, ns)
    ev, own = _evaluate_own(table, ns, trim)
    delta_own, _ = next(_phi_pass(own, table.Z, [(None, ev.mu, ev.mu_marg)]))
    mask = table.R == 0
    if trim == "drop":
        mask &= ~own.floored
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
    est: EstimationConfig = EstimationConfig(),
) -> tuple[SolveResult, SolveResult]:
    """The q-quantile of the outcome among nonrespondents and in the population.

    With h(y; psi) = 1{y >= psi} - q, the missing target roots beta_IF(psi)
    and the population target roots M(psi) = P(R=1) alpha(psi) + pi0
    beta_IF(psi).  Returns (missing, population), as crossfit_beta does.
    Both moments are evaluated on one psi-grid spanning the observed
    outcome range in a single pass, in sample on the whole table (no
    cross-fitting): the table's basis is transformed once, only the
    psi-free models (pi, rho, pi0) are fitted and evaluated once on it, mu
    for every grid point comes from one fit_linear per level over the stack
    of all grid targets, and the influence function's pass (_phi_pass)
    evaluates every grid point (_grid_beta).  Each psi is the root of the
    piecewise-linear interpolant of its grid moments (_root); a moment
    with no sign change raises WeakIdentificationError.  Of est it reads
    trim and winsorize only: there are no folds or repetitions.
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
    beta, pi0 = _grid_beta(table, cfg, q, grid, est)
    return (_root(grid, beta, "missing"),
            _root(grid, (1.0 - pi0) * alpha + pi0 * beta, "population"))


def _rh_rows(Y: np.ndarray, R: np.ndarray, q_r: np.ndarray, psi: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """R h at each psi, one row per point, from one comparison against the
    outcomes Y of rows whose response is R; written over out's first rows
    when out is given.

    q_r is q R.  1{Y >= psi} R - q_r is R h(Y; psi) bit for bit
    ObservationTable.rh: an R = 0 row, whose Y is NaN (never >= psi) or a
    value validate_table flags, gets 0.
    """
    out = np.empty((psi.size, Y.size)) if out is None else out[:psi.size]
    np.greater_equal(Y, psi[:, None], out=out)
    out *= R
    out -= q_r
    return out


def _grid_beta(
    table: ObservationTable,
    cfg: LearnerConfig,
    q: float,
    grid: np.ndarray,
    est: EstimationConfig,
) -> tuple[np.ndarray, float]:
    """beta_IF(psi) at every grid point, and pi0, from one psi-free fit
    under est's trim policy and winsorizing.

    The table is one in-sample fold and each grid point a target column.
    fit_propensities fits pi, rho and pi0, which do not depend on psi, once
    and transforms the table's basis F once; F evaluates them and serves
    every mu solve.  _fit_mu solves each level's mu over the stack of every
    grid point's R h, each column with the bits of a refit at its point,
    and _phi_pass evaluates every column, R h built _GRID_BLOCK points at a
    time.
    """
    props, F, levels = fit_propensities(table, cfg)
    Y, R = table.Y, table.R
    coef = np.stack(_fit_mu(levels, lambda r: _rh_rows(Y[r], R[r], q * R[r], grid), cfg),
                    axis=1)                                         # (grid, L, d)
    # the level blocks go before pi and rho are evaluated: their (L, n)
    # stacks need not be alive beside them.  The clip counts are dropped:
    # quantile reports carry no counters
    del levels
    (pi, _), (rho, _) = props.pi(F), props.rho(F)
    pi_marg = np.einsum("lm,lm->m", rho, pi)
    own = _own_level(table.Z, table.R, pi, rho, pi - pi_marg[None, :], props.pi0, est.trim)
    del pi, pi_marg
    if not own.keep.any():
        raise EstimationError("trim policy removed every row")

    keep = None if own.keep.all() else own.keep
    beta = np.empty(grid.size)
    columns = _grid_columns(table, q, grid, coef, F, rho)
    for j, (_, phi) in enumerate(_phi_pass(own, table.Z, columns)):
        w = phi if est.winsorize is None else winsorize_values(phi, est.winsorize)
        beta[j] = float(w.mean() if keep is None else w[keep].mean())
    return beta, props.pi0


def _grid_columns(table: ObservationTable, q: float, grid: np.ndarray,
                  coef: np.ndarray, F: np.ndarray, rho: np.ndarray):
    """_phi_pass's (rh, mu, mu_marg) at each grid point, in reused n-buffers.

    coef[j] @ F.T is mu(z, .) at every level and row, and the marginal is
    its rho-weighted sum.  F is column-major, so F.T is a row-major view,
    with no transposed copy.
    """
    L, n = rho.shape
    q_r = q * table.R
    RH = np.empty((_GRID_BLOCK, n))
    M = np.empty((L, n))
    mu_x = np.empty(n)
    for j0 in range(0, grid.size, _GRID_BLOCK):
        psi = grid[j0:j0 + _GRID_BLOCK]
        for j, rh in enumerate(_rh_rows(table.Y, table.R, q_r, psi, RH), start=j0):
            np.matmul(coef[j], F.T, out=M)
            np.einsum("lm,lm->m", rho, M, out=mu_x)
            yield rh, M, mu_x


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
