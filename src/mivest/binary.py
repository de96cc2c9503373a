"""Estimators specialized to a binary instrument (L = 2).

With two instrument levels the contrasts collapse to a single ratio

    delta(x) = (mu(1,x) - mu(0,x)) / (pi(1,x) - pi(0,x))

and the influence function takes the explicit form

    phi = (2Z-1)/rho_Z(x) * (1-pi(x)) / (pi0 * delta_r(x))
          * [R h - R delta(x) - mu(0,x) + pi(0,x) delta(x)]
          + (1-R)/pi0 * (delta(x) - beta)

where delta_r(x) = pi(1,x) - pi(0,x), pi(x) = P(R=1|x), pi0 = P(R=0),
and pi(0,x), mu(0,x) are the level-0 response and outcome-moment models
(not the scalar pi0).  Numerically identical to the general-instrument
influence function evaluated with the same nuisances.
"""

from __future__ import annotations

import numpy as np

from .data import FunctionalSpec, ObservationTable
from .exceptions import DataContractError, EstimationError, NoIncompleteCasesError
from .nuisance import (
    Diagnostics,
    NuisanceSet,
    TrimPolicy,
    apply_floor,
    evaluate_nuisances,
    floor_mask,
    winsorize_values,
)


def _require_binary(ns: NuisanceSet) -> None:
    if ns.L != 2:
        raise DataContractError(f"binary estimator requires L = 2, got L = {ns.L}")


def wald_ratio_binary(
    ns: NuisanceSet,
    x: np.ndarray,
    *,
    on_floor: str = "raise",
    diag: Diagnostics | None = None,
) -> np.ndarray:
    """delta(x) = (mu(1,x) - mu(0,x)) / (pi(1,x) - pi(0,x)).

    x may be one point (p,) or a block (m, p); returns (m,) values.
    on_floor "raise" rejects |denominator| < eps_den, "floor" substitutes
    the signed floor and counts the hit.
    """
    _require_binary(ns)
    ev = evaluate_nuisances(ns, np.asarray(x, dtype=float))
    if ev.delta is not None:
        return ev.delta[1]
    den = ev.pi[1] - ev.pi[0]
    den = apply_floor(den, ns.eps_den, on_floor, diag if diag is not None else ns.diagnostics)
    return (ev.mu[1] - ev.mu[0]) / den


def beta_id_binary(
    table: ObservationTable,
    ns: NuisanceSet,
    *,
    trim: TrimPolicy = "floor",
    diag: Diagnostics | None = None,
) -> float:
    """Plug-in estimator: mean of delta(X_i) over rows with R_i = 0."""
    _require_binary(ns)
    if table.n0 == 0:
        raise NoIncompleteCasesError("no rows with R = 0; the target is undefined")
    ev = evaluate_nuisances(ns, table.X)
    den = ev.pi[1] - ev.pi[0]
    hits = floor_mask(den, ns.eps_den)
    if diag is not None:
        diag.floor_hits += int(hits.sum())
    if ev.delta is not None:
        delta = ev.delta[1]
    else:
        sign = np.where(den < 0, -1.0, 1.0)
        delta = (ev.mu[1] - ev.mu[0]) / np.where(hits, sign * ns.eps_den, den)
    mask = table.R == 0
    if trim == "drop":
        mask = mask & ~hits
    if not mask.any():
        raise NoIncompleteCasesError("trim policy removed every incomplete row")
    return float(delta[mask].mean())


def _phi_tilde_binary(
    table: ObservationTable,
    ns: NuisanceSet,
    spec: FunctionalSpec,
    trim: TrimPolicy,
    diag: Diagnostics | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uncentered influence values, keep mask, and delta at each row's x."""
    _require_binary(ns)
    ev = evaluate_nuisances(ns, table.X)
    den = ev.pi[1] - ev.pi[0]
    hits = floor_mask(den, ns.eps_den)
    if diag is not None:
        diag.floor_hits += int(hits.sum())
    sign = np.where(den < 0, -1.0, 1.0)
    den_f = np.where(hits, sign * ns.eps_den, den)
    if ev.delta is not None:
        delta = ev.delta[1]
    else:
        delta = (ev.mu[1] - ev.mu[0]) / den_f

    rows = np.arange(table.n)
    rho_z = ev.rho[table.Z, rows]
    R = table.R.astype(float)
    rh = table.rh(spec)
    zsign = 2.0 * table.Z.astype(float) - 1.0
    weight = zsign / rho_z * (1.0 - ev.pi_marg) / (ns.pi0 * den_f)
    bracket = rh - R * delta - ev.mu[0] + ev.pi[0] * delta
    phi_tilde = weight * bracket + (1.0 - R) / ns.pi0 * delta

    keep = ~hits if trim == "drop" else np.ones(table.n, dtype=bool)
    return phi_tilde, keep, delta


def if_values_binary(
    table: ObservationTable,
    ns: NuisanceSet,
    beta: float,
    spec: FunctionalSpec,
    *,
    trim: TrimPolicy = "floor",
    diag: Diagnostics | None = None,
) -> np.ndarray:
    """Centered influence values phi(beta) for every row."""
    phi_tilde, _, _ = _phi_tilde_binary(table, ns, spec, trim, diag)
    R = table.R.astype(float)
    return phi_tilde - (1.0 - R) / ns.pi0 * beta


def if_value_binary(
    ns: NuisanceSet,
    x: np.ndarray,
    z: int,
    r: int,
    y: float | None,
    beta: float,
    spec: FunctionalSpec,
) -> float:
    """Centered influence value for a single record."""
    table = ObservationTable.from_arrays(
        np.atleast_2d(np.asarray(x, dtype=float)),
        np.array([z]),
        np.array([r]),
        [y],
        L=2,
    )
    return float(if_values_binary(table, ns, beta, spec)[0])


def beta_if_binary(
    table: ObservationTable,
    ns: NuisanceSet,
    spec: FunctionalSpec,
    *,
    trim: TrimPolicy = "floor",
    winsorize: float | None = None,
    diag: Diagnostics | None = None,
) -> float:
    """Influence-function estimator: mean of phi~ over retained rows."""
    if table.n0 == 0:
        raise NoIncompleteCasesError("no rows with R = 0; the target is undefined")
    if not ns.pi0 > 0:
        raise NoIncompleteCasesError("pi0 = 0 in the nuisance set")
    phi_tilde, keep, _ = _phi_tilde_binary(table, ns, spec, trim, diag)
    if winsorize is not None:
        phi_tilde = winsorize_values(phi_tilde, winsorize, diag)
    if not keep.any():
        raise EstimationError("trim policy removed every row")
    return float(phi_tilde[keep].mean())
