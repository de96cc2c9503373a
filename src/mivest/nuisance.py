"""Nuisance function estimation and the shared NuisanceSet container.

A NuisanceSet bundles the three conditional models the estimators need:

    pi(z, X)  = P(R = 1 | Z = z, X)
    rho(z, X) = P(Z = z | X)
    mu(z, X)  = E[R * h(Y; psi) | Z = z, X]

plus the scalar pi0 = P(R = 0).  Components are plain callables, so the
same container carries fitted models, closed-form truths, or corrupted
versions.  Each component callable takes the rows X and returns every
instrument level at once, an (L, m) array whose row z is level z: the
influence function needs all levels at every row, and a fitted set then
transforms its basis once and predicts the instrument model once per
call.  Marginal quantities pi(X) and mu(X) are either the exact
rho-weighted sums over levels ("marginalize", the default) or separately
supplied models ("direct").
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Literal

import numpy as np

from .data import FunctionalSpec, ObservationTable
from .exceptions import DenominatorFloorError, NuisanceFitError
from .learners import (LearnerConfig, MultinomialModel, PolyBasis, expit, fit_linear,
                       fit_logistic, fit_multinomial)

PROB_CLIP = 1e-6
MIN_STRATUM_ROWS = 30

MarginalizationMode = Literal["marginalize", "direct"]
TrimPolicy = Literal["floor", "drop"]
ComponentFn = Callable[[np.ndarray], np.ndarray]    # X (m, p) -> (L, m)
MarginalFn = Callable[[np.ndarray], np.ndarray]     # X (m, p) -> (m,)
Levels = int | slice


@dataclass
class Diagnostics:
    """Counters surfaced in reports; totals are order-independent."""

    floor_hits: int = 0
    prob_clips: int = 0
    winsorized: int = 0
    nonconverged_fits: int = 0

    def merge(self, other: "Diagnostics") -> "Diagnostics":
        self.floor_hits += other.floor_hits
        self.prob_clips += other.prob_clips
        self.winsorized += other.winsorized
        self.nonconverged_fits += other.nonconverged_fits
        return self

    def as_dict(self) -> dict[str, int]:
        return {
            "floor_hits": self.floor_hits,
            "prob_clips": self.prob_clips,
            "winsorized": self.winsorized,
            "nonconverged_fits": self.nonconverged_fits,
        }


def _levels(fn: ComponentFn, X: np.ndarray) -> np.ndarray:
    return np.asarray(fn(np.atleast_2d(X)), dtype=float)


@dataclass
class NuisanceSet:
    """Bundle of nuisance callables, immutable by convention.

    pi_fn, rho_fn, mu_fn and the optional delta_fn take X of shape (m, p)
    and return the (L, m) array of every instrument level; pi_marg_fn and
    mu_marg_fn take X and return (m,).  delta_fn, pi_marg_fn, mu_marg_fn
    are optional overrides; when absent the derived accessors compute from
    the parts.  The accessors take a level z, or slice(None) for the
    (L, m) stack of every level.
    """

    L: int
    pi_fn: ComponentFn
    rho_fn: ComponentFn
    mu_fn: ComponentFn
    pi0: float
    mode: MarginalizationMode = "marginalize"
    pi_marg_fn: MarginalFn | None = None
    mu_marg_fn: MarginalFn | None = None
    delta_fn: ComponentFn | None = None
    eps_den: float = 1e-6
    diagnostics: Diagnostics = field(default_factory=Diagnostics)

    def __post_init__(self) -> None:
        if self.mode == "direct" and (self.pi_marg_fn is None or self.mu_marg_fn is None):
            raise NuisanceFitError("direct mode requires pi_marg_fn and mu_marg_fn")

    def pi(self, z: Levels, X: np.ndarray) -> np.ndarray:
        return _levels(self.pi_fn, X)[z]

    def rho(self, z: Levels, X: np.ndarray) -> np.ndarray:
        return _levels(self.rho_fn, X)[z]

    def mu(self, z: Levels, X: np.ndarray) -> np.ndarray:
        return _levels(self.mu_fn, X)[z]

    def pi_marg(self, X: np.ndarray) -> np.ndarray:
        return evaluate_nuisances(self, X).pi_marg

    def mu_marg(self, X: np.ndarray) -> np.ndarray:
        return evaluate_nuisances(self, X).mu_marg

    def delta_r(self, z: Levels, X: np.ndarray) -> np.ndarray:
        """pi(z, X) - pi(X), unfloored."""
        return evaluate_nuisances(self, X).delta_r[z]

    def delta_y(self, z: Levels, X: np.ndarray) -> np.ndarray:
        return evaluate_nuisances(self, X).delta_y[z]

    def delta(self, z: Levels, X: np.ndarray, *, on_floor: str = "raise") -> np.ndarray:
        """Instrument-contrast ratio delta(z, X) = delta_y / delta_r.

        on_floor: "raise" raises DenominatorFloorError if |delta_r| < eps_den
        at the requested levels; "floor" substitutes eps_den with the
        original sign and counts the hits.
        """
        if self.delta_fn is not None:
            return _levels(self.delta_fn, X)[z]
        ev = evaluate_nuisances(self, X)
        den = apply_floor(ev.delta_r[z], self.eps_den, on_floor, self.diagnostics)
        return ev.delta_y[z] / den

    def g(self, z: Levels, X: np.ndarray, *, on_floor: str = "raise") -> np.ndarray:
        """g(z, X) = (1 - pi(z, X)) / (pi0 * delta_r(z, X))."""
        ev = evaluate_nuisances(self, X)
        den = apply_floor(ev.delta_r[z], self.eps_den, on_floor, self.diagnostics)
        return (1.0 - ev.pi[z]) / (self.pi0 * den)

    def g_marg(self, X: np.ndarray, *, on_floor: str = "raise") -> np.ndarray:
        """g(X) = sum_z rho(z, X) g(z, X), the exact rho-weighted sum."""
        all_levels = slice(None)
        return np.einsum("lm,lm->m", self.rho(all_levels, X),
                         self.g(all_levels, X, on_floor=on_floor))

    def with_overrides(self, **kwargs) -> "NuisanceSet":
        """Copy with selected fields replaced (shares unreplaced callables)."""
        return replace(self, **kwargs)


def apply_floor(
    values: np.ndarray,
    eps: float,
    policy: str,
    diag: Diagnostics | None = None,
) -> np.ndarray:
    """Handle near-zero denominators.

    "raise": any |v| < eps raises DenominatorFloorError.
    "floor": substitute sign(v) * eps (sign 0 treated as +) and count hits.
    Returns floored values; callers needing the hit mask use floor_mask.
    """
    values = np.asarray(values, dtype=float)
    small = np.abs(values) < eps
    if policy == "raise":
        if small.any():
            raise DenominatorFloorError(
                f"{int(small.sum())} denominator value(s) below eps_den={eps}"
            )
        return values
    if policy == "floor":
        if small.any():
            if diag is not None:
                diag.floor_hits += int(small.sum())
            sign = np.where(values < 0, -1.0, 1.0)
            return np.where(small, sign * eps, values)
        return values
    raise ValueError(f"unknown floor policy {policy!r}")


def floor_mask(values: np.ndarray, eps: float) -> np.ndarray:
    return np.abs(np.asarray(values, dtype=float)) < eps


def winsorize_values(
    values: np.ndarray,
    k: float,
    diag: Diagnostics | None = None,
) -> np.ndarray:
    """Pull values outside [Q1 - k IQR, Q3 + k IQR] to the boundary."""
    v = np.asarray(values, dtype=float)
    q1, q3 = np.percentile(v, [25.0, 75.0])
    iqr = q3 - q1
    lo, hi = q1 - k * iqr, q3 + k * iqr
    w = np.clip(v, lo, hi)
    if diag is not None:
        diag.winsorized += int(np.count_nonzero(w != v))
    return w


def fit_nuisance_set(
    train: ObservationTable,
    spec: FunctionalSpec,
    cfg: LearnerConfig,
    mode: MarginalizationMode = "marginalize",
    eps_den: float = 1e-6,
) -> NuisanceSet:
    """Fit all nuisance models on a training block.

    pi(z, .): ridge logistic of R on the basis, stratified by level, with a
    pooled fully-interacted fallback when any level has fewer rows than
    MIN_STRATUM_ROWS.  rho: ridge multinomial (logistic when L = 2) of Z on
    the basis.  mu(z, .): ridge linear of R*h(Y; psi) on the basis within
    each level; rows with R = 0 contribute target 0.  pi0 is the sample
    fraction of R = 0 in the training block.  Direct mode additionally fits
    unstratified models for pi(X) and mu(X).  Each component callable
    transforms the basis once per call.  Predicted probabilities are
    clipped to [1e-6, 1 - 1e-6]; every clipped model output is counted once
    in diagnostics, so with L = 2 a clip of the instrument model counts
    once, not once per level.
    """
    L = train.L
    diag = Diagnostics()
    counts = np.bincount(train.Z, minlength=L)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise NuisanceFitError(f"instrument level {empty[0]} has no training rows")
    for z in range(L):
        rz = train.R[train.Z == z]
        if rz.min(initial=1) == rz.max(initial=0):
            warnings.warn(
                f"instrument level {z} lacks both response classes in training data",
                RuntimeWarning,
                stacklevel=2,
            )

    basis = PolyBasis(cfg.basis_df).fit(train.X)
    F = basis.transform(train.X)
    R = train.R.astype(float)

    def clip_prob(p: np.ndarray) -> np.ndarray:
        clipped = np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)
        diag.prob_clips += int(np.count_nonzero(clipped != p))
        return clipped

    def logistic(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
        res = fit_logistic(features, labels, cfg)
        if not res.converged:
            diag.nonconverged_fits += 1
        return res.coef

    # response model per level, pooled interacted fallback for thin strata;
    # either way one (L, d) coefficient stack
    if (counts < MIN_STRATUM_ROWS).any():
        d = F.shape[1]
        # block-diagonal layout: each level gets its own copy of the basis
        # (level indicator columns included), jointly ridged
        Fi = np.zeros((train.n, d * L))
        for z in range(L):
            rows = train.Z == z
            Fi[rows, z * d:(z + 1) * d] = F[rows]
        pi_stack = logistic(Fi, R).reshape(L, d)
    else:
        pi_stack = np.stack([logistic(F[train.Z == z], R[train.Z == z]) for z in range(L)])

    def pi_fn(X: np.ndarray) -> np.ndarray:
        return clip_prob(expit(pi_stack @ basis.transform(X).T))

    # instrument model
    if L == 2:
        rho_coef = logistic(F, train.Z.astype(float))

        def rho_fn(X: np.ndarray) -> np.ndarray:
            p1 = clip_prob(expit(basis.transform(X) @ rho_coef))
            return np.stack([1.0 - p1, p1])
    else:
        model: MultinomialModel = fit_multinomial(F, train.Z, cfg, L=L)
        if not model.converged:
            diag.nonconverged_fits += 1

        def rho_fn(X: np.ndarray) -> np.ndarray:
            P = model.predict_proba(basis.transform(X)).T      # class-major (L, m)
            low = P < PROB_CLIP
            if low.any():
                diag.prob_clips += int(np.count_nonzero(low))
                P = np.clip(P, PROB_CLIP, None)
                P = P / P.sum(axis=0)
            return P

    mu_fn, mu_marg_fn = _fit_mu(train, basis, F, train.rh(spec), cfg, mode)

    pi_marg_fn = None
    if mode == "direct":
        pim_coef = logistic(F, R)

        def pi_marg_fn(X: np.ndarray) -> np.ndarray:
            return clip_prob(expit(basis.transform(X) @ pim_coef))

    pi0 = float(np.mean(train.R == 0))
    return NuisanceSet(
        L=L,
        pi_fn=pi_fn,
        rho_fn=rho_fn,
        mu_fn=mu_fn,
        pi0=pi0,
        mode=mode,
        pi_marg_fn=pi_marg_fn,
        mu_marg_fn=mu_marg_fn,
        eps_den=eps_den,
        diagnostics=diag,
    )


def _fit_mu(
    train: ObservationTable,
    basis: PolyBasis,
    F: np.ndarray,
    rh: np.ndarray,
    cfg: LearnerConfig,
    mode: MarginalizationMode,
) -> tuple[ComponentFn, MarginalFn | None]:
    """mu(z, .) per level as one (L, m) callable, and mu(X) in direct mode.

    The target is R*h with 0 for R = 0 rows; F is the training block's
    basis.
    """
    mu_stack = np.stack([fit_linear(F[train.Z == z], rh[train.Z == z], cfg).coef
                         for z in range(train.L)])

    def mu_fn(X: np.ndarray) -> np.ndarray:
        return mu_stack @ basis.transform(X).T

    mu_marg_fn = None
    if mode == "direct":
        mum_coef = fit_linear(F, rh, cfg).coef

        def mu_marg_fn(X: np.ndarray) -> np.ndarray:
            return basis.transform(X) @ mum_coef

    return mu_fn, mu_marg_fn


def fit_mu_component(
    train: ObservationTable,
    spec: FunctionalSpec,
    cfg: LearnerConfig,
    mode: MarginalizationMode = "marginalize",
) -> tuple[ComponentFn, MarginalFn | None]:
    """Fit only the outcome-moment models mu(z, .) (and mu(X) in direct mode).

    pi, rho and pi0 do not depend on the functional, so a caller that
    changes only psi can refit mu alone.  No library code calls it: the
    quantile solver solves mu for its whole psi-grid at once
    (general._grid_beta).
    """
    counts = np.bincount(train.Z, minlength=train.L)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise NuisanceFitError(f"instrument level {empty[0]} has no training rows")
    basis = PolyBasis(cfg.basis_df).fit(train.X)
    return _fit_mu(train, basis, basis.transform(train.X), train.rh(spec), cfg, mode)


@dataclass
class NuisanceEval:
    """All nuisance quantities evaluated on one block of rows.

    Matrices are (L, m); vectors are (m,).  delta_r is unfloored; the
    estimators apply their trim policy.  delta holds the set's delta_fn
    override, or None when delta derives from the parts.
    """

    pi: np.ndarray
    rho: np.ndarray
    mu: np.ndarray
    pi_marg: np.ndarray
    mu_marg: np.ndarray
    delta_r: np.ndarray
    delta_y: np.ndarray
    delta: np.ndarray | None


def evaluate_nuisances(ns: NuisanceSet, X: np.ndarray) -> NuisanceEval:
    """One-pass evaluation of every component on the rows of X."""
    X = np.atleast_2d(X)
    pi = _levels(ns.pi_fn, X)
    rho = _levels(ns.rho_fn, X)
    mu = _levels(ns.mu_fn, X)
    if ns.mode == "direct":
        pim = np.asarray(ns.pi_marg_fn(X), dtype=float)
        mum = np.asarray(ns.mu_marg_fn(X), dtype=float)
    else:
        pim = np.einsum("lm,lm->m", rho, pi)
        mum = np.einsum("lm,lm->m", rho, mu)
    return NuisanceEval(
        pi=pi, rho=rho, mu=mu, pi_marg=pim, mu_marg=mum,
        delta_r=pi - pim[None, :], delta_y=mu - mum[None, :],
        delta=None if ns.delta_fn is None else _levels(ns.delta_fn, X),
    )
