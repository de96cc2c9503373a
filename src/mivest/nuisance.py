"""Nuisance function estimation and the shared NuisanceSet container.

A NuisanceSet bundles the three conditional models the estimators need:

    pi(z, X)  = P(R = 1 | Z = z, X)
    rho(z, X) = P(Z = z | X)
    mu(z, X)  = E[R * h(Y; psi) | Z = z, X]

plus the scalar pi0 = P(R = 0).  Components are plain callables, so the
same container carries fitted models, closed-form truths, or corrupted
versions.  Marginal quantities pi(X) and mu(X) are either the exact
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
ComponentFn = Callable[[int, np.ndarray], np.ndarray]


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


@dataclass
class NuisanceSet:
    """Bundle of nuisance callables, immutable by convention.

    The callables take (level, X) with X of shape (m, p) and return (m,)
    arrays.  delta_fn, pi_marg_fn, mu_marg_fn are optional overrides; when
    absent the derived accessors compute from the parts.
    """

    L: int
    pi_fn: ComponentFn
    rho_fn: ComponentFn
    mu_fn: ComponentFn
    pi0: float
    mode: MarginalizationMode = "marginalize"
    pi_marg_fn: Callable[[np.ndarray], np.ndarray] | None = None
    mu_marg_fn: Callable[[np.ndarray], np.ndarray] | None = None
    delta_fn: ComponentFn | None = None
    eps_den: float = 1e-6
    diagnostics: Diagnostics = field(default_factory=Diagnostics)

    def __post_init__(self) -> None:
        if self.mode == "direct" and (self.pi_marg_fn is None or self.mu_marg_fn is None):
            raise NuisanceFitError("direct mode requires pi_marg_fn and mu_marg_fn")

    # -- per-level accessors ----------------------------------------------

    def pi(self, z: int, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.pi_fn(z, np.atleast_2d(X)), dtype=float)

    def rho(self, z: int, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.rho_fn(z, np.atleast_2d(X)), dtype=float)

    def mu(self, z: int, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.mu_fn(z, np.atleast_2d(X)), dtype=float)

    def pi_all(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        return np.stack([self.pi(z, X) for z in range(self.L)])

    def rho_all(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        return np.stack([self.rho(z, X) for z in range(self.L)])

    def mu_all(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        return np.stack([self.mu(z, X) for z in range(self.L)])

    # -- marginals ----------------------------------------------------------

    def pi_marg(self, X: np.ndarray) -> np.ndarray:
        if self.mode == "direct":
            return np.asarray(self.pi_marg_fn(np.atleast_2d(X)), dtype=float)
        return np.einsum("lm,lm->m", self.rho_all(X), self.pi_all(X))

    def mu_marg(self, X: np.ndarray) -> np.ndarray:
        if self.mode == "direct":
            return np.asarray(self.mu_marg_fn(np.atleast_2d(X)), dtype=float)
        return np.einsum("lm,lm->m", self.rho_all(X), self.mu_all(X))

    # -- contrasts ----------------------------------------------------------

    def delta_r(self, z: int, X: np.ndarray) -> np.ndarray:
        """pi(z, X) - pi(X), unfloored."""
        return self.pi(z, X) - self.pi_marg(X)

    def delta_y(self, z: int, X: np.ndarray) -> np.ndarray:
        return self.mu(z, X) - self.mu_marg(X)

    def delta(self, z: int, X: np.ndarray, *, on_floor: str = "raise") -> np.ndarray:
        """Instrument-contrast ratio delta(z, X) = delta_y / delta_r.

        on_floor: "raise" raises DenominatorFloorError if |delta_r| < eps_den;
        "floor" substitutes eps_den with the original sign and counts the hit.
        """
        if self.delta_fn is not None:
            return np.asarray(self.delta_fn(z, np.atleast_2d(X)), dtype=float)
        den = self.delta_r(z, X)
        den = apply_floor(den, self.eps_den, on_floor, self.diagnostics)
        return self.delta_y(z, X) / den

    def g(self, z: int, X: np.ndarray, *, on_floor: str = "raise") -> np.ndarray:
        """g(z, X) = (1 - pi(z, X)) / (pi0 * delta_r(z, X))."""
        den = apply_floor(self.delta_r(z, X), self.eps_den, on_floor, self.diagnostics)
        return (1.0 - self.pi(z, X)) / (self.pi0 * den)

    def g_marg(self, X: np.ndarray, *, on_floor: str = "raise") -> np.ndarray:
        """g(X) = sum_z rho(z, X) g(z, X), the exact rho-weighted sum."""
        X = np.atleast_2d(X)
        rho = self.rho_all(X)
        gs = np.stack([self.g(z, X, on_floor=on_floor) for z in range(self.L)])
        return np.einsum("lm,lm->m", rho, gs)

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
    unstratified models for pi(X) and mu(X).  Predicted probabilities are
    clipped to [1e-6, 1 - 1e-6]; every clip is counted in diagnostics.
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
    rh = train.rh(spec)
    R = train.R.astype(float)

    def clip_prob(p: np.ndarray) -> np.ndarray:
        clipped = np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)
        diag.prob_clips += int(np.count_nonzero(clipped != p))
        return clipped

    # response model per level, pooled interacted fallback for thin strata
    pooled = bool((counts < MIN_STRATUM_ROWS).any())
    if pooled:
        d = F.shape[1]
        # block-diagonal layout: each level gets its own copy of the basis
        # (level indicator columns included), jointly ridged
        Fi = np.zeros((train.n, d * L))
        for z in range(L):
            rows = train.Z == z
            Fi[rows, z * d:(z + 1) * d] = F[rows]
        res = fit_logistic(Fi, R, cfg)
        if not res.converged:
            diag.nonconverged_fits += 1
        pooled_coef = res.coef

        def pi_fn(z: int, X: np.ndarray, _b=basis, _c=pooled_coef, _d=d) -> np.ndarray:
            Fx = _b.transform(np.atleast_2d(X))
            return clip_prob(expit(Fx @ _c[z * _d:(z + 1) * _d]))
    else:
        pi_coefs = []
        for z in range(L):
            rows = train.Z == z
            res = fit_logistic(F[rows], R[rows], cfg)
            if not res.converged:
                diag.nonconverged_fits += 1
            pi_coefs.append(res.coef)
        pi_stack = np.stack(pi_coefs)

        def pi_fn(z: int, X: np.ndarray, _b=basis, _cs=pi_stack) -> np.ndarray:
            return clip_prob(expit(_b.transform(np.atleast_2d(X)) @ _cs[z]))

    # instrument model
    if L == 2:
        res = fit_logistic(F, train.Z.astype(float), cfg)
        if not res.converged:
            diag.nonconverged_fits += 1
        rho_coef = res.coef

        def rho_fn(z: int, X: np.ndarray, _b=basis, _c=rho_coef) -> np.ndarray:
            p1 = clip_prob(expit(_b.transform(np.atleast_2d(X)) @ _c))
            return p1 if z == 1 else 1.0 - p1
    else:
        model: MultinomialModel = fit_multinomial(F, train.Z, cfg, L=L)
        if not model.converged:
            diag.nonconverged_fits += 1

        def rho_fn(z: int, X: np.ndarray, _b=basis, _m=model) -> np.ndarray:
            P = _m.predict_proba(_b.transform(np.atleast_2d(X)))
            low = P < PROB_CLIP
            if low.any():
                diag.prob_clips += int(np.count_nonzero(low[:, z]))
                P = np.clip(P, PROB_CLIP, None)
                P = P / P.sum(axis=1, keepdims=True)
            return P[:, z]

    # outcome-moment model per level; target is R*h with 0 for R=0 rows
    mu_coefs = []
    for z in range(L):
        rows = train.Z == z
        mu_coefs.append(fit_linear(F[rows], rh[rows], cfg).coef)
    mu_stack = np.stack(mu_coefs)

    def mu_fn(z: int, X: np.ndarray, _b=basis, _cs=mu_stack) -> np.ndarray:
        return _b.transform(np.atleast_2d(X)) @ _cs[z]

    pi_marg_fn = None
    mu_marg_fn = None
    if mode == "direct":
        res = fit_logistic(F, R, cfg)
        if not res.converged:
            diag.nonconverged_fits += 1
        pim_coef = res.coef

        def pi_marg_fn(X: np.ndarray, _b=basis, _c=pim_coef) -> np.ndarray:
            return clip_prob(expit(_b.transform(np.atleast_2d(X)) @ _c))

        mum_coef = fit_linear(F, rh, cfg).coef

        def mu_marg_fn(X: np.ndarray, _b=basis, _c=mum_coef) -> np.ndarray:
            return _b.transform(np.atleast_2d(X)) @ _c

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


def fit_mu_component(
    train: ObservationTable,
    spec: FunctionalSpec,
    cfg: LearnerConfig,
    mode: MarginalizationMode = "marginalize",
) -> tuple[ComponentFn, Callable[[np.ndarray], np.ndarray] | None]:
    """Fit only the outcome-moment models mu(z, .) (and mu(X) in direct mode).

    pi, rho and pi0 do not depend on the functional, so a caller that
    changes only psi can refit mu alone.  No library code calls it: the
    quantile solver solves mu for its whole psi-grid at once
    (general._grid_beta).
    """
    basis = PolyBasis(cfg.basis_df).fit(train.X)
    F = basis.transform(train.X)
    rh = train.rh(spec)
    mu_coefs = []
    for z in range(train.L):
        rows = train.Z == z
        if not rows.any():
            raise NuisanceFitError(f"instrument level {z} has no training rows")
        mu_coefs.append(fit_linear(F[rows], rh[rows], cfg).coef)
    mu_stack = np.stack(mu_coefs)

    def mu_fn(z: int, X: np.ndarray, _b=basis, _cs=mu_stack) -> np.ndarray:
        return _b.transform(np.atleast_2d(X)) @ _cs[z]

    mu_marg_fn = None
    if mode == "direct":
        coef = fit_linear(F, rh, cfg).coef

        def mu_marg_fn(X: np.ndarray, _b=basis, _c=coef) -> np.ndarray:
            return _b.transform(np.atleast_2d(X)) @ _c

    return mu_fn, mu_marg_fn


@dataclass
class NuisanceEval:
    """All nuisance quantities evaluated on one block of rows.

    Matrices are (L, m); vectors are (m,).  delta_r is unfloored; the
    estimators apply their trim policy.
    """

    pi: np.ndarray
    rho: np.ndarray
    mu: np.ndarray
    pi_marg: np.ndarray
    mu_marg: np.ndarray
    delta_r: np.ndarray
    delta_y: np.ndarray


def evaluate_nuisances(ns: NuisanceSet, X: np.ndarray) -> NuisanceEval:
    """One-pass evaluation of every component on the rows of X."""
    X = np.atleast_2d(X)
    pi = ns.pi_all(X)
    rho = ns.rho_all(X)
    mu = ns.mu_all(X)
    if ns.mode == "direct":
        pim = np.asarray(ns.pi_marg_fn(X), dtype=float)
        mum = np.asarray(ns.mu_marg_fn(X), dtype=float)
    else:
        pim = np.einsum("lm,lm->m", rho, pi)
        mum = np.einsum("lm,lm->m", rho, mu)
    return NuisanceEval(
        pi=pi, rho=rho, mu=mu, pi_marg=pim, mu_marg=mum,
        delta_r=pi - pim[None, :], delta_y=mu - mum[None, :],
    )
