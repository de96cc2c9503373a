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
predicts the instrument model once per call and transforms its basis once
per evaluate_nuisances call.  Marginal quantities pi(X) and mu(X) are
either the exact rho-weighted sums over levels ("marginalize", the
default) or separately supplied models ("direct").

A set is read through evaluate_nuisances, which also counts that one
evaluation's clipped model outputs; a fitted set's nonconverged_fits is
fixed when it is fitted.  floor_denominator is the one floor on
|delta_r|.  mu has one solver, _fit_mu: one fit_linear per level (and one
for mu(X) in direct mode), for one functional's target or for a stack of
them, as the quantile grid solves its 64 targets at once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from typing import Callable, Literal

import numpy as np

from .data import FunctionalSpec, ObservationTable, _linear_quantiles
from .exceptions import DataContractError, NuisanceFitError
from .learners import (LearnerConfig, MultinomialModel, PolyBasis, expit, fit_linear,
                       fit_logistic, fit_multinomial)

PROB_CLIP = 1e-6
EPS_DEN = 1e-6          # the floor on |delta_r|
MIN_STRATUM_ROWS = 30

MarginalizationMode = Literal["marginalize", "direct"]
TrimPolicy = Literal["floor", "drop"]
ComponentFn = Callable[[np.ndarray], np.ndarray]    # X (m, p) -> (L, m)
MarginalFn = Callable[[np.ndarray], np.ndarray]     # X (m, p) -> (m,)


@dataclass(frozen=True)
class Diagnostics:
    """Counters surfaced in reports; a + b sums them field by field."""

    floor_hits: int = 0
    prob_clips: int = 0
    winsorized: int = 0
    nonconverged_fits: int = 0

    def __add__(self, other: "Diagnostics") -> "Diagnostics":
        return Diagnostics(*(getattr(self, f.name) + getattr(other, f.name)
                             for f in fields(self)))


@dataclass(frozen=True, eq=False)
class _OnBasis:
    """A fitted component: fn applied to the basis features of the rows.

    fn returns (values, how many it clipped).  Called with X it transforms
    the basis itself and returns the values, so it is a component callable
    like any other; evaluate_nuisances instead transforms a block once,
    hands the features to every component on the same basis and sums the clips.
    """

    basis: PolyBasis
    fn: Callable[[np.ndarray], tuple[np.ndarray, int]]

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return self.fn(self.basis.transform(X))[0]


@dataclass
class NuisanceSet:
    """Bundle of nuisance callables, immutable by convention.

    pi_fn, rho_fn and mu_fn take X of shape (m, p) and return the (L, m)
    array of every instrument level; pi_marg_fn and mu_marg_fn take X and
    return (m,), and are set in direct mode only: otherwise
    evaluate_nuisances derives the marginals from the parts.  The set has
    no accessors: it is read through evaluate_nuisances.  nonconverged_fits
    counts its fits that did not converge (0 for a set not fitted here).
    """

    L: int
    pi_fn: ComponentFn
    rho_fn: ComponentFn
    mu_fn: ComponentFn
    pi0: float
    mode: MarginalizationMode = "marginalize"
    pi_marg_fn: MarginalFn | None = None
    mu_marg_fn: MarginalFn | None = None
    nonconverged_fits: int = 0

    def __post_init__(self) -> None:
        if self.mode == "direct" and (self.pi_marg_fn is None or self.mu_marg_fn is None):
            raise NuisanceFitError("direct mode requires pi_marg_fn and mu_marg_fn")


def floor_denominator(delta_r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The denominator floor: (den, hits) for the unfloored delta_r.

    Entries with |delta_r| < EPS_DEN become EPS_DEN with delta_r's sign (0
    counts as +); hits is the mask of those entries, from which the
    estimators apply their trim policy and count floor_hits.
    """
    hits = np.abs(delta_r) < EPS_DEN
    return np.where(hits, np.where(delta_r < 0, -EPS_DEN, EPS_DEN), delta_r), hits


def winsorize_values(values: np.ndarray, k: float) -> np.ndarray:
    """Pull values outside [Q1 - k IQR, Q3 + k IQR] to the boundary."""
    v = np.asarray(values, dtype=float)
    q1, q3 = _linear_quantiles(v, (0.25, 0.75))     # np.percentile(v, [25, 75])
    iqr = q3 - q1
    lo, hi = q1 - k * iqr, q3 + k * iqr
    return np.clip(v, lo, hi)


def _clip(p: np.ndarray) -> tuple[np.ndarray, int]:
    """p clipped to [PROB_CLIP, 1 - PROB_CLIP], and how many entries moved."""
    clipped = np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)
    return clipped, int(np.count_nonzero(clipped != p))


@dataclass
class Propensities:
    """The nuisance models that do not depend on psi, fitted on one block.

    pi(z, .) per level, rho, pi(.) in direct mode, and pi0.  The methods
    take the basis features F (m, d) of the rows, so a caller that already
    holds the training block's basis evaluates them with no transform; each
    returns (values, how many model outputs it clipped).
    """

    L: int
    basis: PolyBasis
    pi_coef: np.ndarray                     # (L, d) response model per level
    rho_model: np.ndarray | MultinomialModel  # (d,) logistic coef when L = 2
    pi_marg_coef: np.ndarray | None         # (d,) direct mode only
    pi0: float
    nonconverged_fits: int

    def pi(self, F: np.ndarray) -> tuple[np.ndarray, int]:
        """pi(z, .) at every level, (L, m)."""
        return _clip(expit(self.pi_coef @ F.T))

    def rho(self, F: np.ndarray) -> tuple[np.ndarray, int]:
        """rho(z, .) = P(Z = z | X) at every level, (L, m)."""
        if self.L == 2:     # a clipped p1 is one output, although it gives two levels
            p1, clips = _clip(expit(F @ self.rho_model))
            return np.stack([1.0 - p1, p1]), clips
        P = self.rho_model.predict_proba(F).T      # class-major (L, m)
        clips = int(np.count_nonzero(P < PROB_CLIP))
        if clips:
            P = np.clip(P, PROB_CLIP, None)
            P = P / P.sum(axis=0)
        return P, clips

    def pi_marg(self, F: np.ndarray) -> tuple[np.ndarray, int]:
        """The directly fitted pi(.), (m,); direct mode only."""
        return _clip(expit(F @ self.pi_marg_coef))


def _by_level(F: np.ndarray, Z: np.ndarray, L: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per instrument level z: the indices of the rows at level z, and F there.

    F's rows are gathered along axis 1 of its transposed view, so a
    column-major F gives column-major level blocks; F[r] would return
    them row-major.
    """
    return [(r, np.take(F.T, r, axis=1).T)
            for r in (np.flatnonzero(Z == z) for z in range(L))]


def _require_codes_in_range(table: ObservationTable) -> None:
    """Raise DataContractError naming an instrument code outside 0..L-1."""
    lo, hi = int(table.Z.min(initial=0)), int(table.Z.max(initial=0))
    if lo < 0 or hi >= table.L:
        raise DataContractError(f"instrument code {lo if lo < 0 else hi} is outside "
                                f"0..{table.L - 1} (L = {table.L})")


def fit_propensities(
    train: ObservationTable,
    cfg: LearnerConfig,
    mode: MarginalizationMode = "marginalize",
) -> tuple[Propensities, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Fit pi, rho and pi0 on a training block; returns them, its basis F
    and F split by instrument level.

    pi(z, .): one ridge logistic of R on the basis per level, on that
    level's rows.  When any level has fewer rows than MIN_STRATUM_ROWS,
    every level's fit ridges its intercept too (ridge_intercept), which
    keeps a thin level with one response class finite; each fit that does
    not converge counts once in nonconverged_fits.  rho: ridge
    multinomial (logistic when L = 2) of Z on the basis.  pi0 is the sample
    fraction of R = 0.  An instrument code outside 0..L-1 raises
    DataContractError.  Direct mode also fits an unstratified logistic
    pi(X).  None of these depends on psi, so a caller that varies only psi
    fits them once.  F is the training block's basis, transformed once
    here; callers reuse it to fit mu and to evaluate the models on the
    training rows.  The split holds, per level z, the row indices of level
    z and F at those rows; the pi fits use it, and fit_nuisance_set passes
    it on to the mu fits.
    """
    L = train.L
    _require_codes_in_range(train)
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
                stacklevel=3,
            )

    basis = PolyBasis(cfg.basis_df).fit(train.X)
    F = basis.transform(train.X)
    R = train.R.astype(float)
    converged: list[bool] = []

    def logistic(features: np.ndarray, labels: np.ndarray,
                 ridge_intercept: bool = False) -> np.ndarray:
        res = fit_logistic(features, labels, cfg, ridge_intercept=ridge_intercept)
        converged.append(res.converged)
        return res.coef

    # instrument model first: the level blocks gathered below are a second
    # (n, d) copy of F, which need not be alive during the multinomial fit
    if L == 2:
        rho_model = logistic(F, train.Z.astype(float))
    else:
        rho_model = fit_multinomial(F, train.Z, cfg, L=L)
        converged.append(rho_model.converged)

    # response model per level, on that level's rows; a thin level ridges
    # every level's intercept, so all levels keep one penalty: the stack is
    # the fully interacted model's optimum with every coefficient ridged
    levels = _by_level(F, train.Z, L)
    thin = bool((counts < MIN_STRATUM_ROWS).any())
    pi_coef = np.stack([logistic(Fz, R[r], thin) for r, Fz in levels])

    pi_marg_coef = logistic(F, R) if mode == "direct" else None
    pi0 = float(np.mean(train.R == 0))
    return Propensities(L=L, basis=basis, pi_coef=pi_coef, rho_model=rho_model,
                        pi_marg_coef=pi_marg_coef, pi0=pi0,
                        nonconverged_fits=converged.count(False)), F, levels


def fit_nuisance_set(
    train: ObservationTable,
    spec: FunctionalSpec,
    cfg: LearnerConfig,
    mode: MarginalizationMode = "marginalize",
) -> NuisanceSet:
    """Fit all nuisance models on a training block.

    pi, rho and pi0 come from fit_propensities; mu(z, .) is a ridge linear
    fit of R*h(Y; psi) on the same basis within each level, rows with
    R = 0 contributing target 0, and direct mode adds an unstratified
    mu(X).  Every component is a function of the one fitted basis, so
    evaluate_nuisances transforms a block once for all of them.
    Predicted probabilities are clipped to [1e-6, 1 - 1e-6], and
    evaluate_nuisances counts the clipped model outputs of each
    evaluation; the set's nonconverged_fits is fit_propensities' count.
    """
    props, F, levels = fit_propensities(train, cfg, mode)
    basis = props.basis
    mu_fn, mu_marg_fn = _mu_on_basis(
        basis, _fit_mu(F, levels, train.rh(spec).__getitem__, cfg, mode), train.L)
    return NuisanceSet(
        L=train.L,
        pi_fn=_OnBasis(basis, props.pi),
        rho_fn=_OnBasis(basis, props.rho),
        mu_fn=mu_fn,
        pi0=props.pi0,
        mode=mode,
        pi_marg_fn=_OnBasis(basis, props.pi_marg) if mode == "direct" else None,
        mu_marg_fn=mu_marg_fn,
        nonconverged_fits=props.nonconverged_fits,
    )


def _fit_mu(
    F: np.ndarray,
    levels: list[tuple[np.ndarray, np.ndarray]],
    rh_at: Callable[[np.ndarray | slice], np.ndarray],
    cfg: LearnerConfig,
    mode: MarginalizationMode,
) -> list[np.ndarray]:
    """mu's ridge coefficients: one fit_linear per level, then one over all
    rows for mu(X) in direct mode.

    F and levels are fit_propensities' basis and its split by level.
    rh_at(rows) is the target R*h at those rows (slice(None): every row),
    (m,) for one functional or (k, m) for k, with (k, d) coefficients.
    """
    coef = [fit_linear(Fz, rh_at(r), cfg).coef for r, Fz in levels]
    if mode == "direct":
        coef.append(fit_linear(F, rh_at(slice(None)), cfg).coef)
    return coef


def _mu_on_basis(basis: PolyBasis, coef: list[np.ndarray],
                 L: int) -> tuple[ComponentFn, MarginalFn | None]:
    """_fit_mu's (d,) coefficients as the (L, m) component mu and, in
    direct mode, the marginal mu(X); neither clips."""
    mu_stack = np.stack(coef[:L])
    return (_OnBasis(basis, lambda G: (mu_stack @ G.T, 0)),
            _OnBasis(basis, lambda G: (G @ coef[L], 0)) if len(coef) > L else None)


def fit_mu_component(
    train: ObservationTable,
    spec: FunctionalSpec,
    cfg: LearnerConfig,
    mode: MarginalizationMode = "marginalize",
) -> tuple[ComponentFn, MarginalFn | None]:
    """Fit only the outcome-moment models mu(z, .) (and mu(X) in direct mode).

    pi, rho and pi0 do not depend on the functional (fit_propensities fits
    them alone), so a caller that changes only psi can refit mu alone.  No
    library code calls it: general.solve_functional fits the psi-free
    models once and solves mu for its whole psi-grid with one fit_linear
    per level over the stack of every grid point's target.
    """
    counts = np.bincount(train.Z, minlength=train.L)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise NuisanceFitError(f"instrument level {empty[0]} has no training rows")
    basis = PolyBasis(cfg.basis_df).fit(train.X)
    F = basis.transform(train.X)
    levels = _by_level(F, train.Z, train.L)
    return _mu_on_basis(basis, _fit_mu(F, levels, train.rh(spec).__getitem__, cfg, mode),
                        train.L)


@dataclass
class NuisanceEval:
    """All nuisance quantities evaluated on one block of rows.

    Matrices are (L, m); vectors are (m,).  delta_r is unfloored; the
    estimators apply their trim policy.  prob_clips counts the model outputs
    this evaluation clipped (a plain callable's outputs are not clipped).
    """

    pi: np.ndarray
    rho: np.ndarray
    mu: np.ndarray
    pi_marg: np.ndarray
    mu_marg: np.ndarray
    delta_r: np.ndarray
    delta_y: np.ndarray
    prob_clips: int


def evaluate_nuisances(ns: NuisanceSet, X: np.ndarray) -> NuisanceEval:
    """One-pass evaluation of every component on the rows of X.

    The rows' basis features are computed once per fitted basis and shared
    by the fitted components on it (a fitted set has one basis).
    """
    X = np.atleast_2d(X)
    features: dict[int, np.ndarray] = {}
    clips: list[int] = []

    def call(fn: ComponentFn | MarginalFn) -> np.ndarray:
        if not isinstance(fn, _OnBasis):
            return np.asarray(fn(X), dtype=float)
        F = features.get(id(fn.basis))
        if F is None:
            F = features[id(fn.basis)] = fn.basis.transform(X)
        values, n = fn.fn(F)
        clips.append(n)
        return np.asarray(values, dtype=float)

    pi = call(ns.pi_fn)
    rho = call(ns.rho_fn)
    mu = call(ns.mu_fn)
    if ns.mode == "direct":
        pim = call(ns.pi_marg_fn)
        mum = call(ns.mu_marg_fn)
    else:
        pim = np.einsum("lm,lm->m", rho, pi)
        mum = np.einsum("lm,lm->m", rho, mu)
    return NuisanceEval(
        pi=pi, rho=rho, mu=mu, pi_marg=pim, mu_marg=mum,
        delta_r=pi - pim[None, :], delta_y=mu - mum[None, :], prob_clips=sum(clips),
    )
