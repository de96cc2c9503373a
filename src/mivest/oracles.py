"""Closed-form nuisance truths for the built-in families.

For both families the selection exponent is A_z(x) + B u with B = -1/4, so
P(R=0 | z, u, x) = min(exp(A + B u), 1) and every nuisance reduces to
partial exponential moments of U:

    normal U:   E[e^{aU} 1{lo < U < hi}]
                = e^{a m + a^2 s^2 / 2} [Phi((hi - m - a s^2)/s)
                                         - Phi((lo - m - a s^2)/s)]
    uniform U:  (e^{a hi'} - e^{a lo'}) / a   on the clipped interval.

A_z(x) and P(Z = z | X) are the generator's own (selection_alpha_z_* and
instrument_prob* in simulation), so the two modules state each family's
law once.  The clamp threshold is u* = 4 A_z(x): the raw exponent exceeds
0 exactly when u < u*.  The closed forms use the cap at 1 rather than
1 - 1e-9; the gap is below 1e-9 everywhere and irrelevant at test
tolerances.  oracle_identified_beta needs no draws: it is a ratio of two
Gauss-Legendre quadratures of these closed forms over the covariate
square, as true_p_missing is one.

Outcome-model truths are implemented for the mean functional
h(y; psi) = y - psi, where E[R h | z, x] has a closed form because the
outcome mean is (x1 + x2) e^{U/6}.  Quantile functionals have no closed
form here; use the brute-force oracles in simulation instead.
"""

from __future__ import annotations

import functools
from typing import Callable, Mapping

import numpy as np

from .data import FunctionalSpec
from .exceptions import ConfigurationError, EstimationError
from .nuisance import NuisanceSet, evaluate_nuisances
from .simulation import (
    FAMILY_DUAL,
    FAMILY_SINGLE,
    instrument_prob_single,
    instrument_probs_dual,
    selection_alpha_z_dual,
    selection_alpha_z_single,
)

_B = -0.25          # shared U coefficient in the selection exponent
_U_MEAN = 4.0       # single family latent
_U_SD = 0.5
_Y_EXP = 1.0 / 6.0  # outcome mean is (x1 + x2) exp(U / 6)


def normal_partial_exp(a: float, mean: float, sd: float,
                       lo: np.ndarray | float, hi: np.ndarray | float) -> np.ndarray:
    """E[e^{aU} 1{lo < U < hi}] for U ~ N(mean, sd^2)."""
    # imported here, not at module level, so that loading mivest does not
    # load scipy: only the single-family closed forms need the normal CDF
    from scipy.special import ndtr

    scale = np.exp(a * mean + 0.5 * a * a * sd * sd)
    shift = mean + a * sd * sd
    upper = ndtr((np.asarray(hi, dtype=float) - shift) / sd)
    lower = ndtr((np.asarray(lo, dtype=float) - shift) / sd)
    return scale * (upper - lower)


def uniform_partial_exp(a: float, lo: np.ndarray | float,
                        hi: np.ndarray | float) -> np.ndarray:
    """E[e^{aU} 1{lo < U < hi}] for U ~ U(0, 1); bounds are clipped."""
    lo_c = np.clip(np.asarray(lo, dtype=float), 0.0, 1.0)
    hi_c = np.clip(np.asarray(hi, dtype=float), 0.0, 1.0)
    hi_c = np.maximum(hi_c, lo_c)
    if a == 0.0:
        return hi_c - lo_c
    return (np.exp(a * hi_c) - np.exp(a * lo_c)) / a


# --------------------------------------------------------------------------
# per-family building blocks, vectorised over rows of X
# --------------------------------------------------------------------------

def _p_r0_single(z: int, X: np.ndarray) -> np.ndarray:
    from scipy.special import ndtr

    A = selection_alpha_z_single(z, X)
    u_star = 4.0 * A  # exponent > 0 iff u < u*
    clamped = ndtr((u_star - _U_MEAN) / _U_SD)
    tail = normal_partial_exp(_B, _U_MEAN, _U_SD, u_star, np.inf)
    return clamped + np.exp(A) * tail


def _p_r0_dual(code: int, X: np.ndarray, parameters: Mapping[str, float]) -> np.ndarray:
    A = selection_alpha_z_dual(*divmod(code, 2), X, parameters)
    u_star = np.clip(4.0 * A, 0.0, 1.0)
    tail = uniform_partial_exp(_B, u_star, 1.0)
    return u_star + np.exp(A) * tail


def _mu_single(z: int, X: np.ndarray, psi: float) -> np.ndarray:
    """E[R (Y - psi) | Z = z, X] for the single family."""
    A = selection_alpha_z_single(z, X)
    u_star = 4.0 * A
    s = X[:, 0] + X[:, 1]
    full = normal_partial_exp(_Y_EXP, _U_MEAN, _U_SD, -np.inf, np.inf)
    below = normal_partial_exp(_Y_EXP, _U_MEAN, _U_SD, -np.inf, u_star)
    above = normal_partial_exp(_B + _Y_EXP, _U_MEAN, _U_SD, u_star, np.inf)
    captured = below + np.exp(A) * above  # E[P(R=0|z,U,x) e^{U/6}]
    pi_z = 1.0 - _p_r0_single(z, X)
    return s * (full - captured) - psi * pi_z


def _mu_dual(code: int, X: np.ndarray, psi: float,
             parameters: Mapping[str, float]) -> np.ndarray:
    A = selection_alpha_z_dual(*divmod(code, 2), X, parameters)
    u_star = np.clip(4.0 * A, 0.0, 1.0)
    s = X[:, 0] + X[:, 1]
    full = uniform_partial_exp(_Y_EXP, 0.0, 1.0)
    below = uniform_partial_exp(_Y_EXP, 0.0, u_star)
    above = uniform_partial_exp(_B + _Y_EXP, u_star, 1.0)
    captured = below + np.exp(A) * above
    pi_z = 1.0 - _p_r0_dual(code, X, parameters)
    return s * (full - captured) - psi * pi_z


def oracle_pi(family: str, z: int, X: np.ndarray,
              parameters: Mapping[str, float] | None = None) -> np.ndarray:
    """True P(R=1 | Z=z, X) under the clamped data law."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if family == FAMILY_SINGLE:
        return 1.0 - _p_r0_single(z, X)
    if family == FAMILY_DUAL:
        return 1.0 - _p_r0_dual(z, X, parameters or {})
    raise ConfigurationError(f"no oracle for family {family!r}")


def oracle_rho(family: str, z: int, X: np.ndarray,
               parameters: Mapping[str, float] | None = None) -> np.ndarray:
    """True P(Z=z | X)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if family == FAMILY_SINGLE:
        p1 = instrument_prob_single(X)
        return p1 if z == 1 else 1.0 - p1
    if family == FAMILY_DUAL:
        z1, z2 = divmod(z, 2)
        p1, p2 = instrument_probs_dual(X)
        return (p1 if z1 == 1 else 1.0 - p1) * (p2 if z2 == 1 else 1.0 - p2)
    raise ConfigurationError(f"no oracle for family {family!r}")


def oracle_mu(family: str, z: int, X: np.ndarray,
              parameters: Mapping[str, float] | None = None,
              psi: float = 0.0) -> np.ndarray:
    """True E[R h(Y; psi) | Z=z, X] for the mean functional."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if family == FAMILY_SINGLE:
        return _mu_single(z, X, psi)
    if family == FAMILY_DUAL:
        return _mu_dual(z, X, psi, parameters or {})
    raise ConfigurationError(f"no oracle for family {family!r}")


def _levels(family: str) -> int:
    if family == FAMILY_SINGLE:
        return 2
    if family == FAMILY_DUAL:
        return 4
    raise ConfigurationError(f"no oracle for family {family!r}")


def _check_mean_functional(spec: FunctionalSpec | None) -> float:
    if spec is None:
        return 0.0
    if spec.kind != "mean":
        raise ConfigurationError(
            "closed-form oracles cover the mean functional only; use the "
            "brute-force oracles for quantiles"
        )
    return spec.psi


# --------------------------------------------------------------------------
# integration over the covariate square
# --------------------------------------------------------------------------

_GL_K = 96


def _unit_square_rule(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre tensor nodes (k^2, 2) and weights (k^2,) on [0,1]^2."""
    x, w = np.polynomial.legendre.leggauss(k)
    t = 0.5 * (x + 1.0)
    wt = 0.5 * w
    g1, g2 = np.meshgrid(t, t, indexing="ij")
    return np.column_stack([g1.ravel(), g2.ravel()]), np.outer(wt, wt).ravel()


def integrate_unit_square(f: Callable[[np.ndarray], np.ndarray], k: int = _GL_K) -> float:
    """Gauss-Legendre tensor quadrature of f over [0,1]^2; f maps (m,2)->(m,)."""
    X, W = _unit_square_rule(k)
    return float(np.sum(W * np.asarray(f(X), dtype=float)))


def true_p_missing(family: str, parameters: Mapping[str, float] | None = None) -> float:
    """Marginal P(R=0) under the clamped data law.

    Every exact set carries it, and one robustness run builds six or seven
    sets of one law, so the deterministic quadrature is cached per family
    and sorted parameters.
    """
    return _p_missing(family, tuple(sorted((parameters or {}).items())))


@functools.lru_cache(maxsize=16)
def _p_missing(family: str, parameters: tuple[tuple[str, float], ...]) -> float:
    pi_fn, rho_fn, _ = _oracle_level_fns(family, dict(parameters), 0.0)
    return integrate_unit_square(lambda X: (rho_fn(X) * (1.0 - pi_fn(X))).sum(axis=0))


def oracle_nuisances(
    family: str,
    parameters: Mapping[str, float] | None = None,
    *,
    functional: FunctionalSpec | None = None,
    mode: str = "marginalize",
    eps_den: float = 1e-6,
) -> NuisanceSet:
    """Exact nuisance set for a built-in family (mean functional).

    mode "direct" attaches exact marginal callables pi(x), mu(x); in
    "marginalize" the set derives them from rho and the per-level parts,
    which is also exact here.
    """
    params = dict(parameters or {})
    psi = _check_mean_functional(functional)
    pi_fn, rho_fn, mu_fn = _oracle_level_fns(family, params, psi)

    pi_marg_fn = None
    mu_marg_fn = None
    if mode == "direct":
        def pi_marg_fn(X: np.ndarray) -> np.ndarray:
            return (rho_fn(X) * pi_fn(X)).sum(axis=0)

        def mu_marg_fn(X: np.ndarray) -> np.ndarray:
            return (rho_fn(X) * mu_fn(X)).sum(axis=0)

    return NuisanceSet(
        L=_levels(family),
        pi_fn=pi_fn,
        rho_fn=rho_fn,
        mu_fn=mu_fn,
        pi0=true_p_missing(family, params),
        mode=mode,
        pi_marg_fn=pi_marg_fn,
        mu_marg_fn=mu_marg_fn,
        eps_den=eps_den,
    )


def _oracle_level_fns(family: str, params: Mapping[str, float], psi: float):
    """The closed forms of pi, rho and mu as X -> (L, m) callables."""
    L = _levels(family)

    def pi_fn(X: np.ndarray) -> np.ndarray:
        return np.stack([oracle_pi(family, z, X, params) for z in range(L)])

    def rho_fn(X: np.ndarray) -> np.ndarray:
        return np.stack([oracle_rho(family, z, X, params) for z in range(L)])

    def mu_fn(X: np.ndarray) -> np.ndarray:
        return np.stack([oracle_mu(family, z, X, params, psi) for z in range(L)])

    return pi_fn, rho_fn, mu_fn


def oracle_delta(
    family: str,
    parameters: Mapping[str, float] | None = None,
    psi: float = 0.0,
) -> Callable[[np.ndarray], np.ndarray]:
    """Callable X -> true delta at every level, (L, m): delta_y / delta_r
    of the exact set, unfloored.  The scenarios that hold delta build their
    level regressions around it."""
    ns = oracle_nuisances(family, parameters, functional=FunctionalSpec.mean(psi))

    def delta(X: np.ndarray) -> np.ndarray:
        ev = evaluate_nuisances(ns, np.asarray(X, dtype=float))
        return ev.delta_y / ev.delta_r

    return delta


def oracle_identified_beta(
    family: str,
    parameters: Mapping[str, float] | None = None,
    *,
    psi: float = 0.0,
) -> tuple[float, float]:
    """E[delta(Z, X) | R = 0] with delta from the closed forms, by quadrature.

    This is the identified value: the quantity the estimators converge to
    under the actual (clamped) data law.  It differs from E[Y - psi | R=0]
    only by the clamp-induced violation of instrument independence.  With
    X uniform on the unit square it is the ratio

        int sum_z rho (1 - pi) delta dx  /  int sum_z rho (1 - pi) dx

    over the exact set, each integral taken by the k = 96 Gauss-Legendre
    tensor rule.  Returns (value, error), error the gap |Q_96 - Q_48| to
    the same ratio at k = 48.  Raises EstimationError when P(R = 0) is 0.
    """
    ns = oracle_nuisances(family, parameters, functional=FunctionalSpec.mean(psi))

    def ratio(k: int) -> float:
        X, W = _unit_square_rule(k)
        ev = evaluate_nuisances(ns, X)
        missing = ev.rho * (1.0 - ev.pi)        # (L, m) density of R = 0 at z
        p_missing = float(W @ missing.sum(axis=0))
        if not p_missing > 0:
            raise EstimationError(f"P(R = 0) is {p_missing:.3g} under the "
                                  "closed forms; the identified value is undefined")
        return float(W @ (missing * ev.delta_y / ev.delta_r).sum(axis=0)) / p_missing

    value = ratio(_GL_K)
    return value, abs(value - ratio(_GL_K // 2))
