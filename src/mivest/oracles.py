"""Closed-form nuisance truths for the built-in families.

Every family's selection exponent is A_z(x) + B u with B = -1/4, so
P(R=0 | z, u, x) = min(exp(A + B u), 1) and every nuisance reduces to
partial exponential moments of U, M(a; lo, hi) = E[e^{aU} 1{lo < U < hi}]:

    P(R = 0 | z, x) = M(0; -inf, u*) + e^A M(B; u*, inf),

where the clamp threshold is u* = A / -B: the raw exponent exceeds 0
exactly when u < u*.  A family is read only through its entry in
simulation._LAWS: A_z(x) (alpha_z), P(Z_k = 1 | X) (instrument_probs) and
M (u_moment, the normal or the uniform formula there), so the two modules
state each family's law once and no code here names a family.  The
closed forms use the cap at 1 rather than 1 - 1e-9; the gap is below
1e-9 everywhere and irrelevant at test tolerances.  oracle_identified_beta
needs no draws: it is a ratio of two Gauss-Legendre quadratures of these
closed forms over the covariate square, as true_p_missing is one.

Outcome-model truths are implemented for the mean functional
h(y; psi) = y - psi, where E[R h | z, x] has a closed form because the
outcome mean is (x1 + x2) e^{U/6}.  Quantile functionals have no closed
form here; use the brute-force oracle in simulation instead.
"""

from __future__ import annotations

import functools
from typing import Callable, Mapping

import numpy as np

from .data import FunctionalSpec
from .exceptions import ConfigurationError, EstimationError
from .nuisance import NuisanceSet, evaluate_nuisances
from .simulation import _B, _LAWS, _LEVELS, _Y_DIV, _Law

_Y_EXP = 1.0 / _Y_DIV  # outcome mean is (x1 + x2) exp(U / 6)


# --------------------------------------------------------------------------
# the closed forms at one level, vectorised over rows of X
# --------------------------------------------------------------------------

def _law(family: str) -> _Law:
    try:
        return _LAWS[family]
    except KeyError:
        raise ConfigurationError(f"no oracle for family {family!r}") from None


def _bits(law: _Law, z: int) -> list[int]:
    """Level z's instrument values, the first most significant, as
    simulation._level_code reads them."""
    n = len(law.instrument_probs)
    return [(z >> (n - 1 - k)) & 1 for k in range(n)]


def _threshold(law: _Law, z: int, X: np.ndarray,
               parameters: Mapping[str, float]) -> tuple[np.ndarray, np.ndarray]:
    """A_z(X) and the clamp threshold u* = A / -B."""
    A = law.alpha_z(_bits(law, z), X, parameters, None)
    return A, A / -_B


def _p_r0(law: _Law, z: int, X: np.ndarray, parameters: Mapping[str, float]) -> np.ndarray:
    A, u_star = _threshold(law, z, X, parameters)
    return law.u_moment(0.0, -np.inf, u_star) + np.exp(A) * law.u_moment(_B, u_star, np.inf)


def oracle_pi(family: str, z: int, X: np.ndarray,
              parameters: Mapping[str, float] | None = None) -> np.ndarray:
    """True P(R=1 | Z=z, X) under the clamped data law."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return 1.0 - _p_r0(_law(family), z, X, parameters or {})


def oracle_rho(family: str, z: int, X: np.ndarray,
               parameters: Mapping[str, float] | None = None) -> np.ndarray:
    """True P(Z=z | X), the product of the instruments' probabilities."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    law = _law(family)
    rho = 1.0
    for bit, prob in zip(_bits(law, z), law.instrument_probs):
        p = prob(X, None)
        rho = rho * (p if bit else 1.0 - p)
    return rho


def oracle_mu(family: str, z: int, X: np.ndarray,
              parameters: Mapping[str, float] | None = None,
              psi: float = 0.0) -> np.ndarray:
    """True E[R h(Y; psi) | Z=z, X] for the mean functional."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    law = _law(family)
    params = parameters or {}
    A, u_star = _threshold(law, z, X, params)
    s = X[:, 0] + X[:, 1]
    full = law.u_moment(_Y_EXP, -np.inf, np.inf)
    below = law.u_moment(_Y_EXP, -np.inf, u_star)
    above = law.u_moment(_B + _Y_EXP, u_star, np.inf)
    captured = below + np.exp(A) * above  # E[P(R=0|z,U,x) e^{U/6}]
    pi_z = 1.0 - _p_r0(law, z, X, params)
    return s * (full - captured) - psi * pi_z


def _check_mean_functional(spec: FunctionalSpec | None) -> float:
    if spec is None:
        return 0.0
    if spec.kind != "mean":
        raise ConfigurationError(
            "closed-form oracles cover the mean functional only; use the "
            "brute-force oracle (oracle_beta) for quantiles"
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
        L=_LEVELS[family],
        pi_fn=pi_fn,
        rho_fn=rho_fn,
        mu_fn=mu_fn,
        pi0=true_p_missing(family, params),
        mode=mode,
        pi_marg_fn=pi_marg_fn,
        mu_marg_fn=mu_marg_fn,
    )


def _oracle_level_fns(family: str, params: Mapping[str, float], psi: float):
    """The closed forms of pi, rho and mu as X -> (L, m) callables."""
    _law(family)  # an unknown family is a configuration error
    L = _LEVELS[family]

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
