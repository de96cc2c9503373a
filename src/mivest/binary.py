"""The closed-form contrast of a binary instrument (L = 2).

With two instrument levels the contrasts collapse to a single ratio

    delta(x) = (mu(1,x) - mu(0,x)) / (pi(1,x) - pi(0,x)).

Estimation needs no two-level code path: the influence function of
mivest.general at L = 2 is the paper's binary influence function, and
the plug-in, cross-fitted and robustness estimates all go through it.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DataContractError
from .nuisance import Diagnostics, NuisanceSet, apply_floor, evaluate_nuisances


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
    if ns.L != 2:
        raise DataContractError(f"wald_ratio_binary requires L = 2, got L = {ns.L}")
    ev = evaluate_nuisances(ns, np.asarray(x, dtype=float))
    if ev.delta is not None:
        return ev.delta[1]
    den = ev.pi[1] - ev.pi[0]
    den = apply_floor(den, ns.eps_den, on_floor, diag if diag is not None else ns.diagnostics)
    return (ev.mu[1] - ev.mu[0]) / den
