"""Deliberate nuisance corruption for multiple-robustness checks.

corrupt_nuisance perturbs chosen components of a nuisance set:

    pi_z     response propensities, logit shift +0.7 at every level
    rho_z    instrument density, level-0 likelihood scaled by e^{0.7}
             then renormalised (still sums to 1)
    mu_z     outcome regressions, +0.3 * (1 + z); the shift varies with z
             so contrasts are genuinely wrong (a constant would cancel)
    pi_marg  marginal response propensity (direct mode only), logit +0.7
    mu_marg  marginal outcome regression (direct mode only), +0.3
    delta    contrast ratio, +0.3 via an override callable

Scenario builders wire these into the configurations under which the
influence-function estimator stays consistent.  Which components must be
held follows from the bracket algebra: writing b(z, x) for the expected
bracket E[R h - mu_hat_z - delta_hat_z (R - pi_hat_z) | z, x], the first
term of the influence value is unbiased whenever b(z, x) = 0 pointwise,
or whenever b is constant in z and the weights g_hat(z,x) - g_hat(x)
average to zero under the true instrument density; the second term needs
delta_hat = delta.  Each scenario realises one of these routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

import numpy as np

from .data import FunctionalSpec, ObservationTable
from .exceptions import ConfigurationError
from .general import _phi_parts_general
from .learners import expit
from .nuisance import PROB_CLIP, NuisanceSet, evaluate_nuisances, floor_denominator
from .oracles import oracle_delta_fn, oracle_identified_beta, oracle_nuisances
from .simulation import DGPSpec, generate

COMPONENTS = ("pi_z", "rho_z", "mu_z", "pi_marg", "mu_marg", "delta")
LOGIT_SHIFT = 0.7
LEVEL_SHIFT = 0.3


def shift_probability(p: np.ndarray, amount: float) -> np.ndarray:
    """expit(logit(p) + amount), clipped away from the boundary first."""
    clipped = np.clip(np.asarray(p, dtype=float), PROB_CLIP, 1.0 - PROB_CLIP)
    return expit(np.log(clipped / (1.0 - clipped)) + amount)


def corrupt_nuisance(
    ns: NuisanceSet,
    components: Iterable[str],
    *,
    logit_delta: float = LOGIT_SHIFT,
    level_delta: float = LEVEL_SHIFT,
) -> NuisanceSet:
    """A new nuisance set with the named components perturbed.

    An empty component list returns a set with identical predictions.
    Asking for pi_marg or mu_marg on a marginalising set is an error:
    there is no stored marginal there to corrupt.
    """
    comps = set(components)
    unknown = comps - set(COMPONENTS)
    if unknown:
        raise ConfigurationError(
            f"unknown corruption components {sorted(unknown)}; valid: {COMPONENTS}"
        )
    if ns.mode != "direct" and comps & {"pi_marg", "mu_marg"}:
        raise ConfigurationError(
            "pi_marg / mu_marg can only be corrupted in direct mode; a "
            "marginalising set derives them from rho_z and the levels"
        )
    base_pi, base_rho, base_mu = ns.pi_fn, ns.rho_fn, ns.mu_fn
    overrides: dict = {}

    if "pi_z" in comps:
        overrides["pi_fn"] = lambda X: shift_probability(base_pi(X), logit_delta)
    if "rho_z" in comps:
        def rho_corrupt(X: np.ndarray) -> np.ndarray:
            stack = np.array(base_rho(X), dtype=float)
            stack[0] *= np.exp(logit_delta)
            return stack / stack.sum(axis=0)

        overrides["rho_fn"] = rho_corrupt
    if "mu_z" in comps:
        level_shift = level_delta * (1.0 + np.arange(ns.L))[:, None]
        overrides["mu_fn"] = lambda X: np.asarray(base_mu(X), dtype=float) + level_shift
    if "pi_marg" in comps:
        base_pim = ns.pi_marg_fn
        overrides["pi_marg_fn"] = lambda X: shift_probability(base_pim(X), logit_delta)
    if "mu_marg" in comps:
        base_mum = ns.mu_marg_fn
        overrides["mu_marg_fn"] = lambda X: (
            np.asarray(base_mum(X), dtype=float) + level_delta
        )
    if "delta" in comps:
        def delta_corrupt(X: np.ndarray) -> np.ndarray:
            # the uncorrupted set's delta, floored, then shifted
            ev = evaluate_nuisances(ns, X)
            if ev.delta is not None:
                return ev.delta + level_delta
            return ev.delta_y / floor_denominator(ev.delta_r, ns.eps_den)[0] + level_delta

        overrides["delta_fn"] = delta_corrupt
    return replace(ns, **overrides)


# --------------------------------------------------------------------------
# scenario construction around the closed-form truths
# --------------------------------------------------------------------------

@dataclass
class Scenario:
    """A corrupted nuisance set with its consistency bookkeeping."""

    name: str
    ns: NuisanceSet
    held: tuple[str, ...]
    corrupted: tuple[str, ...]
    expect_consistent: bool
    note: str = ""


def _shift_one_level(fn, level: int, shift):
    """fn with row `level` of its (L, m) output replaced by shift(row)."""
    def shifted(X: np.ndarray) -> np.ndarray:
        out = np.array(fn(X), dtype=float)
        out[level] = shift(out[level])
        return out
    return shifted


def _coherent_mu(mu_ref, pi_ref, pi_fn, delta_fn):
    """mu_z = mu_ref + delta (pi_z - pi_ref) at every level z.

    With propensities pi_fn, these level regressions imply the contrast
    delta_fn exactly (up to rounding) wherever they are wrong themselves.
    """
    def fn(X: np.ndarray) -> np.ndarray:
        return mu_ref(X) + delta_fn(X) * (pi_fn(X) - pi_ref(X))
    return fn


def _around_level_zero(ns: NuisanceSet, delta_fn) -> NuisanceSet:
    """ns with mu_1 rebuilt as mu_0 + delta (pi_1 - pi_0); mu_0 and pi stay."""
    base_mu, base_pi = ns.mu_fn, ns.pi_fn
    return replace(ns, mu_fn=_coherent_mu(
        lambda X: base_mu(X)[0], lambda X: base_pi(X)[0], base_pi, delta_fn))


def binary_scenarios(
    family: str,
    parameters: Mapping[str, float] | None = None,
    psi: float = 0.0,
) -> list[Scenario]:
    """Consistency configurations of the paper's binary-instrument routes.

    Each scenario corrupts everything outside its held set; the held sets
    are the three routes to consistency for the binary influence function:

      contrast_and_reference   delta(x), mu_{z=0}(x), pi_{z=0}(x) true
      response_models          pi_z(x) both levels and rho(x) true
      contrast_and_instrument  delta(x) and rho(x) true

    The influence function that evaluates them is the general one at
    L = 2.  Where delta is held, mu_1 is rebuilt around level 0 as
    mu_0 + delta (pi_1 - pi_0), so the contrast the levels imply is the
    true one while mu_1 and the corrupted propensities stay wrong.
    """
    params = dict(parameters or {})
    truth = lambda: oracle_nuisances(family, params,
                                     functional=FunctionalSpec.mean(psi))
    true_delta = oracle_delta_fn(family, params, psi)
    out: list[Scenario] = []

    ns1 = truth()
    ns1 = replace(
        ns1,
        pi_fn=_shift_one_level(ns1.pi_fn, 1, lambda p: shift_probability(p, LOGIT_SHIFT)),
        rho_fn=corrupt_nuisance(ns1, ["rho_z"]).rho_fn,
    )
    out.append(Scenario(
        name="contrast_and_reference",
        ns=_around_level_zero(ns1, true_delta),
        held=("delta", "mu_z0", "pi_z0"),
        corrupted=("pi_z1", "mu_z1", "rho_z"),
        expect_consistent=True,
        note="bracket is exactly zero at both levels; weights are free",
    ))

    ns2 = corrupt_nuisance(truth(), ["mu_z"])
    out.append(Scenario(
        name="response_models",
        ns=ns2,
        held=("pi_z", "rho_z"),
        corrupted=("mu_z", "delta"),
        expect_consistent=True,
        note="bracket bias is constant in z and the true-density weights "
             "cancel it",
    ))

    ns3 = corrupt_nuisance(truth(), ["pi_z", "mu_z"])
    out.append(Scenario(
        name="contrast_and_instrument",
        ns=_around_level_zero(ns3, true_delta),
        held=("delta", "rho_z"),
        corrupted=("pi_z", "mu_z"),
        expect_consistent=True,
    ))

    out.append(Scenario(
        name="all_corrupt",
        ns=corrupt_nuisance(truth(), ["pi_z", "rho_z", "mu_z"]),
        held=(),
        corrupted=("pi_z", "rho_z", "mu_z", "delta"),
        expect_consistent=False,
    ))
    return out


def general_scenarios(
    family: str,
    parameters: Mapping[str, float] | None = None,
    psi: float = 0.0,
) -> list[Scenario]:
    """Consistency configurations for the multi-level estimator.

    The held sets:

      contrast_and_marginals   delta, pi(x), mu(x) true
      response_models          pi_z(x), rho(x) true
      contrast_and_instrument  delta, rho(x), pi(x) true

    In the first and third, mu_hat_z is rebuilt coherently around the held
    marginals, mu_hat_z = mu_hat(x) + delta_z (pi_hat_z - pi(x)), so the
    derived contrast stays exactly right while the level regressions and
    propensities are all wrong.
    """
    params = dict(parameters or {})
    spec = FunctionalSpec.mean(psi)
    true_delta = oracle_delta_fn(family, params, psi)
    base = oracle_nuisances(family, params, functional=spec, mode="direct")
    true_pi_marg, true_mu_marg = base.pi_marg_fn, base.mu_marg_fn

    # The general scenarios shift propensities downward (-0.7 on the logit
    # scale).  An upward shift can push a level's corrupted propensity across
    # the true marginal, putting a zero of the contrast denominator inside
    # the covariate space; the exploding 1/delta_r weights would then test
    # the floor diagnostics rather than robustness.  The downward direction
    # moves every level away from its zero for these families.
    def shifted_pi(X: np.ndarray) -> np.ndarray:
        return shift_probability(base.pi_fn(X), -LOGIT_SHIFT)

    out: list[Scenario] = []
    ns1 = replace(
        base,
        pi_fn=shifted_pi,
        mu_fn=_coherent_mu(true_mu_marg, true_pi_marg, shifted_pi, true_delta),
        rho_fn=corrupt_nuisance(base, ["rho_z"]).rho_fn,
        pi_marg_fn=true_pi_marg,
        mu_marg_fn=true_mu_marg,
    )
    out.append(Scenario(
        name="contrast_and_marginals",
        ns=ns1,
        held=("delta", "pi_marg", "mu_marg"),
        corrupted=("pi_z", "mu_z", "rho_z"),
        expect_consistent=True,
        note="level models corrupted coherently around true marginals; "
             "bracket vanishes pointwise",
    ))

    ns2 = corrupt_nuisance(
        oracle_nuisances(family, params, functional=spec), ["mu_z"]
    )
    out.append(Scenario(
        name="response_models",
        ns=ns2,
        held=("pi_z", "rho_z"),
        corrupted=("mu_z", "delta"),
        expect_consistent=True,
    ))

    def corrupted_mu_marg(X: np.ndarray) -> np.ndarray:
        return true_mu_marg(X) + LEVEL_SHIFT

    ns3 = replace(
        base,
        pi_fn=shifted_pi,
        mu_fn=_coherent_mu(corrupted_mu_marg, true_pi_marg, shifted_pi, true_delta),
        pi_marg_fn=true_pi_marg,
        mu_marg_fn=corrupted_mu_marg,
    )
    out.append(Scenario(
        name="contrast_and_instrument",
        ns=ns3,
        held=("delta", "rho_z", "pi_marg"),
        corrupted=("pi_z", "mu_z", "mu_marg"),
        expect_consistent=True,
        note="weights are wrong but the bracket bias is constant in z, so "
             "true rho and true pi(x) cancel it",
    ))

    ns4 = corrupt_nuisance(
        oracle_nuisances(family, params, functional=spec), ["pi_z", "rho_z", "mu_z"],
        logit_delta=-LOGIT_SHIFT,
    )
    out.append(Scenario(
        name="all_corrupt",
        ns=ns4,
        held=(),
        corrupted=("pi_z", "rho_z", "mu_z", "delta"),
        expect_consistent=False,
    ))
    return out


@dataclass
class RobustnessRow:
    scenario: str
    held: tuple[str, ...]
    corrupted: tuple[str, ...]
    expect_consistent: bool
    estimate: float
    reference: float
    abs_bias: float
    mc_se: float

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "held": list(self.held),
            "corrupted": list(self.corrupted),
            "expect_consistent": self.expect_consistent,
            "estimate": self.estimate,
            "reference": self.reference,
            "abs_bias": self.abs_bias,
            "mc_se": self.mc_se,
        }


@dataclass
class RobustnessReport:
    family: str
    n: int
    seed: int
    reference: float
    reference_mc_se: float
    rows: list[RobustnessRow] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "seed": self.seed,
            "reference": self.reference,
            "reference_mc_se": self.reference_mc_se,
            "scenarios": [r.as_dict() for r in self.rows],
        }


def run_robustness(
    family: str,
    *,
    n: int = 400_000,
    seed: int = 11,
    parameters: Mapping[str, float] | None = None,
    psi: float = 0.0,
    scenarios: list[Scenario] | None = None,
    reference_draws: int = 4_000_000,
) -> RobustnessReport:
    """Evaluate the influence-function estimator under each scenario.

    One large table is drawn; every scenario's corrupted nuisance set is
    plugged into the estimator on that same table, and the estimates are
    compared against the identified value computed by brute force.
    """
    params = dict(parameters or {})
    spec = FunctionalSpec.mean(psi)
    if scenarios is None:
        probe = oracle_nuisances(family, params, functional=spec)
        scenarios = (binary_scenarios(family, params, psi) if probe.L == 2
                     else general_scenarios(family, params, psi))
    table, _ = generate(DGPSpec(family=family, n=n, seed=seed,
                                parameters=params))
    ref, ref_se = oracle_identified_beta(family, params, psi=psi,
                                         draws=reference_draws)
    report = RobustnessReport(family=family, n=n, seed=seed,
                              reference=ref, reference_mc_se=ref_se)
    for sc in scenarios:
        # the estimate is a plain mean of phi~ (pi0 fixed at its true
        # value), so its sampling error comes from the uncentered values
        parts = _phi_parts_general(table, sc.ns, spec, "floor", None)
        vals = parts.phi_tilde[parts.keep]
        est = float(vals.mean())
        se = float(np.sqrt(np.var(vals, ddof=0) / vals.size + ref_se * ref_se))
        report.rows.append(RobustnessRow(
            scenario=sc.name,
            held=sc.held,
            corrupted=sc.corrupted,
            expect_consistent=sc.expect_consistent,
            estimate=est,
            reference=ref,
            abs_bias=abs(est - ref),
            mc_se=se,
        ))
    return report
