"""Deliberate nuisance corruption for multiple-robustness checks.

corrupt_nuisance perturbs chosen components of a nuisance set:

    pi_z     response propensities, logit shift +0.5 at every level
    rho_z    instrument density, level-0 likelihood scaled by e^{0.5}
             then renormalised (still sums to 1)
    mu_z     outcome regressions, +0.3 * (1 + z); the shift varies with z
             so contrasts are genuinely wrong (a constant would cancel)

general_scenarios wires these, and the marginals and contrasts it holds or
shifts itself, into the configurations under which the influence-function
estimator stays consistent: one scenario set for every number of
instrument levels.  Which components must be held follows from the bracket
algebra: writing b(z, x) for the expected bracket
E[R h - mu_hat_z - delta_hat_z (R - pi_hat_z) | z, x], the first term of
the influence value is unbiased whenever b(z, x) = 0 pointwise, or
whenever b is constant in z and the weights g_hat(z,x) - g_hat(x) average
to zero under the true instrument density; the second term needs
delta_hat = delta.  Each scenario realises one of these routes.

run_robustness measures every scenario against the identified value of
the family, a quadrature of the closed forms (oracles), so the reference
carries no Monte Carlo error.  Beside each sampled estimate it reports the
exact population bias, E[phi~] under the scenario's set minus that value:
phi~ is affine in R h and R, so its conditional mean given (z, x) is phi~
with the true mu and pi in their place, integrated against the true rho by
the same quadrature.  A consistent route's population bias is zero up to
rounding; a control's is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

import numpy as np

from .data import FunctionalSpec
from .exceptions import ConfigurationError
from .general import _evaluate_own, _own_level, _phi_pass, _phi_tilde
from .learners import expit
from .nuisance import PROB_CLIP, NuisanceSet, evaluate_nuisances
from .oracles import (_GL_K, _unit_square_rule, oracle_delta, oracle_identified_beta,
                      oracle_nuisances)
from .simulation import DGPSpec, generate

COMPONENTS = ("pi_z", "rho_z", "mu_z")
LOGIT_SHIFT = 0.5
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
) -> NuisanceSet:
    """A new nuisance set with the named components perturbed.

    An empty component list returns a set with identical predictions.
    """
    comps = set(components)
    unknown = comps - set(COMPONENTS)
    if unknown:
        raise ConfigurationError(
            f"unknown corruption components {sorted(unknown)}; valid: {COMPONENTS}"
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
        level_shift = LEVEL_SHIFT * (1.0 + np.arange(ns.L))[:, None]
        overrides["mu_fn"] = lambda X: np.asarray(base_mu(X), dtype=float) + level_shift
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


def _coherent_mu(mu_ref, pi_ref, pi_fn, delta):
    """mu_z = mu_ref + delta (pi_z - pi_ref) at every level z.

    With propensities pi_fn, these level regressions imply the contrast
    delta exactly (up to rounding) wherever they are wrong themselves.
    """
    def fn(X: np.ndarray) -> np.ndarray:
        return mu_ref(X) + delta(X) * (pi_fn(X) - pi_ref(X))
    return fn


def general_scenarios(
    family: str,
    parameters: Mapping[str, float] | None = None,
    psi: float = 0.0,
) -> list[Scenario]:
    """Consistency configurations of the influence-function estimator, for
    a family with any number of instrument levels.

    The held sets:

      contrast_and_marginals   delta, pi(x), mu(x) true
      response_models          pi_z(x), rho(x) true
      contrast_and_instrument  delta, rho(x), pi(x) true

    In the first and third, mu_hat_z is rebuilt coherently around the held
    marginals, mu_hat_z = mu_hat(x) + delta_z (pi_hat_z - pi(x)), so the
    derived contrast stays exactly right while the level regressions and
    propensities are all wrong.  Those two sets supply the held marginals
    as callables of their own, the rho-weighted sums of the exact set's
    parts, beside the corrupted level models.
    """
    params = dict(parameters or {})
    spec = FunctionalSpec.mean(psi)
    true_delta = oracle_delta(family, params, psi)
    base = oracle_nuisances(family, params, functional=spec)

    def true_pi_marg(X: np.ndarray) -> np.ndarray:
        return (base.rho_fn(X) * base.pi_fn(X)).sum(axis=0)

    def true_mu_marg(X: np.ndarray) -> np.ndarray:
        return (base.rho_fn(X) * base.mu_fn(X)).sum(axis=0)

    # The general scenarios shift propensities downward (-LOGIT_SHIFT on
    # the logit scale).  A shift too large, or upward, can push a level's
    # corrupted propensity across the true marginal, putting a zero of the
    # contrast denominator inside the covariate space; the exploding
    # 1/delta_r weights would then test the floor diagnostics rather than
    # robustness.  At -0.5 every level's corrupted contrast keeps one sign
    # over the covariate square for these families (at -0.7 the single
    # family's level 0 does not).
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
    ))

    ns2 = corrupt_nuisance(base, ["mu_z"])
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
    ))

    ns4 = corrupt_nuisance(base, ["pi_z", "rho_z", "mu_z"], logit_delta=-LOGIT_SHIFT)
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
    population_bias: float


@dataclass
class RobustnessReport:
    """One robustness run; family, n and seed are those of the law drawn."""

    family: str
    n: int
    seed: int
    reference: float
    reference_error: float
    scenarios: list[RobustnessRow] = field(default_factory=list)


def _population_bias(ns: NuisanceSet, truth: NuisanceSet, reference: float) -> float:
    """E[phi~] under the set ns minus reference, with no draws.

    phi~ is affine in R h and R, so E[phi~ | z, x] is phi~ with R h replaced
    by the true mu(z, x) and R by the true pi(z, x); it is evaluated at every
    level of every node of oracle_identified_beta's rule, with the floored
    denominator the estimator uses, and integrated against the true rho.
    """
    X, W = _unit_square_rule(_GL_K)
    ev, tr = evaluate_nuisances(ns, X), evaluate_nuisances(truth, X)
    own = _own_level(np.arange(ns.L)[:, None], tr.pi, ev.pi, ev.rho, ev.delta_r,
                     ns.pi0, "floor")
    phi = _phi_tilde(own, tr.mu, ev.mu, ev.delta_y / own.den)       # (L, m)
    return float(W @ (tr.rho * phi).sum(axis=0)) - reference


def run_robustness(dgp: DGPSpec, *, psi: float = 0.0) -> RobustnessReport:
    """Evaluate the influence-function estimator under each scenario.

    One table of dgp.n rows is drawn from the law dgp; every scenario's
    corrupted nuisance set is plugged into the estimator on that same
    table, and the estimates of the mean functional at psi are compared
    against the identified value, a quadrature whose error is the gap
    between two rule sizes (oracle_identified_beta).  Each row also carries
    the scenario's exact population bias (_population_bias).  The
    scenarios and the reference are closed forms of the clamped law, so
    dgp's clamp policy must be clamp_to_one_minus_eps.
    """
    if dgp.clamp_policy != "clamp_to_one_minus_eps":
        raise ConfigurationError(
            f"robustness draws and measures under clamp_to_one_minus_eps only; "
            f"simulation.clamp_policy is {dgp.clamp_policy!r}")
    family, params = dgp.family, dict(dgp.parameters)
    spec = FunctionalSpec.mean(psi)
    scenarios = general_scenarios(family, params, psi)
    ref, ref_err = oracle_identified_beta(family, params, psi=psi)
    truth = oracle_nuisances(family, params, functional=spec)
    table, _ = generate(dgp)
    report = RobustnessReport(family=family, n=dgp.n, seed=dgp.seed,
                              reference=ref, reference_error=ref_err)
    for sc in scenarios:
        # the estimate is a plain mean of phi~ (pi0 fixed at its true
        # value), so its sampling error comes from the uncentered values;
        # the reference's quadrature error is added in quadrature
        ev, own = _evaluate_own(table, sc.ns, "floor")
        _, vals = next(_phi_pass(own, table.Z, [(table.rh(spec), ev.mu, ev.mu_marg)]))
        del ev, own     # not kept alive through the next scenario's evaluation
        est = float(vals.mean())
        se = float(np.sqrt(np.var(vals, ddof=0) / vals.size + ref_err * ref_err))
        report.scenarios.append(RobustnessRow(
            scenario=sc.name,
            held=sc.held,
            corrupted=sc.corrupted,
            expect_consistent=sc.expect_consistent,
            estimate=est,
            reference=ref,
            abs_bias=abs(est - ref),
            mc_se=se,
            population_bias=_population_bias(sc.ns, truth, ref),
        ))
    return report
