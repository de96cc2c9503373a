"""Multi-level influence values, variance, population target, quantile root."""

import numpy as np
import pytest

import mivest.general
from mivest.data import FunctionalSpec, ObservationTable, evaluate_h
from mivest.exceptions import (DenominatorFloorError, EstimationError,
                               NoIncompleteCasesError)
from mivest.corruption import shift_probability
from mivest.general import (_phi_parts_general, beta_id_general,
                            beta_if_general, g_value, if_values_general,
                            normal_ci, population_mean_if, solve_functional,
                            variance_if)
from mivest.learners import LearnerConfig
from mivest.nuisance import fit_nuisance_set
from mivest.oracles import oracle_nuisances
from mivest.simulation import DGPSpec, generate, oracle_missing_quantile

from helpers import const_fn, const_ns, one_row_x, small_table

SPEC = FunctionalSpec.mean()
X_ROW = one_row_x()


def test_g_value_example():
    ns = const_ns(pi=(0.8, 0.6), rho=(0.5, 0.5), mu=(0.0, 0.0), pi0=0.2,
                  pi_marg=0.3)
    assert g_value(ns, 0, X_ROW) == pytest.approx(2.0)


def test_g_value_vanishes_for_saturated_level():
    ns = const_ns(pi=(1.0 - 1e-6, 0.6), rho=(0.5, 0.5), mu=(0.0, 0.0),
                  pi0=0.2, pi_marg=0.3)
    assert abs(g_value(ns, 0, X_ROW)) < 1e-5


def test_g_value_floor_policy():
    ns = const_ns(pi=(0.3, 0.6), rho=(0.5, 0.5), mu=(0.0, 0.0), pi0=0.2,
                  pi_marg=0.3)
    with pytest.raises(DenominatorFloorError):
        g_value(ns, 0, X_ROW)
    assert np.isfinite(g_value(ns, 0, X_ROW, on_floor="floor"))


def test_rho_weighted_g_identity(dual_fit):
    probes = np.random.default_rng(4).random((40, 2))
    total = sum(dual_fit.rho(z, probes) * dual_fit.g(z, probes)
                for z in range(dual_fit.L))
    assert np.allclose(total, dual_fit.g_marg(probes), atol=1e-12)


def test_beta_id_general_uses_own_level_contrast():
    ns = const_ns(pi=(0.7, 0.9), rho=(0.5, 0.5), mu=(0.0, 0.0), pi0=0.5,
                  pi_marg=0.3, delta=(0.5, 1.5))
    t = small_table([0, 1], [0, 0], [None, None])
    assert beta_id_general(t, ns) == pytest.approx(1.0)


def test_beta_id_general_ignores_respondents():
    ns = const_ns(pi=(0.7, 0.9), rho=(0.5, 0.5), mu=(0.0, 0.0), pi0=0.5,
                  pi_marg=0.3, delta=(0.5, 1.5))
    t = small_table([0, 1, 1, 1], [0, 0, 1, 1], [None, None, 9.0, 9.0])
    assert beta_id_general(t, ns) == pytest.approx(1.0)


def test_if_value_general_worked_example():
    ns = const_ns(pi=(0.7, 0.9), rho=(1 / 7, 6 / 7), mu=(1.0, 1.0), pi0=0.5,
                  pi_marg=0.3, delta=2.0)
    t = small_table([0], [1], [2.0], X=X_ROW[None, :], L=2)
    v = if_values_general(t, ns, 99.0, SPEC)[0]
    assert v == pytest.approx(0.4)


def test_if_value_general_zero_when_weights_balance():
    # constant pi makes g flat in z, and delta = beta kills the tail term
    ns = const_ns(pi=(0.7, 0.7), rho=(0.25, 0.75), mu=(1.0, 1.0), pi0=0.5,
                  pi_marg=0.3, delta=2.0)
    t = small_table([1], [0], [None], X=X_ROW[None, :], L=2)
    v = if_values_general(t, ns, 2.0, SPEC)[0]
    assert v == pytest.approx(0.0, abs=1e-12)


def test_beta_if_general_on_dual_fit(dual_table, dual_fit):
    est = beta_if_general(dual_table, dual_fit, SPEC)
    assert np.isfinite(est)
    # identified value for this family is near 1.06; a 20k draw is loose
    assert abs(est - 1.06) < 0.25


def test_variance_if_examples():
    assert variance_if(np.array([1.0, -1.0, 0.0, 0.0])) == 0.125
    assert variance_if(np.zeros(5)) == 0.0
    with pytest.raises(EstimationError):
        variance_if(np.array([]))


def test_normal_ci_width():
    lo, hi = normal_ci(1.0, 4.0, level=0.95)
    assert hi - lo == pytest.approx(2 * 2 * 1.959964, abs=1e-5)
    assert lo < 1.0 < hi
    with pytest.raises(EstimationError):
        normal_ci(0.0, 1.0, level=1.0)


def test_population_mean_constant_outcome():
    c = 2.5
    ns = const_ns(pi=(0.7, 0.7), rho=(0.5, 0.5), mu=(c, c), pi0=0.25,
                  pi_marg=0.3, delta=c)
    t = small_table([0, 1, 0, 1, 0, 1, 0, 1], [1, 1, 1, 0, 1, 0, 1, 1],
                    [c, c, c, None, c, None, c, c], L=2)
    res = population_mean_if(t, ns, SPEC)
    assert res.estimate == pytest.approx(c, abs=1e-12)
    assert res.alpha == pytest.approx(c)
    assert res.beta == pytest.approx(c)


def test_population_mean_composition(single_table, single_fit):
    res = population_mean_if(single_table, single_fit, SPEC)
    composed = ((1.0 - single_fit.pi0) * res.alpha
                + single_fit.pi0 * res.beta)
    assert res.estimate == pytest.approx(composed, rel=1e-14)
    assert res.p_respond == pytest.approx(1.0 - single_fit.pi0)


def test_population_mean_needs_both_groups():
    ns = const_ns(pi=(0.7, 0.9), rho=(0.5, 0.5), mu=(1.0, 2.0), pi0=0.5,
                  pi_marg=0.3)
    complete = small_table([0, 1], [1, 1], [1.0, 2.0])
    with pytest.raises(NoIncompleteCasesError):
        population_mean_if(complete, ns, SPEC)
    missing = small_table([0, 1], [0, 0], [None, None])
    with pytest.raises(EstimationError):
        population_mean_if(missing, ns, SPEC)


def test_solve_functional_input_contract(single_table):
    cfg = LearnerConfig()
    with pytest.raises(EstimationError):
        solve_functional(single_table, cfg, 0.0)
    with pytest.raises(EstimationError):
        solve_functional(single_table, cfg, 0.5, target="both")


def test_solve_functional_fully_observed_matches_sample_quantile():
    rng = np.random.default_rng(17)
    n = 3_000
    X = rng.random((n, 2))
    y = rng.normal(loc=1.0 + X[:, 0], scale=0.5)
    Z = rng.integers(0, 2, size=n)
    t = ObservationTable.from_arrays(X, Z, np.ones(n, dtype=int), y)
    res = solve_functional(t, LearnerConfig(), 0.3, grid_size=96)
    target = np.quantile(y, 0.7)
    assert abs(res.psi - target) < 0.08
    with pytest.raises(NoIncompleteCasesError):
        solve_functional(t, LearnerConfig(), 0.3, target="missing")


def test_solve_functional_degenerate_outcome():
    n = 40
    y = [3.0 if r else None for r in [1, 0] * (n // 2)]
    t = small_table([0, 1] * (n // 2), [1, 0] * (n // 2), y,
                    X=np.random.default_rng(2).random((n, 2)))
    res = solve_functional(t, LearnerConfig(), 0.4)
    assert res.psi == 3.0


def test_solve_functional_no_observed_outcomes():
    t = small_table([0, 1], [0, 0], [None, None])
    with pytest.raises(EstimationError):
        solve_functional(t, LearnerConfig(), 0.5)


def test_missing_quantile_against_latent_draw():
    dgp = DGPSpec(family="single_binary_iv", n=6_000, seed=31)
    table, _ = generate(dgp)
    res = solve_functional(table, LearnerConfig(), 0.5, target="missing")
    ref = oracle_missing_quantile(dgp, 0.5, draws=2_000_000)
    assert abs(res.psi - ref) < 0.15


# -- the single grid pass against a refit at every grid point ----------------

@pytest.fixture(scope="module")
def refits():
    """(family, mode) -> a table and nuisance sets refitted at 64 grid points."""
    cache = {}

    def get(family, mode):
        if (family, mode) not in cache:
            table, _ = generate(DGPSpec(family=family, n=1_500, seed=23))
            y = table.y_observed
            grid = np.linspace(y.min(), y.max(), 64)
            specs = [FunctionalSpec.quantile(0.5, psi=p) for p in grid]
            sets = [fit_nuisance_set(table, s, LearnerConfig(), mode=mode) for s in specs]
            cache[family, mode] = (table, grid, specs, sets)
        return cache[family, mode]

    return get


@pytest.mark.parametrize("target", ["missing", "population"])
@pytest.mark.parametrize("winsorize", [None, 5.0])
@pytest.mark.parametrize("trim", ["floor", "drop"])
@pytest.mark.parametrize("mode", ["marginalize", "direct"])
@pytest.mark.parametrize("family", ["single_binary_iv", "dual_binary_iv"])
def test_grid_pass_equals_per_psi_refits(family, mode, trim, winsorize, target,
                                         refits, monkeypatch):
    table, grid, specs, sets = refits(family, mode)
    betas = np.array([beta_if_general(table, ns, s, trim=trim, winsorize=winsorize)
                      for s, ns in zip(specs, sets)])
    y = table.y_observed
    alphas = np.array([np.mean(evaluate_h(s, y)) for s in specs])
    pi0 = sets[0].pi0
    reference = betas if target == "missing" else (1.0 - pi0) * alphas + pi0 * betas

    kw = dict(mode=mode, trim=trim, winsorize=winsorize, target=target)
    res = solve_functional(table, LearnerConfig(), 0.5, **kw)
    np.testing.assert_array_equal(res.grid, grid)
    np.testing.assert_allclose(res.moments, reference, rtol=0, atol=1e-12)

    # the same bisection on the refitted moments lands on the same root
    monkeypatch.setattr(mivest.general, "_grid_beta", lambda *a, **k: (betas, pi0))
    ref = solve_functional(table, LearnerConfig(), 0.5, **kw)
    assert (res.psi, res.iterations, res.bracket) == (ref.psi, ref.iterations, ref.bracket)


# -- Neyman orthogonality: first-order insensitivity to nuisance error -------

def _perturb(ns, which, t):
    """The exact set moved by t along one direction that varies with z and x.

    mu_z(x) + t (1 + z) x1, or pi_z(x) shifted by t (1 + z) (x1 - 0.3) on the
    logit scale (shift_probability clips first: a bare logit of the dual
    family's pi reaches p = 1).
    """
    level = (1.0 + np.arange(ns.L))[:, None]
    if which == "mu":
        base = ns.mu_fn
        return ns.with_overrides(
            mu_fn=lambda X: base(X) + t * level * np.atleast_2d(X)[:, 0])
    base = ns.pi_fn
    return ns.with_overrides(pi_fn=lambda X: shift_probability(
        base(X), t * level * (np.atleast_2d(X)[:, 0] - 0.3)))


@pytest.fixture(scope="module")
def orthogonality_tables():
    return {family: generate(DGPSpec(family=family, n=100_000, seed=414))[0]
            for family in ("single_binary_iv", "dual_binary_iv")}


@pytest.mark.parametrize("family, which", [("single_binary_iv", "mu"),
                                           ("dual_binary_iv", "mu"),
                                           ("dual_binary_iv", "pi")])
def test_influence_function_is_orthogonal_where_the_plug_in_is_not(
        family, which, orthogonality_tables):
    # central differences at t = +-0.025 around the exact nuisances: the mean
    # influence value has zero slope (within 3 SE of the per-row slopes),
    # while the plug-in mean of delta moves at first order
    table = orthogonality_tables[family]
    ns = oracle_nuisances(family)
    t = 0.025
    phi = {}
    plug = {}
    for sign in (1, -1):
        moved = _perturb(ns, which, sign * t)
        phi[sign] = _phi_parts_general(table, moved, SPEC, "floor", None).phi_tilde
        plug[sign] = beta_id_general(table, moved)
    rows = (phi[1] - phi[-1]) / (2.0 * t)
    if_slope = float(rows.mean())
    bound = 3.0 * float(rows.std()) / np.sqrt(table.n)
    plug_slope = (plug[1] - plug[-1]) / (2.0 * t)
    assert abs(if_slope) <= bound
    assert abs(plug_slope) > 5.0 * bound
