"""Multi-level influence values, variance, population target, quantile root."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mivest.general
from mivest.data import FunctionalSpec, ObservationTable, evaluate_h
from mivest.exceptions import EstimationError, NoIncompleteCasesError
from mivest.corruption import shift_probability
from mivest.crossfit import crossfit_beta
from mivest.general import (_grid_beta, _phi_parts_general, _solve_quantiles,
                            beta_id_general, beta_if_general, if_values_general,
                            normal_ci, solve_functional, variance_if)
from mivest.learners import LearnerConfig
from mivest.nuisance import fit_mu_component, fit_nuisance_set
from mivest.oracles import oracle_nuisances
from mivest.simulation import DGPSpec, generate, oracle_missing_quantile

from helpers import const_fn, const_ns, g_weights, one_row_x, small_table

SPEC = FunctionalSpec.mean()
X_ROW = one_row_x()[None, :]


def fixed(ns):
    """A fitter that ignores its training rows and returns ns for every fold."""
    return lambda train, spec, cfg, mode="marginalize": ns


def test_g_value_example():
    # g(0, x) = 0.2 / (0.2 * 0.5) = 2 and g(1, x) = 0.4 / (0.2 * 0.3) = 20/3,
    # so g(x) = 13/3 and the level-0 weight is 2 - 13/3
    ns = const_ns(pi=(0.8, 0.6), rho=(0.5, 0.5), mu=(0.0, 0.0), pi0=0.2,
                  pi_marg=0.3)
    _, g_diff, _ = g_weights(ns, X_ROW)
    assert g_diff[0, 0] == pytest.approx(2.0 - 13.0 / 3.0)
    assert g_diff[1, 0] == pytest.approx(20.0 / 3.0 - 13.0 / 3.0)


def test_g_value_vanishes_for_saturated_level():
    # g(0, x) vanishes as pi(0, x) -> 1, so the level-0 weight is -g(x),
    # all of it from level 1: -0.5 * 0.4 / (0.2 * 0.3)
    ns = const_ns(pi=(1.0 - 1e-6, 0.6), rho=(0.5, 0.5), mu=(0.0, 0.0),
                  pi0=0.2, pi_marg=0.3)
    _, g_diff, _ = g_weights(ns, X_ROW)
    assert abs(g_diff[0, 0] + 0.5 * 0.4 / (0.2 * 0.3)) < 1e-5


def test_g_value_floor_policy():
    # delta_r(0, x) = 0.3 - 0.3 = 0: the floor keeps the weights finite and
    # counts the one hit; trim "drop" removes both rows of that x
    ns = const_ns(pi=(0.3, 0.6), rho=(0.5, 0.5), mu=(0.0, 0.0), pi0=0.2,
                  pi_marg=0.3)
    _, g_diff, own = g_weights(ns, X_ROW)
    assert np.all(np.isfinite(g_diff))
    assert own.floor_hits == 2        # level 0 of x, at both of its rows
    assert own.keep.all()
    assert not g_weights(ns, X_ROW, trim="drop")[2].keep.any()


def test_rho_weighted_g_identity(dual_fit):
    # the weights g(z, x) - g(x) average to zero under rho(., x)
    probes = np.random.default_rng(4).random((40, 2))
    rho, g_diff, _ = g_weights(dual_fit, probes)
    total = sum(rho[z] * g_diff[z] for z in range(dual_fit.L))
    assert np.allclose(total, 0.0, atol=1e-12)


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
    t = small_table([0], [1], [2.0], X=X_ROW, L=2)
    v = if_values_general(t, ns, 99.0, SPEC)[0]
    assert v == pytest.approx(0.4)


def test_if_value_general_zero_when_weights_balance():
    # constant pi makes g flat in z, and delta = beta kills the tail term
    ns = const_ns(pi=(0.7, 0.7), rho=(0.25, 0.75), mu=(1.0, 1.0), pi0=0.5,
                  pi_marg=0.3, delta=2.0)
    t = small_table([1], [0], [None], X=X_ROW, L=2)
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
    missing, population = crossfit_beta(t, SPEC, LearnerConfig(), n_folds=2,
                                        fitter=fixed(ns))
    assert missing.estimate == pytest.approx(c, abs=1e-12)
    assert population.estimate == pytest.approx(c, abs=1e-12)


def test_population_mean_composition(single_table, single_fit):
    # every fold evaluates the one in-sample set, so the driver's beta is
    # that set's influence-function estimate
    missing, population = crossfit_beta(single_table, SPEC, LearnerConfig(), n_folds=2,
                                        fitter=fixed(single_fit))
    assert missing.estimate == pytest.approx(
        beta_if_general(single_table, single_fit, SPEC), rel=1e-12)
    alpha = float(np.mean(single_table.y_observed))
    pi0 = single_table.n0 / single_table.n
    assert population.estimate == pytest.approx(
        (1.0 - pi0) * alpha + pi0 * missing.estimate, rel=1e-14)


def test_population_mean_needs_both_groups():
    ns = const_ns(pi=(0.7, 0.9), rho=(0.5, 0.5), mu=(1.0, 2.0), pi0=0.5,
                  pi_marg=0.3)
    complete = small_table([0, 1], [1, 1], [1.0, 2.0])
    with pytest.raises(NoIncompleteCasesError):
        crossfit_beta(complete, SPEC, LearnerConfig(), n_folds=2, fitter=fixed(ns))
    missing = small_table([0, 1], [0, 0], [None, None])
    with pytest.raises(EstimationError, match="no complete cases"):
        crossfit_beta(missing, SPEC, LearnerConfig(), n_folds=2, fitter=fixed(ns))


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


@pytest.fixture(scope="module")
def psi_free_sets():
    """(family, mode) -> a table and one fitted set whose mu each case refits."""
    cache = {}

    def get(family, mode):
        if (family, mode) not in cache:
            table, _ = generate(DGPSpec(family=family, n=1_500, seed=23))
            ns = fit_nuisance_set(table, FunctionalSpec.quantile(0.5), LearnerConfig(), mode=mode)
            cache[family, mode] = (table, ns)
        return cache[family, mode]

    return get


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(["single_binary_iv", "dual_binary_iv"]),
       q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       grid_size=st.sampled_from([2, 7, 63, 64, 65]),
       mode=st.sampled_from(["marginalize", "direct"]),
       trim=st.sampled_from(["floor", "drop"]),
       winsorize=st.sampled_from([None, 5.0]))
def test_grid_moments_equal_per_psi_refits_at_every_block_edge(
        psi_free_sets, family, q, grid_size, mode, trim, winsorize):
    # the grid pass builds R h a block of grid points at a time; grids that
    # fill no block, or leave the last one part-filled, must give the same
    # moments as refitting mu at each grid point (pi, rho and pi0 do not
    # depend on psi, so the refit keeps them)
    table, ns = psi_free_sets(family, mode)
    y = table.y_observed
    grid = np.linspace(y.min(), y.max(), grid_size)
    beta, pi0 = _grid_beta(table, LearnerConfig(), q, grid, y,
                           mode=mode, trim=trim, winsorize=winsorize)
    refits = []
    for psi in grid:
        spec = FunctionalSpec.quantile(q, psi=psi)
        mu_fn, mu_marg_fn = fit_mu_component(table, spec, LearnerConfig(), mode=mode)
        refit = dataclasses.replace(ns, mu_fn=mu_fn, mu_marg_fn=mu_marg_fn)
        refits.append(beta_if_general(table, refit, spec, trim=trim, winsorize=winsorize))
    assert pi0 == ns.pi0
    np.testing.assert_allclose(beta, refits, rtol=0, atol=1e-12)


def test_grid_pass_peak_memory_stays_below_the_per_point_pass():
    # one psi-free fit and one basis, R h built a few grid points at a
    # time: the traced peak of both quantile solves at n = 20 000 stays
    # within 43 n-vectors (float64 columns of n rows); a pass that also
    # fitted the unused mu models and transformed the basis five times
    # peaked at 43.3 on this table
    table, _ = generate(DGPSpec(family="dual_binary_iv", n=20_000, seed=3))
    tracemalloc.start()
    try:
        _solve_quantiles(table, LearnerConfig(), 0.5, ("missing", "population"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 43 * 8 * table.n


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
        return dataclasses.replace(
            ns, mu_fn=lambda X: base(X) + t * level * np.atleast_2d(X)[:, 0])
    base = ns.pi_fn
    return dataclasses.replace(ns, pi_fn=lambda X: shift_probability(
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


def test_influence_function_slope_shrinks_with_the_step(orthogonality_tables):
    # the mean influence value's central-difference slope along the pi
    # direction is a second-order remainder: it shrinks as t goes
    # 0.1 -> 0.05 -> 0.025 (about -0.18, -0.055, -0.033 on this table),
    # while the plug-in slope stays near 0.5 at every step, above five
    # times the 3-SE bound of the t = 0.025 slope
    table = orthogonality_tables["dual_binary_iv"]
    ns = oracle_nuisances("dual_binary_iv")
    if_slopes, plug_slopes = [], []
    for t in (0.1, 0.05, 0.025):
        phi, plug = {}, {}
        for sign in (1, -1):
            moved = _perturb(ns, "pi", sign * t)
            phi[sign] = _phi_parts_general(table, moved, SPEC, "floor", None).phi_tilde
            plug[sign] = beta_id_general(table, moved)
        rows = (phi[1] - phi[-1]) / (2.0 * t)
        if_slopes.append(abs(float(rows.mean())))
        plug_slopes.append(abs(plug[1] - plug[-1]) / (2.0 * t))
    bound = 3.0 * float(rows.std()) / np.sqrt(table.n)
    assert if_slopes[0] > if_slopes[1] > if_slopes[2]
    assert min(plug_slopes) > 5.0 * bound
