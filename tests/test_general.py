"""Multi-level influence values, variance, population target, quantile root."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mivest.general
from mivest.data import EstimationConfig, FunctionalSpec, ObservationTable, evaluate_h
from mivest.exceptions import EstimationError, NoIncompleteCasesError, WeakIdentificationError
from mivest.corruption import shift_probability
from mivest.crossfit import crossfit_beta
from mivest.general import (_grid_beta, _root, beta_id_general, normal_ci, solve_functional,
                            variance_if)
from mivest.learners import LearnerConfig
from mivest.nuisance import fit_mu_component, fit_nuisance_set
from mivest.oracles import oracle_nuisances
from mivest.simulation import DGPSpec, generate

from helpers import (beta_if_general, const_fn, const_ns, g_weights, if_values_general,
                     one_row_x, phi_tilde_values, reference_missing_outcomes, small_table)

SPEC = FunctionalSpec.mean()
X_ROW = one_row_x()[None, :]
# one repetition of two folds drawn from seed 0, for the fixed-set fitters
ONE_SPLIT = EstimationConfig(n_folds=2, repetitions=1, seed=0)
ONE_SPLIT_DROP = EstimationConfig(n_folds=2, repetitions=1, seed=0, trim="drop")


def fixed(ns):
    """A fitter that ignores its training rows and returns ns for every fold."""
    return lambda train, spec, cfg: ns


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
    # counts the one hit; trim "drop" removes x
    ns = const_ns(pi=(0.3, 0.6), rho=(0.5, 0.5), mu=(0.0, 0.0), pi0=0.2,
                  pi_marg=0.3)
    _, g_diff, own = g_weights(ns, X_ROW)
    assert np.all(np.isfinite(g_diff))
    assert own.floor_hits == 1        # level 0 of x
    assert own.keep.all()
    assert not g_weights(ns, X_ROW, trim="drop")[2].keep.any()


def test_rho_weighted_g_identity(dual_fit):
    # the weights g(z, x) - g(x) average to zero under rho(., x)
    probes = np.random.default_rng(4).random((40, 2))
    rho, g_diff, _ = g_weights(dual_fit, probes)
    total = sum(rho[z] * g_diff[z] for z in range(dual_fit.L))
    assert np.allclose(total, 0.0, atol=1e-12)


def test_beta_id_general_uses_own_level_contrast():
    # delta = (mu - mu_marg) / (pi - pi_marg) = (0.2 / 0.4, 0.9 / 0.6)
    ns = const_ns(pi=(0.7, 0.9), rho=(0.5, 0.5), mu=(0.2, 0.9), pi0=0.5,
                  pi_marg=0.3, mu_marg=0.0)
    t = small_table([0, 1], [0, 0], [None, None])
    assert beta_id_general(t, ns) == pytest.approx(1.0)


def test_beta_id_general_ignores_respondents():
    # delta = (mu - mu_marg) / (pi - pi_marg) = (0.2 / 0.4, 0.9 / 0.6)
    ns = const_ns(pi=(0.7, 0.9), rho=(0.5, 0.5), mu=(0.2, 0.9), pi0=0.5,
                  pi_marg=0.3, mu_marg=0.0)
    t = small_table([0, 1, 1, 1], [0, 0, 1, 1], [None, None, 9.0, 9.0])
    assert beta_id_general(t, ns) == pytest.approx(1.0)


def test_trim_drop_reads_the_own_level_in_the_plug_in_and_every_level_in_the_if():
    # delta_r = pi - pi_marg is 0 at level 0, which the floor turns into
    # +1e-6, and 0.3 at level 1.  Under trim "drop" the plug-in leaves out
    # only the R = 0 rows at level 0, whose own delta divides by the floor;
    # the influence-function estimators leave out every row, since g(x)
    # reads both levels at every row
    ns = const_ns(pi=(0.5, 0.8), rho=(0.5, 0.5), mu=(0.2, 0.9), pi0=0.5,
                  pi_marg=0.5, mu_marg=0.3)
    t = small_table([0, 1, 0, 1, 1, 0], [0, 0, 1, 1, 0, 0],
                    [None, None, 1.0, 2.0, None, None])
    floored, kept = (0.2 - 0.3) / 1e-6, (0.9 - 0.3) / 0.3
    assert beta_id_general(t, ns, trim="drop") == pytest.approx(kept)
    assert beta_id_general(t, ns, trim="floor") == pytest.approx((2 * floored + 2 * kept) / 4)
    with pytest.raises(EstimationError, match="trim policy removed every row"):
        crossfit_beta(t, SPEC, LearnerConfig(), ONE_SPLIT_DROP, fitter=fixed(ns))
    with pytest.raises(EstimationError, match="trim policy removed every row"):
        beta_if_general(t, ns, SPEC, trim="drop")


def test_if_value_general_worked_example():
    # delta = 2 at both levels: (1.0 - 0.2) / 0.4 and (1.4 - 0.2) / 0.6
    ns = const_ns(pi=(0.7, 0.9), rho=(1 / 7, 6 / 7), mu=(1.0, 1.4), pi0=0.5,
                  pi_marg=0.3, mu_marg=0.2)
    t = small_table([0], [1], [2.0], X=X_ROW, L=2)
    v = if_values_general(t, ns, 99.0, SPEC)[0]
    assert v == pytest.approx(0.4)


def test_if_value_general_zero_when_weights_balance():
    # constant pi makes g flat in z, and delta = (1.0 - 0.2) / 0.4 = beta
    # kills the tail term
    ns = const_ns(pi=(0.7, 0.7), rho=(0.25, 0.75), mu=(1.0, 1.0), pi0=0.5,
                  pi_marg=0.3, mu_marg=0.2)
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
    # delta = (c - 0.6 c) / 0.4 = c
    ns = const_ns(pi=(0.7, 0.7), rho=(0.5, 0.5), mu=(c, c), pi0=0.25,
                  pi_marg=0.3, mu_marg=0.6 * c)
    t = small_table([0, 1, 0, 1, 0, 1, 0, 1], [1, 1, 1, 0, 1, 0, 1, 1],
                    [c, c, c, None, c, None, c, c], L=2)
    missing, population = crossfit_beta(t, SPEC, LearnerConfig(), ONE_SPLIT,
                                        fitter=fixed(ns))
    assert missing.estimate == pytest.approx(c, abs=1e-12)
    assert population.estimate == pytest.approx(c, abs=1e-12)


def test_population_mean_composition(single_table, single_fit):
    # every fold evaluates the one in-sample set, so the driver's beta is
    # that set's influence-function estimate
    missing, population = crossfit_beta(single_table, SPEC, LearnerConfig(), ONE_SPLIT,
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
        crossfit_beta(complete, SPEC, LearnerConfig(), ONE_SPLIT, fitter=fixed(ns))
    missing = small_table([0, 1], [0, 0], [None, None])
    with pytest.raises(EstimationError, match="no complete cases"):
        crossfit_beta(missing, SPEC, LearnerConfig(), ONE_SPLIT, fitter=fixed(ns))


def test_solve_functional_input_contract(single_table):
    cfg = LearnerConfig()
    with pytest.raises(EstimationError):
        solve_functional(single_table, cfg, 0.0)


def test_solve_functional_needs_incomplete_rows():
    # both targets come from one pass that needs the R = 0 rows, so a fully
    # observed table is refused as crossfit_beta refuses it
    complete = small_table([0, 1, 0], [1, 1, 1], [1.0, 2.0, 3.0])
    with pytest.raises(NoIncompleteCasesError):
        solve_functional(complete, LearnerConfig(), 0.3)


def test_solve_functional_degenerate_outcome():
    n = 40
    y = [3.0 if r else None for r in [1, 0] * (n // 2)]
    t = small_table([0, 1] * (n // 2), [1, 0] * (n // 2), y,
                    X=np.random.default_rng(2).random((n, 2)))
    missing, population = solve_functional(t, LearnerConfig(), 0.4)
    assert missing.psi == population.psi == 3.0


def test_solve_functional_no_observed_outcomes():
    t = small_table([0, 1], [0, 0], [None, None])
    with pytest.raises(EstimationError):
        solve_functional(t, LearnerConfig(), 0.5)


# -- the root of the interpolated grid moments --------------------------------

def test_root_takes_the_first_sign_change():
    # a later exact zero does not win over an earlier crossing
    res = _root(np.linspace(0.0, 3.0, 4), np.array([1.0, -1.0, 0.0, 1.0]), "missing")
    assert (res.psi, res.bracket) == (0.5, (0.0, 1.0))


@pytest.mark.parametrize("moments, psi, bracket", [
    ([0.0, 1.0, 2.0], 0.0, (0.0, 1.0)),       # a zero at the first grid point
    ([-2.0, -1.0, 0.0], 2.0, (1.0, 2.0)),     # a zero at the last grid point
    ([1.0, 0.0, -1.0], 1.0, (0.0, 1.0)),      # an interior zero ends the first interval
    ([0.0, 0.0, 1.0], 0.0, (0.0, 1.0)),       # flat at zero: the first end
])
def test_root_returns_an_exact_zero_at_a_grid_point(moments, psi, bracket):
    res = _root(np.linspace(0.0, 2.0, 3), np.array(moments), "population")
    assert (res.psi, res.bracket) == (psi, bracket)


def test_root_names_the_moment_without_a_sign_change(single_table, monkeypatch):
    with pytest.raises(WeakIdentificationError, match="population moment"):
        _root(np.linspace(0.0, 1.0, 5), np.full(5, 0.25), "population")
    # a missing-target moment that stays positive fails first, under its name
    monkeypatch.setattr(mivest.general, "_grid_beta",
                        lambda table, cfg, q, grid, *a, **k: (np.full(grid.size, 0.25), 0.3))
    with pytest.raises(WeakIdentificationError, match="missing moment"):
        solve_functional(single_table, LearnerConfig(), 0.5)


@settings(max_examples=200, deadline=None)
@given(lo=st.floats(-1e3, 1e3), width=st.floats(1e-3, 1e3),
       moments=st.lists(st.one_of(st.just(0.0), st.floats(-1e3, 1e3)), min_size=2, max_size=70))
def test_root_is_the_interpolant_zero_in_its_bracket(lo, width, moments):
    grid = np.linspace(lo, lo + width, len(moments))
    m = np.array(moments)
    sign = np.sign(m)
    assume(np.any(sign[:-1] * sign[1:] <= 0))
    res = _root(grid, m, "missing")
    a, b = res.bracket
    i = int(np.flatnonzero(grid == a)[0])
    assert b == grid[i + 1] and np.all(sign[:i] * sign[1:i + 1] > 0)
    assert a <= res.psi <= b
    fa, fb = m[i], m[i + 1]
    # zero up to the rounding of psi, whose size is that of the grid values
    scale = (abs(fa) + abs(fb)) * (1.0 + (abs(a) + abs(b)) / (b - a))
    assert abs(fa + (res.psi - a) / (b - a) * (fb - fa)) <= 8 * np.finfo(float).eps * scale


def test_missing_quantile_against_latent_draw():
    dgp = DGPSpec(family="single_binary_iv", n=6_000, seed=31)
    table, _ = generate(dgp)
    res, _ = solve_functional(table, LearnerConfig(), 0.5)
    outcomes, _, _ = reference_missing_outcomes(dgp, 2_000_000)
    ref = np.quantile(np.concatenate(outcomes), 0.5)
    assert abs(res.psi - ref) < 0.15


# -- the single grid pass against a refit at every grid point ----------------

# One value: the marginals are always the rho-weighted sums of the
# per-level models.  The parameter keeps each case's id ("...[marginalize]").
ONE_MARGINALISATION = pytest.mark.parametrize("mode", ["marginalize"])


@pytest.fixture(scope="module")
def refits():
    """family -> a table and nuisance sets refitted at 64 grid points."""
    cache = {}

    def get(family):
        if family not in cache:
            table, _ = generate(DGPSpec(family=family, n=1_500, seed=23))
            y = table.y_observed
            grid = np.linspace(y.min(), y.max(), 64)
            specs = [FunctionalSpec.quantile(0.5, psi=p) for p in grid]
            sets = [fit_nuisance_set(table, s, LearnerConfig()) for s in specs]
            cache[family] = (table, grid, specs, sets)
        return cache[family]

    return get


@pytest.mark.parametrize("target", ["missing", "population"])
@pytest.mark.parametrize("winsorize", [None, 5.0])
@pytest.mark.parametrize("trim", ["floor", "drop"])
@ONE_MARGINALISATION
@pytest.mark.parametrize("family", ["single_binary_iv", "dual_binary_iv"])
def test_grid_pass_equals_per_psi_refits(family, mode, trim, winsorize, target,
                                         refits, monkeypatch):
    table, grid, specs, sets = refits(family)
    betas = np.array([beta_if_general(table, ns, s, trim=trim, winsorize=winsorize)
                      for s, ns in zip(specs, sets)])
    y = table.y_observed
    alphas = np.array([np.mean(evaluate_h(s, y)) for s in specs])
    pi0 = sets[0].pi0
    reference = betas if target == "missing" else (1.0 - pi0) * alphas + pi0 * betas

    est = EstimationConfig(trim=trim, winsorize=winsorize)
    pick = 0 if target == "missing" else 1
    res = solve_functional(table, LearnerConfig(), 0.5, est)[pick]
    np.testing.assert_array_equal(res.grid, grid)
    np.testing.assert_allclose(res.moments, reference, rtol=0, atol=1e-12)

    # the root of the refitted moments lies in the same grid interval, and
    # the interpolant's root moves with the moments by their rounding only
    monkeypatch.setattr(mivest.general, "_grid_beta", lambda *a, **k: (betas, pi0))
    ref = solve_functional(table, LearnerConfig(), 0.5, est)[pick]
    assert res.bracket == ref.bracket
    assert abs(res.psi - ref.psi) <= 1e-12


@pytest.fixture(scope="module")
def psi_free_sets():
    """family -> a table and one fitted set whose mu each case refits."""
    cache = {}

    def get(family):
        if family not in cache:
            table, _ = generate(DGPSpec(family=family, n=1_500, seed=23))
            cache[family] = (table, fit_nuisance_set(table, FunctionalSpec.quantile(0.5),
                                                     LearnerConfig()))
        return cache[family]

    return get


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(["single_binary_iv", "dual_binary_iv"]),
       q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       grid_size=st.sampled_from([2, 7, 63, 64, 65]),
       trim=st.sampled_from(["floor", "drop"]),
       winsorize=st.sampled_from([None, 5.0]))
def test_grid_moments_equal_per_psi_refits_at_every_block_edge(
        psi_free_sets, family, q, grid_size, trim, winsorize):
    # the grid pass builds R h a block of grid points at a time; grids that
    # fill no block, or leave the last one part-filled, must give the same
    # moments as refitting mu at each grid point (pi, rho and pi0 do not
    # depend on psi, so the refit keeps them)
    table, ns = psi_free_sets(family)
    y = table.y_observed
    grid = np.linspace(y.min(), y.max(), grid_size)
    beta, pi0 = _grid_beta(table, LearnerConfig(), q, grid,
                           EstimationConfig(trim=trim, winsorize=winsorize))
    refits = []
    for psi in grid:
        spec = FunctionalSpec.quantile(q, psi=psi)
        refit = dataclasses.replace(ns, mu_fn=fit_mu_component(table, spec, LearnerConfig()))
        refits.append(beta_if_general(table, refit, spec, trim=trim, winsorize=winsorize))
    assert pi0 == ns.pi0
    np.testing.assert_allclose(beta, refits, rtol=0, atol=1e-12)


@ONE_MARGINALISATION
def test_grid_fits_once_and_solves_mu_once_per_model(dual_table, mode, monkeypatch):
    # one psi-free fit, then one fit_linear per level over the stack of
    # all 64 grid targets on that level's rows
    import mivest.nuisance

    fits, solves = [], []
    real_fit = mivest.general.fit_propensities
    real_linear = mivest.nuisance.fit_linear

    def counting_fit(*args, **kwargs):
        fits.append(1)
        return real_fit(*args, **kwargs)

    def spy(features, targets, cfg):
        solves.append((features.shape[0], np.shape(targets)))
        return real_linear(features, targets, cfg)

    monkeypatch.setattr(mivest.general, "fit_propensities", counting_fit)
    monkeypatch.setattr(mivest.nuisance, "fit_linear", spy)
    solve_functional(dual_table, LearnerConfig(), 0.5)
    expected = [(m, (64, m)) for m in np.bincount(dual_table.Z, minlength=dual_table.L)]
    assert len(fits) == 1
    assert solves == expected


@ONE_MARGINALISATION
def test_grid_moments_ignore_outcomes_supplied_where_r_is_zero(mode):
    # ObservationTable.rh is 0 on an R = 0 row whatever its Y holds, and so
    # is the grid's R h: a table with values under R = 0 (which
    # validate_table flags) gives the moments of the same table without them
    table, latent = generate(DGPSpec(family="dual_binary_iv", n=1_500, seed=23))
    leaked = ObservationTable.from_arrays(table.X, table.Z, table.R, latent.y_full)
    assert leaked.y_present[leaked.R == 0].all()
    for clean, dirty in zip(solve_functional(table, LearnerConfig(), 0.5),
                            solve_functional(leaked, LearnerConfig(), 0.5)):
        assert clean.moments.tobytes() == dirty.moments.tobytes()
        assert clean.psi == dirty.psi


@ONE_MARGINALISATION
def test_grid_pass_peak_memory_stays_below_the_per_point_pass(mode):
    # one psi-free fit and one basis, R h built a few grid points at a
    # time: the traced peak of both quantile solves at n = 20 000 stays
    # within 43 n-vectors (float64 columns of n rows); a pass that also
    # fitted the unused mu models and transformed the basis five times
    # peaked at 43.3 on this table
    table, _ = generate(DGPSpec(family="dual_binary_iv", n=20_000, seed=3))
    tracemalloc.start()
    try:
        solve_functional(table, LearnerConfig(), 0.5)
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
        phi[sign] = phi_tilde_values(table, moved, SPEC)[0]
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
            phi[sign] = phi_tilde_values(table, moved, SPEC)[0]
            plug[sign] = beta_id_general(table, moved)
        rows = (phi[1] - phi[-1]) / (2.0 * t)
        if_slopes.append(abs(float(rows.mean())))
        plug_slopes.append(abs(plug[1] - plug[-1]) / (2.0 * t))
    bound = 3.0 * float(rows.std()) / np.sqrt(table.n)
    assert if_slopes[0] > if_slopes[1] > if_slopes[2]
    assert min(plug_slopes) > 5.0 * bound


@settings(max_examples=20, deadline=None, derandomize=True)
@given(family=st.sampled_from(["single_binary_iv", "dual_binary_iv"]),
       which=st.sampled_from(["mu", "pi"]),
       level=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       shape=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_influence_function_is_orthogonal_along_random_smooth_directions(
        orthogonality_tables, family, which, level, shape):
    # the exact set moved by t along level[z] (s0 + s1 x1 + s2 x2 + s3 x1 x2),
    # added to mu_z or to pi_z on the logit scale: the central-difference
    # slope of the mean influence value at t = +-0.025 stays within 3 SE of
    # the per-row slopes, whatever the smooth direction (over 80 random
    # directions it reached 0.88 of that bound, while the plug-in slope
    # exceeded it along every one)
    table = orthogonality_tables[family]
    ns = oracle_nuisances(family)
    lv = np.asarray(level[:ns.L])[:, None]

    def direction(X):
        x1, x2 = np.atleast_2d(X)[:, 0], np.atleast_2d(X)[:, 1]
        return lv * (shape[0] + shape[1] * x1 + shape[2] * x2 + shape[3] * x1 * x2)

    t = 0.025
    phi = {}
    for sign in (1, -1):
        if which == "mu":
            moved = dataclasses.replace(
                ns, mu_fn=lambda X, s=sign: ns.mu_fn(X) + s * t * direction(X))
        else:
            moved = dataclasses.replace(ns, pi_fn=lambda X, s=sign: shift_probability(
                ns.pi_fn(X), s * t * direction(X)))
        phi[sign] = phi_tilde_values(table, moved, SPEC)[0]
    rows = (phi[1] - phi[-1]) / (2.0 * t)
    assert abs(float(rows.mean())) <= 3.0 * float(rows.std()) / np.sqrt(table.n)
