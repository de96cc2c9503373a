"""Nuisance fitting, derived contrasts, the denominator floor, and diagnostics."""

import dataclasses
import tracemalloc

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mivest.crossfit import crossfit_beta
from mivest.data import FunctionalSpec
from mivest.exceptions import DataContractError, NuisanceFitError
from mivest.general import solve_functional
from mivest.learners import LearnerConfig, MultinomialModel, PolyBasis
from mivest.nuisance import (MIN_STRATUM_ROWS, PROB_CLIP, Diagnostics, NuisanceSet,
                             evaluate_nuisances, fit_mu_component, fit_nuisance_set,
                             fit_propensities, floor_denominator, winsorize_values)
from mivest.oracles import oracle_mu, oracle_pi
from mivest.simulation import DGPSpec, generate

from helpers import const_fn, const_marg, const_ns, reference_pooled_pi_coef, small_table

SPEC = FunctionalSpec.mean()
PROBE = np.array([[0.2, 0.2], [0.2, 0.8], [0.5, 0.5], [0.8, 0.2], [0.8, 0.8]])


@pytest.fixture(scope="module")
def big_fit():
    table, _ = generate(DGPSpec(family="single_binary_iv", n=100_000,
                                seed=2024))
    ns = fit_nuisance_set(table, SPEC, LearnerConfig())
    return table, ns


def test_pi0_is_the_missing_fraction(big_fit):
    table, ns = big_fit
    assert ns.pi0 == np.mean(table.R == 0)


def test_fitted_pi_tracks_truth(big_fit):
    _, ns = big_fit
    for z in (0, 1):
        truth = oracle_pi("single_binary_iv", z, PROBE, {})
        assert np.max(np.abs(evaluate_nuisances(ns, PROBE).pi[z] - truth)) < 0.03


def test_fitted_mu_tracks_truth(big_fit):
    _, ns = big_fit
    for z in (0, 1):
        truth = oracle_mu("single_binary_iv", z, PROBE, {}, 0.0)
        assert np.max(np.abs(evaluate_nuisances(ns, PROBE).mu[z] - truth)) < 0.06


def test_rho_sums_to_one(big_fit, dual_fit):
    _, ns = big_fit
    rho = evaluate_nuisances(ns, PROBE).rho
    total = sum(rho[z] for z in range(ns.L))
    assert np.allclose(total, 1.0, atol=1e-9)
    rho4 = evaluate_nuisances(dual_fit, PROBE).rho
    total4 = sum(rho4[z] for z in range(dual_fit.L))
    assert np.allclose(total4, 1.0, atol=1e-9)


def test_marginalize_mode_identities(big_fit, dual_fit):
    # rho-weighted response and outcome contrasts cancel by construction
    for ns in (big_fit[1], dual_fit):
        ev = evaluate_nuisances(ns, PROBE)
        r_sum = sum(ev.rho[z] * ev.delta_r[z] for z in range(ns.L))
        y_sum = sum(ev.rho[z] * ev.delta_y[z] for z in range(ns.L))
        assert np.max(np.abs(r_sum)) < 1e-10
        assert np.max(np.abs(y_sum)) < 1e-10


def test_derived_quantities_on_constants():
    ns = const_ns(pi=(0.4, 0.8), rho=(0.5, 0.5), mu=(0.3, 0.9), pi0=0.25)
    ev = evaluate_nuisances(ns, PROBE[:1])
    delta = ev.delta_y / floor_denominator(ev.delta_r)[0]
    assert ev.pi_marg[0] == pytest.approx(0.6)
    assert ev.delta_r[1, 0] == pytest.approx(0.2)
    assert ev.delta_r[0, 0] == pytest.approx(-0.2)
    assert delta[1, 0] == pytest.approx(1.5)
    assert delta[0, 0] == pytest.approx(1.5)


def test_binary_delta_r_factorization(big_fit):
    # delta_r at level 1 equals rho_0 times the level contrast when L = 2
    _, ns = big_fit
    ev = evaluate_nuisances(ns, PROBE)
    lhs = ev.delta_r[1]
    rhs = ev.rho[0] * (ev.pi[1] - ev.pi[0])
    assert np.allclose(lhs, rhs, atol=1e-12)


@given(st.integers(2, 5), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_rho_weighted_response_contrast_cancels(L, seed):
    rng = np.random.default_rng(seed)
    rho = rng.dirichlet(np.ones(L))
    pi = rng.uniform(0.05, 0.95, size=L)
    mu = rng.uniform(-2, 2, size=L)
    ns = const_ns(pi=pi, rho=rho, mu=mu, pi0=0.5)
    ev = evaluate_nuisances(ns, PROBE)
    total = sum(ev.rho[z] * ev.delta_r[z] for z in range(L))
    assert np.max(np.abs(total)) < 1e-10


def test_flat_pi_hits_the_floor():
    ns = const_ns(pi=(0.6, 0.6), rho=(0.5, 0.5), mu=(0.3, 0.5), pi0=0.5)
    ev = evaluate_nuisances(ns, PROBE)
    den, hits = floor_denominator(ev.delta_r[1])
    vals = ev.delta_y[1] / den
    assert np.all(np.isfinite(vals))
    assert hits.sum() > 0


def test_floor_denominator_keeps_the_sign():
    vals = np.array([-1e-8, 1e-8, 0.5, 0.0])
    floored, hits = floor_denominator(vals)
    assert floored.tolist() == [-1e-6, 1e-6, 0.5, 1e-6]
    assert hits.tolist() == [True, True, False, True]
    clean, hits = floor_denominator(np.array([0.2, -0.3]))
    assert clean.tolist() == [0.2, -0.3]
    assert not hits.any()


def test_winsorize_values_clips_outliers():
    vals = np.concatenate([np.linspace(-1, 1, 50), [40.0]])
    out = winsorize_values(vals, 1.5)
    assert out.max() < 40.0
    assert np.count_nonzero(out != vals) == 1
    assert np.array_equal(out[:-1], vals[:-1])


def test_diagnostics_add_sums():
    a = Diagnostics(floor_hits=1, prob_clips=2, winsorized=3,
                    nonconverged_fits=4)
    b = Diagnostics(floor_hits=10, prob_clips=20, winsorized=30,
                    nonconverged_fits=40)
    a = a + b
    assert dataclasses.asdict(a) == {"floor_hits": 11, "prob_clips": 22,
                           "winsorized": 33, "nonconverged_fits": 44}


def test_missing_level_in_training_raises():
    t = small_table([0, 0, 0, 0], [1, 0, 1, 0], [1.0, None, 2.0, None], L=2)
    with pytest.raises(NuisanceFitError, match="level 1"):
        fit_nuisance_set(t, SPEC, LearnerConfig())


@pytest.mark.parametrize("code", [-1, 3])
def test_instrument_codes_outside_the_levels_are_a_data_contract_error(code):
    # from_arrays keeps the code (validate_table flags it as code_range); each
    # estimator names it instead of failing inside a fit or np.bincount, also
    # when the one bad row sits in an evaluation fold only
    rng = np.random.default_rng(12)
    n = 600
    Z = rng.integers(0, 3, size=n)
    Z[10] = code
    R = (rng.random(n) < 0.6).astype(int)
    Y = [float(v) if r == 1 else None for v, r in zip(rng.normal(size=n), R)]
    t = small_table(Z, R, Y, X=rng.normal(size=(n, 2)), L=3)
    match = rf"instrument code {code} is outside 0\.\.2 \(L = 3\)"
    for estimate in (lambda: crossfit_beta(t, SPEC, LearnerConfig()),
                     lambda: solve_functional(t, LearnerConfig(), 0.5),
                     lambda: fit_nuisance_set(t, SPEC, LearnerConfig())):
        with pytest.raises(DataContractError, match=match):
            estimate()


def test_one_sided_level_warns():
    Z = [0] * 40 + [1] * 40
    R = [1] * 40 + [0, 1] * 20
    Y = [float(i % 5) if r == 1 else None for i, r in enumerate(R)]
    t = small_table(Z, R, Y, X=np.random.default_rng(1).random((80, 2)))
    with pytest.warns(RuntimeWarning, match="lacks both response classes"):
        fit_nuisance_set(t, SPEC, LearnerConfig())


def test_pooled_fallback_for_thin_strata():
    # one level has 12 rows, below the per-stratum threshold; the name is
    # older than the per-level fit that replaced the pooled one, and the
    # check is the same: every fitted pi stays inside (0, 1)
    rng = np.random.default_rng(8)
    Z = np.array([0] * 12 + [1] * 300)
    R = rng.integers(0, 2, size=312)
    R[:4] = [0, 1, 0, 1]
    Y = [float(v) if r == 1 else None
         for v, r in zip(rng.normal(size=312), R)]
    t = small_table(Z, R, Y, X=rng.random((312, 2)))
    ns = fit_nuisance_set(t, SPEC, LearnerConfig())
    vals = evaluate_nuisances(ns, PROBE).pi
    assert np.all((vals > 0) & (vals < 1))


def _thin_level_table(Z):
    # 1054 rows; the 20 rows with Z = 0 (before any relabelling) all respond
    rng = np.random.default_rng(4)
    n = Z.size
    R = (rng.random(n) < 0.6).astype(int)
    R[Z == Z[0]] = 1
    Y = [float(v) if r else None for v, r in zip(rng.normal(size=n), R)]
    return small_table(Z, R, Y, X=rng.random((n, 2)))


THIN_Z = np.r_[np.zeros(20, dtype=int), np.ones(1034, dtype=int)]


def test_fit_propensities_keeps_the_features_column_major():
    # the basis and each level block are column-major, so the fits read
    # them as views, with no transposed copies; the blocks are F's rows
    table, _ = generate(DGPSpec(family="dual_binary_iv", n=3000, seed=12))
    props, F, levels = fit_propensities(table, LearnerConfig())
    assert F.flags.f_contiguous
    assert F.tobytes() == props.basis.transform(table.X).tobytes()
    assert len(levels) == table.L
    for z, (r, Fz) in enumerate(levels):
        assert Fz.flags.f_contiguous
        assert r.tolist() == np.flatnonzero(table.Z == z).tolist()
        assert Fz.tobytes(order="C") == F[r].tobytes()


@pytest.mark.filterwarnings("ignore:instrument level")
def test_a_thin_one_class_level_converges_with_a_ridged_intercept():
    # a thin level ridges every level's intercept; level 0's all-respondent
    # rows have no finite unpenalised optimum, and an unridged intercept
    # there ran off to 27.4 without converging
    assert (THIN_Z == 0).sum() < MIN_STRATUM_ROWS
    props, _, _ = fit_propensities(_thin_level_table(THIN_Z), LearnerConfig())
    assert props.nonconverged_fits == 0
    assert 0.0 < props.pi_coef[0, 0] < 10.0


@pytest.mark.filterwarnings("ignore:instrument level")
def test_thin_level_fits_do_not_depend_on_the_level_labels():
    fits = [fit_propensities(_thin_level_table(Z), LearnerConfig())[0]
            for Z in (THIN_Z, 1 - THIN_Z)]
    pi, swapped = (p.pi(p.basis.transform(PROBE))[0] for p in fits)
    np.testing.assert_allclose(swapped[::-1], pi, rtol=0.0, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(L=st.integers(2, 5), thin=st.integers(0, 4), thin_rows=st.integers(1, MIN_STRATUM_ROWS - 1),
       one_class=st.booleans(), lam=st.sampled_from([1e-3, 1.0]),
       seed=st.integers(0, 2**32 - 1))
@pytest.mark.filterwarnings("ignore:instrument level")
def test_thin_level_response_fits_equal_the_block_diagonal_fit(L, thin, thin_rows, one_class,
                                                                lam, seed):
    # one level under MIN_STRATUM_ROWS (one response class if one_class or
    # a single row), the others 30 to 119 rows: the per-level fits with
    # ridged intercepts reach the optimum of the one block-diagonal fit,
    # and relabelling the levels permutes the fitted pi bit for bit
    rng = np.random.default_rng(seed)
    thin %= L
    sizes = rng.integers(MIN_STRATUM_ROWS, 120, size=L)
    sizes[thin] = thin_rows
    Z = rng.permutation(np.repeat(np.arange(L), sizes))
    X = rng.random((Z.size, 2))
    R = (rng.random(Z.size) < 1.0 / (1.0 + np.exp(X[:, 1] - X[:, 0] - 0.3 * Z))).astype(int)
    if one_class:
        R[Z == thin] = R[Z == thin][0]
    Y = [float(v) if r else None for v, r in zip(rng.normal(size=Z.size), R)]
    cfg = LearnerConfig(ridge_lambda=lam)
    props, F, _ = fit_propensities(small_table(Z, R, Y, X=X, L=L), cfg)
    want = reference_pooled_pi_coef(F, Z, R, L, cfg)
    assert np.max(np.abs(props.pi_coef - want)) <= 1e-8
    perm = rng.permutation(L)                   # level z is relabelled perm[z]
    swapped, _, _ = fit_propensities(small_table(perm[Z], R, Y, X=X, L=L), cfg)
    pi = props.pi(props.basis.transform(PROBE))[0]
    assert swapped.pi(swapped.basis.transform(PROBE))[0][perm].tobytes() == pi.tobytes()


def test_fit_propensities_on_a_thin_level_peaks_under_45_float64_per_row():
    # the dual family with level 0 cut to 25 rows (15 021 rows): the basis
    # and its per-level copy are 9 float64 per row each, the instrument
    # model's class-major buffers about 8 more, and the Hessian chunks a
    # fixed size.  Measured: 33.0 per row
    table, _ = generate(DGPSpec(family="dual_binary_iv", n=20_000, seed=5))
    keep = np.r_[np.flatnonzero(table.Z == 0)[:25], np.flatnonzero(table.Z != 0)]
    thin = table.subset(np.sort(keep))
    tracemalloc.start()
    try:
        fit_propensities(thin, LearnerConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 45 * 8 * thin.n


@pytest.mark.parametrize("family, n", [("dual_binary_iv", 50_000), ("single_binary_iv", 100_000)])
def test_fit_nuisance_set_peaks_under_32_float64_per_row(family, n):
    # one training block's fit: the basis, pi's and rho's fits on it, and
    # one ridge solve per mu model.  Measured (seed 3): 22.9 per row on the
    # dual family, 23.1 on the single
    table, _ = generate(DGPSpec(family=family, n=n, seed=3))
    tracemalloc.start()
    try:
        fit_nuisance_set(table, SPEC, LearnerConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 8 * table.n


def test_direct_mode_requires_marginals():
    with pytest.raises(NuisanceFitError):
        NuisanceSet(L=2, pi_fn=const_fn((0.4, 0.8)),
                    rho_fn=const_fn((0.5, 0.5)), mu_fn=const_fn((0.3, 0.9)),
                    pi0=0.5, mode="direct")


def test_replace_shares_untouched_components():
    ns = const_ns(pi=(0.4, 0.8), rho=(0.5, 0.5), mu=(0.3, 0.9), pi0=0.25)
    ns2 = dataclasses.replace(ns, mu_fn=const_fn((0.0, 0.0)))
    assert ns2.pi_fn is ns.pi_fn
    assert evaluate_nuisances(ns2, PROBE).mu[1, 0] == 0.0
    assert evaluate_nuisances(ns, PROBE).mu[1, 0] == 0.9


def test_evaluate_nuisances_shapes(big_fit):
    _, ns = big_fit
    ev = evaluate_nuisances(ns, PROBE)
    m = PROBE.shape[0]
    assert ev.pi.shape == (2, m)
    assert ev.rho.shape == (2, m)
    assert ev.mu.shape == (2, m)
    assert ev.pi_marg.shape == (m,)
    assert np.allclose(ev.delta_r, ev.pi - ev.pi_marg)


def _steep_instrument_draw(levels):
    # Z is set by the quadrant (L = 4) or the half (L = 2) of x, plus a
    # little noise, so the instrument model saturates; R is a coin flip
    rng = np.random.default_rng(31)
    n = 2_000
    X = rng.random((n, 2))
    Z = (X[:, 0] + 0.05 * rng.normal(size=n) > 0.5).astype(int)
    if levels == 4:
        Z = 2 * Z + (X[:, 1] + 0.05 * rng.normal(size=n) > 0.5)
    R = rng.integers(0, 2, size=n)
    Y = [float(v) if r == 1 else None for v, r in zip(rng.normal(size=n), R)]
    return small_table(Z, R, Y, X=X, L=levels), X


def test_two_level_instrument_clip_counts_once():
    # a steep two-level instrument model saturates; each clipped p1 is one
    # model output, counted once although it gives rho at both levels.
    # Each evaluation of one fitted set counts its own clips, so evaluating
    # the same rows again gives the same count
    table, X = _steep_instrument_draw(2)
    ns = fit_nuisance_set(table, SPEC, LearnerConfig())
    for _ in range(3):
        ev = evaluate_nuisances(ns, X)
        at_bound = np.count_nonzero(np.isin(ev.rho[1], (PROB_CLIP, 1.0 - PROB_CLIP)))
        at_bound += np.count_nonzero(np.isin(ev.pi, (PROB_CLIP, 1.0 - PROB_CLIP)))
        assert at_bound > 0
        assert ev.prob_clips == at_bound


def test_multinomial_instrument_clips_count_once_per_evaluation():
    # a steep four-level instrument model puts probabilities below the
    # floor; they are clipped and renormalised, so the count is read from
    # the model's own predictions rather than from rho
    table, X = _steep_instrument_draw(4)
    ns = fit_nuisance_set(table, SPEC, LearnerConfig())
    props, F, _ = fit_propensities(table, LearnerConfig())
    below = np.count_nonzero(props.rho_model.predict_proba(F) < PROB_CLIP)
    assert below > 0
    for _ in range(3):
        ev = evaluate_nuisances(ns, X)
        assert np.allclose(ev.rho.sum(axis=0), 1.0, rtol=0, atol=1e-12)
        assert ev.rho.min() > 0.0
        at_bound = np.count_nonzero(np.isin(ev.pi, (PROB_CLIP, 1.0 - PROB_CLIP)))
        assert ev.prob_clips == below + at_bound


@pytest.mark.parametrize("mode, components", [("marginalize", 3), ("direct", 5)])
def test_one_evaluation_transforms_the_basis_once(monkeypatch, mode, components):
    # one basis transform shared by all the fitted component callables and
    # one multinomial prediction, whatever the number of instrument levels
    table, _ = generate(DGPSpec(family="dual_binary_iv", n=3_000, seed=12))
    ns = fit_nuisance_set(table, SPEC, LearnerConfig(), mode=mode)
    fns = (ns.pi_fn, ns.rho_fn, ns.mu_fn, ns.pi_marg_fn, ns.mu_marg_fn)
    assert sum(fn is not None for fn in fns) == components
    calls = Counter()

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(PolyBasis, "transform", counted("transform", PolyBasis.transform))
    monkeypatch.setattr(MultinomialModel, "predict_proba",
                        counted("predict_proba", MultinomialModel.predict_proba))
    evaluate_nuisances(ns, PROBE)
    assert ns.L == 4
    assert calls == {"transform": 1, "predict_proba": 1}


def test_fit_mu_component_matches_full_fit(single_table, single_fit):
    mu_fn, _ = fit_mu_component(single_table, SPEC, LearnerConfig(),
                                mode="marginalize")
    for z in (0, 1):
        assert np.allclose(mu_fn(PROBE)[z], evaluate_nuisances(single_fit, PROBE).mu[z],
                           atol=1e-12)
