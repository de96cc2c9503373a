"""Deliberate nuisance corruption and the consistency scenario grid."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, logit

import mivest.corruption
from mivest.corruption import (COMPONENTS, LOGIT_SHIFT, _population_bias,
                               corrupt_nuisance, general_scenarios, run_robustness,
                               shift_probability)
from mivest.data import FunctionalSpec
from mivest.dataio import report_json
from mivest.exceptions import ConfigurationError
from mivest.nuisance import evaluate_nuisances
from mivest.oracles import (_GL_K, _unit_square_rule, oracle_identified_beta,
                            oracle_nuisances)
from mivest.simulation import DGPSpec

PROBE = np.array([[0.3, 0.4], [0.6, 0.1], [0.9, 0.9]])


@pytest.fixture(scope="module")
def oracle_ns():
    return oracle_nuisances("single_binary_iv", {})


def test_shift_probability_is_logit_shift():
    p = np.array([0.2, 0.5, 0.9])
    assert np.allclose(shift_probability(p, 0.7), expit(logit(p) + 0.7))
    assert np.allclose(shift_probability(p, 0.0), p)


def test_empty_corruption_keeps_predictions(oracle_ns):
    twin = evaluate_nuisances(corrupt_nuisance(oracle_ns, []), PROBE)
    truth = evaluate_nuisances(oracle_ns, PROBE)
    assert np.array_equal(twin.pi, truth.pi)
    assert np.array_equal(twin.mu, truth.mu)
    assert np.array_equal(twin.rho, truth.rho)


def test_unknown_component_is_an_error(oracle_ns):
    with pytest.raises(ConfigurationError, match="pi_z"):
        corrupt_nuisance(oracle_ns, ["pi_q"])


def test_pi_corruption_moves_on_the_logit_scale(oracle_ns):
    twin = evaluate_nuisances(corrupt_nuisance(oracle_ns, ["pi_z"]), PROBE)
    want = shift_probability(evaluate_nuisances(oracle_ns, PROBE).pi, LOGIT_SHIFT)
    assert np.allclose(twin.pi, want)


def test_mu_corruption_is_level_dependent(oracle_ns):
    twin = evaluate_nuisances(corrupt_nuisance(oracle_ns, ["mu_z"]), PROBE)
    truth = evaluate_nuisances(oracle_ns, PROBE)
    for z in (0, 1):
        assert np.allclose(twin.mu[z], truth.mu[z] + 0.3 * (1 + z))


def test_rho_corruption_stays_normalized(oracle_ns):
    twin = evaluate_nuisances(corrupt_nuisance(oracle_ns, ["rho_z"]), PROBE)
    total = sum(twin.rho[z] for z in range(2))
    assert np.allclose(total, 1.0, atol=1e-12)
    assert not np.allclose(twin.rho[0], evaluate_nuisances(oracle_ns, PROBE).rho[0])


def test_component_inventory_is_stable():
    assert COMPONENTS == ("pi_z", "rho_z", "mu_z")


SCENARIO_NAMES = ["contrast_and_marginals", "response_models",
                  "contrast_and_instrument", "all_corrupt"]


@pytest.mark.parametrize("family", ["single_binary_iv", "dual_binary_iv"])
def test_general_scenario_grid(family):
    rows = general_scenarios(family)
    assert [s.name for s in rows] == SCENARIO_NAMES
    assert [s.expect_consistent for s in rows] == [True, True, True, False]
    for s in rows[:3]:
        assert s.held
        assert set(s.held).isdisjoint(s.corrupted)
    assert rows[3].held == ()


def _component(ev, name):
    """The evaluated nuisance component that a scenario holds or corrupts."""
    return {"pi_z": ev.pi, "rho_z": ev.rho, "mu_z": ev.mu, "pi_marg": ev.pi_marg,
            "mu_marg": ev.mu_marg, "delta": ev.delta_y / ev.delta_r}[name]


def test_corrupted_scenarios_actually_move_the_nuisances():
    for family in ("single_binary_iv", "dual_binary_iv"):
        truth = evaluate_nuisances(oracle_nuisances(family), PROBE)
        for s in general_scenarios(family):
            ev = evaluate_nuisances(s.ns, PROBE)
            for name in s.corrupted:
                assert not np.allclose(_component(ev, name), _component(truth, name),
                                       atol=1e-4), (family, s.name, name)
            for name in s.held:
                assert np.allclose(_component(ev, name), _component(truth, name),
                                   rtol=1e-12, atol=1e-12), (family, s.name, name)


def _population_biases(family, params, psi):
    """{scenario: (expect_consistent, population bias)} at one law and psi."""
    truth = oracle_nuisances(family, params, functional=FunctionalSpec.mean(psi))
    ref, _ = oracle_identified_beta(family, params, psi=psi)
    return {s.name: (s.expect_consistent, _population_bias(s.ns, truth, ref))
            for s in general_scenarios(family, params, psi)}


@settings(max_examples=12, deadline=None)
@given(psi=st.floats(-2.0, 2.0), intercept=st.floats(-12.0, -5.0))
def test_consistent_routes_have_no_population_bias(psi, intercept):
    # E[phi~] is the identified value on every route that holds a sufficient
    # subset, whatever psi and the dual family's selection law; the control's
    # bias changes sign in psi, so it is checked at psi = 0 below
    for family, params in (("single_binary_iv", {}),
                           ("dual_binary_iv", {"selection_intercept": intercept})):
        for name, (consistent, bias) in _population_biases(family, params, psi).items():
            if consistent:
                assert abs(bias) <= 1e-10, (family, name, bias)


def _two_signed_contrasts(family, params, psi):
    """(scenario, level) pairs of the consistent routes whose delta_r takes
    both signs (or 0) on the nodes of oracle_identified_beta's rule."""
    X, _ = _unit_square_rule(_GL_K)
    return [(s.name, z) for s in general_scenarios(family, params, psi) if s.expect_consistent
            for z, d in enumerate(evaluate_nuisances(s.ns, X).delta_r)
            if not ((d > 0).all() or (d < 0).all())]


@pytest.mark.parametrize("family", ["single_binary_iv", "dual_binary_iv"])
def test_consistent_routes_keep_a_one_signed_contrast(family):
    # a consistent route tests robustness, not the denominator floor: no
    # corrupted contrast has a zero inside the covariate square, where g
    # has a pole and the sampled influence values are heavy-tailed
    assert _two_signed_contrasts(family, {}, 0.0) == []


@settings(max_examples=10, deadline=None)
@given(shift=st.floats(0.05, 0.5), level_shift=st.floats(0.05, 3.0),
       intercept=st.floats(-12.0, -5.0))
def test_consistent_routes_stay_exact_at_drawn_corruption_sizes(shift, level_shift,
                                                                intercept):
    # the robustness of a route does not hinge on the size of its
    # corruption: at any pi logit shift in [0.05, 0.5] and any mu level
    # shift in [0.05, 3], every consistent route keeps a one-signed
    # contrast and no population bias.  corrupt_nuisance's default
    # logit_delta is bound at import, so the rho corruption keeps the
    # module's size while the pi shift is drawn (MonkeyPatch.context: the
    # function-scoped monkeypatch fixture is not reset between examples)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mivest.corruption, "LOGIT_SHIFT", shift)
        mp.setattr(mivest.corruption, "LEVEL_SHIFT", level_shift)
        for family, params in (("single_binary_iv", {}),
                               ("dual_binary_iv", {"selection_intercept": intercept})):
            assert _two_signed_contrasts(family, params, 0.0) == [], family
            for name, (consistent, bias) in _population_biases(family, params, 0.0).items():
                if consistent:
                    assert abs(bias) <= 1e-10, (family, name, bias)


@pytest.mark.parametrize("family", ["single_binary_iv", "dual_binary_iv"])
def test_control_has_a_population_bias(family):
    consistent, bias = _population_biases(family, {}, 0.0)["all_corrupt"]
    assert not consistent
    assert abs(bias) >= 0.1


# the single-family estimates of the run below, to 1e-12
PINNED_SINGLE = {
    "contrast_and_marginals": 2.013874083940782,
    "response_models": 2.0114991764723014,
    "contrast_and_instrument": 2.0122344888998853,
    "all_corrupt": 1.684877974022987,
}


def test_robustness_run_separates_consistent_from_broken():
    report = run_robustness(DGPSpec("single_binary_iv", n=30_000, seed=11))
    rows = {r.scenario: r for r in report.scenarios}
    assert len(rows) == 4
    for name, pinned in PINNED_SINGLE.items():
        assert rows[name].estimate == pytest.approx(pinned, rel=0, abs=1e-12), name
    for name, row in rows.items():
        if row.expect_consistent:
            assert row.abs_bias < 4.0 * row.mc_se, name
        else:
            assert row.abs_bias > 5.0 * row.mc_se, name
    d = json.loads(report_json(report))
    assert d["family"] == "single_binary_iv"
    assert len(d["scenarios"]) == 4
    assert all("population_bias" in row for row in d["scenarios"])


def test_robustness_runs_one_p_missing_quadrature_per_law(monkeypatch):
    # every exact set of a run carries P(R = 0); the quadrature behind it
    # runs once per family and sorted parameters, not once per set
    import mivest.oracles

    calls = []
    real = mivest.oracles.integrate_unit_square

    def counting(f, *args, **kwargs):
        calls.append(1)
        return real(f, *args, **kwargs)

    monkeypatch.setattr(mivest.oracles, "integrate_unit_square", counting)
    mivest.oracles._p_missing.cache_clear()
    runs = [("single_binary_iv", None), ("dual_binary_iv", None),
            ("dual_binary_iv", {"selection_intercept": -7.5}), ("single_binary_iv", {})]
    counts = []
    for family, params in runs:
        run_robustness(DGPSpec(family, n=2_000, seed=11, parameters=params or {}))
        counts.append(len(calls))
    assert counts == [1, 2, 3, 3]
