"""Deliberate nuisance corruption and the consistency scenario grid."""

import numpy as np
import pytest
from scipy.special import expit, logit

from mivest.corruption import (COMPONENTS, binary_scenarios, corrupt_nuisance,
                               general_scenarios, run_robustness,
                               shift_probability)
from mivest.exceptions import ConfigurationError
from mivest.nuisance import evaluate_nuisances
from mivest.oracles import oracle_nuisances

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
    want = shift_probability(evaluate_nuisances(oracle_ns, PROBE).pi, 0.7)
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


def test_binary_scenario_grid():
    rows = binary_scenarios("single_binary_iv")
    names = [s.name for s in rows]
    assert names == ["contrast_and_reference", "response_models",
                     "contrast_and_instrument", "all_corrupt"]
    assert [s.expect_consistent for s in rows] == [True, True, True, False]
    for s in rows[:3]:
        assert s.held
        assert set(s.held).isdisjoint(s.corrupted)
    assert rows[3].held == ()


def test_general_scenario_grid():
    rows = general_scenarios("dual_binary_iv")
    names = [s.name for s in rows]
    assert names == ["contrast_and_marginals", "response_models",
                     "contrast_and_instrument", "all_corrupt"]
    assert [s.expect_consistent for s in rows] == [True, True, True, False]


def test_corrupted_scenarios_actually_move_the_nuisances(oracle_ns):
    for s in binary_scenarios("single_binary_iv"):
        if "pi_z" in s.corrupted:
            assert not np.allclose(evaluate_nuisances(s.ns, PROBE).pi[1],
                                   evaluate_nuisances(oracle_ns, PROBE).pi[1], atol=1e-4)


# the single-family estimates of the run below, recorded when the binary
# scenarios were still evaluated by a separate level-0 influence function
PINNED_SINGLE = {
    "contrast_and_reference": 2.012575020266822,
    "response_models": 2.0114991764723014,
    "contrast_and_instrument": 2.010904287499349,
    "all_corrupt": 2.11863819242039,
}


def test_robustness_run_separates_consistent_from_broken():
    report = run_robustness("single_binary_iv", n=30_000, seed=11)
    rows = {r.scenario: r for r in report.rows}
    assert len(rows) == 4
    for name, pinned in PINNED_SINGLE.items():
        assert rows[name].estimate == pytest.approx(pinned, rel=0, abs=1e-12), name
    for name, row in rows.items():
        if row.expect_consistent:
            assert row.abs_bias < 4.0 * row.mc_se, name
        else:
            assert row.abs_bias > 5.0 * row.mc_se, name
    d = report.as_dict()
    assert d["family"] == "single_binary_iv"
    assert len(d["scenarios"]) == 4


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
        run_robustness(family, n=2_000, seed=11, parameters=params)
        counts.append(len(calls))
    assert counts == [1, 2, 3, 3]
