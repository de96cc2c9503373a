"""Closed-form truths checked against quadrature and brute-force draws."""

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from mivest.data import FunctionalSpec
from mivest.exceptions import ConfigurationError, EstimationError
from mivest.nuisance import evaluate_nuisances, floor_denominator
from mivest.oracles import (integrate_unit_square, normal_partial_exp,
                            oracle_delta_fn, oracle_identified_beta,
                            oracle_mu, oracle_nuisances, oracle_pi,
                            oracle_rho, true_p_missing, uniform_partial_exp)

PROBE = np.array([[0.25, 0.6], [0.5, 0.5], [0.85, 0.15]])

# values fixed by the designs; both are deterministic quadrature outputs
P_MISS_SINGLE = 0.556847092047698
P_MISS_DUAL = 0.40300527336799


def test_normal_partial_exp_against_quadrature():
    a, mean, sd = -0.25, 4.0, 0.5
    for lo, hi in [(-np.inf, np.inf), (3.5, np.inf), (-np.inf, 4.2),
                   (3.8, 4.6)]:
        want, _ = integrate.quad(
            lambda u: np.exp(a * u) * norm.pdf(u, mean, sd), lo, hi)
        got = normal_partial_exp(a, mean, sd, lo, hi)
        assert got == pytest.approx(want, rel=1e-9)


def test_uniform_partial_exp_against_quadrature():
    for a in (-0.25, 0.0, 1.0 / 6.0):
        for lo, hi in [(0.0, 1.0), (0.3, 0.8), (-2.0, 0.5), (0.9, 3.0)]:
            want, _ = integrate.quad(
                lambda u: np.exp(a * u),
                max(lo, 0.0), min(hi, 1.0))
            got = uniform_partial_exp(a, lo, hi)
            assert got == pytest.approx(want, abs=1e-12)


def test_integrate_unit_square_polynomial_and_exp():
    assert integrate_unit_square(
        lambda X: X[:, 0] * X[:, 1]) == pytest.approx(0.25, abs=1e-12)
    want = (np.e - 1.0) ** 2
    assert integrate_unit_square(
        lambda X: np.exp(X[:, 0] + X[:, 1])) == pytest.approx(want,
                                                              rel=1e-12)


def test_single_family_response_probability_against_mc():
    rng = np.random.default_rng(100)
    u = rng.normal(4.0, 0.5, size=2_000_000)
    for z in (0, 1):
        for row in PROBE:
            A = -(row[0] + row[1]) + z * (row[0] + row[1] + 1.0)
            p_r0 = np.minimum(np.exp(A - u / 4.0), 1.0).mean()
            want = 1.0 - p_r0
            got = oracle_pi("single_binary_iv", z, row[None, :])[0]
            assert got == pytest.approx(want, abs=0.002)


def test_single_family_mu_against_mc():
    rng = np.random.default_rng(101)
    u = rng.normal(4.0, 0.5, size=2_000_000)
    z, row, psi = 1, PROBE[0], 0.3
    s = row[0] + row[1]
    A = -s + z * (s + 1.0)
    p_r0 = np.minimum(np.exp(A - u / 4.0), 1.0)
    want = np.mean((1.0 - p_r0) * (s * np.exp(u / 6.0) - psi))
    got = oracle_mu("single_binary_iv", z, row[None, :], {}, psi)[0]
    assert got == pytest.approx(want, abs=0.003)


def test_dual_family_response_probability_against_mc():
    rng = np.random.default_rng(102)
    u = rng.uniform(0.0, 1.0, size=2_000_000)
    code, row = 2, PROBE[1]
    z1, z2 = divmod(code, 2)
    A = 0.25 * (-8.0 + row[0] - row[1] + z1 * (-1.0 - row[0] - row[1])
                + z2 * (8.0 + row[0] - row[1]))
    p_r0 = np.minimum(np.exp(A - u / 4.0), 1.0).mean()
    got = oracle_pi("dual_binary_iv", code, row[None, :])[0]
    assert got == pytest.approx(1.0 - p_r0, abs=0.002)


def test_rho_single_is_the_assignment_model():
    from scipy.special import expit
    want = expit(-1.0 + PROBE[:, 0] + PROBE[:, 1])
    assert np.allclose(oracle_rho("single_binary_iv", 1, PROBE), want)
    assert np.allclose(oracle_rho("single_binary_iv", 0, PROBE), 1.0 - want)


def test_dual_rho_normalizes():
    total = sum(oracle_rho("dual_binary_iv", z, PROBE) for z in range(4))
    assert np.allclose(total, 1.0, atol=1e-12)


def test_true_p_missing_frozen_values():
    assert true_p_missing("single_binary_iv") == pytest.approx(
        P_MISS_SINGLE, abs=1e-9)
    assert true_p_missing("dual_binary_iv") == pytest.approx(
        P_MISS_DUAL, abs=1e-9)


def test_oracle_nuisance_set_identities():
    for family in ("single_binary_iv", "dual_binary_iv"):
        ns = oracle_nuisances(family)
        ev = evaluate_nuisances(ns, PROBE)
        total = sum(ev.rho[z] for z in range(ns.L))
        assert np.allclose(total, 1.0, atol=1e-10)
        cancel = sum(ev.rho[z] * ev.delta_r[z] for z in range(ns.L))
        assert np.max(np.abs(cancel)) < 1e-10
        assert ns.pi0 == pytest.approx(true_p_missing(family), abs=1e-12)


def test_oracle_delta_fn_matches_set_contrast():
    ns = oracle_nuisances("single_binary_iv")
    fn = oracle_delta_fn("single_binary_iv")
    ev = evaluate_nuisances(ns, PROBE)
    den, _ = floor_denominator(ev.delta_r, ns.eps_den)
    for z in (0, 1):
        assert np.allclose(fn(PROBE)[z], ev.delta_y[z] / den[z], atol=1e-12)


def test_closed_forms_are_mean_only():
    with pytest.raises(ConfigurationError):
        oracle_nuisances("single_binary_iv",
                         functional=FunctionalSpec.quantile(0.5))
    with pytest.raises(ConfigurationError):
        oracle_pi("triple_binary_iv", 0, PROBE)


def test_identified_beta_single_family():
    value, mc_se = oracle_identified_beta("single_binary_iv", draws=400_000)
    assert mc_se < 0.01
    assert value == pytest.approx(2.0149, abs=4 * mc_se + 0.002)


def test_identified_beta_dual_family():
    value, mc_se = oracle_identified_beta("dual_binary_iv", draws=400_000)
    assert value == pytest.approx(1.0622, abs=4 * mc_se + 0.002)


def test_identified_beta_without_missing_draws_is_an_estimation_error():
    # typed, so a `mivest robustness` reference that draws no nonrespondent
    # exits with code 3; the one draw of seed 2 is a respondent
    with pytest.raises(EstimationError, match="no R = 0 draws"):
        oracle_identified_beta("dual_binary_iv", draws=1, seed=2)
    # a draw count below 1 is a configuration error (exit 4)
    with pytest.raises(ConfigurationError, match="at least 1"):
        oracle_identified_beta("dual_binary_iv", draws=0)
