"""Closed-form truths checked against quadrature and brute-force draws."""

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from mivest.data import FunctionalSpec
from mivest.exceptions import ConfigurationError, EstimationError
from mivest.nuisance import evaluate_nuisances, floor_denominator
from mivest.oracles import (integrate_unit_square, oracle_delta, oracle_identified_beta,
                            oracle_mu, oracle_nuisances, oracle_pi, oracle_rho,
                            true_p_missing)
from mivest.simulation import (_LAWS, _LEVELS, FAMILIES, normal_partial_exp,
                               uniform_partial_exp)

from helpers import identified_beta_by_draws

PROBE = np.array([[0.25, 0.6], [0.5, 0.5], [0.85, 0.15]])

# values fixed by the designs; both are deterministic quadrature outputs
P_MISS_SINGLE = 0.556847092047698
P_MISS_DUAL = 0.40300527336799
# E[delta(Z, X) | R = 0] by quadrature at k = 96 (agrees with k = 48 to
# 1e-15 and 6e-10)
IDENTIFIED = {"single_binary_iv": 2.0148714713, "dual_binary_iv": 1.0622342631}


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


def _exponent(family, z, row):
    """A_z(x) of P(R=0 | z, u, x) = min(exp(A_z(x) - u / 4), 1), written
    out from the family's printed formula."""
    x1, x2 = row
    if family == "single_binary_iv":
        return -(x1 + x2) + z * (x1 + x2 + 1.0)
    z1, z2 = divmod(z, 2)
    return 0.25 * (-8.0 + x1 - x2 + z1 * (-1.0 - x1 - x2) + z2 * (8.0 + x1 - x2))


def _latent_draws(family, seed):
    return _LAWS[family].draw_u(np.random.default_rng(seed), np.empty(2_000_000))


@pytest.mark.parametrize("family", FAMILIES)
def test_response_probability_against_mc(family):
    u = _latent_draws(family, 100)
    for z in range(_LEVELS[family]):
        for row in PROBE:
            p_r0 = np.minimum(np.exp(_exponent(family, z, row) - u / 4.0), 1.0).mean()
            got = oracle_pi(family, z, row[None, :])[0]
            assert got == pytest.approx(1.0 - p_r0, abs=0.002), (z, row)


@pytest.mark.parametrize("family", FAMILIES)
def test_mu_against_mc(family):
    u = _latent_draws(family, 101)
    psi = 0.3
    for z in range(_LEVELS[family]):
        for row in PROBE:
            s = row[0] + row[1]
            p_r0 = np.minimum(np.exp(_exponent(family, z, row) - u / 4.0), 1.0)
            want = np.mean((1.0 - p_r0) * (s * np.exp(u / 6.0) - psi))
            got = oracle_mu(family, z, row[None, :], {}, psi)[0]
            assert got == pytest.approx(want, abs=0.003), (z, row)


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
    fn = oracle_delta("single_binary_iv")
    ev = evaluate_nuisances(ns, PROBE)
    den, _ = floor_denominator(ev.delta_r)
    for z in (0, 1):
        assert np.allclose(fn(PROBE)[z], ev.delta_y[z] / den[z], atol=1e-12)


def test_closed_forms_are_mean_only():
    with pytest.raises(ConfigurationError):
        oracle_nuisances("single_binary_iv",
                         functional=FunctionalSpec.quantile(0.5))
    with pytest.raises(ConfigurationError):
        oracle_pi("triple_binary_iv", 0, PROBE)


def test_identified_beta_single_family():
    value, error = oracle_identified_beta("single_binary_iv")
    assert value == pytest.approx(IDENTIFIED["single_binary_iv"], abs=1e-9)
    assert error < 1e-8


def test_identified_beta_dual_family():
    value, error = oracle_identified_beta("dual_binary_iv")
    assert value == pytest.approx(IDENTIFIED["dual_binary_iv"], abs=1e-9)
    assert error < 1e-8


@pytest.mark.parametrize("family", sorted(IDENTIFIED))
def test_identified_beta_agrees_with_brute_force_draws(family):
    # the closed-form delta averaged over the nonrespondents of a 1e6-row
    # table; at seed 414 the gaps are -1.81 (single) and +0.40 (dual) SE
    mean, se = identified_beta_by_draws(family)
    value, _ = oracle_identified_beta(family)
    assert abs(mean - value) < 4.0 * se


def test_identified_beta_without_missing_mass_is_an_estimation_error():
    # typed, so a `mivest robustness` reference with P(R = 0) = 0 exits
    # with code 3: at this intercept exp(A) underflows to 0 everywhere
    with pytest.raises(EstimationError, match="P\\(R = 0\\) is 0"):
        oracle_identified_beta("dual_binary_iv", {"selection_intercept": -5000.0})
