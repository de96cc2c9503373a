"""The two-level case: the contrast ratio, and the general estimators at L = 2."""

import numpy as np
import pytest

from mivest.data import FunctionalSpec, ObservationTable
from mivest.exceptions import NoIncompleteCasesError
from mivest.general import beta_id_general
from mivest.learners import LearnerConfig
from mivest.nuisance import (NuisanceSet, evaluate_nuisances, fit_nuisance_set,
                             floor_denominator)

from helpers import (beta_if_general, binary_if_values, const_fn, const_ns,
                     if_values_general, one_row_x, small_table)

SPEC = FunctionalSpec.mean()
X_ROW = one_row_x()

# shared hand-computable set: delta = (0.9 - 0.3) / (0.8 - 0.4) = 1.5
NS = const_ns(pi=(0.4, 0.8), rho=(0.5, 0.5), mu=(0.3, 0.9), pi0=0.25,
              pi_marg=0.5)


def wald_ratio(ns, x):
    """delta(1, x) = delta_y / delta_r at level 1, the floored contrast ratio."""
    ev = evaluate_nuisances(ns, x)
    den, _ = floor_denominator(ev.delta_r[1])
    return ev.delta_y[1] / den


def test_wald_ratio_uses_level_contrast():
    # at L = 2, delta_y / delta_r at level 1 is (mu_1 - mu_0) / (pi_1 - pi_0)
    ns = const_ns(pi=(0.4, 0.7), rho=(0.3, 0.7), mu=(0.3, 0.6), pi0=0.5)
    assert wald_ratio(ns, X_ROW)[0] == pytest.approx(1.0)


def test_wald_ratio_zero_numerator():
    ns = const_ns(pi=(0.4, 0.7), rho=(0.5, 0.5), mu=(0.2, 0.2), pi0=0.5)
    assert wald_ratio(ns, X_ROW)[0] == 0.0


def test_wald_ratio_floor_policy():
    ns = const_ns(pi=(0.5, 0.5), rho=(0.5, 0.5), mu=(0.2, 0.8), pi0=0.5)
    vals = wald_ratio(ns, X_ROW)
    assert np.all(np.isfinite(vals))


def test_beta_id_averages_over_incomplete_rows():
    # delta(z, x) = x1 at both levels by construction
    def mu_fn(X):
        X = np.atleast_2d(X)
        return 0.3 * np.arange(2)[:, None] * X[:, 0]

    ns = NuisanceSet(L=2, pi_fn=const_fn((0.4, 0.7)),
                     rho_fn=const_fn((0.5, 0.5)), mu_fn=mu_fn, pi0=0.5)
    X = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    t = small_table([0, 1, 0], [0, 0, 0], [None, None, None], X=X)
    assert beta_id_general(t, ns) == pytest.approx(2.0)


def test_beta_id_requires_incomplete_rows():
    t = small_table([0, 1], [1, 1], [1.0, 2.0])
    with pytest.raises(NoIncompleteCasesError):
        beta_id_general(t, NS)


def test_beta_if_single_row():
    ns = const_ns(pi=(0.4, 0.8), rho=(0.5, 0.5), mu=(0.72, 1.44), pi0=1.0)
    t = small_table([0], [0], [None], L=2)
    assert beta_if_general(t, ns, SPEC) == pytest.approx(1.8)


def test_beta_if_requires_incomplete_rows():
    t = small_table([0, 1], [1, 1], [1.0, 2.0])
    with pytest.raises(NoIncompleteCasesError):
        beta_if_general(t, NS, SPEC)


def test_if_values_center_at_supplied_beta():
    # centering is exact when the set's pi0 matches the table's fraction
    ns = const_ns(pi=(0.4, 0.8), rho=(0.5, 0.5), mu=(0.3, 0.9), pi0=1 / 3,
                  pi_marg=0.5)
    t = small_table([0, 1, 1, 0, 1, 0], [1, 1, 0, 0, 1, 1],
                    [1.0, 2.0, None, None, 0.5, 1.5])
    beta_hat = beta_if_general(t, ns, SPEC)
    phi = if_values_general(t, ns, beta_hat, SPEC)
    assert np.mean(phi) == pytest.approx(0.0, abs=1e-12)


def test_if_scale_equivariance(single_table, single_fit):
    spec = SPEC
    b1 = beta_if_general(single_table, single_fit, spec)
    y3 = [3.0 * single_table.y_at(i) if single_table.y_present[i] else None
          for i in range(single_table.n)]
    t3 = ObservationTable.from_arrays(single_table.X, single_table.Z,
                                      single_table.R, y3, L=2)
    ns3 = fit_nuisance_set(t3, spec, LearnerConfig())
    b3 = beta_if_general(t3, ns3, spec)
    assert b3 == pytest.approx(3.0 * b1, rel=1e-9)


def test_general_form_collapses_to_binary(single_table, single_fit):
    beta = 1.3
    phi_b = binary_if_values(single_table, single_fit, beta, SPEC)
    phi_g = if_values_general(single_table, single_fit, beta, SPEC)
    assert np.max(np.abs(phi_b - phi_g)) < 1e-10
