"""Invariances the estimator owes its data: the unit of Y, the origin and
scale of a covariate, the order of the covariates, and the labels of the
instrument levels.

Each property compares crossfit_beta's two reports on a generated table
with its reports on the transformed table.  An estimate is compared in
units of its influence values' standard deviation (std_error * sqrt(n)),
a variance relative to itself.  The bounds are rounding bounds: the
single family's reports agree to a few ulps; the dual family's weak
contrast denominators amplify rounding (up to 4.9e-9 in those units on
generated tables of 1500-3000 rows), so its bound is wider.

A shift of Y is not among them: the mean estimate moves by more than the
shift, a known fault of the estimator.
"""

import json

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from mivest.cli import main
from mivest.crossfit import crossfit_beta
from mivest.data import EstimationConfig, FunctionalSpec, ObservationTable
from mivest.dataio import write_table_csv
from mivest.learners import LearnerConfig
from mivest.simulation import FAMILIES, DGPSpec, generate

EST = EstimationConfig(n_folds=3, repetitions=1, seed=5)
TOL = {"single_binary_iv": 1e-12, "dual_binary_iv": 1e-7}

tables = st.builds(lambda family, n, seed: generate(DGPSpec(family, n=n, seed=seed))[0],
                   st.sampled_from(FAMILIES), st.integers(1500, 3000), st.integers(0, 2**16))
nonzero = st.floats(0.5, 4.0) | st.floats(-4.0, -0.5)


def _reports(table, learner=LearnerConfig()):
    return crossfit_beta(table, FunctionalSpec.mean(), learner, EST)


def _with(table, *, X=None, Z=None, Y=None):
    return ObservationTable.from_arrays(table.X if X is None else X,
                                        table.Z if Z is None else Z, table.R,
                                        table.Y if Y is None else Y, L=table.L)


def _gap(before, after, scale=1.0):
    """The larger of the estimate's gap from scale * before's, in units of
    the influence values' SD, and the variance's from scale^2 * before's,
    relative, over the missing and population reports."""
    return max(max(abs(a.estimate - scale * b.estimate) / (a.std_error * np.sqrt(a.n)),
                   abs(a.variance - scale * scale * b.variance) / a.variance)
               for b, a in zip(before, after))


def _family(table):
    return "dual_binary_iv" if table.L == 4 else "single_binary_iv"


@settings(max_examples=5, deadline=None, derandomize=True)
@given(tables, st.floats(0.05, 50.0) | st.floats(-50.0, -0.05))
def test_rescaling_y_rescales_each_estimate_and_variance(table, a):
    assert _gap(_reports(table), _reports(_with(table, Y=a * table.Y)), a) <= TOL[_family(table)]


@settings(max_examples=5, deadline=None, derandomize=True)
@given(tables, nonzero, st.floats(-10.0, 10.0))
def test_an_affine_map_of_a_covariate_leaves_the_reports_unchanged(table, b, c):
    X = table.X.copy(order="F")
    X[:, 0] = b * X[:, 0] + c
    assert _gap(_reports(table), _reports(_with(table, X=X))) <= TOL[_family(table)]


@settings(max_examples=5, deadline=None, derandomize=True)
@given(tables)
def test_the_order_of_the_covariates_leaves_the_reports_unchanged(table):
    X = np.asfortranarray(table.X[:, ::-1])
    assert _gap(_reports(table), _reports(_with(table, X=X))) <= TOL[_family(table)]


@settings(max_examples=5, deadline=None, derandomize=True)
@given(st.integers(1500, 3000), st.integers(0, 2**16))
def test_swapping_two_instrument_labels_leaves_the_reports_unchanged(n, seed):
    table, _ = generate(DGPSpec("single_binary_iv", n=n, seed=seed))
    swapped = _with(table, Z=1 - table.Z)
    assert _gap(_reports(table), _reports(swapped)) <= TOL["single_binary_iv"]


# The multinomial instrument model takes level L - 1 as its reference class
# and the ridge penalises the other classes alone, so a relabelling of four
# levels that moves the reference changes the fit by an amount linear in
# ridge_lambda; one that keeps it in place changes nothing.
REFERENCE_KEPT = [(2, 0, 1, 3), (1, 0, 2, 3)]
REFERENCE_MOVED = [(3, 2, 1, 0), (1, 0, 3, 2), (0, 3, 2, 1)]


@settings(max_examples=5, deadline=None, derandomize=True)
@given(st.integers(1500, 3000), st.integers(0, 2**16), st.sampled_from(REFERENCE_KEPT),
       st.sampled_from(REFERENCE_MOVED))
def test_relabelling_four_levels_differs_by_the_ridge_penalty_alone(n, seed, kept, moved):
    table, _ = generate(DGPSpec("dual_binary_iv", n=n, seed=seed))
    tol = TOL["dual_binary_iv"]
    assert _gap(_reports(table), _reports(_with(table, Z=np.array(kept)[table.Z]))) <= tol
    relabelled = _with(table, Z=np.array(moved)[table.Z])
    gaps = [_gap(_reports(table, cfg), _reports(relabelled, cfg))
            for cfg in (LearnerConfig(ridge_lambda=1e-6), LearnerConfig(ridge_lambda=1e-9))]
    # a thousandth of the penalty gives about a thousandth of the gap
    assert gaps[1] <= 0.1 * gaps[0] + tol
    assert gaps[1] <= 2e-5


def test_relabelling_four_levels_at_the_default_ridge_moves_a_large_table_little(dual_table):
    # 4.9e-6 on this table of 20 000 rows, against up to 0.99 on tables of
    # 1500-3000 rows, where the penalty weighs more beside the likelihood
    relabelled = _with(dual_table, Z=np.array(REFERENCE_MOVED[0])[dual_table.Z])
    assert _gap(_reports(dual_table), _reports(relabelled)) <= 5e-5


# -- the same invariances through the CLI --------------------------------------


def _estimate(tmp_path, name, table):
    csv_path = tmp_path / f"{name}.csv"
    write_table_csv(table, csv_path, covariate_names=["x1", "x2"])
    doc = {"format": "mivest-config/1",
           "data": {"outcome": "y", "response": "r", "instruments": ["z"],
                    "covariates": ["x1", "x2"]},
           "estimation": {"folds": 3, "repetitions": 3, "seed": 2}}
    cfg_path = tmp_path / f"{name}.yaml"
    cfg_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    out = tmp_path / f"{name}.json"
    assert main(["estimate", "--config", str(cfg_path), "--data", str(csv_path),
                 "--out", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))


@pytest.mark.parametrize("family, n", [("single_binary_iv", 1500), ("dual_binary_iv", 3000)])
def test_estimate_reports_follow_the_unit_of_y_and_ignore_a_covariate_map(
        tmp_path, family, n):
    table, _ = generate(DGPSpec(family, n=n, seed=13))
    X = table.X.copy(order="F")
    X[:, 0] = -2.0 * X[:, 0] + 5.0
    before = _estimate(tmp_path, "before", table)
    after = _estimate(tmp_path, "after", _with(table, X=X, Y=3.0 * table.Y))
    assert after["data"] == before["data"]
    tol = TOL[family]
    for name, b in before["results"].items():
        a = after["results"][name]
        unit = a["std_error"] * np.sqrt(a["n"])
        rep_a, rep_b = a.pop("per_repetition"), b.pop("per_repetition")
        for got, want in [*((a.pop(k), b.pop(k)) for k in ("estimate", "std_error", "ci")),
                          (rep_a["estimates"], rep_b["estimates"])]:
            assert np.max(np.abs(np.subtract(got, 3.0 * np.array(want)))) <= tol * unit, name
        for got, want in ((a.pop("variance"), b.pop("variance")),
                          (rep_a["variances"], rep_b["variances"])):
            got = np.array(got)
            assert np.max(np.abs(got - 9.0 * np.array(want)) / got) <= tol, name
        assert a == b, name     # the counts, settings and diagnostics
