"""Fold plans, the fold loop, the repetition driver and its reports."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import mivest.general
import mivest.simulation
from mivest.cli import main
from mivest.crossfit import (FoldPlan, _crossfit_pass, crossfit_beta, make_folds,
                             median_adjust)
from mivest.data import EstimationConfig, FunctionalSpec, ObservationTable
from mivest.dataio import report_json, write_table_csv
from mivest.general import beta_id_general, solve_functional
from mivest.exceptions import (ConfigurationError, EstimationError, FitError,
                               NoIncompleteCasesError, NuisanceFitError)
from mivest.learners import LearnerConfig
from mivest.nuisance import Diagnostics, fit_nuisance_set
from mivest.simulation import DGPSpec, generate, run_monte_carlo

from helpers import beta_if_general, small_table

SPEC = FunctionalSpec.mean()
CFG = LearnerConfig()


def one_pass(table, plan, fitter=fit_nuisance_set, winsorize=None):
    """One repetition's fold loop under floor trim."""
    return _crossfit_pass(table, SPEC, CFG, plan, EstimationConfig(winsorize=winsorize),
                          fitter)[0]


@pytest.fixture(scope="module")
def mid_table():
    table, _ = generate(DGPSpec(family="single_binary_iv", n=400, seed=5))
    return table


def test_folds_balanced():
    plan = make_folds(10, 5, seed=3)
    assert np.bincount(plan.assignments).tolist() == [2, 2, 2, 2, 2]
    plan7 = make_folds(7, 3, seed=3)
    assert sorted(np.bincount(plan7.assignments).tolist()) == [2, 2, 3]


def test_folds_deterministic_in_seed_and_repetition():
    a = make_folds(50, 5, seed=9, repetition=2)
    b = make_folds(50, 5, seed=9, repetition=2)
    assert np.array_equal(a.assignments, b.assignments)
    c = make_folds(50, 5, seed=9, repetition=3)
    assert not np.array_equal(a.assignments, c.assignments)
    d = make_folds(50, 5, seed=10, repetition=2)
    assert not np.array_equal(a.assignments, d.assignments)


def test_folds_record_their_inputs():
    plan = make_folds(12, 3, seed=7, repetition=1)
    assert (plan.n, plan.n_folds, plan.seed, plan.repetition) == (12, 3, 7, 1)
    with pytest.raises(ValueError):
        plan.assignments[0] = 1


def test_folds_validation():
    with pytest.raises(ConfigurationError):
        make_folds(10, 1, seed=0)
    with pytest.raises(ConfigurationError):
        make_folds(4, 5, seed=0)


def test_median_adjust_worked_example():
    est, var = median_adjust([1.0, 1.2, 1.4], [0.01, 0.01, 0.01])
    assert est == pytest.approx(1.2)
    assert var == pytest.approx(0.05)


def test_median_adjust_single_repetition_passthrough():
    assert median_adjust([2.0], [0.3]) == (2.0, 0.3)


def test_median_adjust_concordant_runs_add_nothing():
    est, var = median_adjust([1.5, 1.5, 1.5], [0.2, 0.3, 0.4])
    assert est == 1.5
    assert var == 0.3


def test_median_adjust_permutation_invariant():
    rng = np.random.default_rng(0)
    e = rng.normal(size=9)
    v = rng.random(9)
    ref = median_adjust(e, v)
    perm = rng.permutation(9)
    assert median_adjust(e[perm], v[perm]) == ref


def test_median_adjust_contract():
    with pytest.raises(EstimationError):
        median_adjust([], [])
    with pytest.raises(EstimationError):
        median_adjust([1.0, 2.0], [0.1])


def test_crossfit_on_duplicated_halves_matches_plain_fit(mid_table):
    # each complement is an exact copy of the evaluation block, so the
    # cross-fitted estimate reduces to the plain one-sample estimate
    m = mid_table.n
    X2 = np.vstack([mid_table.X, mid_table.X])
    Z2 = np.concatenate([mid_table.Z, mid_table.Z])
    R2 = np.concatenate([mid_table.R, mid_table.R])
    y2 = np.concatenate([mid_table.Y, mid_table.Y])
    t2 = ObservationTable.from_arrays(X2, Z2, R2, y2, L=2)
    assignments = np.repeat([0, 1], m)
    plan = FoldPlan(n=2 * m, n_folds=2, seed=0, repetition=0,
                    assignments=assignments)
    res = one_pass(t2, plan)
    ns = fit_nuisance_set(mid_table, SPEC, CFG)
    plain = beta_if_general(mid_table, ns, SPEC)
    assert res.estimate == pytest.approx(plain, abs=1e-12)
    assert res.n_kept == 2 * m
    assert np.allclose(res.pi0_by_fold, ns.pi0)


def test_fitter_never_sees_the_evaluation_fold(mid_table):
    seen = []

    def spy(train, spec, cfg):
        seen.append(train)
        return fit_nuisance_set(train, spec, cfg)

    plan = make_folds(mid_table.n, 4, seed=2)
    one_pass(mid_table, plan, fitter=spy)
    assert len(seen) == 4
    for k, train in enumerate(seen):
        expected = mid_table.X[plan.assignments != k]
        assert np.array_equal(train.X, expected)


def test_fold_errors_name_the_fold():
    t = small_table([1, 0, 0, 0, 0, 0], [0, 1, 0, 1, 0, 1],
                    [None, 1.0, None, 2.0, None, 3.0], L=2)
    plan = FoldPlan(n=6, n_folds=3, seed=0, repetition=0,
                    assignments=np.array([0, 0, 1, 1, 2, 2]))
    with pytest.raises(NuisanceFitError, match="fold 0.*level 1"):
        one_pass(t, plan)


def test_crossfit_requires_incomplete_rows():
    t = small_table([0, 1, 0, 1], [1, 1, 1, 1], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(NoIncompleteCasesError):
        crossfit_beta(t, SPEC, CFG, EstimationConfig(n_folds=2))


def test_even_repetition_count_warns(mid_table):
    with pytest.warns(UserWarning, match="odd"):
        crossfit_beta(mid_table, SPEC, CFG, EstimationConfig(n_folds=3, repetitions=2))


BAD_SETTINGS = {
    "trim-Drop": dict(trim="Drop"),
    "winsorize--1": dict(winsorize=-1.0),
    "winsorize-0": dict(winsorize=0.0),
    "winsorize-inf": dict(winsorize=np.inf),
    "seed--4": dict(seed=-4),
    "repetitions-0": dict(repetitions=0),
    "ci_level-1.5": dict(ci_level=1.5),
}


@pytest.mark.parametrize("entry", ["crossfit_beta", "solve_functional", "run_monte_carlo"])
@pytest.mark.parametrize("bad", BAD_SETTINGS.values(), ids=BAD_SETTINGS.keys())
def test_settings_are_checked_when_built(mid_table, monkeypatch, bad, entry):
    # each estimator takes its settings as one EstimationConfig, which
    # checks them as the config parser does: an invalid one raises when the
    # value is built, before anything is drawn or fitted.  A Monte Carlo
    # replication's fold seed is set by dataclasses.replace, which checks too
    def no_work(*args, **kwargs):
        raise AssertionError("the estimator ran")

    monkeypatch.setattr(mivest.general, "fit_propensities", no_work)
    monkeypatch.setattr(mivest.simulation, "generate", no_work)
    run = {
        "crossfit_beta": lambda est: crossfit_beta(mid_table, SPEC, CFG, est, fitter=no_work),
        "solve_functional": lambda est: solve_functional(mid_table, CFG, 0.5, est),
        "run_monte_carlo": lambda est: run_monte_carlo(
            DGPSpec(family="single_binary_iv", n=400, seed=5), 2, CFG, SPEC, 2.0, est),
    }[entry]
    with pytest.raises(ConfigurationError):
        run(EstimationConfig(**bad))
    with pytest.raises(ConfigurationError):
        dataclasses.replace(EstimationConfig(), **bad)


def test_library_defaults_are_the_cli_defaults(mid_table, tmp_path):
    # crossfit_beta with no settings runs what `mivest estimate` runs under
    # a config with no estimation keys: 5 folds, 11 repetitions, seed 1
    data, config, out = tmp_path / "t.csv", tmp_path / "c.yaml", tmp_path / "r.json"
    write_table_csv(mid_table, data)
    config.write_text(yaml.safe_dump({
        "format": "mivest-config/1",
        "data": {"outcome": "y", "response": "r", "instruments": ["z"],
                 "covariates": ["x1", "x2"]}}), encoding="utf-8")
    assert main(["estimate", "--config", str(config), "--data", str(data),
                 "--out", str(out)]) == 0
    cli = json.loads(out.read_text(encoding="utf-8"))["results"]["missing_mean"]
    missing, _ = crossfit_beta(mid_table, SPEC, LearnerConfig())
    assert missing.repetitions == 11 and missing.seed == 1
    assert {**json.loads(report_json(missing)), "estimator": "binary"} == cli


def test_report_shape_and_determinism(mid_table):
    est = EstimationConfig(n_folds=4, repetitions=3, seed=11, ci_level=0.9)
    rep, _ = crossfit_beta(mid_table, SPEC, CFG, est)
    rep2, _ = crossfit_beta(mid_table, SPEC, CFG, est)
    assert rep == rep2
    assert rep.n == mid_table.n
    assert rep.n_incomplete == mid_table.n0
    assert rep.std_error == pytest.approx(np.sqrt(rep.variance))
    assert rep.ci[0] < rep.estimate < rep.ci[1]
    assert len(rep.per_repetition["estimates"]) == 3
    point, var = median_adjust(rep.per_repetition["estimates"],
                               rep.per_repetition["variances"])
    assert rep.estimate == point
    assert rep.variance == var
    d = json.loads(report_json(rep))
    assert "estimator" not in d  # the CLI labels the report
    assert d["n_incomplete"] == mid_table.n0
    assert d["ci"] == [*rep.ci]


def test_repetition_estimates_are_split_dependent(mid_table):
    rep, _ = crossfit_beta(mid_table, SPEC, CFG,
                           EstimationConfig(n_folds=4, repetitions=3, seed=1))
    assert len(set(rep.per_repetition["estimates"])) == 3


def test_population_mean_composes_with_missing_mean(mid_table):
    est = EstimationConfig(n_folds=4, repetitions=1, seed=6)
    beta, pop = crossfit_beta(mid_table, SPEC, CFG, est)
    alpha = float(np.mean(mid_table.y_observed))
    pi0 = mid_table.n0 / mid_table.n
    assert pop.estimate == pytest.approx(
        (1.0 - pi0) * alpha + pi0 * beta.estimate, abs=1e-12)


def test_population_mean_needs_complete_cases():
    t = small_table([0, 1, 0, 1], [0, 0, 0, 0], [None] * 4)
    with pytest.raises(EstimationError):
        crossfit_beta(t, SPEC, CFG, EstimationConfig(n_folds=2))


def test_population_mean_learner_failures_name_the_fold(mid_table):
    def failing(train, spec, cfg):
        raise FitError("learner gave up")

    with pytest.raises(FitError, match=r"^fold 0: learner gave up"):
        crossfit_beta(mid_table, SPEC, CFG, EstimationConfig(n_folds=3), fitter=failing)


@pytest.mark.parametrize("family, n", [("single_binary_iv", 400), ("dual_binary_iv", 800)])
def test_one_fold_pass_gives_both_mean_reports(family, n):
    table, _ = generate(DGPSpec(family=family, n=n, seed=4))
    est = EstimationConfig(n_folds=3, repetitions=3, seed=8, winsorize=3.0)
    beta, pop = crossfit_beta(table, SPEC, CFG, est)
    # the missing report is the median adjustment of one fold pass per
    # repetition, on the folds drawn from (seed, repetition)
    passes = [one_pass(table, make_folds(table.n, 3, 8, r), winsorize=3.0)
              for r in range(3)]
    assert beta.per_repetition["estimates"] == [r.estimate for r in passes]
    assert beta.per_repetition["variances"] == [r.variance for r in passes]
    assert (beta.estimate, beta.variance) == median_adjust(
        beta.per_repetition["estimates"], beta.per_repetition["variances"])
    diag = sum((r.diagnostics for r in passes), Diagnostics())
    assert beta.diagnostics == pop.diagnostics == diag
    assert beta.diagnostics.winsorized > 0
    # each repetition's population estimate composes with that repetition's beta
    alpha = float(np.mean(table.y_observed))
    pi0 = table.n0 / table.n
    for b, p in zip(beta.per_repetition["estimates"], pop.per_repetition["estimates"]):
        assert p == pytest.approx((1.0 - pi0) * alpha + pi0 * b, abs=1e-12)


@pytest.fixture(scope="module")
def family_tables():
    return {family: generate(DGPSpec(family=family, n=1_500, seed=23))[0]
            for family in ("single_binary_iv", "dual_binary_iv")}


@given(st.sampled_from(["single_binary_iv", "dual_binary_iv"]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_crossfit_estimate_does_not_depend_on_row_order(family_tables, family, seed):
    # permuting the rows together with their fold plan fits every fold on
    # the same rows in another order, so only rounding may move the result.
    # The bound is relative: this L = 4 draw is weakly identified (estimate
    # -38, variance 1120), and rounding alone moves its variance by up to 2e-9.
    table = family_tables[family]
    assert table.L == {"single_binary_iv": 2, "dual_binary_iv": 4}[family]
    plan = make_folds(table.n, 5, seed=1)
    perm = np.random.default_rng(seed).permutation(table.n)
    moved = FoldPlan(n=table.n, n_folds=5, seed=1, repetition=0,
                     assignments=plan.assignments[perm])
    a = one_pass(table, plan)
    b = one_pass(table.subset(perm), moved)
    assert a.estimate == pytest.approx(b.estimate, rel=1e-10, abs=1e-10)
    assert a.variance == pytest.approx(b.variance, rel=1e-10, abs=1e-10)


def test_each_fold_evaluates_its_set_once(mid_table, monkeypatch):
    # every estimator reads a nuisance set through one evaluate_nuisances
    # call per block: K x S calls for crossfit_beta, each on the rows of its
    # fold, and one for the plug-in, so each fold's basis is transformed
    # once per repetition
    seen = []
    real = mivest.general.evaluate_nuisances

    def spy(ns, X):
        seen.append(np.array(X))
        return real(ns, X)

    monkeypatch.setattr(mivest.general, "evaluate_nuisances", spy)
    n_folds, repetitions = 3, 3
    crossfit_beta(mid_table, SPEC, CFG,
                  EstimationConfig(n_folds=n_folds, repetitions=repetitions, seed=4))
    assert len(seen) == n_folds * repetitions
    for rep in range(repetitions):
        plan = make_folds(mid_table.n, n_folds, 4, rep)
        for k in range(n_folds):
            assert np.array_equal(seen[rep * n_folds + k],
                                  mid_table.X[plan.assignments == k])

    seen.clear()
    beta_id_general(mid_table, fit_nuisance_set(mid_table, SPEC, CFG))
    assert len(seen) == 1
    assert np.array_equal(seen[0], mid_table.X)


@pytest.mark.parametrize("family, n", [("dual_binary_iv", 50_000), ("single_binary_iv", 100_000)])
def test_one_repetition_peaks_under_42_float64_per_row(family, n):
    # one repetition of 5 folds: a fold's training and held-out subsets of
    # the table, the fit on the first and the evaluation on the second, and
    # the per-row values of both reports.  Measured (seed 3): 30.7 per row
    # on the dual family, 30.1 on the single
    table, _ = generate(DGPSpec(family=family, n=n, seed=3))
    tracemalloc.start()
    try:
        crossfit_beta(table, SPEC, CFG, EstimationConfig(n_folds=5, repetitions=1, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 42 * 8 * table.n
