"""Basis expansion and the ridge-penalized regression fitters."""

import numpy as np
import pytest
from scipy.special import expit, logsumexp, softmax

from mivest.exceptions import ConfigurationError, FitError
from mivest.learners import (LearnerConfig, PolyBasis, _softmax_inplace, expand_basis,
                             fit_linear, fit_logistic, fit_multinomial)

CFG = LearnerConfig()


def test_expand_basis_columns():
    row = expand_basis(np.array([2.0]), 4)
    assert row.tolist() == [1.0, 2.0, 4.0, 8.0, 16.0]
    two = expand_basis(np.array([1.0, -1.0]), 1)
    assert two.tolist() == [1.0, 1.0, -1.0]


def test_expand_basis_matrix_shape():
    X = np.random.default_rng(0).normal(size=(7, 3))
    F = expand_basis(X, 2)
    assert F.shape == (7, 1 + 3 * 2)
    assert np.all(F[:, 0] == 1.0)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        LearnerConfig(basis_df=0)
    with pytest.raises(ConfigurationError):
        LearnerConfig(ridge_lambda=-1.0)
    with pytest.raises(ConfigurationError):
        LearnerConfig(max_irls_iter=0)
    with pytest.raises(ConfigurationError):
        LearnerConfig(irls_tol=0.0)


def test_polybasis_standardizes_with_training_stats():
    rng = np.random.default_rng(3)
    X = rng.normal(loc=5.0, scale=2.0, size=(200, 2))
    F = PolyBasis(df=2).fit(X).transform(X)
    assert np.allclose(F[:, 1].mean(), 0.0, atol=1e-12)
    assert np.allclose(F[:, 1].std(), 1.0, atol=1e-8)
    # transform uses the stored stats, not the new sample's
    F2 = PolyBasis(df=2).fit(X).transform(X[:10])
    assert np.allclose(F2, F[:10])


def test_polybasis_degenerate_coordinate():
    X = np.column_stack([np.ones(50), np.arange(50.0)])
    F = PolyBasis(df=2).fit(X).transform(X)
    assert np.all(np.isfinite(F))


def test_polybasis_transform_before_fit():
    with pytest.raises(FitError):
        PolyBasis(df=2).transform(np.zeros((3, 1)))


def test_linear_exact_line():
    x = np.linspace(-1, 1, 40)
    F = np.column_stack([np.ones_like(x), x])
    y = 1.0 + 2.0 * x
    res = fit_linear(F, y, LearnerConfig(ridge_lambda=0.0))
    assert np.allclose(res.coef, [1.0, 2.0], atol=1e-10)


def test_linear_constant_target_unshrunk():
    # the intercept carries the fit; penalized slopes stay at zero
    x = np.linspace(-1, 1, 40)
    F = np.column_stack([np.ones_like(x), x])
    res = fit_linear(F, np.full(40, 3.7), LearnerConfig(ridge_lambda=0.5))
    assert np.allclose(res.coef, [3.7, 0.0], atol=1e-10)


def test_linear_heavy_ridge_flattens_slope():
    x = np.linspace(-1, 1, 40)
    F = np.column_stack([np.ones_like(x), x])
    y = 1.0 + 2.0 * x
    res = fit_linear(F, y, LearnerConfig(ridge_lambda=1e8))
    assert abs(res.coef[1]) < 1e-4
    assert res.coef[0] == pytest.approx(np.mean(y), abs=1e-6)


def test_linear_singular_without_ridge():
    F = np.column_stack([np.ones(20), np.arange(20.0), np.arange(20.0)])
    with pytest.raises(FitError):
        fit_linear(F, np.arange(20.0), LearnerConfig(ridge_lambda=0.0))


def test_logistic_intercept_only():
    F = np.ones((100, 1))
    y = np.repeat([0.0, 1.0], [20, 80])
    res = fit_logistic(F, y, LearnerConfig(ridge_lambda=0.0))
    assert res.converged
    assert res.coef[0] == pytest.approx(np.log(4.0), abs=1e-8)


def test_logistic_recovers_coefficients():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40_000, 2))
    F = np.column_stack([np.ones(40_000), X])
    b = np.array([0.5, -1.0, 2.0])
    y = (rng.random(40_000) < expit(F @ b)).astype(float)
    res = fit_logistic(F, y, LearnerConfig(ridge_lambda=0.0))
    assert res.converged
    assert np.all(np.abs(res.coef - b) < 0.1)


def test_logistic_separated_with_ridge_converges():
    x = np.linspace(-2, 2, 60)
    F = np.column_stack([np.ones_like(x), x])
    y = (x > 0).astype(float)
    res = fit_logistic(F, y, LearnerConfig(ridge_lambda=0.01))
    assert res.converged
    assert np.all(np.isfinite(res.coef))


def test_logistic_separated_unpenalized_flagged_not_fatal():
    x = np.linspace(-2, 2, 60)
    F = np.column_stack([np.ones_like(x), x])
    y = (x > 0).astype(float)
    res = fit_logistic(F, y, LearnerConfig(ridge_lambda=0.0, max_irls_iter=60))
    assert np.all(np.isfinite(res.coef))
    assert not res.converged


def test_logistic_permutation_stability():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(500, 2))
    F = np.column_stack([np.ones(500), X])
    y = (rng.random(500) < expit(X[:, 0])).astype(float)
    res = fit_logistic(F, y, CFG)
    perm = rng.permutation(500)
    res2 = fit_logistic(F[perm], y[perm], CFG)
    assert np.allclose(res.coef, res2.coef, atol=1e-8)


def test_multinomial_intercept_only_matches_frequencies():
    F = np.ones((100, 1))
    classes = np.repeat([0, 1, 2], [20, 30, 50])
    model = fit_multinomial(F, classes, LearnerConfig(ridge_lambda=0.0))
    probs = model.predict_proba(np.ones((1, 1)))
    assert np.allclose(probs[0], [0.2, 0.3, 0.5], atol=1e-6)


def test_multinomial_two_classes_matches_logistic():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(2_000, 1))
    F = np.column_stack([np.ones(2_000), X])
    y = (rng.random(2_000) < expit(0.3 + 0.8 * X[:, 0])).astype(int)
    cfg = LearnerConfig(ridge_lambda=0.0)
    logi = fit_logistic(F, y.astype(float), cfg)
    multi = fit_multinomial(F, y, cfg, L=2)
    grid = np.column_stack([np.ones(9), np.linspace(-2, 2, 9)])
    p_logi = expit(grid @ logi.coef)
    p_multi = multi.predict_proba(grid)[:, 1]
    assert np.allclose(p_logi, p_multi, atol=1e-6)


def test_multinomial_recovers_probabilities():
    rng = np.random.default_rng(13)
    n = 50_000
    X = rng.uniform(-1, 1, size=(n, 1))
    F = np.column_stack([np.ones(n), X])
    scores = np.column_stack([np.zeros(n), 0.5 + X[:, 0], -0.5 + 2 * X[:, 0]])
    p = np.exp(scores)
    p /= p.sum(axis=1, keepdims=True)
    u = rng.random(n)
    classes = (u[:, None] > np.cumsum(p, axis=1)).sum(axis=1)
    model = fit_multinomial(F, classes, LearnerConfig(ridge_lambda=0.0), L=3)
    grid = np.column_stack([np.ones(5), np.linspace(-0.8, 0.8, 5)])
    sg = np.column_stack(
        [np.zeros(5), 0.5 + grid[:, 1], -0.5 + 2 * grid[:, 1]])
    pg = np.exp(sg)
    pg /= pg.sum(axis=1, keepdims=True)
    assert np.max(np.abs(model.predict_proba(grid) - pg)) < 0.02


def test_multinomial_probabilities_normalize():
    rng = np.random.default_rng(21)
    F = np.column_stack([np.ones(300), rng.normal(size=300)])
    classes = rng.integers(0, 4, size=300)
    model = fit_multinomial(F, classes, CFG, L=4)
    probs = model.predict_proba(F)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(probs >= 0)


def test_softmax_matches_the_scipy_reference():
    rng = np.random.default_rng(3)
    logits = np.column_stack([rng.normal(scale=300.0, size=(500, 3)), np.zeros(500)])
    probs = logits.copy()
    top, total = _softmax_inplace(probs)
    assert np.allclose(probs, softmax(logits, axis=1), rtol=1e-12, atol=1e-300)
    assert np.allclose((top + np.log(total))[:, 0], logsumexp(logits, axis=1),
                       rtol=1e-14, atol=1e-12)


def _four_class_draw(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    scores = np.column_stack([0.4 + X[:, 0], -0.3 + X[:, 1],
                              0.2 * X[:, 0] - X[:, 1] ** 2, np.zeros(n)])
    p = np.exp(scores)
    p /= p.sum(axis=1, keepdims=True)
    classes = (rng.random(n)[:, None] > np.cumsum(p, axis=1)).sum(axis=1)
    return X, classes


def test_multinomial_fit_is_stationary():
    # the penalized score vanishes at the returned coefficients
    n = 2_000
    X, classes = _four_class_draw(n, seed=5)
    F = np.column_stack([np.ones(n), X, X ** 2])
    cfg = LearnerConfig(ridge_lambda=0.5)
    model = fit_multinomial(F, classes, cfg, L=4)
    assert model.converged
    resid = np.eye(4)[classes][:, :3] - model.predict_proba(F)[:, :3]
    score = F.T @ resid                                   # (d, L - 1)
    score[1:] -= 2.0 * cfg.ridge_lambda * model.coef[:, 1:].T
    assert np.max(np.abs(score)) < 1e-6 * n


def test_multinomial_survives_large_linear_predictors():
    # features scaled x50 on nearly separated classes: |eta| reaches the
    # hundreds and beyond, where an unshifted exp would overflow
    n = 2_000
    X, _ = _four_class_draw(n, seed=5)
    F = np.column_stack([np.ones(n), 50.0 * X])
    classes = np.digitize(X[:, 0] + 0.3 * X[:, 1], [-0.7, 0.0, 0.7])
    model = fit_multinomial(F, classes, CFG, L=4)
    assert np.all(np.isfinite(model.coef))
    assert np.max(np.abs(F @ model.coef.T)) > 100.0
    probs = model.predict_proba(F)
    assert np.all(np.isfinite(probs))
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_multinomial_needs_two_classes():
    with pytest.raises(FitError):
        fit_multinomial(np.ones((10, 1)), np.zeros(10, dtype=int), CFG, L=1)
