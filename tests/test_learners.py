"""Basis expansion and the ridge-penalized regression fitters."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit, logsumexp, softmax

from mivest import learners
from mivest.exceptions import ConfigurationError, FitError
from mivest.learners import (LearnerConfig, PolyBasis, _multinomial_hessian, _penalty_matrix,
                             _softmax_inplace, expand_basis, fit_linear, fit_logistic,
                             fit_multinomial)

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


def test_expit_matches_the_scipy_reference():
    x = np.concatenate([np.linspace(-745.0, 745.0, 200_001),
                        np.random.default_rng(4).normal(scale=10.0, size=100_000)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = learners.expit(x)
        ends = learners.expit(np.array([-800.0, 800.0, np.nan]))
    assert np.allclose(got, expit(x), rtol=1e-15, atol=0.0)
    assert ends[0] == 0.0 and ends[1] == 1.0
    assert np.isnan(ends[2])


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
    # class-major (L, m) logits, normalised over axis 0
    rng = np.random.default_rng(3)
    logits = np.vstack([rng.normal(scale=300.0, size=(3, 500)), np.zeros((1, 500))])
    probs = logits.copy()
    top, total = _softmax_inplace(probs)
    assert np.allclose(probs, softmax(logits, axis=0), rtol=1e-12, atol=1e-300)
    assert np.allclose(top + np.log(total), logsumexp(logits, axis=0),
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


# -- class-major multinomial against the row-major reference -----------------


def _row_major_newton(F, y, cfg, L):
    """The row-major Newton fit that the class-major fit replaced, kept as a
    reference: (n, L) logits with a row-wise softmax, and one weighted Gram
    product per Hessian block, formed on the schedule of
    learners._newton_fit (chord steps).  Returns (coef, converged, n_iter)."""
    n, d = F.shape
    K = L - 1
    lam = cfg.ridge_lambda
    Yk = np.zeros((n, K))
    for k in range(K):
        Yk[:, k] = (y == k).astype(float)
    coef = np.zeros((K, d))
    counts = np.clip(np.bincount(y, minlength=L).astype(float), 0.5, None)
    for k in range(K):
        coef[k, 0] = np.log(counts[k] / counts[L - 1])
    buf = np.empty((n, L))
    picked = np.arange(n) * L + y

    def pll(B):
        np.matmul(F, B.T, out=buf[:, :K])
        buf[:, K] = 0.0
        fit_term = float(buf.take(picked).sum())
        top = buf.max(axis=1, keepdims=True)
        buf[:] -= top
        np.exp(buf, out=buf)
        total = buf.sum(axis=1, keepdims=True)
        buf[:] /= total
        lse = float(top.sum() + np.log(total).sum())
        return fit_term - lse - lam * float((B[:, 1:] ** 2).sum()), buf

    def hessian(Pk):
        H = np.empty((K * d, K * d))
        for k in range(K):
            for m in range(k, K):
                if k == m:
                    w = np.maximum(Pk[:, k] * (1.0 - Pk[:, k]), 1e-10)
                else:
                    w = -Pk[:, k] * Pk[:, m]
                block = (F * w[:, None]).T @ F
                H[k * d: (k + 1) * d, m * d: (m + 1) * d] = block
                if m != k:
                    H[m * d: (m + 1) * d, k * d: (k + 1) * d] = block
            H[k * d: (k + 1) * d, k * d: (k + 1) * d] += _penalty_matrix(d, 2.0 * lam)
        return H

    cur, P = pll(coef)
    converged = False
    chord_limit = 0.0
    it = 0
    for it in range(1, cfg.max_irls_iter + 1):
        Pk = P[:, :K]
        grad = np.empty(K * d)
        for k in range(K):
            gk = F.T @ (Yk[:, k] - Pk[:, k])
            gk[1:] -= 2.0 * lam * coef[k, 1:]
            grad[k * d: (k + 1) * d] = gk
        step = np.linalg.solve(H, grad) if chord_limit else None
        chord = step is not None and np.max(np.abs(step)) <= chord_limit
        if not chord:
            H = hessian(Pk)
            step = np.linalg.solve(H, grad)
        size = np.max(np.abs(step))
        scale = 1.0
        for _ in range(30):
            cand = coef + scale * step.reshape(K, d)
            new, probs = pll(cand)
            if chord and size < 10.0 * cfg.irls_tol:
                break   # a small chord step is taken in full
            if np.isfinite(new) and new >= cur - 1e-12:
                break
            scale *= 0.5
        else:
            break       # failed search: keep the last accepted iterate
        coef, cur, P = cand, new, probs
        if scale * size < cfg.irls_tol:
            converged = True
            break
        chord_limit = size / 10.0 if scale == 1.0 and size < 1e-2 else 0.0
    return coef, converged, it


def _class_draw(n, L, seed, spread=1.0):
    """n rows of an L-class logit on the degree-4 basis of two normal
    covariates; spread scales every class score.

    At spread 1 every class keeps a few percent of the rows.  Rounding
    alone moves an unpenalised fit with a rare class: a draw whose
    reference class had 12 of 1500 rows gave a Newton matrix of condition
    5e6 at lambda = 0, and the row-major reference moved by 2.7e-9 when
    its rows were permuted, so agreement within 1e-10 is a claim about
    well-conditioned fits.
    """
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    F = expand_basis(X, 4)
    slopes = rng.normal(size=(F.shape[1], L - 1)) * np.r_[0.5, 0.5, 0.15, 0.05, 0.015,
                                                          0.5, 0.15, 0.05, 0.015][:, None]
    scores = np.column_stack([spread * (F @ slopes), np.zeros(n)])
    p = np.exp(scores - scores.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    classes = (rng.random(n)[:, None] > np.cumsum(p, axis=1)).sum(axis=1)
    return F, np.minimum(classes, L - 1)


def _assert_matches_row_major(F, classes, cfg, L):
    coef, converged, n_iter = _row_major_newton(F, classes, cfg, L)
    model = fit_multinomial(F, classes, cfg, L=L)
    assert model.n_iter == n_iter
    assert model.converged == converged
    assert np.max(np.abs(model.coef - coef)) <= 1e-10
    return model


@pytest.mark.parametrize("L", [2, 3, 4, 6])
@pytest.mark.parametrize("lam", [0.0, 1e-3, 1.0])
def test_class_major_fit_matches_row_major_newton(L, lam):
    F, classes = _class_draw(1_500, L, seed=10 * L + int(lam * 1000))
    _assert_matches_row_major(F, classes, LearnerConfig(ridge_lambda=lam), L)


@pytest.mark.parametrize("n", [100, 4096, 4097, 3 * 4096 + 17])
def test_class_major_fit_matches_row_major_newton_at_chunk_edges(n):
    F, classes = _class_draw(n, 4, seed=n)
    _assert_matches_row_major(F, classes, CFG, 4)


def test_class_major_fit_matches_row_major_newton_where_the_weight_floor_binds():
    # nearly separated classes: at the fit 120 rows have p_k (1 - p_k)
    # below the 1e-10 floor of the diagonal Hessian weights.  Where it
    # binds on most rows the coefficients are not determined to rounding:
    # at spread 14 (seed 3) the reference itself moved by 1.4e-4 when its
    # rows were permuted.
    F, classes = _class_draw(3_000, 4, seed=2, spread=6.0)
    model = _assert_matches_row_major(F, classes, CFG, 4)
    P = model.predict_proba(F)[:, :3]
    assert np.min(P * (1.0 - P)) < 1e-10


def test_failed_step_search_is_not_reported_as_convergence(monkeypatch):
    # nearly separated classes: the multinomial Newton stalls at a full
    # step of 1.6e-6, far above irls_tol, that no halving turns into an
    # ascent step; the rejected 2^-30 scale must not pass the step tolerance
    F, classes = _class_draw(3_000, 4, seed=3, spread=14.0)
    model = fit_multinomial(F, classes, CFG, L=4)
    assert not model.converged
    assert model.n_iter < CFG.max_irls_iter
    # the logistic fit behind a likelihood that never ascends: all 30
    # halvings are rejected, and the fit stops at its start point
    search = learners._halving_search
    scored = []

    def never_ascends(b):
        scored.append(b)
        return -np.inf, None

    monkeypatch.setattr(learners, "_halving_search",
                        lambda pll, coef, step, cur: search(never_ascends, coef, step, cur))
    F, classes = _class_draw(3_000, 2, seed=35, spread=20.0)
    y = (classes == 0).astype(float)
    res = fit_logistic(F, y, CFG)
    assert not res.converged
    assert res.n_iter == 1
    assert len(scored) == 30
    assert np.all(res.coef[1:] == 0.0)
    assert res.coef[0] == pytest.approx(np.log(y.mean() / (1.0 - y.mean())))


@pytest.mark.parametrize("L", [3, 6])
def test_chunked_hessian_equals_per_block_gram_products(L):
    n = 3 * 4096 + 17
    F, _ = _class_draw(n, L, seed=4)
    rng = np.random.default_rng(5)
    P = rng.dirichlet(np.ones(L), size=n).T                # class-major (L, n)
    P[0, :50] = 1.0 - 1e-12                                # floored rows
    K, d, lam = L - 1, F.shape[1], 0.25
    H = _multinomial_hessian(F, P[:K], lam)
    ref = np.empty_like(H)
    for k in range(K):
        for m in range(K):
            w = (np.maximum(P[k] * (1.0 - P[k]), 1e-10) if k == m
                 else -P[k] * P[m])
            ref[k * d: (k + 1) * d, m * d: (m + 1) * d] = F.T @ (w[:, None] * F)
        ref[k * d: (k + 1) * d, k * d: (k + 1) * d] += _penalty_matrix(d, 2.0 * lam)
    assert np.max(np.abs(H - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("L", [4, 6])
def test_multinomial_fit_memory_is_bounded_by_the_features(L):
    # the Hessian weights are formed per row chunk, so the fit's traced
    # peak stays within 2.5 times the feature matrix at n = 40 000
    F, classes = _class_draw(40_000, L, seed=8)
    tracemalloc.start()
    try:
        fit_multinomial(F, classes, CFG, L=L)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * F.nbytes


# -- chunked logistic Newton against the full-product reference ---------------


def _reference_logistic_newton(F, y, cfg):
    """The logistic Newton fit that the chunked kernel replaced, kept as a
    reference: the likelihood through np.logaddexp and the Hessian as one
    (F * w[:, None]).T @ F product, formed on the schedule of
    learners._newton_fit (chord steps).  Returns (coef, converged, n_iter)."""
    n, d = F.shape
    lam = cfg.ridge_lambda
    pen = _penalty_matrix(d, 2.0 * lam)

    def pll(b):
        eta = F @ b
        return float(y @ eta - np.logaddexp(0.0, eta).sum() - lam * (b[1:] @ b[1:])), eta

    coef = np.zeros(d)
    ybar = float(np.clip(y.mean(), 1e-12, 1 - 1e-12))
    coef[0] = np.log(ybar / (1.0 - ybar))
    cur, eta = pll(coef)
    converged = False
    chord_limit = 0.0
    it = 0
    for it in range(1, cfg.max_irls_iter + 1):
        p = expit(eta)
        grad = F.T @ (y - p)
        grad[1:] -= 2.0 * lam * coef[1:]
        step = np.linalg.solve(H, grad) if chord_limit else None
        chord = step is not None and np.max(np.abs(step)) <= chord_limit
        if not chord:
            w = np.maximum(p * (1.0 - p), 1e-10)
            H = (F * w[:, None]).T @ F + pen
            step = np.linalg.solve(H, grad)
        size = np.max(np.abs(step))
        scale = 1.0
        for _ in range(30):
            cand = coef + scale * step
            new, eta_new = pll(cand)
            if chord and size < 10.0 * cfg.irls_tol:
                break   # a small chord step is taken in full
            if np.isfinite(new) and new >= cur - 1e-12:
                break
            scale *= 0.5
        else:
            break       # failed search: keep the last accepted iterate
        coef, cur, eta = cand, new, eta_new
        if scale * size < cfg.irls_tol:
            converged = True
            break
        chord_limit = size / 10.0 if scale == 1.0 and size < 1e-2 else 0.0
    return coef, converged, it


def _binary_draw(n, seed, spread=1.0):
    F, classes = _class_draw(n, 2, seed=seed, spread=spread)
    return F, (classes == 0).astype(float)


def _assert_matches_reference_logistic(F, y, cfg):
    # the kernels differ only in summation order and in 1-ulp differences
    # of exp and log1p against np.logaddexp; on these well-conditioned
    # fits the coefficients agree to 1e-14, so 1e-10 leaves a wide margin
    coef, converged, n_iter = _reference_logistic_newton(F, y, cfg)
    res = fit_logistic(F, y, cfg)
    assert res.n_iter == n_iter
    assert res.converged == converged
    assert np.max(np.abs(res.coef - coef)) <= 1e-10
    return res


@pytest.mark.parametrize("n", [100, 4096, 4097, 3 * 4096 + 17])
def test_chunked_logistic_fit_matches_the_reference_newton_at_chunk_edges(n):
    F, y = _binary_draw(n, seed=n)
    _assert_matches_reference_logistic(F, y, CFG)


def test_chunked_logistic_fit_matches_the_reference_newton_where_the_weight_floor_binds():
    # nearly separated labels: at the fit 36 rows have p (1 - p) below the
    # 1e-10 floor of the Hessian weights
    F, y = _binary_draw(3_000, seed=5, spread=6.0)
    res = _assert_matches_reference_logistic(F, y, CFG)
    p = expit(F @ res.coef)
    assert np.count_nonzero(p * (1.0 - p) < 1e-10) > 0


def test_logistic_likelihood_matches_logaddexp(monkeypatch):
    # max(eta, 0) + log1p(exp(-|eta|)) is the value np.logaddexp(0, eta)
    # evaluates, including eta = 0 (log 2) and |eta| past exp's range
    eta = np.r_[np.random.default_rng(6).normal(scale=8.0, size=5_000), 0.0, -800.0, 800.0]
    F = np.column_stack([np.ones_like(eta), eta])
    y = (eta > 0).astype(float)
    values = []

    def score_slope_one(pll, coef, step, cur):
        values.append(pll(np.array([0.0, 1.0]))[0])
        return None

    monkeypatch.setattr(learners, "_halving_search", score_slope_one)
    fit_logistic(F, y, CFG)
    ref = float(y @ eta - np.logaddexp(0.0, eta).sum() - CFG.ridge_lambda)
    assert values == [pytest.approx(ref, rel=1e-14, abs=0.0)]


def test_logistic_fit_memory_is_bounded_by_a_few_label_vectors():
    # weighted rows are formed per chunk, so above its inputs the fit
    # holds a few n-vectors (eta, the likelihood buffer, p, the Hessian
    # weights and the candidate's eta; 5.0 here) and never an (n, d)
    # array; the full-product Hessian peaked at 12.1 n-vectors here
    n = 80_000
    F, y = _binary_draw(n, seed=9)
    assert F.shape[1] == 9
    tracemalloc.start()
    try:
        fit_logistic(F, y, CFG)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * y.nbytes


# -- the Newton driver's Hessian schedule --------------------------------------


def test_newton_fits_form_only_the_hessians_they_need(monkeypatch):
    # the intercept-only start needs one Gram, not a chunked pass, and once
    # a full step is below 1e-2 the last Newton matrix serves the chord steps
    # that follow; a Hessian per iteration (8 multinomial, 7 logistic on
    # these draws) would fail the pinned counts
    calls = {"_multinomial_hessian": 0, "_logistic_hessian": 0}
    for name in calls:
        def counted(*args, _real=getattr(learners, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(learners, name, counted)
    F, classes = _class_draw(40_000, 4, seed=8)
    model = fit_multinomial(F, classes, CFG, L=4)
    assert model.converged
    assert (model.n_iter, calls["_multinomial_hessian"]) == (9, 4)
    F, y = _binary_draw(40_000, seed=8)
    res = fit_logistic(F, y, CFG)
    assert res.converged
    assert (res.n_iter, calls["_logistic_hessian"]) == (10, 3)
