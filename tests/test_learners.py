"""Basis expansion and the ridge-penalized regression fitters."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import expit, logsumexp, softmax

from mivest import learners
from mivest.exceptions import ConfigurationError, FitError
from mivest.learners import (_HESSIAN_CHUNK, LearnerConfig, PolyBasis, _newton_matrix,
                             _penalty_matrix, _softmax_inplace, expand_basis, fit_linear,
                             fit_logistic, fit_multinomial)

from helpers import reference_expand_basis, reference_newton

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


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("df", [1, 4])
def test_basis_features_are_column_major_and_equal_the_row_major_expansion(order, df):
    # each power is the same product chain as in the row-major expansion,
    # written into its own column: the elements agree bit for bit, whatever
    # the layout of the rows given
    rng = np.random.default_rng(df)
    X = np.array(rng.normal(3.0, 2.0, size=(1001, 3)), order=order)
    basis = PolyBasis(df).fit(X[:500])
    X[::7, 1] = -np.inf
    X[::11, 2] = np.nan
    F = basis.transform(X)
    assert F.flags.f_contiguous and F.shape == (1001, 1 + 3 * df)
    want = reference_expand_basis((X - basis.mean_) / basis.scale_, df)
    assert F.tobytes(order="C") == want.tobytes()
    G = expand_basis(X, df)
    assert G.flags.f_contiguous and G.tobytes(order="C") == reference_expand_basis(X, df).tobytes()
    row = basis.transform(X[3])
    assert row.shape == (1 + 3 * df,) and row.tobytes() == want[3].tobytes()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(20, 3000), L=st.integers(2, 5), lam=st.sampled_from([0.0, 1e-3, 1.0]),
       seed=st.integers(0, 2**32 - 1))
@example(n=34, L=4, lam=0.0, seed=4294967295)
@example(n=100, L=4, lam=0.0, seed=532)
def test_fits_agree_on_row_and_column_major_features(n, L, lam, seed):
    # the products F @ b, F' r and F' diag(w) F round differently in the two
    # layouts.  Over 1200 such draws the two fits always reached the same
    # verdict in the same number of iterations, and converged coefficients
    # agreed to 9.4e-13 (multinomial), 2.0e-13 (logistic) and 2.5e-15
    # (linear).  A fit that does not converge is one diverging on separated
    # classes (small n, lambda = 0), where the rounding grows with the
    # coefficients, so only converged coefficients are compared.  Their
    # rounding scales with them too: the two examples, nearly separated at
    # lambda = 0, converge to multinomial coefficients of size 309 and 204
    # that the layouts move by 2.4e-10 and 2.7e-10, about 1e-12 relative
    F, classes = _class_draw(n, L, seed=seed)
    if np.bincount(classes, minlength=L).min() == 0:
        return
    Fc, Ff = np.ascontiguousarray(F), np.asfortranarray(F)
    cfg = LearnerConfig(ridge_lambda=lam)
    y = (classes == 0).astype(float)
    pairs = [(fit_logistic(Fc, y, cfg), fit_logistic(Ff, y, cfg)),
             (fit_multinomial(Fc, classes, cfg, L=L), fit_multinomial(Ff, classes, cfg, L=L))]
    if lam > 0:
        pairs.append((fit_linear(Fc, y, cfg), fit_linear(Ff, y, cfg)))
    for a, b in pairs:
        assert (a.converged, a.n_iter) == (b.converged, b.n_iter)
        if a.converged:
            assert np.max(np.abs(a.coef - b.coef)) <= 1e-10 * max(1.0, np.max(np.abs(a.coef)))


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


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 9), m=st.integers(1, 60), d=st.integers(1, 12),
       lam=st.sampled_from([1e-3, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_multi_target_linear_fit_equals_the_single_target_fits(k, m, d, lam, seed):
    # a (k, m) target stack shares one Gram, and each row keeps its own
    # F't and its own solve: bit for bit the k separate (m,) fits, m < d
    # included (the ridge makes those systems regular).  A zero feature
    # column makes the normal equations singular at lambda = 0, and both
    # shapes raise
    rng = np.random.default_rng(seed)
    F = np.asfortranarray(np.column_stack([np.ones(m), rng.normal(size=(m, d - 1))]))
    T = rng.normal(size=(k, m))
    cfg = LearnerConfig(ridge_lambda=lam)
    stacked = fit_linear(F, T, cfg).coef
    assert stacked.shape == (k, d)
    for i in range(k):
        assert stacked[i].tobytes() == fit_linear(F, T[i], cfg).coef.tobytes()
    singular = np.column_stack([F, np.zeros(m)])
    for targets in (T, T[0]):
        with pytest.raises(FitError, match="singular"):
            fit_linear(singular, targets, LearnerConfig(ridge_lambda=0.0))


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
    assert learners.expit(0.0) == 0.5 and learners.expit(-800) == 0.0   # scalars


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
    assert _max_penalised_score(F, classes, model, cfg) < 1e-6 * n


def _max_penalised_score(F, classes, model, cfg):
    """max |penalised score| of a multinomial fit at its coefficients."""
    K = model.L - 1
    resid = np.eye(model.L)[classes][:, :K] - model.predict_proba(F)[:, :K]
    score = F.T @ resid                                   # (d, L - 1)
    score[1:] -= 2.0 * cfg.ridge_lambda * model.coef[:, 1:].T
    return np.max(np.abs(score))


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
    product per Hessian block, on the schedule of helpers.reference_newton.
    Returns (coef, converged, n_iter)."""
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

    def pll(b):
        B = b.reshape(K, d)
        np.matmul(F, B.T, out=buf[:, :K])
        buf[:, K] = 0.0
        fit_term = float(buf.take(picked).sum())
        top = buf.max(axis=1, keepdims=True)
        buf[:] -= top
        np.exp(buf, out=buf)
        total = buf.sum(axis=1, keepdims=True)
        buf[:] /= total
        lse = float(top.sum() + np.log(total).sum())
        return fit_term - lse - lam * float((B[:, 1:] ** 2).sum()), lse, buf

    def score(b, P):
        Pk = P[:, :K]
        grad = np.empty(K * d)
        for k in range(K):
            gk = F.T @ (Yk[:, k] - Pk[:, k])
            gk[1:] -= 2.0 * lam * b[k * d + 1: (k + 1) * d]
            grad[k * d: (k + 1) * d] = gk
        return grad, Pk

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

    coef, converged, n_iter = reference_newton(coef.ravel(), pll, score, hessian, cfg)
    return coef.reshape(K, d), converged, n_iter


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
    # binds on most rows the coefficients are not determined to 1e-10:
    # at spread 14 (seed 3) the reference itself moved by 1.4e-9 over 8
    # permutations of its rows.
    F, classes = _class_draw(3_000, 4, seed=2, spread=6.0)
    model = _assert_matches_row_major(F, classes, CFG, 4)
    P = model.predict_proba(F)[:, :3]
    assert np.min(P * (1.0 - P)) < 1e-10


def test_nearly_separated_multinomial_fit_converges_to_the_penalised_optimum():
    # nearly separated classes: at the fit 3268 of the 9000 class weights
    # p_k (1 - p_k) lie below the 1e-10 floor.  The fit converges in 33
    # iterations, at a stationary point of the strictly concave penalised
    # likelihood: the penalised score there is 2.4e-13.  On 16 row
    # permutations it converged in 33 or 34 iterations, every time within
    # 1.7e-9 of these coefficients
    F, classes = _class_draw(3_000, 4, seed=3, spread=14.0)
    model = fit_multinomial(F, classes, CFG, L=4)
    assert model.converged and model.n_iter < CFG.max_irls_iter
    assert _max_penalised_score(F, classes, model, CFG) < 1e-10
    rng = np.random.default_rng(0)
    for _ in range(4):
        perm = rng.permutation(3_000)
        other = fit_multinomial(F[perm], classes[perm], CFG, L=4)
        assert other.converged
        assert np.max(np.abs(other.coef - model.coef)) <= 1e-8


@settings(max_examples=30, deadline=None)
@given(n=st.integers(200, 3000), L=st.integers(2, 5), lam=st.sampled_from([1e-3, 1e-2, 1.0]),
       spread=st.sampled_from([1.0, 3.0]), seed=st.integers(0, 2**32 - 1))
def test_fits_on_permuted_rows_reach_the_same_verdict_and_coefficients(n, L, lam, spread, seed):
    # a row permutation reorders every sum of the fit.  On well-conditioned
    # draws (ridge > 0, at least 30 rows per class, no fitted weight at the
    # 1e-10 floor) it changed no verdict over 995 draws times 4
    # permutations, and moved the coefficients by at most 6.6e-14
    F, classes = _class_draw(n, L, seed=seed, spread=spread)
    assume(np.bincount(classes, minlength=L).min() >= 30)
    cfg = LearnerConfig(ridge_lambda=lam)
    perm = np.random.default_rng(seed).permutation(n)
    y = (classes == 0).astype(float)
    logistic = fit_logistic(F, y, cfg)
    multi = fit_multinomial(F, classes, cfg, L=L)
    for fit, P, refit in (
            (logistic, expit(F @ logistic.coef),
             lambda: fit_logistic(F[perm], y[perm], cfg)),
            (multi, multi.predict_proba(F)[:, :-1],
             lambda: fit_multinomial(F[perm], classes[perm], cfg, L=L))):
        if np.min(P * (1.0 - P)) <= 1e-10:
            continue                                        # the floor binds
        other = refit()
        assert other.converged == fit.converged
        assert np.max(np.abs(other.coef - fit.coef)) <= 1e-11


def test_failed_step_search_is_not_reported_as_convergence(monkeypatch):
    # the logistic fit behind a likelihood that never ascends: all 30
    # halvings are rejected, and the fit stops at its start point
    search = learners._halving_search
    scored = []

    def never_ascends(b):
        scored.append(b)
        return -np.inf, 0.0, None

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


def _per_block_reference(F, Pk, lam):
    """The (K d, K d) Newton matrix with every d x d block, both triangles,
    formed directly as F' diag(w) F on all rows, plus the ridge."""
    K, d = Pk.shape[0], F.shape[1]
    ref = np.empty((K * d, K * d))
    for k in range(K):
        for m in range(K):
            w = (np.maximum(Pk[k] * (1.0 - Pk[k]), 1e-10) if k == m
                 else -Pk[k] * Pk[m])
            ref[k * d: (k + 1) * d, m * d: (m + 1) * d] = F.T @ (w[:, None] * F)
        ref[k * d: (k + 1) * d, k * d: (k + 1) * d] += _penalty_matrix(d, 2.0 * lam)
    return ref


@pytest.mark.parametrize("L", [3, 6])
def test_chunked_hessian_equals_per_block_gram_products(L):
    n = 3 * 4096 + 17
    F, _ = _class_draw(n, L, seed=4)
    rng = np.random.default_rng(5)
    P = rng.dirichlet(np.ones(L), size=n).T                # class-major (L, n)
    P[0, :50] = 1.0 - 1e-12                                # floored rows
    K, d, lam = L - 1, F.shape[1], 0.25
    H = _newton_matrix(F, P[:K], _penalty_matrix(d, 2.0 * lam))
    ref = _per_block_reference(F, P[:K], lam)
    assert np.max(np.abs(H - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("K", [1, 2, 3, 5])
def test_chunked_hessian_equals_per_block_gram_products_at_chunk_edges(d, K):
    # every block of the assembled matrix, mirrored or not, against its
    # direct product, at every chunk edge, with and without the ridge and
    # for both feature layouts (the chunks are views of either)
    rng = np.random.default_rng(10 * d + K)
    for n in (1, 7, _HESSIAN_CHUNK - 1, _HESSIAN_CHUNK, _HESSIAN_CHUNK + 1,
              2 * _HESSIAN_CHUNK):
        F = np.column_stack([np.ones(n), rng.normal(size=(n, d - 1))])
        P = rng.dirichlet(np.ones(K + 1), size=n).T
        P[0, : n // 3] = 1.0 - 1e-13                        # floored weights
        for lam in (0.0, 1e-3, 0.37):
            ref = _per_block_reference(F, P[:K], lam)
            for G in (F, np.asfortranarray(F)):
                got = _newton_matrix(G, P[:K], _penalty_matrix(d, 2.0 * lam))
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), (n, lam)
                assert got.flags.writeable and got.flags.c_contiguous


@pytest.mark.parametrize("K", [1, 2, 3, 5])
def test_intercept_only_start_matrix_equals_the_chunked_matrix(K):
    # with every row given the same probabilities, the start's blocks
    # (w_km times one Gram F'F) are the chunked weighted Grams
    rng = np.random.default_rng(K)
    for n in (1, _HESSIAN_CHUNK - 1, _HESSIAN_CHUNK, _HESSIAN_CHUNK + 1):
        F = np.asfortranarray(np.column_stack([np.ones(n), rng.normal(size=(n, 4))]))
        p = rng.dirichlet(np.ones(K + 1))[:K]
        for lam in (0.0, 1e-3):
            pen = _penalty_matrix(F.shape[1], 2.0 * lam)
            start = _newton_matrix(F, p, pen)
            chunked = _newton_matrix(F, np.repeat(p[:, None], n, axis=1), pen)
            assert np.max(np.abs(start - chunked)) <= 1e-12 * np.max(np.abs(chunked)), (n, lam)


def test_penalty_matrix_is_cached_and_read_only():
    D = _penalty_matrix(9, 2e-3)
    assert _penalty_matrix(9, 2e-3) is D
    assert D[0, 0] == 0.0 and np.all(np.diag(D)[1:] == 2e-3)
    with pytest.raises(ValueError):
        D[1, 1] = 0.0
    assert np.diag(_penalty_matrix(9, 2e-3, 0)).tolist() == [2e-3] * 9


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
    (F * w[:, None]).T @ F product, on the schedule of
    helpers.reference_newton.  Returns (coef, converged, n_iter)."""
    n, d = F.shape
    lam = cfg.ridge_lambda
    pen = _penalty_matrix(d, 2.0 * lam)

    def pll(b):
        eta = F @ b
        lse = float(np.logaddexp(0.0, eta).sum())
        return float(y @ eta) - lse - lam * float(b[1:] @ b[1:]), lse, eta

    def score(b, eta):
        p = expit(eta)
        grad = F.T @ (y - p)
        grad[1:] -= 2.0 * lam * b[1:]
        return grad, p

    def hessian(p):
        w = np.maximum(p * (1.0 - p), 1e-10)
        return (F * w[:, None]).T @ F + pen

    coef = np.zeros(d)
    ybar = float(np.clip(y.mean(), 1e-12, 1 - 1e-12))
    coef[0] = np.log(ybar / (1.0 - ybar))
    return reference_newton(coef, pll, score, hessian, cfg)


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
    # these draws) would fail the pinned counts.  Each chunked matrix makes
    # one _weighted_gram pass per block (k, m >= k): 6 at K = 3, 1 at K = 1
    grams = []

    def counted(F, w, _real=learners._weighted_gram):
        grams.append(w.size)
        return _real(F, w)

    monkeypatch.setattr(learners, "_weighted_gram", counted)
    F, classes = _class_draw(40_000, 4, seed=8)
    model = fit_multinomial(F, classes, CFG, L=4)
    assert model.converged
    assert (model.n_iter, len(grams)) == (9, 4 * 6)
    grams.clear()
    F, y = _binary_draw(40_000, seed=8)
    res = fit_logistic(F, y, CFG)
    assert res.converged
    assert (res.n_iter, len(grams)) == (10, 3)
