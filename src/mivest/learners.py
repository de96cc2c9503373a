"""Ridge-penalized parametric learners on polynomial bases.

All three learners take an explicit feature matrix whose first column is
the intercept; the ridge penalty never touches the intercept.  Feature
construction (standardization + powers) lives in PolyBasis so that the
scaling parameters travel with the fitted object and are always taken
from the training fold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .exceptions import ConfigurationError, FitError


@dataclass(frozen=True)
class LearnerConfig:
    """Knobs for the ridge learners.

    basis_df: powers 1..basis_df per coordinate (plus intercept).
    ridge_lambda: L2 penalty on non-intercept coefficients.
    """

    basis_df: int = 4
    ridge_lambda: float = 1e-3
    max_irls_iter: int = 100
    irls_tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.basis_df < 1:
            raise ConfigurationError("basis_df must be >= 1")
        if self.ridge_lambda < 0:
            raise ConfigurationError("ridge_lambda must be >= 0")
        if self.max_irls_iter < 1:
            raise ConfigurationError("max_irls_iter must be >= 1")
        if self.irls_tol <= 0:
            raise ConfigurationError("irls_tol must be > 0")


def expand_basis(x: np.ndarray, df: int) -> np.ndarray:
    """Feature vector [1, x_j, x_j^2, ..., x_j^df for each coordinate j].

    Operates on coordinates as given (standardization is PolyBasis's job).
    Accepts (p,) or (m, p); returns (1 + p*df,) or (m, 1 + p*df).
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    m, p = x.shape
    out = np.empty((m, 1 + p * df), dtype=float)
    out[:, 0] = 1.0
    col = 1
    for j in range(p):
        acc = np.ones(m)
        xj = x[:, j]
        for _ in range(df):
            acc = acc * xj
            out[:, col] = acc
            col += 1
    return out[0] if single else out


@dataclass
class PolyBasis:
    """Standardize-then-power basis fitted on a training block.

    Coordinates are centered and scaled by the training mean and standard
    deviation (scale 1 is substituted for degenerate coordinates), then
    raised to powers 1..df.  The scaling parameters are carried with the
    fitted object so transform() applied to new rows uses training-fold
    statistics only.
    """

    df: int
    mean_: np.ndarray | None = None
    scale_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "PolyBasis":
        X = np.asarray(X, dtype=float)
        self.mean_ = X.mean(axis=0)
        sd = X.std(axis=0)
        sd[sd == 0.0] = 1.0
        self.scale_ = sd
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.mean_ is None:
            raise FitError("PolyBasis.transform called before fit")
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        Xs = (X - self.mean_) / self.scale_
        F = expand_basis(Xs, self.df)
        return F[0] if single else F

    @property
    def n_features(self) -> int:
        if self.mean_ is None:
            raise FitError("basis not fitted")
        return 1 + self.mean_.shape[0] * self.df


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficient vector plus convergence information."""

    coef: np.ndarray
    converged: bool
    n_iter: int


def _penalty_matrix(d: int, lam: float) -> np.ndarray:
    D = np.eye(d) * lam
    D[0, 0] = 0.0  # intercept unpenalized
    return D


def fit_linear(features: np.ndarray, targets: np.ndarray, cfg: LearnerConfig) -> FitResult:
    """Ridge least squares: argmin ||y - F b||^2 + lambda ||b[1:]||^2."""
    F = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    coef = _ridge_solve(F.T @ F, F.T @ y, cfg.ridge_lambda)
    return FitResult(coef=coef, converged=True, n_iter=1)


def _ridge_solve(gram: np.ndarray, cross: np.ndarray, lam: float) -> np.ndarray:
    """Solve (F'F + lambda D) b = F'y given gram = F'F and cross = F'y.

    cross may be (d,) or (d, k); k columns share one factorisation.
    """
    A = gram + _penalty_matrix(gram.shape[0], lam)
    try:
        coef = np.linalg.solve(A, cross)
    except np.linalg.LinAlgError as exc:
        raise FitError(
            "normal equations singular; a ridge_lambda > 0 is required for "
            "rank-deficient features"
        ) from exc
    if not np.all(np.isfinite(coef)):
        raise FitError("linear fit produced non-finite coefficients")
    return coef


def fit_logistic(features: np.ndarray, labels: np.ndarray, cfg: LearnerConfig) -> FitResult:
    """Ridge logistic regression by iteratively reweighted least squares.

    Maximizes sum(y log p + (1-y) log(1-p)) - lambda ||b[1:]||^2 with
    Newton steps damped by halving until the penalized likelihood stops
    decreasing; full steps overshoot badly once a stratum is close to
    separated.  Separated data with lambda = 0 has no finite optimum and
    is reported as non-converged.
    """
    F = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    n, d = F.shape
    lam = cfg.ridge_lambda
    pen = _penalty_matrix(d, 2.0 * lam)

    def pll(b: np.ndarray) -> float:
        eta = F @ b
        return float(y @ eta - np.logaddexp(0.0, eta).sum() - lam * (b[1:] @ b[1:]))

    coef = np.zeros(d)
    # sensible start: intercept at the empirical logit
    ybar = float(np.clip(y.mean(), 1e-12, 1 - 1e-12))
    coef[0] = np.log(ybar / (1.0 - ybar))
    cur = pll(coef)
    converged = False
    it = 0
    for it in range(1, cfg.max_irls_iter + 1):
        eta = F @ coef
        p = expit(eta)
        # saturated probabilities zero out the observed information; the
        # floor keeps the intercept coordinate (unpenalized) solvable
        w = np.maximum(p * (1.0 - p), 1e-10)
        grad = F.T @ (y - p)
        grad[1:] -= 2.0 * lam * coef[1:]
        H = (F * w[:, None]).T @ F + pen
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError as exc:
            raise FitError(
                "IRLS system singular; use ridge_lambda > 0 for separated or "
                "collinear data"
            ) from exc
        scale = 1.0
        cand, new = coef, cur
        for _ in range(30):
            cand = coef + scale * step
            new = pll(cand)
            if np.isfinite(new) and new >= cur - 1e-12:
                break
            scale *= 0.5
        coef = cand
        cur = new
        if not np.all(np.isfinite(coef)):
            raise FitError("logistic fit diverged to non-finite coefficients")
        if scale * np.max(np.abs(step)) < cfg.irls_tol:
            converged = True
            break
    return FitResult(coef=coef, converged=converged, n_iter=it)


@dataclass
class MultinomialModel:
    """Ridge multinomial logit with the last class as reference.

    coef has shape (L-1, d); class L-1 has implicit zero coefficients.
    The ridge penalty shrinks the L-1 fitted classes towards the reference
    class, which is unpenalised, so relabelling the classes can change the
    fitted probabilities (see fit_multinomial).
    """

    coef: np.ndarray
    L: int
    converged: bool
    n_iter: int

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        F = np.asarray(features, dtype=float)
        single = F.ndim == 1
        if single:
            F = F[None, :]
        P = np.zeros((F.shape[0], self.L))
        np.matmul(F, self.coef.T, out=P[:, :-1])
        _softmax_inplace(P)
        return P[0] if single else P


def _softmax_inplace(full: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Overwrite the (m, L) logits `full` with their row-wise softmax.

    Returns the row maxima and the row sums of exp(full - max), so the
    row log-sum-exp is max + log(sum) without a second pass over `full`.
    """
    top = full.max(axis=1, keepdims=True)
    full -= top
    np.exp(full, out=full)
    total = full.sum(axis=1, keepdims=True)
    full /= total
    return top, total


def fit_multinomial(features: np.ndarray, classes: np.ndarray, cfg: LearnerConfig,
                    L: int | None = None) -> MultinomialModel:
    """Ridge multinomial logistic regression by full Newton iterations.

    classes are integer codes 0..L-1; every class should be present.  The
    penalty lambda ||b_k[1:]||^2 applies per class, intercepts free.

    The parametrisation is asymmetric: class L-1 is the reference with
    coefficients fixed at zero, so it is the one class the ridge never
    penalises.  Relabelling the classes therefore moves the fit whenever
    lambda > 0; on the dual family with ridge_lambda = 1, relabelling the
    instrument levels moved one repetition's estimate by 0.010.
    """
    F = np.asarray(features, dtype=float)
    y = np.asarray(classes, dtype=np.int64)
    n, d = F.shape
    if L is None:
        L = int(y.max()) + 1
    if L < 2:
        raise FitError("multinomial fit requires at least 2 classes")
    K = L - 1
    lam = cfg.ridge_lambda
    Yk = np.zeros((n, K))
    for k in range(K):
        Yk[:, k] = (y == k).astype(float)
    coef = np.zeros((K, d))
    # initialize intercepts at empirical log-odds vs reference class
    counts = np.bincount(y, minlength=L).astype(float)
    counts = np.clip(counts, 0.5, None)
    for k in range(K):
        coef[k, 0] = np.log(counts[k] / counts[L - 1])

    buf = np.empty((n, L))                     # logits, then probabilities
    picked = np.arange(n) * L + y              # flat index of (i, y_i) in buf

    def pll(B: np.ndarray) -> tuple[float, np.ndarray]:
        """Penalized log-likelihood at B and the class probabilities there.

        The probabilities live in `buf`, so they stay valid until the next
        call; the line search always accepts the last candidate it scored.
        """
        np.matmul(F, B.T, out=buf[:, :K])
        buf[:, K] = 0.0
        fit_term = float(buf.take(picked).sum())
        top, total = _softmax_inplace(buf)
        lse = float(top.sum() + np.log(total).sum())
        return fit_term - lse - lam * float((B[:, 1:] ** 2).sum()), buf

    cur, P = pll(coef)
    converged = False
    it = 0
    for it in range(1, cfg.max_irls_iter + 1):
        Pk = P[:, :K]
        grad = np.empty(K * d)
        for k in range(K):
            gk = F.T @ (Yk[:, k] - Pk[:, k])
            gk[1:] -= 2.0 * lam * coef[k, 1:]
            grad[k * d: (k + 1) * d] = gk
        H = np.empty((K * d, K * d))
        for k in range(K):
            for m in range(k, K):
                if k == m:
                    # floor, as in the binary fit, so saturated classes do
                    # not void the unpenalized intercept coordinate
                    w = np.maximum(Pk[:, k] * (1.0 - Pk[:, k]), 1e-10)
                else:
                    w = -Pk[:, k] * Pk[:, m]
                block = (F * w[:, None]).T @ F
                H[k * d: (k + 1) * d, m * d: (m + 1) * d] = block
                if m != k:
                    H[m * d: (m + 1) * d, k * d: (k + 1) * d] = block
            H[k * d: (k + 1) * d, k * d: (k + 1) * d] += _penalty_matrix(d, 2.0 * lam)
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError as exc:
            raise FitError(
                "multinomial Newton system singular; use ridge_lambda > 0"
            ) from exc
        # same damping as the binary fit: halve until the penalized
        # likelihood stops decreasing
        scale = 1.0
        for _ in range(30):
            cand = coef + scale * step.reshape(K, d)
            new, probs = pll(cand)
            if np.isfinite(new) and new >= cur - 1e-12:
                break
            scale *= 0.5
        coef, cur, P = cand, new, probs
        if not np.all(np.isfinite(coef)):
            raise FitError("multinomial fit diverged to non-finite coefficients")
        if scale * np.max(np.abs(step)) < cfg.irls_tol:
            converged = True
            break
    return MultinomialModel(coef=coef, L=L, converged=converged, n_iter=it)
