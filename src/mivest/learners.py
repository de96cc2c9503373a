"""Ridge-penalized parametric learners on polynomial bases.

All three learners take an explicit feature matrix whose first column is
the intercept; the ridge penalty never touches the intercept unless
fit_logistic is asked to (ridge_intercept).  Feature construction
(standardization + powers) lives in PolyBasis so that the scaling
parameters travel with the fitted object and are always taken from the
training fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

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
        if not 0 <= self.ridge_lambda < np.inf:
            raise ConfigurationError(
                f"ridge_lambda must be finite and >= 0, got {self.ridge_lambda}")
        if self.max_irls_iter < 1:
            raise ConfigurationError("max_irls_iter must be >= 1")
        if not 0 < self.irls_tol < np.inf:
            raise ConfigurationError(f"irls_tol must be finite and > 0, got {self.irls_tol}")


def expand_basis(x: np.ndarray, df: int) -> np.ndarray:
    """Feature vector [1, x_j, x_j^2, ..., x_j^df for each coordinate j].

    Operates on coordinates as given (standardization is PolyBasis's job).
    Accepts (p,) or (m, p); returns (1 + p*df,) or the (m, 1 + p*df)
    features column-major (Fortran order).  Each power is written into its
    own contiguous column as the previous power times x_j (the first is
    x_j itself, which 1.0 * x_j is bit for bit), so x_j^k is the same
    product chain whatever the layout of x.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    m, p = x.shape
    out = np.empty((m, 1 + p * df), dtype=float, order="F")
    out[:, 0] = 1.0
    for j in range(p):
        xj = x[:, j]
        col = 1 + j * df
        out[:, col] = xj
        for k in range(col + 1, col + df):
            np.multiply(out[:, k - 1], xj, out=out[:, k])
    return out[0] if single else out


@dataclass
class PolyBasis:
    """Standardize-then-power basis fitted on a training block.

    Coordinates are centered and scaled by the training mean and standard
    deviation (scale 1 is substituted for degenerate coordinates), then
    raised to powers 1..df.  The scaling parameters are carried with the
    fitted object so transform() applied to new rows uses training-fold
    statistics only.  transform() returns the (m, d) features column-major
    (Fortran order), as expand_basis does: the learners read them a column
    at a time (F' r, F' diag(w) F), and ObservationTable.X arrives
    column-major too, so the per-column mean, scale and powers each run
    over one contiguous column.
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
        Xs = (X - self.mean_) / self.scale_     # keeps a column-major X's layout
        F = expand_basis(Xs, self.df)
        return F[0] if single else F


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficient vector plus convergence information."""

    coef: np.ndarray
    converged: bool
    n_iter: int


def expit(x, out=None):
    """Logistic sigmoid 1 / (1 + exp(-x)), elementwise.

    The formula scipy.special.expit evaluates, here with numpy's exp; the
    two agree to 1 ulp.  exp(-x) overflows to inf below x = -709.78, which
    gives exactly 0.0, so that overflow is silenced.  The steps run in one
    array, out if given (it may be x itself), else a new one.
    """
    x = np.asarray(x, dtype=float)
    e = np.negative(x, out=np.empty_like(x) if out is None else out)
    with np.errstate(over="ignore"):
        np.exp(e, out=e)
    e += 1.0
    return np.divide(1.0, e, out=e)


@lru_cache(maxsize=None)
def _penalty_matrix(d: int, lam: float, first: int = 1) -> np.ndarray:
    """lambda on the diagonal from coefficient `first` on (by default all
    but the intercept); cached per (d, lam, first) and shared by every
    fit, hence read-only."""
    D = np.eye(d) * lam
    D[:first, :first] = 0.0  # intercept unpenalized
    D.flags.writeable = False
    return D


def fit_linear(features: np.ndarray, targets: np.ndarray, cfg: LearnerConfig) -> FitResult:
    """Ridge least squares: argmin ||t - F b||^2 + lambda ||b[1:]||^2.

    targets is (m,), or (k, m) with one target per row.  The Gram F'F is
    formed once; each row t has its own product F't and its own system, so
    row i of the (k, d) coefficients is bit for bit the (m,) fit of
    targets[i].
    """
    F = np.asarray(features, dtype=float)
    t = np.asarray(targets, dtype=float)
    A = F.T @ F + _penalty_matrix(F.shape[1], cfg.ridge_lambda)
    try:
        coef = np.linalg.solve(A, F.T @ t) if t.ndim == 1 else \
            np.linalg.solve(A, np.stack([F.T @ row for row in t])[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise FitError(
            "normal equations singular; a ridge_lambda > 0 is required for "
            "rank-deficient features"
        ) from exc
    if not np.isfinite(coef).all():
        raise FitError("linear fit produced non-finite coefficients")
    return FitResult(coef=coef, converged=True, n_iter=1)


# _newton_fit accepts a candidate no lower than cur - _ACCEPT_ROUNDING S,
# S = |cur| + lse, lse = sum_i log sum_k exp(eta_ik) >= 0 the log-partition
# sum.  The likelihood is the observed logits' sum less lse and the penalty,
# each at most S in size, so S scales its rounding (Higham 2002, Accuracy and
# Stability of Numerical Algorithms, ch. 4).  Row permutations and feature
# layout moved it by at most 2.9 eps S at the fit, on 20 to 1e6 rows
_ACCEPT_ROUNDING = 64 * np.finfo(float).eps


def _halving_search(pll, coef: np.ndarray, step: np.ndarray, floor: float):
    """Halve a Newton step until the penalized likelihood reaches floor.

    pll(b) returns (value, lse, extra) at b.  Returns (scale, candidate,
    value, lse, extra) of the first accepted candidate, or None when all 30
    halvings are rejected; the fit then keeps its last accepted iterate and
    reports non-convergence.
    """
    scale = 1.0
    cand = coef + step                          # the full step: no scaling
    for _ in range(30):
        new, lse, extra = pll(cand)
        if math.isfinite(new) and new >= floor:
            return scale, cand, new, lse, extra
        scale *= 0.5
        cand = coef + scale * step
    return None


# rows per pass of _weighted_gram: a chunk's (d, chunk) weighted rows stay
# cache-sized (288 KB for the default basis of two covariates at degree 4,
# d = 9)
_HESSIAN_CHUNK = 4096


def _weighted_gram(F: np.ndarray, w: np.ndarray) -> np.ndarray:
    """F' diag(w) F, summed over chunks of _HESSIAN_CHUNK rows.

    The weighted transposed rows Fc' * wc are formed per chunk in one
    reused (d, chunk) buffer, so besides w the extra memory is O(chunk),
    not an (n, d) copy of F.  F is read through the views F[start:stop];
    for column-major features each row of Fc' (one feature over the
    chunk) is contiguous.
    """
    n, d = F.shape
    scaled = np.empty((d, min(n, _HESSIAN_CHUNK)))
    G = np.zeros((d, d))
    for start in range(0, n, _HESSIAN_CHUNK):
        Fc = F[start:start + _HESSIAN_CHUNK]
        rows = scaled[:, :Fc.shape[0]]
        np.multiply(Fc.T, w[start:start + _HESSIAN_CHUNK], out=rows)
        G += rows @ Fc
    return G


def _newton_matrix(F: np.ndarray, P: np.ndarray, pen: np.ndarray) -> np.ndarray:
    """Penalised Newton matrix of the logistic (K = 1) or multinomial fit.

    P holds the K fitted classes' probabilities, class-major (K, n), or
    (K,) when every row has the same ones (an intercept-only start).
    Block (k, m) of the (K d, K d) matrix, of size d x d, is
    F' diag(w_km) F, plus the ridge block pen when k = m, with
    w_kk = max(p_k (1 - p_k), 1e-10) and w_km = -p_k p_m.  The floor keeps
    the unpenalized intercept coordinate solvable when a class saturates.
    Each block (k, m >= k) is one _weighted_gram pass over the rows, or,
    for (K,) probabilities, w_km times the one Gram F'F; it is mirrored
    into (m, k).  The weights are formed a block at a time, so the extra
    memory is a few n-vectors, not O(n K^2).
    """
    K, d = P.shape[0], F.shape[1]
    gram = F.T @ F if P.ndim == 1 else None

    def block(w):
        return _weighted_gram(F, w) if gram is None else w * gram

    H = np.empty((K * d, K * d))
    for k in range(K):
        rows = slice(k * d, (k + 1) * d)
        B = block(np.maximum(P[k] * (1.0 - P[k]), 1e-10))
        B += pen
        H[rows, rows] = B
        for m in range(k + 1, K):
            cols = slice(m * d, (m + 1) * d)
            B = block(-P[k] * P[m])
            H[rows, cols] = B
            H[cols, rows] = B.T
    return H


# a full accepted Newton step below this size lets the next iterations reuse
# its Newton matrix (chord steps, _newton_fit)
_CHORD_START = 1e-2


def _newton_fit(F, coef, pll, score, pen, cfg, what):
    """Damped Newton ascent of a penalised likelihood; (coef, converged, n_iter).

    Shared by fit_logistic and fit_multinomial.  pll(b) returns the
    penalised log-likelihood at b, its log-partition sum (_ACCEPT_ROUNDING)
    and the state the score needs;
    score(b, state) returns the penalised score, shaped like b, and the
    class-major (K, n) fitted probabilities; pen is the ridge block of one
    class and what names the model.  Every Newton matrix comes from
    _newton_matrix, and the driver forms only those an iteration needs:

    - at an intercept-only start every row has the same probabilities, and
      every block is a multiple of one Gram F'F;
    - after a full accepted step with max|step| < _CHORD_START, the next
      iteration reuses the last matrix (a chord step; Kelley 1995,
      Iterative Methods for Linear and Nonlinear Equations, ch. 5).  A chord
      step is kept only if it is at most a tenth of the step before it;
      otherwise the matrix is formed afresh at the same iterate;
    - every other iteration makes one chunked pass per block.

    One rule stops the fit: a step, fresh or chord, below irls_tol in every
    coordinate is taken in full before any line search, and the fit has
    converged (the Newton decrement's stopping logic, Boyd & Vandenberghe
    2004, Convex Optimization, sec. 9.5, with the reused matrix for a chord
    step); such a step gains less than the likelihood sum's rounding.
    Larger steps are damped by _halving_search to within that rounding; a
    search that rejects all 30 halvings ends the fit non-converged at its
    last accepted iterate.
    """

    def newton_step(H: np.ndarray, grad: np.ndarray) -> np.ndarray:
        try:
            if grad.ndim == 1:
                return np.linalg.solve(H, grad)
            return np.linalg.solve(H, grad.ravel()).reshape(grad.shape)
        except np.linalg.LinAlgError as exc:
            raise FitError(
                f"{what} Newton system singular; use ridge_lambda > 0 for "
                "separated or collinear data"
            ) from exc

    cur, lse, state = pll(coef)
    H = None
    chord_limit = 0.0           # the largest chord step kept; 0: no chord step
    for it in range(1, cfg.max_irls_iter + 1):
        grad, Pk = score(coef, state)
        chord = False
        if chord_limit:
            step = newton_step(H, grad)
            size = np.abs(step).max()
            chord = size <= chord_limit
        if not chord:
            start = it == 1 and np.all(Pk.min(axis=1) == Pk.max(axis=1))
            H = _newton_matrix(F, Pk[:, 0] if start else Pk, pen)
            step = newton_step(H, grad)
            size = np.abs(step).max()
        if size < cfg.irls_tol:
            return coef + step, True, it
        accepted = _halving_search(pll, coef, step, cur - _ACCEPT_ROUNDING * (abs(cur) + lse))
        if accepted is None:
            break
        scale, coef, cur, lse, state = accepted
        if not np.isfinite(coef).all():
            raise FitError(f"{what} fit diverged to non-finite coefficients")
        chord_limit = size / 10.0 if scale == 1.0 and size < _CHORD_START else 0.0
    return coef, False, it


def fit_logistic(features: np.ndarray, labels: np.ndarray, cfg: LearnerConfig, *,
                 ridge_intercept: bool = False) -> FitResult:
    """Ridge logistic regression by iteratively reweighted least squares.

    Maximizes sum(y log p + (1-y) log(1-p)) - lambda ||b[1:]||^2 with
    Newton steps damped by halving; full steps overshoot badly once a
    stratum is close to separated.  It has converged when a full step is
    below irls_tol in every coordinate (_newton_fit).  Separated data with
    lambda = 0 has no finite optimum and is reported as non-converged.
    ridge_intercept penalises the intercept b[0] as well, which keeps the
    fit finite on a stratum with one response class (fit_propensities
    sets it when an instrument level is thin).

    The likelihood evaluates log(1 + e^eta) as max(eta, 0) +
    log1p(exp(-|eta|)) in one reused n-buffer (the value np.logaddexp
    gives, at a sixth of its cost), and a fresh Newton matrix is the one
    block of _newton_matrix at K = 1, summed over row chunks; besides F and
    the labels the fit holds a few n-vectors and no (n, d) work array.
    """
    F = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    n, d = F.shape
    lam = cfg.ridge_lambda
    first = 0 if ridge_intercept else 1        # the first penalised coefficient
    pen = _penalty_matrix(d, 2.0 * lam, first)
    soft = np.empty(n)                         # log(1 + e^eta) of the candidate

    def pll(b: np.ndarray) -> tuple[float, float, np.ndarray]:
        """Penalized log-likelihood, log-partition sum and F @ b at b."""
        eta = F @ b
        np.abs(eta, out=soft)
        np.negative(soft, out=soft)
        np.exp(soft, out=soft)
        np.log1p(soft, out=soft)
        np.add(soft, np.maximum(eta, 0.0), out=soft)
        lse = float(soft.sum())
        return float(y @ eta) - lse - lam * float(b[first:] @ b[first:]), lse, eta

    def score(b: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p = expit(eta, out=eta)                # eta is read only here
        grad = F.T @ (y - p)
        grad[first:] -= 2.0 * lam * b[first:]
        return grad, p[None, :]

    coef = np.zeros(d)
    # sensible start: intercept at the empirical logit
    ybar = float(np.clip(y.mean(), 1e-12, 1 - 1e-12))
    coef[0] = np.log(ybar / (1.0 - ybar))
    coef, converged, it = _newton_fit(F, coef, pll, score, pen, cfg, "logistic")
    return FitResult(coef=coef, converged=converged, n_iter=it)


@dataclass
class MultinomialModel:
    """Ridge multinomial logit with the last class as reference.

    coef has shape (L-1, d); class L-1 has implicit zero coefficients.
    The ridge penalty shrinks the L-1 fitted classes towards the reference
    class, which is unpenalised, so relabelling the classes can change the
    fitted probabilities (see fit_multinomial).

    predict_proba computes class-major (L, m) probabilities, coef @ F.T
    with no copy of F, and returns their transposed (m, L) view.
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
        P = np.zeros((self.L, F.shape[0]))
        np.matmul(self.coef, F.T, out=P[:-1])
        _softmax_inplace(P)
        return P[:, 0] if single else P.T


def _softmax_inplace(full: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Overwrite the class-major (L, m) logits `full` with their softmax.

    Each column (one row of data) is normalised over axis 0, the class
    axis; a reduction over the leading axis of a C-order array runs along
    contiguous rows, where one over a short trailing axis of an (m, L)
    array is an order of magnitude slower.  Returns the (m,) column maxima
    and the column sums of exp(full - max), so the log-sum-exp is
    max + log(sum) without a second pass over `full`.
    """
    top = full.max(axis=0)
    full -= top
    np.exp(full, out=full)
    total = full.sum(axis=0)
    full /= total
    return top, total


def fit_multinomial(features: np.ndarray, classes: np.ndarray, cfg: LearnerConfig,
                    L: int | None = None) -> MultinomialModel:
    """Ridge multinomial logistic regression by damped Newton iterations.

    classes are integer codes 0..L-1; every class should be present.  The
    penalty lambda ||b_k[1:]||^2 applies per class, intercepts free; the
    Newton driver and its stopping rule are fit_logistic's (_newton_fit).

    The parametrisation is asymmetric: class L-1 is the reference with
    coefficients fixed at zero, so it is the one class the ridge never
    penalises.  Relabelling the classes therefore moves the fit whenever
    lambda > 0; on the dual family with ridge_lambda = 1, relabelling the
    instrument levels moved one repetition's estimate by 0.010.

    Logits and probabilities are class-major (L, n), computed as B @ F.T
    with no copy of F; the gradient is the one product (Y - P[:K]) @ F.
    A fresh Newton matrix is _newton_matrix at K = L - 1: one chunked
    weighted Gram per block (k, m >= k), mirrored into (m, k).
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
    picked = y * n + np.arange(n)              # flat index of (y_i, i) in (L, n)
    Y = np.zeros((K, n))                       # indicators of the fitted classes
    np.put(Y, picked[y < K], 1.0)
    coef = np.zeros((K, d))
    # initialize intercepts at empirical log-odds vs reference class
    counts = np.bincount(y, minlength=L).astype(float)
    counts = np.clip(counts, 0.5, None)
    for k in range(K):
        coef[k, 0] = np.log(counts[k] / counts[L - 1])

    buf = np.empty((L, n))                     # logits, then probabilities

    def pll(B: np.ndarray) -> tuple[float, float, np.ndarray]:
        """Penalized log-likelihood, log-partition sum and probabilities at B.

        The probabilities live in `buf`, so they stay valid until the next
        call; an accepted candidate is always the last one scored, and a
        failed search ends the fit.
        """
        np.matmul(B, F.T, out=buf[:K])
        buf[K] = 0.0
        fit_term = float(buf.take(picked).sum())
        top, total = _softmax_inplace(buf)
        lse = float(top.sum() + np.log(total).sum())
        return fit_term - lse - lam * float((B[:, 1:] ** 2).sum()), lse, buf

    def score(B: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        Pk = P[:K]
        G = (Y - Pk) @ F                       # (K, d)
        G[:, 1:] -= 2.0 * lam * B[:, 1:]
        return G, Pk

    coef, converged, it = _newton_fit(F, coef, pll, score, _penalty_matrix(d, 2.0 * lam),
                                      cfg, "multinomial")
    return MultinomialModel(coef=coef, L=L, converged=converged, n_iter=it)
