"""Data model: observation table, functional specification, estimation
settings, validation.

The estimators in this package work on a rectangular table of n records
(X, Z, R, Y) where Y is observed only when the response indicator R is 1.
The outcome is one float column with NaN marking an absent value, as at
every boundary of the package (from_arrays, the CSV reader and writer, the
simulators).  Touching a missing outcome through the table raises
instead of producing a number: y_observed, y_at and rh raise
MissingOutcomeError on an R = 1 row without a value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from .exceptions import ConfigurationError, DataContractError, MissingOutcomeError

FunctionalKind = Literal["mean", "quantile", "custom"]
MarginalizationMode = Literal["marginalize", "direct"]
TrimPolicy = Literal["floor", "drop"]


@dataclass(frozen=True)
class EstimationConfig:
    """The estimation settings, the config's 'estimation' section.

    Every estimator (crossfit_beta, solve_functional, run_monte_carlo)
    takes one of these, so library calls share the config's defaults and
    checks: an invalid setting raises ConfigurationError when the value is
    built, before any fit.  mode is "marginalize" (mu(x) and pi(x) are the
    rho-weighted sums of the per-level models) or "direct" (both are fitted
    on every row); trim is "floor" (floored contrasts are kept) or "drop"
    (a row with a floored contrast is left out); winsorize is an IQR
    multiple for clipping the influence values, or None for off.
    """

    n_folds: int = 5
    repetitions: int = 11
    seed: int = 1
    ci_level: float = 0.95
    mode: MarginalizationMode = "marginalize"
    trim: TrimPolicy = "floor"
    winsorize: float | None = None

    def __post_init__(self) -> None:
        for name, allowed in (("mode", ("marginalize", "direct")),
                              ("trim", ("floor", "drop"))):
            if getattr(self, name) not in allowed:
                raise ConfigurationError(
                    f"{name} must be {'|'.join(allowed)}, got {getattr(self, name)!r}")
        if self.n_folds < 2:
            raise ConfigurationError("folds must be at least 2")
        if self.repetitions < 1:
            raise ConfigurationError("repetitions must be at least 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {self.seed}")
        if not 0.0 < self.ci_level < 1.0:
            raise ConfigurationError("ci_level must lie in (0, 1)")
        if self.winsorize is not None and not 0 < self.winsorize < math.inf:
            raise ConfigurationError(
                f"winsorize must be finite and positive (an IQR multiple) or off, "
                f"got {self.winsorize}")


@dataclass(frozen=True)
class FunctionalSpec:
    """Defines the estimating function h(y; psi) for the target functional.

    kind "mean":      h(y; psi) = y - psi          (root psi = mean)
    kind "quantile":  h(y; psi) = 1{y >= psi} - q  (root psi = upper-q quantile)
    kind "custom":    h supplied by the caller as h(y, psi)
    """

    kind: FunctionalKind = "mean"
    psi: float = 0.0
    q: float | None = None
    h: Callable[[np.ndarray, float], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("mean", "quantile", "custom"):
            raise ConfigurationError(f"unknown functional kind {self.kind!r}")
        if not math.isfinite(self.psi):
            raise ConfigurationError(f"psi must be finite, got {self.psi}")
        if self.kind == "quantile":
            if self.q is None or not (0.0 < self.q < 1.0):
                raise ConfigurationError("quantile functional requires 0 < q < 1")
        if self.kind == "custom" and self.h is None:
            raise ConfigurationError("custom functional requires an h callable")

    @staticmethod
    def mean(psi: float = 0.0) -> "FunctionalSpec":
        return FunctionalSpec(kind="mean", psi=psi)

    @staticmethod
    def quantile(q: float, psi: float = 0.0) -> "FunctionalSpec":
        return FunctionalSpec(kind="quantile", psi=psi, q=q)

    @staticmethod
    def custom(h: Callable[[np.ndarray, float], np.ndarray], psi: float = 0.0) -> "FunctionalSpec":
        return FunctionalSpec(kind="custom", psi=psi, h=h)


def evaluate_h(spec: FunctionalSpec, y: np.ndarray | float,
               out: np.ndarray | None = None) -> np.ndarray | float:
    """Evaluate h(y; spec.psi) elementwise, into out if given (a float
    array of y's shape, which may be y itself)."""
    arr = np.asarray(y, dtype=float)
    if spec.kind == "mean":
        out = np.subtract(arr, spec.psi, out=out)
    elif spec.kind == "quantile":
        out = np.greater_equal(arr, spec.psi,       # 1.0 or 0.0
                               out=np.empty(arr.shape) if out is None else out)
        out -= spec.q
    elif out is None:
        out = np.asarray(spec.h(arr, spec.psi), dtype=float)
    else:
        out[...] = spec.h(arr, spec.psi)
    if np.isscalar(y) or np.ndim(y) == 0:
        return float(out)
    return out


def _linear_quantiles(values: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """np.quantile(values, probs) with numpy's default "linear" method, bit
    for bit, from one np.partition.

    The flattened values' order statistics at floor((n - 1) q) and the next
    one are interpolated with numpy's two-sided lerp, at numpy's weights (at
    or past the last order statistic numpy takes index -1 twice, with
    weight (n - 1) q + 1, which decides the sign of a zero); any NaN makes
    every quantile NaN, as in numpy.  np.quantile and np.percentile run a
    masked-array check that on numpy 2.4 imports numpy.ma (about 17 ms of
    CPU); np.partition does not.
    """
    v = np.asarray(values, dtype=float).ravel()
    probs = np.asarray(probs, dtype=float)
    n = v.size
    virtual = (n - 1) * probs
    below = np.floor(virtual)
    top = virtual >= n - 1
    below[top] = -1.0
    lo = below.astype(np.intp)
    hi = lo + 1
    hi[top] = -1
    # numpy's partition points, sorted and unique: equal values (0.0 and
    # -0.0) land where numpy's partition puts them
    kth = np.sort(np.concatenate(([0, -1], lo, hi)))
    s = np.partition(v, kth[np.concatenate(([True], kth[1:] != kth[:-1]))])
    a, b = s[lo], s[hi]
    gamma = virtual - below
    diff = b - a
    out = a + diff * gamma
    upper = gamma >= 0.5
    out[upper] = (b - diff * (1.0 - gamma))[upper]
    if np.isnan(s[-1]):                 # a NaN sorts last
        out[:] = np.nan
    return out


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _readonly_columns(X: np.ndarray) -> np.ndarray:
    """X column-major (Fortran order) and read-only; copied only if X is
    not column-major already."""
    X = np.asfortranarray(X)
    X.flags.writeable = False
    return X


@dataclass(frozen=True)
class ObservationTable:
    """Immutable table of n records (X, Z, R, Y).

    X: (n, p) float covariates, stored column-major (Fortran order) and
       read-only: every consumer reads X a covariate at a time (the basis
       standardises and powers each column), and a column of a column-major
       array is one contiguous run.
    Z: (n,) integer instrument codes in {0, ..., L-1}.
    R: (n,) response indicator in {0, 1}; Y observed only where R = 1.
    Y: (n,) float outcomes, read-only, NaN exactly where no value was
       supplied.
    """

    X: np.ndarray
    Z: np.ndarray
    R: np.ndarray
    L: int
    Y: np.ndarray

    @classmethod
    def from_arrays(
        cls,
        X: np.ndarray,
        Z: np.ndarray,
        R: np.ndarray,
        Y: Sequence[float | None] | np.ndarray | None = None,
        *,
        L: int | None = None,
    ) -> "ObservationTable":
        """Build a table from full-length arrays.

        X and Y may come in any memory layout; the table stores copies, so
        the caller's arrays stay writeable and their later writes do not
        reach the table.
        Y may be a full-length sequence with None (or NaN) marking absent
        outcomes, or None for a table with no outcomes supplied at all.
        Structural problems (shape mismatches, non-integer codes) raise
        DataContractError; contract violations that validate_table reports
        (e.g. Y present where R = 0) are representable and not raised here.
        """
        X = np.array(X, dtype=float, order="F")     # a copy: the caller's X is untouched
        if X.ndim == 1:
            X = X[:, None]
        if X.ndim != 2:
            raise DataContractError("X must be a 2-D array of covariates")
        n = X.shape[0]
        Z = np.asarray(Z)
        R = np.asarray(R)
        if Z.shape != (n,) or R.shape != (n,):
            raise DataContractError("X, Z, R must share the same length")
        if not np.issubdtype(Z.dtype, np.integer):
            zf = np.asarray(Z, dtype=float)
            if not np.all(zf == np.round(zf)):
                raise DataContractError("Z codes must be integers")
            Z = zf.astype(np.int64)
        else:
            Z = Z.astype(np.int64)
        rf = np.asarray(R, dtype=float)
        if not np.all((rf == 0) | (rf == 1)):
            raise DataContractError("R must be binary 0/1")
        R = rf.astype(np.int64)

        if Y is None:
            Y = np.full(n, np.nan)
        elif isinstance(Y, np.ndarray) and Y.dtype != object:
            Y = np.array(Y, dtype=float)            # a copy, as for X
        else:
            Y = np.array([np.nan if v is None else float(v) for v in Y], dtype=float)
        if Y.shape != (n,):
            raise DataContractError("Y must have one entry per row")

        if L is None:
            L = int(Z.max()) + 1 if n else 0
        return cls(X=_readonly_columns(X), Z=_readonly(Z), R=_readonly(R), L=int(L),
                   Y=_readonly(Y))

    # -- size properties -------------------------------------------------

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def n1(self) -> int:
        return int(self.R.sum())

    @property
    def n0(self) -> int:
        return self.n - self.n1

    # -- outcome access --------------------------------------------------

    @property
    def y_present(self) -> np.ndarray:
        """(n,) bool: an outcome value was supplied."""
        return ~np.isnan(self.Y)

    @property
    def y_observed(self) -> np.ndarray:
        """Outcome values for rows with R = 1 (row order).

        Raises MissingOutcomeError if any R = 1 row lacks a value.
        """
        r1 = self.R == 1
        y = self.Y[r1]
        absent = np.isnan(y)
        if absent.any():
            bad = np.flatnonzero(r1)[absent][:5]
            raise MissingOutcomeError(
                f"rows {bad.tolist()} have R=1 but no outcome value"
            )
        return y

    def y_at(self, i: int) -> float:
        """Outcome for row i; raises MissingOutcomeError when absent."""
        y = float(self.Y[i])
        if np.isnan(y):
            raise MissingOutcomeError(f"row {i} has no outcome value")
        return y

    def rh(self, spec: FunctionalSpec) -> np.ndarray:
        """R * h(Y; psi) as a full-length vector; 0 where R = 0.

        Missing outcomes are never touched: the R = 0 entries are literal
        zeros, and an R = 1 row without a value raises.
        """
        out = np.zeros(self.n, dtype=float)
        r1 = self.R == 1
        if r1.any():
            out[r1] = evaluate_h(spec, self.y_observed)
        return out

    def subset(self, idx: np.ndarray) -> "ObservationTable":
        """Row subset preserving the declared number of instrument levels.

        X stays column-major: the rows are gathered along axis 1 of the
        transposed (p, n) view, where fancy indexing X[idx] would return a
        row-major copy.
        """
        idx = np.asarray(idx)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        return ObservationTable(
            X=_readonly_columns(np.take(self.X.T, idx, axis=1).T),
            Z=_readonly(self.Z[idx]),
            R=_readonly(self.R[idx]),
            L=self.L,
            Y=_readonly(self.Y[idx]),
        )


@dataclass(frozen=True)
class Violation:
    """One contract violation found by validate_table."""

    code: str
    message: str
    rows: tuple[int, ...] = ()


def validate_table(table: ObservationTable) -> list[Violation]:
    """Check the table contract; returns violations, raises nothing.

    Idempotent and side-effect free: the table is never modified.
    """
    out: list[Violation] = []
    if table.n == 0:
        out.append(Violation("empty", "table has no rows"))
        return out
    if not np.all(np.isfinite(table.X)):
        rows = np.flatnonzero(~np.all(np.isfinite(table.X), axis=1))
        out.append(Violation("covariate_nonfinite", "X contains non-finite values", tuple(rows[:10].tolist())))
    if table.Z.min(initial=0) < 0 or table.Z.max(initial=0) >= table.L:
        rows = np.flatnonzero((table.Z < 0) | (table.Z >= table.L))
        out.append(Violation("code_range", f"Z codes outside 0..{table.L - 1}", tuple(rows[:10].tolist())))
    else:
        counts = np.bincount(table.Z, minlength=table.L)
        absent = np.flatnonzero(counts == 0)
        if absent.size:
            out.append(Violation("level_absent", f"instrument levels {absent.tolist()} have no rows"))
    present = table.y_present
    extra = np.flatnonzero((table.R == 0) & present)
    if extra.size:
        out.append(Violation("outcome_under_missing", "Y supplied where R=0", tuple(extra[:10].tolist())))
    gone = np.flatnonzero((table.R == 1) & ~present)
    if gone.size:
        out.append(Violation("outcome_absent", "Y absent where R=1", tuple(gone[:10].tolist())))
    if np.isinf(table.Y).any():         # a supplied value is never NaN
        out.append(Violation("outcome_nonfinite", "supplied Y values contain non-finite entries"))
    return out


def combine_instrument_levels(
    columns: Sequence[np.ndarray],
) -> tuple[np.ndarray, dict[int, tuple[int, ...]]]:
    """Encode several discrete instrument columns as one categorical code.

    Levels are the observed combinations, ordered lexicographically by the
    per-column values; combinations never observed get no code.  Returns the
    code vector and the map code -> tuple of per-column values.
    """
    cols = [np.asarray(c).astype(np.int64) for c in columns]
    if not cols:
        raise DataContractError("at least one instrument column required")
    n = cols[0].shape[0]
    for c in cols:
        if c.shape != (n,):
            raise DataContractError("instrument columns must share the same length")
    lows = [int(c.min()) if n else 0 for c in cols]
    dims = tuple(int(c.max()) - lo + 1 if n else 1 for c, lo in zip(cols, lows))
    if math.prod(dims) <= np.iinfo(np.intp).max:
        # one int key per row: the min-shifted columns raveled in C order,
        # which orders the keys as the rows sort lexicographically
        key = np.ravel_multi_index([c - lo for c, lo in zip(cols, lows)], dims)
        keys, inverse = np.unique(key, return_inverse=True)
        combos = np.stack(np.unravel_index(keys, dims), axis=1) + np.asarray(lows)
    else:  # too wide a value range for one key: sort the rows themselves
        combos, inverse = np.unique(np.stack(cols, axis=1), axis=0, return_inverse=True)
    codes = inverse.reshape(-1).astype(np.int64)
    level_map = {i: tuple(int(v) for v in combos[i]) for i in range(combos.shape[0])}
    return codes, level_map
