"""Data model: observation table, functional specification, validation.

The estimators in this package work on a rectangular table of n records
(X, Z, R, Y) where Y is observed only when the response indicator R is 1.
Absent outcomes are represented by an explicit presence mask, never by a
sentinel value: touching a missing Y raises instead of silently producing
a number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Literal, Sequence

import numpy as np

from .exceptions import ConfigurationError, DataContractError, MissingOutcomeError

FunctionalKind = Literal["mean", "quantile", "custom"]


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

    def with_psi(self, psi: float) -> "FunctionalSpec":
        return FunctionalSpec(kind=self.kind, psi=psi, q=self.q, h=self.h)


def evaluate_h(spec: FunctionalSpec, y: np.ndarray | float) -> np.ndarray | float:
    """Evaluate h(y; spec.psi) elementwise."""
    arr = np.asarray(y, dtype=float)
    if spec.kind == "mean":
        out = arr - spec.psi
    elif spec.kind == "quantile":
        out = (arr >= spec.psi).astype(float) - spec.q
    else:
        out = np.asarray(spec.h(arr, spec.psi), dtype=float)
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
    """Immutable table of n records (X, Z, R, Y-with-presence-mask).

    X: (n, p) float covariates, stored column-major (Fortran order) and
       read-only: every consumer reads X a covariate at a time (the basis
       standardises and powers each column), and a column of a column-major
       array is one contiguous run.
    Z: (n,) integer instrument codes in {0, ..., L-1}.
    R: (n,) response indicator in {0, 1}; Y observed only where R = 1.
    Outcome storage is a compact vector of the values that were actually
    supplied plus a presence mask; rows without a supplied value have no
    stored number at all.
    """

    X: np.ndarray
    Z: np.ndarray
    R: np.ndarray
    L: int
    y_present: np.ndarray          # (n,) bool: an outcome value was supplied
    _y_values: np.ndarray = field(repr=False)  # (y_present.sum(),) floats, row order

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

        X may come in any memory layout; the table stores it column-major.
        Y may be a full-length sequence with None (or NaN) marking absent
        outcomes, or None for a table with no outcomes supplied at all.
        Structural problems (shape mismatches, non-integer codes) raise
        DataContractError; contract violations that validate_table reports
        (e.g. Y present where R = 0) are representable and not raised here.
        """
        X = np.asarray(X, dtype=float)
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
            present = np.zeros(n, dtype=bool)
            vals = np.empty(0, dtype=float)
        elif isinstance(Y, np.ndarray) and Y.dtype != object:
            Yf = np.asarray(Y, dtype=float)
            if Yf.shape != (n,):
                raise DataContractError("Y must have one entry per row")
            present = ~np.isnan(Yf)
            vals = Yf[present].astype(float)
        else:
            items = list(Y)
            if len(items) != n:
                raise DataContractError("Y must have one entry per row")
            present = np.array(
                [v is not None and not (isinstance(v, float) and np.isnan(v)) for v in items],
                dtype=bool,
            )
            vals = np.array([float(items[i]) for i in np.flatnonzero(present)], dtype=float)

        if L is None:
            L = int(Z.max()) + 1 if n else 0
        return cls(
            X=_readonly_columns(X),
            Z=_readonly(Z),
            R=_readonly(R),
            L=int(L),
            y_present=_readonly(present),
            _y_values=_readonly(vals),
        )

    # -- size properties -------------------------------------------------

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def n1(self) -> int:
        return int(self.R.sum())

    @property
    def n0(self) -> int:
        return self.n - self.n1

    # -- outcome access --------------------------------------------------

    @cached_property
    def _y_positions(self) -> np.ndarray:
        """Per row, the position of its value in _y_values if it has one
        (the count of present rows up to it, minus one); computed once per
        table, and read-only."""
        pos = np.cumsum(self.y_present) - 1
        pos.flags.writeable = False
        return pos

    @property
    def y_observed(self) -> np.ndarray:
        """Outcome values for rows with R = 1 (row order).

        Raises MissingOutcomeError if any R = 1 row lacks a value.
        """
        r1 = self.R == 1
        if not np.all(self.y_present[r1]):
            bad = np.flatnonzero(r1 & ~self.y_present)[:5]
            raise MissingOutcomeError(
                f"rows {bad.tolist()} have R=1 but no outcome value"
            )
        return self._y_values[self._y_positions[r1]]

    def y_at(self, i: int) -> float:
        """Outcome for row i; raises MissingOutcomeError when absent."""
        if not self.y_present[i]:
            raise MissingOutcomeError(f"row {i} has no outcome value")
        pos = int(np.count_nonzero(self.y_present[: i + 1])) - 1
        return float(self._y_values[pos])

    def y_dense(self) -> np.ndarray:
        """Length-n outcome vector with NaN marking absent values."""
        out = np.full(self.n, np.nan)
        out[self.y_present] = self._y_values
        return out

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
        present = self.y_present[idx]
        taken = idx[present]
        vals = self._y_values[self._y_positions[taken]] if taken.size else np.empty(0)
        return ObservationTable(
            X=_readonly_columns(np.take(self.X.T, idx, axis=1).T),
            Z=_readonly(self.Z[idx]),
            R=_readonly(self.R[idx]),
            L=self.L,
            y_present=_readonly(present),
            _y_values=_readonly(np.asarray(vals, dtype=float)),
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
    extra = np.flatnonzero((table.R == 0) & table.y_present)
    if extra.size:
        out.append(Violation("outcome_under_missing", "Y supplied where R=0", tuple(extra[:10].tolist())))
    gone = np.flatnonzero((table.R == 1) & ~table.y_present)
    if gone.size:
        out.append(Violation("outcome_absent", "Y absent where R=1", tuple(gone[:10].tolist())))
    if table.y_present.any():
        vals = table._y_values
        if not np.all(np.isfinite(vals)):
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
