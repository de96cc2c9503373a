"""CSV ingestion, configuration documents, and report serialization.

The configuration file is YAML with a versioned format tag so stale
documents fail loudly instead of being silently reinterpreted.  Reports
are JSON with sorted keys and no timestamps: two runs with the same seeds
must produce byte-identical files, so execution-topology knobs (thread
count, output path) never enter the report body.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

import numpy as np
import yaml

from .data import FunctionalSpec, ObservationTable, combine_instrument_levels
from .exceptions import ConfigurationError, DataContractError
from .learners import LearnerConfig

CONFIG_FORMAT = "mivest-config/1"
REPORT_FORMAT = "mivest-report/1"

# A column with more distinct values than this is treated as continuous and
# quartile-binned; at or below it the sorted values become the level codes
# directly.  10 keeps small integer codes (survey scales, prior encodings)
# intact while catching genuinely continuous columns.
DEFAULT_MAX_LEVELS = 10


# --------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class SimulationSection:
    """Synthetic-data settings used by the simulate/oracle/robustness commands."""

    family: str
    n: int = 1000
    replications: int = 100
    clamp_policy: str = "clamp_to_one_minus_eps"
    parameters: Mapping[str, float] = field(default_factory=dict)
    oracle_draws: int = 10_000_000

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ConfigurationError(
                f"simulation.replications must be at least 1, got {self.replications}")
        if self.oracle_draws < 1:
            raise ConfigurationError(
                f"simulation.oracle_draws must be at least 1, got {self.oracle_draws}")

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "replications": self.replications,
            "clamp_policy": self.clamp_policy,
            "parameters": dict(self.parameters),
            "oracle_draws": self.oracle_draws,
        }


@dataclass(frozen=True)
class AnalysisConfig:
    """Resolved configuration for one run of any CLI command.

    The column roles come from the 'data' section, which only the commands
    that read a CSV need; without it they are None and empty.  With it,
    column roles must be disjoint; exactly one outcome and one response
    column; at least one instrument.  Covariates are required: the nuisance
    models condition on X, and an intercept-only analysis should be stated
    as an explicit constant column, not an empty list.
    """

    outcome: str | None = None
    response: str | None = None
    instruments: tuple[str, ...] = ()
    covariates: tuple[str, ...] = ()
    instrument_bins: int = 4
    instrument_max_levels: int = DEFAULT_MAX_LEVELS
    instrument_mode: str = "product"
    strict_outcome: bool = True
    functional: FunctionalSpec = field(default_factory=FunctionalSpec.mean)
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    estimator: str = "auto"
    mode: str = "marginalize"
    n_folds: int = 5
    repetitions: int = 11
    seed: int = 1
    ci_level: float = 0.95
    trim: str = "floor"
    winsorize: float | None = None
    simulation: SimulationSection | None = None

    @property
    def has_data(self) -> bool:
        """Whether any column role is set, as a 'data' section sets them."""
        roles = (self.outcome, self.response, self.instruments, self.covariates)
        return roles != (None, None, (), ())

    def validate(self) -> None:
        if self.has_data:
            self._validate_roles()
        if self.instrument_bins < 2:
            raise ConfigurationError("instrument_bins must be at least 2")
        if self.instrument_mode not in ("product", "separate"):
            raise ConfigurationError(
                f"instrument_mode must be 'product' or 'separate', got {self.instrument_mode!r}"
            )
        if self.functional.kind == "custom":
            raise ConfigurationError("config files can express mean or quantile functionals only")
        if self.estimator not in ("auto", "binary", "general"):
            raise ConfigurationError(f"estimator must be auto|binary|general, got {self.estimator!r}")
        if self.mode not in ("marginalize", "direct"):
            raise ConfigurationError(f"mode must be marginalize|direct, got {self.mode!r}")
        if self.n_folds < 2:
            raise ConfigurationError("folds must be at least 2")
        if self.repetitions < 1:
            raise ConfigurationError("repetitions must be at least 1")
        if not 0.0 < self.ci_level < 1.0:
            raise ConfigurationError("ci_level must lie in (0, 1)")
        if self.trim not in ("floor", "drop"):
            raise ConfigurationError(f"trim must be floor|drop, got {self.trim!r}")
        if self.winsorize is not None and not 0 < self.winsorize < np.inf:
            raise ConfigurationError(
                f"winsorize must be finite and positive (an IQR multiple) or off, "
                f"got {self.winsorize}")

    def _validate_roles(self) -> None:
        roles = [self.outcome, self.response, *self.instruments, *self.covariates]
        for name in roles:
            if not isinstance(name, str) or not name:
                raise ConfigurationError("column names must be non-empty strings")
        dupes = sorted({r for r in roles if roles.count(r) > 1})
        if dupes:
            raise ConfigurationError(f"column roles must be disjoint; repeated: {dupes}")
        if not self.instruments:
            raise ConfigurationError("at least one instrument column is required")
        if not self.covariates:
            raise ConfigurationError("at least one covariate column is required")

    def as_dict(self) -> dict:
        f: dict[str, Any] = {"kind": self.functional.kind, "psi": self.functional.psi}
        if self.functional.kind == "quantile":
            f["q"] = self.functional.q
        out: dict[str, Any] = {
            "format": CONFIG_FORMAT,
            "functional": f,
            "estimation": {
                "estimator": self.estimator,
                "mode": self.mode,
                "folds": self.n_folds,
                "repetitions": self.repetitions,
                "seed": self.seed,
                "ci_level": self.ci_level,
                "trim": self.trim,
                "winsorize": self.winsorize,
            },
            "learner": {
                "basis_df": self.learner.basis_df,
                "ridge_lambda": self.learner.ridge_lambda,
                "max_irls_iter": self.learner.max_irls_iter,
                "irls_tol": self.learner.irls_tol,
            },
        }
        if self.has_data:
            out["data"] = {
                "outcome": self.outcome,
                "response": self.response,
                "instruments": list(self.instruments),
                "covariates": list(self.covariates),
                "instrument_bins": self.instrument_bins,
                "instrument_max_levels": self.instrument_max_levels,
                "instrument_mode": self.instrument_mode,
                "strict_outcome": self.strict_outcome,
            }
        if self.simulation is not None:
            out["simulation"] = self.simulation.as_dict()
        return out


def _known_keys(section: str, given: Mapping, allowed: Sequence[str]) -> None:
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ConfigurationError(f"unknown keys in {section!r} section: {unknown}")


def _get(section: Mapping, key: str, default: Any, types: tuple, label: str) -> Any:
    val = section.get(key, default)
    if val is default:
        return default
    if not isinstance(val, types) or isinstance(val, bool) and bool not in types:
        raise ConfigurationError(f"{label}.{key} has the wrong type: {val!r}")
    return val


def _parse_winsorize(raw: Any) -> float | None:
    # YAML 1.1 reads the documented literal "off" as boolean False
    if raw is None or raw is False or raw == "off":
        return None
    if isinstance(raw, bool):
        raise ConfigurationError("winsorize must be a positive number or off")
    if isinstance(raw, (int, float)):
        return float(raw)
    raise ConfigurationError(f"winsorize must be a positive number or off, got {raw!r}")


def _str_list(section: Mapping, key: str, label: str, required: bool) -> tuple[str, ...]:
    raw = section.get(key)
    if raw is None:
        if required:
            raise ConfigurationError(f"{label}.{key} is required")
        return ()
    if isinstance(raw, str):
        raise ConfigurationError(f"{label}.{key} must be a list of column names")
    if not isinstance(raw, (list, tuple)) or not all(isinstance(c, str) for c in raw):
        raise ConfigurationError(f"{label}.{key} must be a list of column names")
    return tuple(raw)


def config_from_dict(doc: Mapping) -> AnalysisConfig:
    """Build and validate an AnalysisConfig from a parsed YAML document."""
    if not isinstance(doc, Mapping):
        raise ConfigurationError("config document must be a mapping")
    tag = doc.get("format")
    if tag != CONFIG_FORMAT:
        raise ConfigurationError(
            f"missing or unsupported format tag {tag!r}; expected {CONFIG_FORMAT!r}"
        )
    _known_keys("top-level", doc, ["format", "data", "functional", "estimation",
                                   "learner", "simulation"])

    data = doc.get("data")
    columns: dict[str, Any] = {}
    if data is not None:
        if not isinstance(data, Mapping):
            raise ConfigurationError("'data' section must be a mapping")
        _known_keys("data", data, ["outcome", "response", "instruments", "covariates",
                                   "instrument_bins", "instrument_max_levels",
                                   "instrument_mode", "strict_outcome"])
        if not isinstance(data.get("outcome"), str):
            raise ConfigurationError("data.outcome must name exactly one column")
        if not isinstance(data.get("response"), str):
            raise ConfigurationError("data.response must name exactly one column")
        columns = dict(
            outcome=data["outcome"],
            response=data["response"],
            instruments=_str_list(data, "instruments", "data", required=True),
            covariates=_str_list(data, "covariates", "data", required=True),
            instrument_bins=int(_get(data, "instrument_bins", 4, (int,), "data")),
            instrument_max_levels=int(_get(data, "instrument_max_levels",
                                           DEFAULT_MAX_LEVELS, (int,), "data")),
            instrument_mode=_get(data, "instrument_mode", "product", (str,), "data"),
            strict_outcome=bool(_get(data, "strict_outcome", True, (bool,), "data")),
        )

    fsec = doc.get("functional") or {}
    if not isinstance(fsec, Mapping):
        raise ConfigurationError("'functional' section must be a mapping")
    _known_keys("functional", fsec, ["kind", "psi", "q"])
    kind = _get(fsec, "kind", "mean", (str,), "functional")
    psi = float(_get(fsec, "psi", 0.0, (int, float), "functional"))
    if kind == "mean":
        functional = FunctionalSpec.mean(psi)
    elif kind == "quantile":
        qraw = fsec.get("q")
        if not isinstance(qraw, (int, float)) or isinstance(qraw, bool):
            raise ConfigurationError("functional.q is required for the quantile kind")
        functional = FunctionalSpec.quantile(float(qraw), psi=psi)
    else:
        raise ConfigurationError(f"functional.kind must be mean|quantile, got {kind!r}")

    esec = doc.get("estimation") or {}
    if not isinstance(esec, Mapping):
        raise ConfigurationError("'estimation' section must be a mapping")
    _known_keys("estimation", esec, ["estimator", "mode", "folds", "repetitions",
                                     "seed", "ci_level", "trim", "winsorize"])

    lsec = doc.get("learner") or {}
    if not isinstance(lsec, Mapping):
        raise ConfigurationError("'learner' section must be a mapping")
    _known_keys("learner", lsec, ["basis_df", "ridge_lambda", "max_irls_iter", "irls_tol"])
    learner = LearnerConfig(
        basis_df=int(_get(lsec, "basis_df", 4, (int,), "learner")),
        ridge_lambda=float(_get(lsec, "ridge_lambda", 1e-3, (int, float), "learner")),
        max_irls_iter=int(_get(lsec, "max_irls_iter", 100, (int,), "learner")),
        irls_tol=float(_get(lsec, "irls_tol", 1e-8, (int, float), "learner")),
    )

    simulation: SimulationSection | None = None
    ssec = doc.get("simulation")
    if ssec is not None:
        if not isinstance(ssec, Mapping):
            raise ConfigurationError("'simulation' section must be a mapping")
        _known_keys("simulation", ssec, ["family", "n", "replications", "clamp_policy",
                                         "parameters", "oracle_draws"])
        family = ssec.get("family")
        if not isinstance(family, str):
            raise ConfigurationError("simulation.family is required")
        params = ssec.get("parameters") or {}
        if not isinstance(params, Mapping):
            raise ConfigurationError("simulation.parameters must be a mapping")
        simulation = SimulationSection(
            family=family,
            n=int(_get(ssec, "n", 1000, (int,), "simulation")),
            replications=int(_get(ssec, "replications", 100, (int,), "simulation")),
            clamp_policy=_get(ssec, "clamp_policy", "clamp_to_one_minus_eps",
                              (str,), "simulation"),
            parameters={str(k): float(v) for k, v in params.items()},
            oracle_draws=int(_get(ssec, "oracle_draws", 10_000_000, (int,), "simulation")),
        )

    cfg = AnalysisConfig(
        **columns,
        functional=functional,
        learner=learner,
        estimator=_get(esec, "estimator", "auto", (str,), "estimation"),
        mode=_get(esec, "mode", "marginalize", (str,), "estimation"),
        n_folds=int(_get(esec, "folds", 5, (int,), "estimation")),
        repetitions=int(_get(esec, "repetitions", 11, (int,), "estimation")),
        seed=int(_get(esec, "seed", 1, (int,), "estimation")),
        ci_level=float(_get(esec, "ci_level", 0.95, (int, float), "estimation")),
        trim=_get(esec, "trim", "floor", (str,), "estimation"),
        winsorize=_parse_winsorize(esec.get("winsorize")),
        simulation=simulation,
    )
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> AnalysisConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigurationError(f"cannot read config file {path}: {e}") from e
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ConfigurationError(f"config file {path} is not valid YAML: {e}") from e
    return config_from_dict(doc)


# --------------------------------------------------------------------------
# CSV ingestion


@dataclass
class InstrumentEncoding:
    """How one raw instrument column was turned into level codes."""

    column: str
    kind: str                       # "categorical" | "quartile"
    levels: int
    values: list[float] | None = None   # categorical: sorted observed values
    edges: list[float] | None = None    # quartile: deduplicated bin edges

    def as_dict(self) -> dict:
        return {
            "column": self.column,
            "kind": self.kind,
            "levels": self.levels,
            "values": self.values,
            "edges": self.edges,
        }


@dataclass
class IngestInfo:
    """Everything about the file -> table encoding needed to reproduce it."""

    n: int
    n_complete: int
    n_incomplete: int
    L: int
    encodings: list[InstrumentEncoding]
    level_map: dict[int, tuple[int, ...]]
    warnings: list[str] = field(default_factory=list)
    masked_rows: tuple[int, ...] = ()

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "n_complete": self.n_complete,
            "n_incomplete": self.n_incomplete,
            "instrument_levels": self.L,
            "encodings": [e.as_dict() for e in self.encodings],
            "level_map": {str(k): list(v) for k, v in self.level_map.items()},
            "warnings": list(self.warnings),
            "masked_rows": list(self.masked_rows),
        }


def _fmt_rows(rows: Sequence[int], limit: int = 10) -> str:
    shown = ", ".join(str(r) for r in rows[:limit])
    extra = len(rows) - min(len(rows), limit)
    return shown + (f" and {extra} more" if extra > 0 else "")


def _parse_cells(cells: list[str], column: str, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Cell-by-cell parse of one column: strips each cell, counts a blank
    or whitespace-only cell as missing, and names every non-numeric row."""
    n = len(cells)
    vals = np.full(n, np.nan)
    missing = np.zeros(n, dtype=bool)
    bad: list[int] = []
    for i, cell in enumerate(cells):
        s = cell.strip()
        if not s:
            missing[i] = True
            continue
        try:
            vals[i] = float(s)
        except ValueError:
            bad.append(i + 2)
    if bad:
        raise DataContractError(
            f"{what} column {column!r} has non-numeric cells at rows {_fmt_rows(bad)}"
        )
    return vals, missing


def _parse_numeric_column(
    cells: list[str], column: str, *, allow_empty: bool, what: str
) -> tuple[np.ndarray, np.ndarray]:
    """Parse one column to float; returns (values, missing mask).

    The whole column goes through float() in one C-level pass, its empty
    cells masked out first when it has any.  float() accepts surrounding
    whitespace, so a cell parses to the value of its stripped text.  Only
    when some cell fails (junk, or a whitespace-only cell, which counts as
    missing) is the column walked cell by cell (_parse_cells), so that the
    error names the exact rows.

    Row numbers in error messages are file line numbers (header is line 1).
    """
    n = len(cells)
    try:
        if "" in cells:
            missing = np.fromiter(map(operator.not_, cells), dtype=bool, count=n)
            vals = np.full(n, np.nan)
            vals[~missing] = np.fromiter(map(float, filter(None, cells)), dtype=float,
                                         count=n - int(np.count_nonzero(missing)))
        else:
            missing = np.zeros(n, dtype=bool)
            vals = np.fromiter(map(float, cells), dtype=float, count=n)
    except ValueError:
        vals, missing = _parse_cells(cells, column, what)
    if not allow_empty and missing.any():
        rows = (np.flatnonzero(missing) + 2).tolist()
        raise DataContractError(
            f"{what} column {column!r} has missing cells at rows {_fmt_rows(rows)}"
        )
    return vals, missing


def _require_finite(vals: np.ndarray, column: str, what: str,
                    rows: np.ndarray | None = None) -> None:
    """Reject the nan and inf cells float() parses, among `rows` if given."""
    bad = ~np.isfinite(vals)
    if rows is not None:
        bad &= rows
    if bad.any():
        lines = (np.flatnonzero(bad) + 2).tolist()
        raise DataContractError(
            f"{what} column {column!r} has non-finite values at rows {_fmt_rows(lines)}"
        )


def encode_instrument(
    values: np.ndarray, column: str, *, bins: int, max_levels: int,
    warnings: list[str],
) -> tuple[np.ndarray, InstrumentEncoding]:
    """Map one numeric instrument column to dense level codes 0..k-1.

    Columns with at most max(bins, max_levels) distinct values pass through
    as categories ordered by value; anything richer is binned at empirical
    quantiles into right-closed intervals.  Quantile ties collapse bins
    (the level count shrinks) rather than creating empty levels.
    """
    uniq = np.unique(values)
    if uniq.size == 1:
        raise DataContractError(
            f"instrument column {column!r} is constant; instrument variation is required"
        )
    if uniq.size <= max(bins, max_levels):
        codes = np.searchsorted(uniq, values)
        enc = InstrumentEncoding(column=column, kind="categorical",
                                 levels=int(uniq.size),
                                 values=[float(v) for v in uniq])
        return codes.astype(np.int64), enc

    probs = np.arange(1, bins) / bins
    edges = np.unique(np.quantile(values, probs))
    if edges.size < bins - 1:
        warnings.append(
            f"column {column!r}: quantile ties collapsed the bin edges to {edges.size}"
        )
    # right-closed bins: v <= e_1 -> 0, e_1 < v <= e_2 -> 1, ..., v > e_last -> k
    raw = np.searchsorted(edges, values, side="left")
    observed, codes = np.unique(raw, return_inverse=True)
    if observed.size == 1:
        raise DataContractError(
            f"instrument column {column!r} is constant after quantile binning"
        )
    if observed.size < bins:
        warnings.append(
            f"column {column!r}: {observed.size} populated bins out of {bins}"
        )
    enc = InstrumentEncoding(column=column, kind="quartile",
                             levels=int(observed.size),
                             edges=[float(e) for e in edges])
    return codes.astype(np.int64), enc


# A role column as a reader hands it over: csv.reader's cells, parsed when
# read (_parse_numeric_column), or the (values, missing) pair the one-pass
# reader parsed already.
_Column = list[str] | tuple[np.ndarray, np.ndarray]

# Bytes that send a file to the csv.reader path: a quote, which csv.reader
# honours and loadtxt does not; NUL, which a bytes cell drops; and 0x1c-0x1f,
# which loadtxt strips from around a number and float() does not.
_ONE_PASS_REFUSED = (b'"', b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")

# The one-pass reader keeps this many bytes of each outcome cell; a file with
# a cell that fills them takes the csv.reader path, so no cell is cut short.
_OUTCOME_BYTES = 32


@dataclass
class _RoleColumns:
    """One CSV's parsed response, outcome and covariate columns, plus each
    instrument column, parsed when an analysis encodes it."""

    path: str | Path
    r: np.ndarray
    y: np.ndarray
    X: np.ndarray
    masked: tuple[int, ...]
    warnings: list[str]
    instrument_columns: dict[str, _Column]


def _column_values(col: _Column, name: str, *, allow_empty: bool,
                   what: str) -> tuple[np.ndarray, np.ndarray]:
    """(values, missing) of one role column from either reader."""
    if isinstance(col, list):
        return _parse_numeric_column(col, name, allow_empty=allow_empty, what=what)
    return col


def _line_breaks(data: bytes) -> int:
    """Line ends in data as csv.reader counts them: CR LF, LF or a lone CR."""
    breaks = data.count(b"\n")
    if b"\r" in data:
        breaks += data.count(b"\r") - data.count(b"\r\n")
    return breaks


def _read_utf8(path: str | Path) -> bytes:
    """The file's bytes, checked to be UTF-8; a bad byte names its line."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise DataContractError(f"cannot read data file {path}: {e}") from e
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as e:
            line = _line_breaks(data[:e.start]) + 1
            raise DataContractError(
                f"{path}: line {line} is not UTF-8 text (byte 0x{data[e.start]:02x})"
            ) from None
    return data


def _longest_line(data: bytes) -> int:
    """Bytes in the longest line of data, its line end not counted."""
    b = np.frombuffer(data, dtype=np.uint8)
    is_end = b == ord("\n")
    if b"\r" in data:
        is_end |= b == ord("\r")
    ends = np.flatnonzero(is_end)
    del is_end
    return int(np.diff(ends, prepend=-1, append=b.size).max()) - 1


def _plain_shape(data: bytes) -> tuple[list[str], int] | None:
    """The header and line count of data, or None unless data holds no
    byte of _ONE_PASS_REFUSED, no line past csv's field size limit, and as
    many commas as its lines hold at the header's width.  A leading UTF-8
    byte-order mark is not part of the first header name."""
    if any(b in data for b in _ONE_PASS_REFUSED):
        return None
    limit = csv.field_size_limit()
    if len(data) > limit and _longest_line(data) > limit:
        return None
    ends = [i for i in (data.find(b"\n"), data.find(b"\r")) if i >= 0]
    first = data[:min(ends, default=len(data))].decode("utf-8-sig")
    header = [h.strip() for h in first.split(",")]
    lines = _line_breaks(data) + (not data.endswith((b"\n", b"\r")))
    if data.count(b",") != (len(header) - 1) * lines:
        return None
    return header, lines


def _one_pass_columns(path: str | Path, needed: Sequence[str],
                      config: AnalysisConfig) -> dict[str, _Column] | None:
    """The role columns from one np.loadtxt pass, or None where that pass
    cannot show it reads what the csv.reader path reads.

    It refuses a file _plain_shape refuses, one with fewer than two lines
    or a needed column missing from the header, and any file loadtxt
    rejects: an empty or non-numeric float cell, or one only float() reads
    (`1_0`, non-ASCII digits).  The comma count and a last column that
    every row must reach prove that each row has the header's width; a
    row count equal to the line count proves that loadtxt skipped no blank
    line.  An outcome cell must be blank or a number float() reads, so a
    whitespace-only one also falls back.
    """
    shape = _plain_shape(_read_utf8(path))
    if shape is None:
        return None
    header, lines = shape
    if lines < 2 or not set(needed) <= set(header):
        return None

    kept = {c: header.index(c) for c in [*needed, *config.instruments] if c in header}
    y_at = kept[config.outcome]
    roles = set(kept.values())
    usecols = sorted(roles | {len(header) - 1})
    dtype = [(f"c{j}", f"S{_OUTCOME_BYTES}" if j == y_at else "f8" if j in roles else "U1")
             for j in usecols]
    try:
        rows = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None, skiprows=1,
                          usecols=usecols, encoding="utf-8", ndmin=1)
    except (OSError, ValueError):
        return None
    cells = rows[f"c{y_at}"]
    if rows.size != lines - 1 or (np.char.str_len(cells) == _OUTCOME_BYTES).any():
        return None

    none_missing = np.zeros(rows.size, dtype=bool)
    none_missing.flags.writeable = False
    columns: dict[str, _Column] = {
        c: (np.ascontiguousarray(rows[f"c{j}"]), none_missing)
        for c, j in kept.items() if j != y_at}
    y_missing = cells == b""
    y = np.full(rows.size, np.nan)
    try:
        y[~y_missing] = cells[~y_missing].astype(np.float64)
    except ValueError:
        return None
    columns[config.outcome] = (y, y_missing)
    return columns


def _csv_columns(path: str | Path, needed: Sequence[str],
                 config: AnalysisConfig) -> dict[str, _Column]:
    """The role columns as csv.reader's cells: the reference reader, which
    takes every file and names the rows of a malformed one.  A leading
    UTF-8 byte-order mark, which spreadsheet programs write, is dropped."""
    reader = csv.reader(io.StringIO(_read_utf8(path).decode("utf-8-sig"), newline=""))
    try:
        header = next(reader, None)
        records = list(reader)
    except csv.Error as e:
        raise DataContractError(f"{path}: line {reader.line_num}: {e}") from None
    if header is None:
        raise DataContractError(f"{path}: empty file; a header row is required")

    header = [h.strip() for h in header]
    missing_cols = [c for c in needed if c not in header]
    if missing_cols:
        raise DataContractError(f"{path}: missing required columns {missing_cols}")

    width = len(header)
    if set(map(len, records)) - {width}:
        ragged = [i + 2 for i, rec in enumerate(records) if len(rec) != width]
        raise DataContractError(f"{path}: rows {_fmt_rows(ragged)} do not match the header width")
    if not records:
        raise DataContractError(f"{path}: no data rows")

    return {c: list(map(operator.itemgetter(header.index(c)), records))
            for c in [*needed, *config.instruments] if c in header}


def _read_roles(path: str | Path, config: AnalysisConfig,
                instruments: Sequence[str]) -> _RoleColumns:
    """Tokenize the file once and parse its response, outcome and covariates.

    The outcome, response, `instruments` and covariate columns must be in
    the header; every config.instruments column the header has is kept
    for _encode_table.  The one-pass reader takes the file when it can,
    and the csv.reader path otherwise.
    """
    needed = [config.outcome, config.response, *instruments, *config.covariates]
    columns = _one_pass_columns(path, needed, config)
    if columns is None:
        columns = _csv_columns(path, needed, config)

    r_vals, r_missing = _column_values(columns[config.response], config.response,
                                       allow_empty=False, what="response")
    bad_r = np.flatnonzero(~np.isin(r_vals, (0.0, 1.0)))
    if bad_r.size:
        rows = (bad_r + 2).tolist()
        raise DataContractError(
            f"response column {config.response!r} must contain only 0/1; "
            f"other values at rows {_fmt_rows(rows)}"
        )
    r = r_vals.astype(np.int64)

    y_vals, y_missing = _column_values(columns[config.outcome], config.outcome,
                                       allow_empty=True, what="outcome")

    warnings: list[str] = []
    masked: tuple[int, ...] = ()
    absent_respondents = np.flatnonzero((r == 1) & y_missing)
    if absent_respondents.size:
        rows = (absent_respondents + 2).tolist()
        raise DataContractError(
            f"outcome column {config.outcome!r} is empty for respondent rows {_fmt_rows(rows)}"
        )
    _require_finite(y_vals, config.outcome, "outcome", rows=r == 1)
    leaked = np.flatnonzero((r == 0) & ~y_missing)
    if leaked.size:
        rows = (leaked + 2).tolist()
        if config.strict_outcome:
            raise DataContractError(
                f"outcome column {config.outcome!r} is non-empty for nonrespondent "
                f"rows {_fmt_rows(rows)}; these cells must be blank"
            )
        y_vals[leaked] = np.nan
        masked = tuple(int(v) for v in rows)
        warnings.append(
            f"masked {leaked.size} outcome cells on nonrespondent rows {_fmt_rows(rows)}"
        )

    X = np.column_stack([
        _column_values(columns[c], c, allow_empty=False, what="covariate")[0]
        for c in config.covariates
    ])
    for j, c in enumerate(config.covariates):
        _require_finite(X[:, j], c, "covariate")
    kept = {c: columns[c] for c in config.instruments if c in columns}
    return _RoleColumns(path=path, r=r, y=y_vals, X=X, masked=masked, warnings=warnings,
                        instrument_columns=kept)


def _encode_table(roles: _RoleColumns,
                  config: AnalysisConfig) -> tuple[ObservationTable, IngestInfo]:
    """The table and its IngestInfo with config's instruments encoded."""
    missing_cols = [c for c in config.instruments if c not in roles.instrument_columns]
    if missing_cols:
        raise DataContractError(f"{roles.path}: missing required columns {missing_cols}")
    warnings = list(roles.warnings)
    encodings: list[InstrumentEncoding] = []
    code_cols: list[np.ndarray] = []
    for c in config.instruments:
        vals, _ = _column_values(roles.instrument_columns[c], c, allow_empty=False,
                                 what="instrument")
        _require_finite(vals, c, "instrument")
        codes, enc = encode_instrument(
            vals, c, bins=config.instrument_bins,
            max_levels=config.instrument_max_levels, warnings=warnings,
        )
        encodings.append(enc)
        code_cols.append(codes)
    z, level_map = combine_instrument_levels(code_cols)

    table = ObservationTable.from_arrays(roles.X, z, roles.r, roles.y)
    info = IngestInfo(
        n=table.n,
        n_complete=table.n1,
        n_incomplete=table.n0,
        L=table.L,
        encodings=encodings,
        level_map=level_map,
        warnings=warnings,
        masked_rows=roles.masked,
    )
    return table, info


def ingest_csv(path: str | Path, config: AnalysisConfig) -> tuple[ObservationTable, IngestInfo]:
    """Read a survey-style CSV into a validated ObservationTable.

    Comma-separated, UTF-8, header row required, empty cell = missing.
    The response column must contain only {0, 1}.  Outcome cells must be
    empty where the response is 0; under strict_outcome a violation is an
    error naming the rows, otherwise the cells are masked with a warning.
    Missing covariate or instrument cells are always errors, and so is a
    nan or inf cell (which float() parses) among the covariates, the
    instruments or the respondents' outcomes.  A byte that is not UTF-8
    is an error naming its line.

    Two readers give the same table, info and errors.  A file with no
    quote, NUL or 0x1c-0x1f byte, every line as wide as the header, no
    blank line, and role cells that are plain numbers (the outcome's may
    be blank) is read by one np.loadtxt pass over its role columns, float64
    for the numbers and bytes for the outcome, so a blank cell stays apart
    from a literal nan; write_table_csv writes such files.  Every other
    file falls back to csv.reader: it tokenizes the whole file into one
    list of records, each role column is parsed whole
    (_parse_numeric_column), and its errors name the rows.
    """
    return _encode_table(_read_roles(path, config, config.instruments), config)


def ingest_csv_per_instrument(
    path: str | Path, config: AnalysisConfig,
) -> Iterator[tuple[str, AnalysisConfig, ObservationTable, IngestInfo]]:
    """ingest_csv for each instrument column of config analysed alone.

    Yields (column, config of that one instrument, table, info) in column
    order.  The file is read and its other role columns are parsed once;
    each instrument column is parsed and encoded when its turn comes, so
    a fault in it is raised only after the columns before it were
    yielded, with the message ingest_csv gives on the one-instrument
    config.
    """
    roles = _read_roles(path, config, config.instruments[:1])
    for col in config.instruments:
        one = dataclasses.replace(config, instruments=(col,), instrument_mode="product")
        yield (col, one, *_encode_table(roles, one))


def write_table_csv(
    table: ObservationTable,
    path: str | Path,
    *,
    covariate_names: Sequence[str] | None = None,
    instrument_name: str = "z",
    response_name: str = "r",
    outcome_name: str = "y",
) -> None:
    """Serialize a table so that re-ingesting reproduces every role column.

    Floats are written with repr (shortest round-trip form); missing
    outcomes become empty cells.  Level codes are written as integers, and
    re-ingestion passes them through categorically as long as L stays at
    or below the configured level cap.  The cells are built a column at a
    time from .tolist() and the rows written by one writerows call.
    """
    p = table.X.shape[1]
    names = list(covariate_names) if covariate_names is not None else [
        f"x{j + 1}" for j in range(p)
    ]
    if len(names) != p:
        raise ConfigurationError(f"expected {p} covariate names, got {len(names)}")
    cols = [list(map(repr, table.X[:, j].tolist())) for j in range(p)]
    cols.append(table.Z.tolist())
    cols.append(table.R.tolist())
    cols.append(["" if v != v else repr(v) for v in table.y_dense().tolist()])  # NaN: blank
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow([*names, instrument_name, response_name, outcome_name])
        w.writerows(zip(*cols))


# --------------------------------------------------------------------------
# reports


def _jsonable(obj: Any) -> Any:
    """Coerce report trees to plain JSON types; non-finite floats become null."""
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if obj is None or isinstance(obj, str):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    raise ConfigurationError(f"cannot serialize {type(obj).__name__} into a report")


def report_json(report: Mapping) -> str:
    """Deterministic serialization: sorted keys, two-space indent, one trailing newline."""
    return json.dumps(_jsonable(report), sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_report(report: Mapping, path: str | Path) -> None:
    Path(path).write_text(report_json(report), encoding="utf-8")
