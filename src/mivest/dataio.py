"""CSV ingestion, configuration documents, and report serialization.

The configuration file is YAML with a versioned format tag so stale
documents fail loudly instead of being silently reinterpreted.  Each of
its sections has one key table (_DATA_KEYS, _FUNCTIONAL_KEYS,
_ESTIMATION_KEYS, _LEARNER_KEYS, _SIMULATION_KEYS): config_from_dict
parses a document with them, and the reports' config echo is written from
them; the defaults live in the dataclasses alone.  Reports are JSON with
sorted keys and no timestamps: two runs with the same seeds must produce
byte-identical files, so execution-topology knobs (thread count, output
path) never enter the report body.  One serializer (_jsonable) writes
every report tree, and it writes a dataclass through its fields: a report
type's field names are its report keys.  Only a type whose keys follow a
rule of their own (the config echo, the Monte Carlo summaries) has an
as_dict.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np
import yaml

from .data import (FunctionalSpec, ObservationTable, combine_instrument_levels,
                   _linear_quantiles)
from .exceptions import ConfigurationError, DataContractError
from .learners import LearnerConfig

CONFIG_FORMAT = "mivest-config/1"
REPORT_FORMAT = "mivest-report/1"


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
        for name in ("n", "replications", "oracle_draws"):
            if getattr(self, name) < 1:
                raise ConfigurationError(
                    f"simulation.{name} must be at least 1, got {getattr(self, name)}")

    def as_dict(self) -> dict:
        return _echo(self, _SIMULATION_KEYS)


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
    # A column with more distinct values than this is treated as continuous
    # and quartile-binned; at or below it the sorted values become the level
    # codes directly.  10 keeps small integer codes (survey scales, prior
    # encodings) intact while catching genuinely continuous columns.
    instrument_max_levels: int = 10
    instrument_mode: str = "product"
    strict_outcome: bool = True
    functional: FunctionalSpec = field(default_factory=FunctionalSpec.mean)
    learner: LearnerConfig = field(default_factory=LearnerConfig)
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

    def __post_init__(self) -> None:
        if self.has_data:
            self._validate_roles()
        for name, allowed in (("instrument_mode", ("product", "separate")),
                              ("mode", ("marginalize", "direct")),
                              ("trim", ("floor", "drop"))):
            if getattr(self, name) not in allowed:
                raise ConfigurationError(
                    f"{name} must be {'|'.join(allowed)}, got {getattr(self, name)!r}")
        if self.instrument_bins < 2:
            raise ConfigurationError("instrument_bins must be at least 2")
        if self.functional.kind == "custom":
            raise ConfigurationError("config files can express mean or quantile functionals only")
        if self.n_folds < 2:
            raise ConfigurationError("folds must be at least 2")
        if self.repetitions < 1:
            raise ConfigurationError("repetitions must be at least 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {self.seed}")
        if not 0.0 < self.ci_level < 1.0:
            raise ConfigurationError("ci_level must lie in (0, 1)")
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
        """The config document that rebuilds this config: the report's echo."""
        functional = _echo(self.functional, _FUNCTIONAL_KEYS)
        out: dict[str, Any] = {
            "format": CONFIG_FORMAT,
            # q is left out where unset, as a mean functional leaves it
            "functional": {k: v for k, v in functional.items() if v is not None},
            "estimation": _echo(self, _ESTIMATION_KEYS),
            "learner": _echo(self.learner, _LEARNER_KEYS),
        }
        if self.has_data:
            out["data"] = _echo(self, _DATA_KEYS)
        if self.simulation is not None:
            out["simulation"] = self.simulation.as_dict()
        return out


# One key table per config section.  A _Key names the dataclass field its
# YAML key sets and how the value is read: a tuple of accepted types (bool
# only where listed; the first type converts the value) or a parser called
# as parser(value, "section.key").  A key the document leaves out takes its
# field's default, unless it is required.  config_from_dict reads these
# tables to parse a document and the as_dict methods to echo one.


class _Key(NamedTuple):
    field: str
    read: tuple | Callable[[Any, str], Any]
    required: bool = False


def _typed(raw: Any, types: tuple, label: str) -> Any:
    """raw converted by the first of types, if it is one of them (bool only if listed)."""
    if isinstance(raw, types) and (bool in types or not isinstance(raw, bool)):
        return types[0](raw)
    raise ConfigurationError(f"{label} has the wrong type: {raw!r}")


def _columns(raw: Any, label: str) -> tuple[str, ...]:
    if isinstance(raw, (list, tuple)) and all(isinstance(c, str) for c in raw):
        return tuple(raw)
    raise ConfigurationError(f"{label} must be a list of column names")


def _winsorize(raw: Any, label: str) -> float | None:
    # YAML 1.1 reads the documented literal "off" as boolean False
    off = raw is None or raw is False or raw == "off"
    return None if off else _typed(raw, (float, int), label)


def _parameters(raw: Any, label: str) -> dict[str, float]:
    raw = raw or {}     # "parameters:" with nothing under it sets none
    if not isinstance(raw, Mapping):
        raise ConfigurationError(f"{label} must be a mapping")
    return {str(k): _typed(v, (float, int), f"{label}.{k}") for k, v in raw.items()}


_DATA_KEYS = {
    "outcome": _Key("outcome", (str,), required=True),
    "response": _Key("response", (str,), required=True),
    "instruments": _Key("instruments", _columns, required=True),
    "covariates": _Key("covariates", _columns, required=True),
    "instrument_bins": _Key("instrument_bins", (int,)),
    "instrument_max_levels": _Key("instrument_max_levels", (int,)),
    "instrument_mode": _Key("instrument_mode", (str,)),
    "strict_outcome": _Key("strict_outcome", (bool,)),
}
_FUNCTIONAL_KEYS = {
    "kind": _Key("kind", (str,)),
    "psi": _Key("psi", (float, int)),
    "q": _Key("q", (float, int)),
}
_ESTIMATION_KEYS = {
    "mode": _Key("mode", (str,)),
    "folds": _Key("n_folds", (int,)),
    "repetitions": _Key("repetitions", (int,)),
    "seed": _Key("seed", (int,)),
    "ci_level": _Key("ci_level", (float, int)),
    "trim": _Key("trim", (str,)),
    "winsorize": _Key("winsorize", _winsorize),
}
_LEARNER_KEYS = {
    "basis_df": _Key("basis_df", (int,)),
    "ridge_lambda": _Key("ridge_lambda", (float, int)),
    "max_irls_iter": _Key("max_irls_iter", (int,)),
    "irls_tol": _Key("irls_tol", (float, int)),
}
_SIMULATION_KEYS = {
    "family": _Key("family", (str,), required=True),
    "n": _Key("n", (int,)),
    "replications": _Key("replications", (int,)),
    "clamp_policy": _Key("clamp_policy", (str,)),
    "parameters": _Key("parameters", _parameters),
    "oracle_draws": _Key("oracle_draws", (int,)),
}
_SECTIONS = {"data": _DATA_KEYS, "functional": _FUNCTIONAL_KEYS,
             "estimation": _ESTIMATION_KEYS, "learner": _LEARNER_KEYS,
             "simulation": _SIMULATION_KEYS}


def _section(doc: Mapping, name: str) -> dict[str, Any]:
    """The field values that section `name` of doc sets, none if it is absent."""
    sec = doc.get(name)
    if sec is None:
        return {}
    if not isinstance(sec, Mapping):
        raise ConfigurationError(f"'{name}' section must be a mapping")
    table = _SECTIONS[name]
    unknown = sorted(set(sec) - set(table))
    if unknown:
        raise ConfigurationError(f"unknown keys in {name!r} section: {unknown}")
    values: dict[str, Any] = {}
    for key, (fname, read, required) in table.items():
        label = f"{name}.{key}"
        if key in sec:
            raw = sec[key]
            values[fname] = read(raw, label) if callable(read) else _typed(raw, read, label)
        elif required:
            raise ConfigurationError(f"{label} is required")
    return values


def _echo(obj: Any, table: Mapping[str, _Key]) -> dict:
    """The YAML section that sets obj's fields as they are."""
    values = {key: getattr(obj, entry.field) for key, entry in table.items()}
    return {key: list(v) if isinstance(v, tuple) else dict(v) if isinstance(v, Mapping) else v
            for key, v in values.items()}


def config_from_dict(doc: Mapping) -> AnalysisConfig:
    """Build and validate an AnalysisConfig from a parsed YAML document."""
    if not isinstance(doc, Mapping):
        raise ConfigurationError("config document must be a mapping")
    tag = doc.get("format")
    if tag != CONFIG_FORMAT:
        raise ConfigurationError(
            f"missing or unsupported format tag {tag!r}; expected {CONFIG_FORMAT!r}"
        )
    unknown = sorted(set(doc) - {"format", *_SECTIONS})
    if unknown:
        raise ConfigurationError(f"unknown keys in 'top-level' section: {unknown}")
    data, functional, estimation, learner, simulation = (
        _section(doc, name) for name in _SECTIONS)
    return AnalysisConfig(
        **data, **estimation, functional=FunctionalSpec(**functional),
        learner=LearnerConfig(**learner),
        simulation=None if doc.get("simulation") is None else SimulationSection(**simulation))


def _read_config(path: str | Path) -> Any:
    """The parsed YAML document of a config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigurationError(f"cannot read config file {path}: {e}") from e
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ConfigurationError(f"config file {path} is not valid YAML: {e}") from e


def load_config(path: str | Path) -> AnalysisConfig:
    return config_from_dict(_read_config(path))


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


@dataclass
class IngestInfo:
    """Everything about the file -> table encoding needed to reproduce it.

    Its fields are the keys of a report's "data" entry.
    """

    n: int
    n_complete: int
    n_incomplete: int
    instrument_levels: int
    encodings: list[InstrumentEncoding]
    level_map: dict[int, tuple[int, ...]]
    warnings: list[str] = field(default_factory=list)
    masked_rows: tuple[int, ...] = ()


def _fmt_rows(rows: Sequence[int], limit: int = 10) -> str:
    shown = ", ".join(str(r) for r in rows[:limit])
    extra = len(rows) - min(len(rows), limit)
    return shown + (f" and {extra} more" if extra > 0 else "")


def _parse_numeric_column(
    cells: list[str], column: str, *, allow_empty: bool, what: str
) -> tuple[np.ndarray, np.ndarray]:
    """Parse one column to float; returns (values, missing mask).

    Each cell is stripped; a blank or whitespace-only cell counts as
    missing, and every non-numeric row is named.  Row numbers in error
    messages are file line numbers (header is line 1).
    """
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


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """np.unique(values) for finite values, without its masked-array
    check, which on numpy 2.4 imports numpy.ma (about 17 ms of CPU)."""
    s = np.sort(values)
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


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
    uniq = _sorted_unique(values)
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
    edges = _sorted_unique(_linear_quantiles(values, probs))
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
    """The `needed` columns from one np.loadtxt pass over them alone,
    config.outcome's as bytes and the rest as float64, or None where that
    pass cannot show it reads what the csv.reader path reads.

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

    kept = {c: header.index(c) for c in needed}
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
    # a cell that fills all its bytes may have been cut short (a shorter one
    # ends in NUL padding); the check reads the last byte, not numpy.char
    last = np.ascontiguousarray(cells).view(np.uint8)[_OUTCOME_BYTES - 1::_OUTCOME_BYTES]
    if rows.size != lines - 1 or last.any():
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


def _csv_columns(path: str | Path, needed: Sequence[str]) -> dict[str, _Column]:
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

    return {c: list(map(operator.itemgetter(header.index(c)), records)) for c in needed}


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
    list of records, each role column is parsed cell by cell
    (_parse_numeric_column), and its errors name the rows.  Either way the
    columns are parsed in the order they are used (response, outcome,
    covariates, instruments), so a file with several faults raises the
    first of them in that order.  Each call reads the file anew: separate
    instrument mode calls it once per instrument, on the config of that
    instrument alone.
    """
    needed = [config.outcome, config.response, *config.instruments, *config.covariates]
    columns = _one_pass_columns(path, needed, config)
    if columns is None:
        columns = _csv_columns(path, needed)

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

    # column-major, the layout ObservationTable stores: each covariate is
    # written into its own contiguous column
    X = np.empty((r.size, len(config.covariates)), order="F")
    for j, c in enumerate(config.covariates):
        X[:, j] = _column_values(columns[c], c, allow_empty=False, what="covariate")[0]
    for j, c in enumerate(config.covariates):
        _require_finite(X[:, j], c, "covariate")

    encodings: list[InstrumentEncoding] = []
    code_cols: list[np.ndarray] = []
    for c in config.instruments:
        vals, _ = _column_values(columns[c], c, allow_empty=False, what="instrument")
        _require_finite(vals, c, "instrument")
        codes, enc = encode_instrument(
            vals, c, bins=config.instrument_bins,
            max_levels=config.instrument_max_levels, warnings=warnings,
        )
        encodings.append(enc)
        code_cols.append(codes)
    z, level_map = combine_instrument_levels(code_cols)

    table = ObservationTable.from_arrays(X, z, r, y_vals)
    info = IngestInfo(
        n=table.n,
        n_complete=table.n1,
        n_incomplete=table.n0,
        instrument_levels=table.L,
        encodings=encodings,
        level_map=level_map,
        warnings=warnings,
        masked_rows=masked,
    )
    return table, info


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
    cols.append(["" if v != v else repr(v) for v in table.Y.tolist()])  # NaN: blank
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
