"""Config documents, CSV ingestion, report serialization, CLI commands."""

import csv
import dataclasses
import io
import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from mivest.cli import _build_parser, main
from mivest.dataio import (_SECTIONS, AnalysisConfig, SimulationSection, _csv_columns,
                           _fmt_rows, _parse_numeric_column, _plain_shape, config_from_dict,
                           ingest_csv, load_config, report_json, write_table_csv)
from mivest.learners import LearnerConfig
from mivest.data import EstimationConfig, FunctionalSpec
from mivest.exceptions import ConfigurationError, DataContractError, MivestError
from mivest.simulation import DGPSpec, generate

BASE = {
    "format": "mivest-config/1",
    "data": {
        "outcome": "y",
        "response": "r",
        "instruments": ["z"],
        "covariates": ["x1", "x2"],
    },
    "estimation": {"folds": 3, "repetitions": 1, "seed": 2},
}


def make_doc(**over):
    doc = {k: (dict(v) if isinstance(v, dict) else v) for k, v in BASE.items()}
    for key, val in over.items():
        if isinstance(val, dict) and isinstance(doc.get(key), dict):
            doc[key].update(val)
        else:
            doc[key] = val
    return doc


def write_yaml(path, doc):
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def survey_csv(tmp_path_factory):
    table, _ = generate(DGPSpec(family="single_binary_iv", n=600, seed=9))
    path = tmp_path_factory.mktemp("survey") / "survey.csv"
    write_table_csv(table, path, covariate_names=["x1", "x2"])
    return str(path)


# -- config documents --------------------------------------------------------


def test_config_roundtrip():
    cfg = AnalysisConfig(
        outcome="y", response="r", instruments=("z1", "z2"),
        covariates=("age", "wealth"), instrument_mode="separate",
        functional=FunctionalSpec.quantile(0.25),
        estimation=EstimationConfig(n_folds=4, repetitions=3, winsorize=4.5),
        simulation=SimulationSection(family="dual_binary_iv", n=500))
    again = config_from_dict(cfg.as_dict())
    assert again == cfg


@pytest.mark.parametrize("cls, sections, unset", [
    (AnalysisConfig, ["data"], {"functional", "learner", "simulation", "estimation"}),
    (FunctionalSpec, ["functional"], {"h"}),
    (LearnerConfig, ["learner"], set()),
    (SimulationSection, ["simulation"], set()),
    (EstimationConfig, ["estimation"], set()),
])
def test_each_config_field_is_set_by_exactly_one_table_key(cls, sections, unset):
    # the key tables parse and echo the documents; a field that no key
    # sets, or that two keys set, would drift from the dataclass
    set_by = sorted(entry.field for name in sections for entry in _SECTIONS[name].values())
    assert set_by == sorted(f.name for f in dataclasses.fields(cls) if f.name not in unset)


def test_a_config_with_every_key_changed_survives_its_echo():
    doc = {
        "format": "mivest-config/1",
        "data": {"outcome": "out", "response": "resp", "instruments": ["z1", "z2"],
                 "covariates": ["age"], "instrument_bins": 3, "instrument_max_levels": 7,
                 "instrument_mode": "separate", "strict_outcome": False},
        "functional": {"kind": "quantile", "psi": 0.5, "q": 0.3},
        "estimation": {"folds": 4, "repetitions": 3, "seed": 9,
                       "ci_level": 0.9, "trim": "drop", "winsorize": 4.5},
        "learner": {"basis_df": 3, "ridge_lambda": 0.01, "max_irls_iter": 50,
                    "irls_tol": 1e-6},
        "simulation": {"family": "dual_binary_iv", "n": 500, "replications": 7,
                       "clamp_policy": "reject_invalid",
                       "parameters": {"selection_intercept": -6.0}, "oracle_draws": 12345},
    }
    cfg = config_from_dict(doc)
    defaults = {"data": AnalysisConfig(), "estimation": EstimationConfig(),
                "functional": FunctionalSpec(), "learner": LearnerConfig(),
                "simulation": SimulationSection(family="single_binary_iv")}
    parsed = {"data": cfg, "estimation": cfg.estimation, "functional": cfg.functional,
              "learner": cfg.learner, "simulation": cfg.simulation}
    for name, table in _SECTIONS.items():
        assert set(doc[name]) == set(table), name
        for key, entry in table.items():
            value = getattr(parsed[name], entry.field)
            assert value != getattr(defaults[name], entry.field), f"{name}.{key}"
    assert cfg.as_dict() == doc
    assert config_from_dict(cfg.as_dict()) == cfg


@pytest.mark.parametrize("command", ["estimate", "oracle"])
@pytest.mark.parametrize("where", ["key", "flag"])
def test_a_negative_seed_is_a_configuration_error(tmp_path, survey_csv, capsys,
                                                  monkeypatch, command, where):
    import mivest.cli

    def no_draws(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(mivest.cli, "oracle_beta", no_draws)
    monkeypatch.setattr(mivest.cli, "crossfit_beta", no_draws)
    doc = make_doc(simulation={"family": "dual_binary_iv"})
    flags = ["--seed", "-3"] if where == "flag" else []
    if where == "key":
        doc["estimation"]["seed"] = -1
    if command == "estimate":
        flags += ["--data", survey_csv]
    out = tmp_path / "o.json"
    assert main([command, "--config", write_yaml(tmp_path / "cfg.yaml", doc),
                 "--out", str(out), *flags]) == 4
    seed = -3 if where == "flag" else -1
    assert (f"configuration error: seed must be a non-negative integer, got {seed}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("sim, message", [
    ({"parameters": {"selection_intercept": "abc"}},
     "simulation.parameters.selection_intercept has the wrong type: 'abc'"),
    ({"parameters": {"selection_intercept": [1.0]}},
     "simulation.parameters.selection_intercept has the wrong type: [1.0]"),
    ({"parameters": {"selection_intercept": True}},
     "simulation.parameters.selection_intercept has the wrong type: True"),
    ({"n": 0}, "simulation.n must be at least 1, got 0"),
    ({"n": -4}, "simulation.n must be at least 1, got -4"),
], ids=["string", "list", "bool", "n-zero", "n-negative"])
def test_simulation_values_are_checked_when_the_config_is_parsed(tmp_path, capsys, sim,
                                                                 message):
    doc = make_doc(simulation={"family": "dual_binary_iv", "oracle_draws": 100_000, **sim})
    with pytest.raises(ConfigurationError) as excinfo:
        config_from_dict(doc)
    assert str(excinfo.value) == message
    out = tmp_path / "o.json"
    assert main(["oracle", "--config", write_yaml(tmp_path / "cfg.yaml", doc),
                 "--out", str(out)]) == 4
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "validate", "simulate"])
@pytest.mark.parametrize("sim, message", [
    ({"family": "nope"}, "unknown DGP family 'nope'"),
    ({"clamp_policy": "whatever"}, "unknown clamp policy 'whatever'"),
    ({"parameters": {"bogus": 1}}, "unknown simulation parameter 'bogus'"),
    ({"parameters": {"selection_intercept": float("inf")}},
     "selection_intercept must be finite, got inf"),
], ids=["family", "clamp-policy", "parameter", "non-finite"])
def test_a_bad_simulation_section_fails_every_command(tmp_path, survey_csv, capsys,
                                                      command, sim, message):
    # the section is checked when the config is read, not only by the
    # commands that draw from it; estimate echoed a bad one into its report
    doc = make_doc(simulation={"family": "dual_binary_iv", **sim})
    out = tmp_path / "o.json"
    argv = {"estimate": ["--data", survey_csv, "--out", str(out)],
            "validate": ["--data", survey_csv],
            "simulate": ["--out", str(out)]}[command]
    assert main([command, "--config", write_yaml(tmp_path / "cfg.yaml", doc), *argv]) == 4
    err = capsys.readouterr().err
    assert f"configuration error: {message}" in err
    assert not out.exists()


def test_config_requires_format_tag():
    doc = make_doc()
    del doc["format"]
    with pytest.raises(ConfigurationError, match="format"):
        config_from_dict(doc)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigurationError, match="unknown keys"):
        config_from_dict(make_doc(estimation={"foldz": 3}))
    with pytest.raises(ConfigurationError, match="unknown keys"):
        config_from_dict(make_doc(data={"weights": "w"}))


@pytest.mark.parametrize("key, value", [
    ("estimator", "general"),
    ("mode", "marginalize"),
    ("mode", "direct"),
], ids=["estimator", "mode-marginalize", "mode-direct"])
def test_a_removed_estimation_key_exits_4_naming_it(tmp_path, survey_csv, capsys,
                                                    key, value):
    # no setting chooses the estimator or the marginalisation: the
    # marginals are always the rho-weighted sums of the per-level models
    out = tmp_path / "o.json"
    doc = make_doc(estimation={key: value})
    assert main(["estimate", "--config", write_yaml(tmp_path / "cfg.yaml", doc),
                 "--data", survey_csv, "--out", str(out)]) == 4
    assert (f"configuration error: unknown keys in 'estimation' section: ['{key}']"
            in capsys.readouterr().err)
    assert not out.exists()


def test_config_winsorize_parsing():
    assert config_from_dict(make_doc()).estimation.winsorize is None
    for off in (None, False, "off"):
        doc = make_doc(estimation={"winsorize": off})
        assert config_from_dict(doc).estimation.winsorize is None
    doc = make_doc(estimation={"winsorize": 5})
    assert config_from_dict(doc).estimation.winsorize == 5.0
    with pytest.raises(ConfigurationError):
        config_from_dict(make_doc(estimation={"winsorize": True}))
    with pytest.raises(ConfigurationError):
        config_from_dict(make_doc(estimation={"winsorize": "wide"}))


def test_config_quantile_needs_q():
    doc = make_doc(functional={"kind": "quantile"})
    with pytest.raises(ConfigurationError):
        config_from_dict(doc)
    doc = make_doc(functional={"kind": "quantile", "q": 0.4})
    assert config_from_dict(doc).functional.q == 0.4


def test_config_roles_must_be_disjoint():
    doc = make_doc(data={"covariates": ["x1", "y"]})
    with pytest.raises(ConfigurationError, match="disjoint"):
        config_from_dict(doc)


def test_config_requires_covariates():
    doc = make_doc(data={"covariates": []})
    with pytest.raises(ConfigurationError, match="covariate"):
        config_from_dict(doc)


def test_load_config_bad_yaml(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("data: [unclosed", encoding="utf-8")
    with pytest.raises(ConfigurationError):
        load_config(p)
    with pytest.raises(ConfigurationError):
        load_config(tmp_path / "absent.yaml")


# -- report serialization ----------------------------------------------------


def test_report_json_is_deterministic_and_total():
    rep = {"b": np.float64(1.5), "a": np.array([1, 2]),
           "bad": float("nan"), "sub": {"n": np.int64(7)}}
    text = report_json(rep)
    assert text == report_json(rep)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["bad"] is None
    assert parsed["a"] == [1, 2]
    assert list(parsed) == sorted(parsed)


def test_report_json_rejects_unknown_types():
    with pytest.raises(ConfigurationError):
        report_json({"a": {1, 2}})


# -- CSV ingestion -----------------------------------------------------------


def rows_to_csv(tmp_path, header, rows, name="t.csv"):
    p = tmp_path / name
    with open(p, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return str(p)


def test_write_then_ingest_roundtrip(tmp_path):
    table, _ = generate(DGPSpec(family="single_binary_iv", n=300, seed=21))
    p = tmp_path / "round.csv"
    write_table_csv(table, p, covariate_names=["x1", "x2"])
    cfg = config_from_dict(make_doc())
    again, info = ingest_csv(p, cfg)
    assert np.array_equal(again.X, table.X)
    assert np.array_equal(again.Z, table.Z)
    assert np.array_equal(again.R, table.R)
    assert np.array_equal(again.Y, table.Y, equal_nan=True)
    assert info.n == 300
    assert info.n_complete == table.n1
    assert info.encodings[0].kind == "categorical"


def _per_row_table_csv(table, path, names):
    """The per-row writer that the column-wise write_table_csv replaced,
    kept as a reference."""
    y_full = table.Y
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow([*names, "z", "r", "y"])
        for i in range(table.n):
            y = "" if np.isnan(y_full[i]) else repr(float(y_full[i]))
            w.writerow([*[repr(float(v)) for v in table.X[i]],
                        int(table.Z[i]), int(table.R[i]), y])


def test_column_wise_writer_matches_the_per_row_writer(tmp_path):
    table, _ = generate(DGPSpec(family="dual_binary_iv", n=2_000, seed=4))
    assert 0 < table.n0 < table.n
    write_table_csv(table, tmp_path / "cols.csv", covariate_names=["x1", "x2"])
    _per_row_table_csv(table, tmp_path / "rows.csv", ["x1", "x2"])
    written = (tmp_path / "cols.csv").read_bytes()
    assert written == (tmp_path / "rows.csv").read_bytes()
    assert b",0,\n" in written


def test_quartile_binning_of_continuous_instrument(tmp_path):
    rows = [[float(i + 1), 0.1, 0.2, 1, 1.0] for i in range(100)]
    p = rows_to_csv(tmp_path, ["z", "x1", "x2", "r", "y"], rows)
    cfg = config_from_dict(make_doc())
    # keep at least a few incomplete rows so the table is valid downstream
    table, info = ingest_csv(p, cfg)
    enc = info.encodings[0]
    assert enc.kind == "quartile"
    assert enc.levels == 4
    assert enc.edges == [25.75, 50.5, 75.25]
    assert np.bincount(table.Z).tolist() == [25, 25, 25, 25]


def test_quartile_ties_collapse_with_warning(tmp_path):
    vals = [1.0] * 90 + [float(v) for v in range(2, 14)]
    rows = [[v, 0.1, 0.2, 1, 2.0] for v in vals]
    p = rows_to_csv(tmp_path, ["z", "x1", "x2", "r", "y"], rows)
    table, info = ingest_csv(p, config_from_dict(make_doc()))
    assert any("collapsed" in w for w in info.warnings)
    assert info.instrument_levels < 4


def test_constant_instrument_rejected(tmp_path):
    rows = [[3, 0.1, 0.2, 1, 2.0]] * 10
    p = rows_to_csv(tmp_path, ["z", "x1", "x2", "r", "y"], rows)
    with pytest.raises(DataContractError, match="constant"):
        ingest_csv(p, config_from_dict(make_doc()))


def test_strict_outcome_conflict(tmp_path):
    rows = [[0, 0.1, 0.2, 1, 2.0], [1, 0.3, 0.4, 0, 5.0],
            [1, 0.5, 0.6, 0, ""]]
    p = rows_to_csv(tmp_path, ["z", "x1", "x2", "r", "y"], rows)
    with pytest.raises(DataContractError, match="rows 3"):
        ingest_csv(p, config_from_dict(make_doc()))
    relaxed = config_from_dict(make_doc(data={"strict_outcome": False}))
    table, info = ingest_csv(p, relaxed)
    assert info.masked_rows == (3,)
    assert any("masked" in w for w in info.warnings)
    assert table.n0 == 2
    assert not table.y_present[1]


def test_respondents_need_outcomes(tmp_path):
    rows = [[0, 0.1, 0.2, 1, ""], [1, 0.3, 0.4, 0, ""]]
    p = rows_to_csv(tmp_path, ["z", "x1", "x2", "r", "y"], rows)
    with pytest.raises(DataContractError, match="rows 2"):
        ingest_csv(p, config_from_dict(make_doc()))


def test_covariate_cells_must_be_complete(tmp_path):
    rows = [[0, 0.1, 0.2, 1, 2.0], [1, "", 0.4, 0, ""]]
    p = rows_to_csv(tmp_path, ["z", "x1", "x2", "r", "y"], rows)
    with pytest.raises(DataContractError, match="x1"):
        ingest_csv(p, config_from_dict(make_doc()))


def test_nonnumeric_cells_name_the_row(tmp_path):
    rows = [[0, 0.1, 0.2, 1, 2.0], [1, "tall", 0.4, 0, ""]]
    p = rows_to_csv(tmp_path, ["z", "x1", "x2", "r", "y"], rows)
    with pytest.raises(DataContractError, match="rows 3"):
        ingest_csv(p, config_from_dict(make_doc()))


def test_response_must_be_binary(tmp_path):
    rows = [[0, 0.1, 0.2, 2, 2.0], [1, 0.3, 0.4, 0, ""]]
    p = rows_to_csv(tmp_path, ["z", "x1", "x2", "r", "y"], rows)
    with pytest.raises(DataContractError):
        ingest_csv(p, config_from_dict(make_doc()))


def test_missing_columns_are_named(tmp_path):
    rows = [[0, 0.1, 1, 2.0]]
    p = rows_to_csv(tmp_path, ["z", "x1", "r", "y"], rows)
    with pytest.raises(DataContractError, match="x2"):
        ingest_csv(p, config_from_dict(make_doc()))


def test_ragged_rows_rejected(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("z,x1,x2,r,y\n0,0.1,0.2,1,2.0\n1,0.3\n", encoding="utf-8")
    with pytest.raises(DataContractError, match="rows 3 do not match"):
        ingest_csv(p, config_from_dict(make_doc()))


def test_quoted_commas_in_other_columns_are_one_cell(tmp_path):
    rows = [[7, "Gaborone, north", 0, 0.1, 0.2, 1, 2.0],
            [8, 'said "no", left', 1, 0.3, 0.4, 0, ""]]
    p = rows_to_csv(tmp_path, ["id", "note", "z", "x1", "x2", "r", "y"], rows)
    assert '"Gaborone, north"' in Path(p).read_text(encoding="utf-8")
    table, info = ingest_csv(p, config_from_dict(make_doc()))
    assert table.X.tolist() == [[0.1, 0.2], [0.3, 0.4]]
    assert table.Z.tolist() == [0, 1]
    assert table.R.tolist() == [1, 0]
    assert np.array_equal(table.Y, [2.0, np.nan], equal_nan=True)


def _cell_by_cell_parse(cells, column, *, allow_empty, what):
    """The per-cell column parse that the whole-column parse replaced, kept
    as a reference."""
    n = len(cells)
    vals = np.full(n, np.nan)
    missing = np.zeros(n, dtype=bool)
    bad = []
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


CELLS = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["", "", " ", "\t ", " 1.5 ", "nan", "inf", "-Infinity", "1_0",
                     "1e400", "\uff11\uff12", "tall", "1,5", "0x10", "1__0", "--1"]),
    st.text(max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(CELLS, min_size=1, max_size=30), allow_empty=st.booleans())
def test_column_parse_matches_the_cell_by_cell_loop(cells, allow_empty):
    def run(parse):
        try:
            vals, missing = parse(cells, "c", allow_empty=allow_empty, what="covariate")
        except DataContractError as exc:
            return str(exc)
        return vals.tobytes(), missing.tolist()

    assert run(_parse_numeric_column) == run(_cell_by_cell_parse)


NUMBER = st.floats(allow_nan=False, allow_infinity=False).map(repr)
ROLES = ("x1", "x2", "z", "r", "y")


@st.composite
def csv_files(draw):
    """Whole CSV files around the five role columns: clean or with CELLS in
    the role cells, an optional free-text column, plain, minimally or fully
    quoted, LF or CRLF endings, with or without a final newline, blank
    lines and ragged rows, and filled nonrespondent outcomes."""
    names = draw(st.permutations([*ROLES, *draw(st.sampled_from([(), ("note",)]))]))
    dirty = draw(st.sampled_from([False, False, True]))

    def cell(valid):
        return draw(st.one_of(valid, CELLS) if dirty else valid)

    rows = []
    for _ in range(draw(st.integers(1, 8))):
        row = {"x1": cell(NUMBER), "x2": cell(NUMBER),
               "z": cell(st.sampled_from(["0", "1", "2"])),
               "r": cell(st.sampled_from(["0", "1", "1.0", " 1"])),
               "note": draw(st.text(max_size=4))}
        filled = NUMBER if row["r"].strip() not in ("0", "0.0") else st.just("")
        row["y"] = cell(st.one_of(filled, NUMBER) if draw(st.booleans()) else filled)
        rows.append([row[c] for c in names])
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    quoting = draw(st.sampled_from([None, csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    lines = []
    for cells in [list(names), *rows]:
        if quoting is None:
            lines.append(",".join(cells) + ending)
        else:
            buf = io.StringIO()
            csv.writer(buf, quoting=quoting, lineterminator=ending).writerow(cells)
            lines.append(buf.getvalue())
    defect = draw(st.sampled_from([None, None, "ragged", "blank"]))
    if defect == "ragged":
        at = draw(st.integers(1, len(lines) - 1))
        lines[at] = draw(st.sampled_from(["0,", ",0,"])) + lines[at]
    elif defect == "blank":
        lines.insert(draw(st.integers(1, len(lines))), ending)
    text = "".join(lines)
    if draw(st.booleans()):
        text = text[:-len(ending)]
    return text


def _ingest_outcome(path, cfg):
    try:
        table, info = ingest_csv(path, cfg)
    except MivestError as exc:
        return type(exc).__name__, str(exc)
    arrays = [(a.dtype.str, a.shape, a.tobytes())
              for a in (table.X, table.Z, table.R, table.Y)]
    return arrays, info


@settings(max_examples=300, deadline=None)
@given(text=csv_files(), strict=st.booleans())
def test_one_pass_ingest_matches_the_csv_reader_path(tmp_path_factory, text, strict):
    # ingest_csv equals the csv.reader path on whole files: table arrays bit
    # for bit and equal ingest info, or the same error
    import mivest.dataio

    p = tmp_path_factory.mktemp("files") / "f.csv"
    p.write_bytes(text.encode("utf-8"))
    cfg = config_from_dict(make_doc(data={"strict_outcome": strict}))
    got = _ingest_outcome(p, cfg)
    with mock.patch.object(mivest.dataio, "_one_pass_columns", lambda *a: None):
        assert got == _ingest_outcome(p, cfg)


def test_written_tables_take_the_one_pass_reader(tmp_path, monkeypatch):
    # write_table_csv's files (and the benchmark's, which are written the
    # same way) are read by np.loadtxt, never by csv.reader
    import mivest.dataio

    table, _ = generate(DGPSpec(family="dual_binary_iv", n=500, seed=3))
    p = tmp_path / "t.csv"
    write_table_csv(table, p, covariate_names=["x1", "x2"])
    passes = []
    real = mivest.dataio._one_pass_columns

    def spy(*args):
        passes.append(real(*args))
        return passes[-1]

    def no_reader(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(mivest.dataio, "_one_pass_columns", spy)
    monkeypatch.setattr(csv, "reader", no_reader)
    again, _ = ingest_csv(p, config_from_dict(make_doc()))
    assert len(passes) == 1 and passes[0] is not None
    np.testing.assert_array_equal(again.X, table.X)
    np.testing.assert_array_equal(again.Y, table.Y)


def test_both_readers_store_covariates_column_major(tmp_path):
    import mivest.dataio

    table, _ = generate(DGPSpec(family="dual_binary_iv", n=300, seed=3))
    p = tmp_path / "t.csv"
    write_table_csv(table, p, covariate_names=["x1", "x2"])
    cfg = config_from_dict(make_doc())
    one_pass, _ = ingest_csv(p, cfg)
    with mock.patch.object(mivest.dataio, "_one_pass_columns", lambda *a: None):
        by_reader, _ = ingest_csv(p, cfg)
    for got in (one_pass, by_reader):
        assert got.X.flags.f_contiguous and not got.X.flags.writeable
        np.testing.assert_array_equal(got.X, table.X)


@pytest.mark.parametrize("width", [31, 32])
def test_one_pass_reader_refuses_an_outcome_cell_that_fills_its_bytes(tmp_path, width):
    # the one-pass reader keeps 32 bytes of an outcome cell, so a cell that
    # fills them all may be cut short and sends the file to csv.reader
    import mivest.dataio

    table, _ = generate(DGPSpec(family="dual_binary_iv", n=200, seed=3))
    p = tmp_path / "t.csv"
    write_table_csv(table, p, covariate_names=["x1", "x2"])
    lines = p.read_text(encoding="utf-8").splitlines()
    y_at = lines[0].split(",").index("y")
    at = next(i for i, line in enumerate(lines[1:], 1) if line.split(",")[y_at])
    cells = lines[at].split(",")
    cells[y_at] = "1." + "0" * (width - 3) + "1"
    lines[at] = ",".join(cells)
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    passes = []
    real = mivest.dataio._one_pass_columns

    def spy(*args):
        passes.append(real(*args))
        return passes[-1]

    with mock.patch.object(mivest.dataio, "_one_pass_columns", spy):
        got, _ = ingest_csv(p, config_from_dict(make_doc()))
    assert (passes[0] is None) == (width == 32)
    assert got.Y[at - 1] == float(cells[y_at])


@pytest.mark.parametrize("first", ["z", "x1"])
def test_byte_order_mark_is_not_part_of_the_header(tmp_path, monkeypatch, first):
    # spreadsheet programs start a UTF-8 CSV with EF BB BF; the first
    # header name read as "\ufeffz" and the file was refused.  The one-pass
    # reader still takes the file, and the csv.reader path reads the same.
    import mivest.dataio

    table, _ = generate(DGPSpec(family="dual_binary_iv", n=300, seed=3))
    plain = tmp_path / "plain.csv"
    write_table_csv(table, plain, covariate_names=["x1", "x2"])
    rows = [line.split(",") for line in plain.read_text(encoding="utf-8").splitlines()]
    at = rows[0].index(first)
    text = "\n".join(",".join([r[at], *r[:at], *r[at + 1:]]) for r in rows) + "\n"
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    cfg = config_from_dict(make_doc())

    passes = []
    real = mivest.dataio._one_pass_columns

    def spy(*args):
        passes.append(real(*args))
        return passes[-1]

    with mock.patch.object(mivest.dataio, "_one_pass_columns", spy):
        got, info = ingest_csv(bom, cfg)
    assert len(passes) == 1 and passes[0] is not None
    with mock.patch.object(mivest.dataio, "_one_pass_columns", lambda *a: None):
        ref, ref_info = ingest_csv(bom, cfg)
    want, _ = ingest_csv(plain, cfg)
    for t in (got, ref):
        np.testing.assert_array_equal(t.X, want.X)
        np.testing.assert_array_equal(t.Z, want.Z)
        np.testing.assert_array_equal(t.R, want.R)
        np.testing.assert_array_equal(t.Y, want.Y)
    assert info == ref_info


def test_oversized_cells_are_data_errors(tmp_path, capsys):
    # csv.reader refuses a cell past its field size limit; that was a
    # csv.Error traceback (exit 1) and is now a data error naming the line
    p = tmp_path / "long.csv"
    p.write_text("z,x1,x2,r,y,note\n0,0.1,0.2,1,2.0,a\n1,0.3,0.4,0,," + "x" * 200_000 + "\n",
                 encoding="utf-8")
    cfg_path = write_yaml(tmp_path / "cfg.yaml", make_doc())
    assert main(["validate", "--config", cfg_path, "--data", str(p)]) == 2
    assert f"data error: {p}: line 3: field larger than field limit" in capsys.readouterr().err


@pytest.mark.parametrize("one_pass", [True, False])
def test_non_utf8_data_is_a_data_error(tmp_path, capsys, monkeypatch, one_pass):
    # byte 0xE9 (latin-1 e-acute) in an outcome cell on line 4 was a
    # UnicodeDecodeError traceback (exit 1); each reader names the line
    import mivest.dataio

    if not one_pass:
        monkeypatch.setattr(mivest.dataio, "_one_pass_columns", lambda *a: None)
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"z,x1,x2,r,y\n0,0.1,0.2,1,2.0\n1,0.3,0.4,0,\n1,0.5,0.6,1,\xe9\n")
    cfg_path = write_yaml(tmp_path / "cfg.yaml", make_doc())
    with pytest.raises(DataContractError, match=r"line 4 is not UTF-8 text \(byte 0xe9\)$"):
        ingest_csv(p, load_config(cfg_path))
    for command in ("estimate", "validate"):
        assert main([command, "--config", cfg_path, "--data", str(p)]) == 2
        assert "line 4 is not UTF-8 text" in capsys.readouterr().err


def test_csv_reader_path_peaks_under_9_times_the_file_size(tmp_path):
    # the csv.reader path decodes the file as it reads it.  Measured (dual
    # family, 50 000 rows, seed 3, one quoted header cell, 2.6 MiB): a peak
    # of 6.6 times the file's size, and 10.4 when the reader was handed an
    # io.StringIO of the decoded text, which holds it at 4 bytes a character
    table, _ = generate(DGPSpec(family="dual_binary_iv", n=50_000, seed=3))
    p = tmp_path / "quoted.csv"
    write_table_csv(table, p)
    p.write_text(p.read_text(encoding="utf-8").replace("x1", '"x1"', 1), encoding="utf-8")
    needed = ["y", "r", "z", "x1", "x2"]
    tracemalloc.start()
    try:
        columns = _csv_columns(p, needed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9 * p.stat().st_size
    assert _plain_shape(p.read_bytes()) is None     # ingest_csv reads it on this path
    assert all(len(cells) == table.n for cells in columns.values())


def test_empty_and_headless_files_rejected(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(DataContractError):
        ingest_csv(empty, config_from_dict(make_doc()))
    header_only = tmp_path / "h.csv"
    header_only.write_text("z,x1,x2,r,y\n", encoding="utf-8")
    with pytest.raises(DataContractError):
        ingest_csv(header_only, config_from_dict(make_doc()))


def test_product_mode_combines_instrument_columns(tmp_path):
    rows = [[0, 0, 0.1, 0.2, 1, 2.0], [0, 1, 0.3, 0.4, 0, ""],
            [1, 0, 0.5, 0.6, 1, 1.0], [1, 1, 0.7, 0.8, 0, ""]]
    p = rows_to_csv(tmp_path, ["z1", "z2", "x1", "x2", "r", "y"], rows)
    cfg = config_from_dict(make_doc(data={"instruments": ["z1", "z2"]}))
    table, info = ingest_csv(p, cfg)
    assert info.instrument_levels == 4
    assert table.Z.tolist() == [0, 1, 2, 3]
    assert len(info.encodings) == 2


# -- commands ----------------------------------------------------------------


def test_estimate_end_to_end(tmp_path, survey_csv, capsys):
    cfg_path = write_yaml(tmp_path / "cfg.yaml", make_doc())
    out = tmp_path / "report.json"
    rc = main(["estimate", "--config", cfg_path, "--data", survey_csv,
               "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "n=600" in text
    assert "missing_mean" in text
    report = json.loads(out.read_text())
    assert report["format"] == "mivest-report/1"
    est = report["results"]["missing_mean"]["estimate"]
    assert est is not None and np.isfinite(est)
    assert report["results"]["population_mean"]["estimate"] is not None
    assert report["data"]["n"] == 600


def test_estimate_reports_are_byte_identical(tmp_path, survey_csv):
    cfg_path = write_yaml(tmp_path / "cfg.yaml", make_doc())
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["estimate", "--config", cfg_path, "--data", survey_csv,
                 "--out", str(out1)]) == 0
    assert main(["estimate", "--config", cfg_path, "--data", survey_csv,
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_estimate_fits_each_fold_once_per_repetition(tmp_path, survey_csv, monkeypatch):
    # both mean reports share one fold pass: K x S nuisance fits in total
    import mivest.crossfit

    calls = []
    real = mivest.crossfit.fit_nuisance_set

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(mivest.crossfit, "fit_nuisance_set", counting)
    doc = make_doc(estimation={"folds": 4, "repetitions": 3})
    cfg_path = write_yaml(tmp_path / "cfg.yaml", doc)
    assert main(["estimate", "--config", cfg_path, "--data", survey_csv,
                 "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 4 * 3


def test_quantile_estimate_fits_the_nuisances_once(tmp_path, monkeypatch):
    # both quantile reports come from one grid pass over a single psi-free
    # fit on one basis transform: one instrument model, one response model
    # per level, one outcome regression per level (fit_linear over every
    # grid point's target at once), and the instrument model is evaluated
    # once, not per grid point
    import mivest.general
    import mivest.nuisance
    from mivest.learners import MultinomialModel, PolyBasis

    table, _ = generate(DGPSpec(family="dual_binary_iv", n=800, seed=14))
    data = tmp_path / "dual.csv"
    write_table_csv(table, data, covariate_names=["x1", "x2"])
    fits, probas, transforms = [], [], []
    learner_calls = {"fit_multinomial": 0, "fit_logistic": 0, "fit_linear": 0}
    real_fit = mivest.general.fit_propensities
    real_proba = MultinomialModel.predict_proba
    real_transform = PolyBasis.transform

    def counting_fit(*args, **kwargs):
        fits.append(1)
        return real_fit(*args, **kwargs)

    def counting_proba(self, *args, **kwargs):
        probas.append(1)
        return real_proba(self, *args, **kwargs)

    def counting_transform(self, X):
        transforms.append(np.atleast_2d(X).shape[0])
        return real_transform(self, X)

    def counted(name):
        real = getattr(mivest.nuisance, name)

        def wrapped(*args, **kwargs):
            learner_calls[name] += 1
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(mivest.general, "fit_propensities", counting_fit)
    monkeypatch.setattr(MultinomialModel, "predict_proba", counting_proba)
    monkeypatch.setattr(PolyBasis, "transform", counting_transform)
    for name in learner_calls:
        monkeypatch.setattr(mivest.nuisance, name, counted(name))
    doc = make_doc(functional={"kind": "quantile", "q": 0.5})
    cfg_path = write_yaml(tmp_path / "cfg.yaml", doc)
    out = tmp_path / "q.json"
    assert main(["estimate", "--config", cfg_path, "--data", str(data),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["data"]["instrument_levels"] == table.L == 4
    assert set(report["results"]) == {"missing_quantile", "population_quantile"}
    assert len(fits) == 1
    assert 0 < len(probas) <= table.L
    assert learner_calls == {"fit_multinomial": 1, "fit_logistic": table.L,
                             "fit_linear": table.L}
    assert transforms == [table.n]


def test_estimate_seed_override_changes_the_splits(tmp_path, survey_csv):
    cfg_path = write_yaml(tmp_path / "cfg.yaml", make_doc())
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["estimate", "--config", cfg_path, "--data", survey_csv,
          "--out", str(out1)])
    main(["estimate", "--config", cfg_path, "--data", survey_csv,
          "--out", str(out2), "--seed", "3"])
    a = json.loads(out1.read_text())["results"]["missing_mean"]["estimate"]
    b = json.loads(out2.read_text())["results"]["missing_mean"]["estimate"]
    assert a != b


def test_estimate_quantile_functional(tmp_path, survey_csv):
    doc = make_doc(functional={"kind": "quantile", "q": 0.5})
    cfg_path = write_yaml(tmp_path / "cfg.yaml", doc)
    out = tmp_path / "q.json"
    rc = main(["estimate", "--config", cfg_path, "--data", survey_csv,
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    psi = report["results"]["missing_quantile"]["psi"]
    assert np.isfinite(psi)
    assert report["results"]["missing_quantile"]["q"] == 0.5


def two_instrument_csv(path):
    """The dual family's four-level instrument as two binary columns."""
    table, _ = generate(DGPSpec(family="dual_binary_iv", n=800, seed=14))
    z1, z2 = np.divmod(table.Z, 2)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["z1", "z2", "x1", "x2", "r", "y"])
        for i in range(table.n):
            y = repr(table.y_at(i)) if table.y_present[i] else ""
            w.writerow([int(z1[i]), int(z2[i]), repr(float(table.X[i, 0])),
                        repr(float(table.X[i, 1])), int(table.R[i]), y])
    return path


def test_estimate_separate_instrument_mode(tmp_path, capsys):
    p = two_instrument_csv(tmp_path / "two.csv")
    doc = make_doc(data={"instruments": ["z1", "z2"],
                         "instrument_mode": "separate"})
    cfg_path = write_yaml(tmp_path / "cfg.yaml", doc)
    out = tmp_path / "sep.json"
    rc = main(["estimate", "--config", cfg_path, "--data", str(p),
               "--out", str(out)])
    assert rc == 0
    assert "separate analyses for 2 instruments" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert set(report["per_instrument"]) == {"z1", "z2"}
    for entry in report["per_instrument"].values():
        assert np.isfinite(entry["results"]["missing_mean"]["estimate"])


def test_separate_instruments_equal_product_runs_on_each_column(tmp_path):
    # separate mode is product mode run once per instrument column: on a
    # plain file, which the one-pass reader takes, and on one with a quoted
    # header cell, which takes the csv.reader path, each per-instrument
    # entry (ingest info, results and any fit warnings) equals the report
    # of a product-mode estimate on the config of that instrument alone
    import mivest.dataio

    plain = two_instrument_csv(tmp_path / "two.csv")
    quoted = tmp_path / "quoted.csv"
    quoted.write_bytes(b'"z1"' + plain.read_bytes()[2:])
    sep = write_yaml(tmp_path / "sep.yaml", make_doc(
        data={"instruments": ["z1", "z2"], "instrument_mode": "separate"}))
    needed = ["y", "r", "z1", "z2", "x1", "x2"]
    for p, one_pass in ((plain, True), (quoted, False)):
        columns = mivest.dataio._one_pass_columns(p, needed, load_config(sep))
        assert (columns is not None) == one_pass
        out = tmp_path / "sep.json"
        assert main(["estimate", "--config", sep, "--data", str(p), "--out", str(out)]) == 0
        per = json.loads(out.read_text())["per_instrument"]
        assert set(per) == {"z1", "z2"}
        for col in ("z1", "z2"):
            alone = write_yaml(tmp_path / f"{col}.yaml",
                               make_doc(data={"instruments": [col]}))
            ref_out = tmp_path / f"{col}.json"
            assert main(["estimate", "--config", alone, "--data", str(p),
                         "--out", str(ref_out)]) == 0
            ref = json.loads(ref_out.read_text())
            assert ref["config"]["data"]["instrument_mode"] == "product"
            assert per[col] == {k: ref[k] for k in ("data", "results", "fit_warnings")
                                if k in ref}


def test_separate_instrument_faults_surface_at_their_turn(tmp_path, capsys):
    # the first instrument's analysis still runs when a later column is
    # absent, and the error names that column alone, as a per-column
    # ingest did
    p = two_instrument_csv(tmp_path / "two.csv")
    doc = make_doc(data={"instruments": ["z1", "zz"], "instrument_mode": "separate"})
    rc = main(["estimate", "--config", write_yaml(tmp_path / "cfg.yaml", doc),
               "--data", str(p)])
    assert rc == 2
    assert f"data error: {p}: missing required columns ['zz']" in capsys.readouterr().err


def test_ingest_warnings_print_in_both_instrument_modes(tmp_path, capsys):
    # three filled outcome cells on nonrespondent rows are masked with a
    # warning under strict_outcome: false; both modes print it (separate
    # mode once per instrument, prefixed with the column) and report it
    p = two_instrument_csv(tmp_path / "two.csv")
    with open(p, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    filled = [i for i, row in enumerate(rows) if row[4] == "0"][:3]
    for i in filled:
        rows[i][5] = "1.5"
    with open(p, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    message = f"masked 3 outcome cells on nonrespondent rows {_fmt_rows([i + 1 for i in filled])}"

    for mode in ("product", "separate"):
        doc = make_doc(data={"instruments": ["z1", "z2"], "instrument_mode": mode,
                             "strict_outcome": False})
        out = tmp_path / f"{mode}.json"
        assert main(["estimate", "--config", write_yaml(tmp_path / f"{mode}.yaml", doc),
                     "--data", str(p), "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        report = json.loads(out.read_text())
        if mode == "product":
            assert f"warning: {message}" in err
            assert report["data"]["warnings"] == [message]
        else:
            for col in ("z1", "z2"):
                assert f"warning: {col}: {message}" in err
                assert report["per_instrument"][col]["data"]["warnings"] == [message]


@pytest.mark.parametrize("column, cell", [("x1", "nan"), ("x2", "-inf"), ("y", "inf"),
                                          ("y", "nan"), ("z", "nan")])
def test_non_finite_cells_are_data_errors(tmp_path, capsys, column, cell):
    # float() parses nan and inf: in a covariate or a respondent's outcome
    # they reached the learners, and in an instrument column nan became a
    # level of its own; now each is refused at ingest, naming the row
    header = ["z", "x1", "x2", "r", "y"]
    rows = [[i % 2, 0.1 * i, 0.2, 1, float(i)] for i in range(6)]
    rows[3][header.index(column)] = cell
    p = rows_to_csv(tmp_path, header, rows)
    cfg_path = write_yaml(tmp_path / "cfg.yaml", make_doc())
    with pytest.raises(DataContractError,
                       match=f"column '{column}' has non-finite values at rows 5$"):
        ingest_csv(p, load_config(cfg_path))
    for command in ("estimate", "validate"):
        assert main([command, "--config", cfg_path, "--data", p]) == 2
        assert "non-finite values at rows 5" in capsys.readouterr().err


def test_nonrespondent_non_finite_outcome_cells_are_masked(tmp_path):
    # a nonrespondent's outcome cell is never read: under strict_outcome:
    # false it is masked, whatever it holds
    rows = [[0, 0.1, 0.2, 1, 2.0], [1, 0.3, 0.4, 0, "inf"], [1, 0.5, 0.6, 0, ""]]
    p = rows_to_csv(tmp_path, ["z", "x1", "x2", "r", "y"], rows)
    _, info = ingest_csv(p, config_from_dict(make_doc(data={"strict_outcome": False})))
    assert info.masked_rows == (3,)


@pytest.mark.parametrize("section, key, value", [
    ("estimation", "winsorize", float("nan")),
    ("estimation", "winsorize", float("inf")),
    ("learner", "ridge_lambda", float("nan")),
    ("learner", "ridge_lambda", float("inf")),
    ("learner", "irls_tol", float("nan")),
    ("learner", "irls_tol", float("inf")),
    ("functional", "psi", float("nan")),
    ("functional", "psi", float("inf")),
    ("simulation", "selection_intercept", float("nan")),
    ("simulation", "selection_intercept", float("inf")),
])
def test_non_finite_config_numbers_are_configuration_errors(tmp_path, survey_csv, capsys,
                                                            section, key, value):
    if section == "simulation":
        doc = make_doc(simulation={"family": "dual_binary_iv", "parameters": {key: value}})
        argv = ["oracle"]
    else:
        doc = make_doc(**{section: {key: value}})
        argv = ["estimate", "--data", survey_csv]
    rc = main([*argv, "--config", write_yaml(tmp_path / "cfg.yaml", doc)])
    assert rc == 4
    assert f"configuration error: {key} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["nan", "inf", "-inf"])
def test_non_finite_winsorize_flag_is_a_configuration_error(tmp_path, survey_csv, capsys,
                                                           flag):
    rc = main(["estimate", "--config", write_yaml(tmp_path / "cfg.yaml", make_doc()),
               "--data", survey_csv, f"--winsorize={flag}"])
    assert rc == 4
    assert "configuration error: winsorize must be finite" in capsys.readouterr().err


def test_estimate_reports_fit_warnings(tmp_path, survey_csv, capsys):
    # every unit at level z = 1 responds, so each fold's training block
    # fits that level's response model on one class only
    rng = np.random.default_rng(5)
    n = 300
    z = rng.integers(0, 2, size=n)
    z2 = rng.integers(0, 2, size=n)
    X = rng.random((n, 2))
    r = np.where(z == 1, 1, rng.integers(0, 2, size=n))
    p = tmp_path / "one_sided.csv"
    with open(p, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["z", "z2", "x1", "x2", "r", "y"])
        for i in range(n):
            y = repr(float(X[i].sum() + rng.normal())) if r[i] else ""
            w.writerow([z[i], z2[i], repr(float(X[i, 0])), repr(float(X[i, 1])), r[i], y])
    expected = [{"message": "instrument level 1 lacks both response classes "
                            "in training data", "count": 3}]

    out = tmp_path / "r.json"
    assert main(["estimate", "--config", write_yaml(tmp_path / "cfg.yaml", make_doc()),
                 "--data", str(p), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["fit_warnings"] == expected
    assert "warning: instrument level 1 lacks both response classes" in capsys.readouterr().err

    doc = make_doc(data={"instruments": ["z", "z2"], "instrument_mode": "separate"})
    out = tmp_path / "sep.json"
    assert main(["estimate", "--config", write_yaml(tmp_path / "sep.yaml", doc),
                 "--data", str(p), "--out", str(out)]) == 0
    per = json.loads(out.read_text())["per_instrument"]
    assert per["z"]["fit_warnings"] == expected
    assert "fit_warnings" not in per["z2"]
    assert "warning: z: instrument level 1" in capsys.readouterr().err

    # a warning-free run has no fit_warnings key at all
    assert main(["estimate", "--config", write_yaml(tmp_path / "cfg.yaml", make_doc()),
                 "--data", survey_csv, "--out", str(out)]) == 0
    assert "fit_warnings" not in json.loads(out.read_text())


def test_validate_command(tmp_path, survey_csv, capsys):
    cfg_path = write_yaml(tmp_path / "cfg.yaml", make_doc())
    rc = main(["validate", "--config", cfg_path, "--data", survey_csv])
    assert rc == 0
    assert "table contract: ok" in capsys.readouterr().out


def test_exit_code_for_data_errors(tmp_path, capsys):
    rows = [[0, 0.1, 1, 2.0]]
    p = rows_to_csv(tmp_path, ["z", "x1", "r", "y"], rows)
    cfg_path = write_yaml(tmp_path / "cfg.yaml", make_doc())
    rc = main(["estimate", "--config", cfg_path, "--data", p,
               "--out", str(tmp_path / "o.json")])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


def test_exit_code_for_config_errors(tmp_path, survey_csv, capsys):
    bad = make_doc()
    bad["format"] = "mivest-config/9"
    cfg_path = write_yaml(tmp_path / "bad.yaml", bad)
    rc = main(["estimate", "--config", cfg_path, "--data", survey_csv,
               "--out", str(tmp_path / "o.json")])
    assert rc == 4
    assert "configuration error" in capsys.readouterr().err


def test_unknown_flags_exit_without_killing_the_process(tmp_path, survey_csv,
                                                        capsys):
    cfg_path = write_yaml(tmp_path / "cfg.yaml", make_doc())
    rc = main(["estimate", "--config", cfg_path, "--data", survey_csv,
               "--bogus"])
    assert rc == 4
    rc2 = main(["estimate", "--config", cfg_path, "--data", survey_csv,
                "--out", str(tmp_path / "o.json"), "--winsorize", "narrow"])
    assert rc2 == 4
    capsys.readouterr()


def test_exit_code_for_estimation_errors(tmp_path, capsys):
    rows = [[z, 0.1 * i, 0.2, 1, float(i)] for i, z in
            enumerate([0, 1] * 20)]
    p = rows_to_csv(tmp_path, ["z", "x1", "x2", "r", "y"], rows)
    cfg_path = write_yaml(tmp_path / "cfg.yaml", make_doc())
    rc = main(["estimate", "--config", cfg_path, "--data", p,
               "--out", str(tmp_path / "o.json")])
    assert rc == 3
    assert "estimation error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, sim", [
    (["oracle", "--draws", "-5"], {}),
    (["oracle", "--draws", "0"], {}),
    (["oracle"], {"oracle_draws": -3}),
], ids=["oracle-draws-negative", "oracle-draws-zero", "config-oracle-draws"])
def test_draw_counts_below_one_are_configuration_errors(tmp_path, capsys, argv, sim):
    doc = make_doc(simulation={"family": "dual_binary_iv", **sim})
    out = tmp_path / "o.json"
    rc = main([argv[0], "--config", write_yaml(tmp_path / "cfg.yaml", doc),
               "--out", str(out), *argv[1:]])
    assert rc == 4
    err = capsys.readouterr().err
    assert "configuration error" in err and "at least 1" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, sim", [
    (["--replications", "-2"], {}),
    (["--replications", "0"], {}),
    ([], {"replications": 0}),
], ids=["flag-negative", "flag-zero", "config-zero"])
def test_simulate_rejects_replications_below_one_before_the_oracle(
        tmp_path, capsys, monkeypatch, argv, sim):
    import mivest.cli

    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(mivest.cli, "oracle_beta", no_oracle)
    doc = make_doc(simulation={"family": "dual_binary_iv", **sim})
    out = tmp_path / "mc.json"
    rc = main(["simulate", "--config", write_yaml(tmp_path / "cfg.yaml", doc),
               "--out", str(out), *argv])
    assert rc == 4
    err = capsys.readouterr().err
    assert "configuration error" in err and "replications must be at least 1" in err
    assert not out.exists()


def test_simulate_command(tmp_path, capsys):
    doc = make_doc(simulation={"family": "single_binary_iv", "n": 250,
                               "replications": 2, "oracle_draws": 200_000})
    cfg_path = write_yaml(tmp_path / "sim.yaml", doc)
    out = tmp_path / "sim.json"
    rc = main(["simulate", "--config", cfg_path, "--out", str(out)])
    assert rc == 0
    assert "oracle=" in capsys.readouterr().out
    report = json.loads(out.read_text())
    mc = report["monte_carlo"]
    assert mc["replications"] == 2
    assert "if" in mc["estimators"]
    assert report["oracle"]["draws"] == 200_000


@pytest.mark.parametrize("argv, sim", [
    (["simulate", "--n", "250", "--replications", "3"],
     {"n": 250, "replications": 3}),
    (["oracle", "--draws", "100000"], {"oracle_draws": 100_000}),
], ids=["simulate", "oracle"])
def test_the_config_echo_reproduces_the_run(tmp_path, capsys, argv, sim):
    # the flags are keys of the config document, so the report's config
    # echoes the values that ran and rebuilds the config that ran
    doc = make_doc(simulation={"family": "single_binary_iv", "n": 300,
                               "replications": 2, "oracle_draws": 200_000})
    out = tmp_path / "r.json"
    assert main([argv[0], "--config", write_yaml(tmp_path / "cfg.yaml", doc),
                 "--out", str(out), *argv[1:]]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    echo = report["config"]["simulation"]
    assert echo["oracle_draws"] == report["oracle"]["draws"]
    if "monte_carlo" in report:
        assert echo["n"] == report["monte_carlo"]["n"]
        assert echo["replications"] == report["monte_carlo"]["replications"]
    ran = make_doc(simulation={**doc["simulation"], **sim})
    assert config_from_dict(report["config"]) == config_from_dict(ran)
    assert {k: echo[k] for k in sim} == sim


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "250"],
    ["simulate", "--replications", "3"],
    ["oracle", "--draws", "100000"],
], ids=["n", "replications", "draws"])
def test_a_simulation_flag_does_not_make_a_simulation_section(tmp_path, capsys, argv):
    out = tmp_path / "r.json"
    assert main([argv[0], "--config", write_yaml(tmp_path / "cfg.yaml", make_doc()),
                 "--out", str(out), *argv[1:]]) == 4
    assert ("configuration error: this command needs a 'simulation' section in the config"
            in capsys.readouterr().err)
    assert not out.exists()


def test_oracle_command_flags_the_single_family_gap(tmp_path, capsys):
    doc = make_doc(simulation={"family": "single_binary_iv",
                               "oracle_draws": 200_000})
    cfg_path = write_yaml(tmp_path / "o.yaml", doc)
    out = tmp_path / "oracle.json"
    rc = main(["oracle", "--config", cfg_path, "--out", str(out)])
    assert rc == 0
    assert "DIFFERS" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["agrees_with_design"] is False
    assert report["design_reference"] == 1.8
    assert report["oracle"]["clamp_fraction"] > 0.2


def test_oracle_command_confirms_the_dual_family(tmp_path, capsys):
    doc = make_doc(simulation={"family": "dual_binary_iv",
                               "oracle_draws": 200_000})
    cfg_path = write_yaml(tmp_path / "o.yaml", doc)
    rc = main(["oracle", "--config", cfg_path, "--out",
               str(tmp_path / "oracle.json")])
    assert rc == 0
    assert "agrees with the design value 1.07" in capsys.readouterr().out


def test_commands_without_a_csv_need_no_data_section(tmp_path, survey_csv, capsys):
    for family in ("single_binary_iv", "dual_binary_iv"):
        doc = {"format": "mivest-config/1", "functional": {"kind": "mean"},
               "simulation": {"family": family, "oracle_draws": 100_000}}
        cfg_path = write_yaml(tmp_path / f"{family}.yaml", doc)
        out = tmp_path / f"{family}.json"
        assert main(["oracle", "--config", cfg_path, "--out", str(out)]) == 0
        assert "data" not in json.loads(out.read_text())["config"]
    cfg = config_from_dict(doc)
    assert config_from_dict(cfg.as_dict()) == cfg
    capsys.readouterr()
    for command in ("estimate", "validate"):
        rc = main([command, "--config", cfg_path, "--data", survey_csv])
        assert rc == 4
        assert "'data' section" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "oracle", "robustness"])
@pytest.mark.parametrize("family, allowed", [
    ("single_binary_iv", "none"),
    ("dual_binary_iv", "'selection_intercept'"),
])
def test_unknown_simulation_parameters_are_configuration_errors(
        tmp_path, capsys, monkeypatch, command, family, allowed):
    # a misspelt key was silently ignored; it is refused before any draw
    import mivest.cli
    import mivest.corruption

    def no_draws(*args, **kwargs):
        raise AssertionError("drew records")

    monkeypatch.setattr(mivest.cli, "oracle_beta", no_draws)
    monkeypatch.setattr(mivest.corruption, "generate", no_draws)
    monkeypatch.setattr(mivest.corruption, "oracle_identified_beta", no_draws)
    doc = make_doc(simulation={"family": family,
                               "parameters": {"selection_intercpt": -8.0}})
    out = tmp_path / "o.json"
    rc = main([command, "--config", write_yaml(tmp_path / "cfg.yaml", doc),
               "--out", str(out)])
    assert rc == 4
    assert (f"configuration error: unknown simulation parameter 'selection_intercpt' "
            f"for {family}; it allows {allowed}" in capsys.readouterr().err)
    assert not out.exists()


def test_robustness_command(tmp_path, capsys):
    doc = make_doc(simulation={"family": "single_binary_iv"})
    cfg_path = write_yaml(tmp_path / "r.yaml", doc)
    out = tmp_path / "rob.json"
    rc = main(["robustness", "--config", cfg_path, "--out", str(out),
               "--n", "15000"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "all_corrupt" in printed
    assert printed.count("population_bias=") == 4
    report = json.loads(out.read_text())
    rows = report["robustness"]["scenarios"]
    assert [r["scenario"] for r in rows] == ["contrast_and_marginals", "response_models",
                                              "contrast_and_instrument", "all_corrupt"]
    # the exact column: zero on every consistent route, far from it on the control
    for r in rows:
        assert (abs(r["population_bias"]) <= 1e-10) == r["expect_consistent"], r["scenario"]
    # the reference is a quadrature: its error is the gap between rule sizes
    assert report["robustness"]["reference_error"] < 1e-8


@pytest.mark.parametrize("policy", ["reject_invalid", "as_printed_error"])
def test_robustness_refuses_other_clamp_policies(tmp_path, capsys, policy):
    # its table and closed forms follow the clamped law alone; another
    # policy was silently ignored (exit 0) and is now a configuration error
    doc = make_doc(simulation={"family": "single_binary_iv", "clamp_policy": policy})
    out = tmp_path / "rob.json"
    rc = main(["robustness", "--config", write_yaml(tmp_path / "r.yaml", doc),
               "--out", str(out), "--n", "2000"])
    assert rc == 4
    assert (f"configuration error: robustness draws and measures under "
            f"clamp_to_one_minus_eps only; simulation.clamp_policy is {policy!r}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "oracle", "robustness"])
def test_robustness_refuses_other_functionals(tmp_path, capsys, command):
    # the oracle, the scenarios and the reference are those of the mean; a
    # quantile config wrote a mean report under its echo (exit 0), and
    # simulate and oracle reported the moment at psi as the quantile's truth
    doc = make_doc(functional={"kind": "quantile", "q": 0.5},
                   simulation={"family": "dual_binary_iv", "n": 2000, "replications": 2,
                               "oracle_draws": 200_000})
    out = tmp_path / "rob.json"
    argv = ["--n", "2000"] if command == "robustness" else []
    rc = main([command, "--config", write_yaml(tmp_path / "r.yaml", doc),
               "--out", str(out), *argv])
    assert rc == 4
    assert (f"configuration error: {command} measures the mean functional only; "
            "functional.kind is 'quantile'" in capsys.readouterr().err)
    assert not out.exists()


def test_robustness_default_clamp_policy_report_is_unchanged(tmp_path):
    # naming the default policy gives the report of a config that omits it
    outs = []
    for name, extra in (("implicit", {}), ("explicit", {"clamp_policy": "clamp_to_one_minus_eps"})):
        doc = make_doc(simulation={"family": "dual_binary_iv", **extra})
        outs.append(tmp_path / f"{name}.json")
        assert main(["robustness", "--config", write_yaml(tmp_path / f"{name}.yaml", doc),
                     "--out", str(outs[-1]), "--n", "3000"]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_robustness_has_no_reference_draws_flag(tmp_path, capsys):
    # the reference draws nothing, so the flag is unknown (exit 4)
    doc = make_doc(simulation={"family": "dual_binary_iv"})
    out = tmp_path / "rob.json"
    rc = main(["robustness", "--config", write_yaml(tmp_path / "r.yaml", doc),
               "--out", str(out), "--reference-draws", "5"])
    assert rc == 4
    assert "unrecognized arguments: --reference-draws" in capsys.readouterr().err
    assert not out.exists()


def test_robustness_without_nonrespondents_is_an_estimation_error(tmp_path, capsys):
    # P(R = 0) is 0 at this intercept, so the identified value is undefined
    doc = make_doc(simulation={"family": "dual_binary_iv",
                               "parameters": {"selection_intercept": -5000}})
    out = tmp_path / "rob.json"
    rc = main(["robustness", "--config", write_yaml(tmp_path / "r.yaml", doc),
               "--out", str(out), "--n", "2000"])
    assert rc == 3
    assert "estimation error: P(R = 0) is 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "simulate", "oracle", "robustness"])
@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_are_configuration_errors(tmp_path, survey_csv, capsys,
                                                    monkeypatch, command, threads):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    doc = make_doc(simulation={"family": "single_binary_iv", "n": 250,
                               "replications": 2, "oracle_draws": 200_000})
    argv = [command, "--config", write_yaml(tmp_path / "cfg.yaml", doc),
            "--out", str(tmp_path / "o.json"), f"--threads={threads}"]
    if command == "estimate":
        argv += ["--data", survey_csv]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert f"--threads must be at least 1, got {threads}" in err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("command, takes_threads", [
    ("estimate", True), ("simulate", True), ("oracle", True), ("robustness", True),
    ("validate", False),
])
def test_every_command_but_validate_takes_threads(command, takes_threads):
    argv = [command, "--config", "c.yaml", "--threads", "1"]
    if command in ("estimate", "validate"):
        argv += ["--data", "d.csv"]
    if takes_threads:
        assert _build_parser().parse_args(argv).threads == 1
    else:
        with pytest.raises(ConfigurationError, match="unrecognized arguments: --threads 1"):
            _build_parser().parse_args(argv)


def test_simulate_reports_fit_warnings_whatever_the_thread_count(tmp_path, capsys):
    # the acceptance criterion 09 study: at n = 300 with 3 folds some
    # training folds have an instrument level without both response classes
    doc = make_doc(estimation={"folds": 3, "repetitions": 3, "seed": 12},
                   simulation={"family": "single_binary_iv", "n": 300,
                               "replications": 3, "oracle_draws": 400_000})
    cfg_path = write_yaml(tmp_path / "sim.yaml", doc)
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.json"
        assert main(["simulate", "--config", cfg_path, "--out", str(out),
                     "--threads", threads]) == 0
        outs.append(out.read_bytes())
        err = capsys.readouterr().err
        assert "warning: instrument level 1 lacks both response classes" in err
    assert outs[0] == outs[1]
    fit_warnings = json.loads(outs[0])["monte_carlo"]["fit_warnings"]
    assert fit_warnings
    assert all(w["count"] >= 1 for w in fit_warnings)
    assert any("lacks both response classes" in w["message"] for w in fit_warnings)


def test_warning_free_simulate_reports_have_no_fit_warnings(tmp_path, capsys):
    doc = make_doc(simulation={"family": "single_binary_iv", "n": 2000,
                               "replications": 2, "oracle_draws": 200_000})
    out = tmp_path / "sim.json"
    assert main(["simulate", "--config", write_yaml(tmp_path / "sim.yaml", doc),
                 "--out", str(out)]) == 0
    assert "warning:" not in capsys.readouterr().err
    assert "fit_warnings" not in json.loads(out.read_text())["monte_carlo"]


# -- report key trees ----------------------------------------------------------
# A report's keys are its report types' field names, so renaming or adding a
# field changes the report.  These pin every key path of each command's
# report; the config echo's keys are pinned by
# test_a_config_with_every_key_changed_survives_its_echo.


def _key_paths(node, prefix=""):
    """Every key of a report tree as a dotted path; list items share one "[]" step."""
    paths = set()
    if isinstance(node, dict):
        for k, v in node.items():
            paths.add(prefix + k)
            paths |= _key_paths(v, f"{prefix}{k}.")
    elif isinstance(node, list):
        for v in node:
            paths |= _key_paths(v, prefix[:-1] + "[].")
    return paths


def _under(prefix, keys):
    return [prefix, *(f"{prefix}.{k}" for k in keys)]


DATA_KEYS = ["encodings", "encodings[].column", "encodings[].edges", "encodings[].kind",
             "encodings[].levels", "encodings[].values", "instrument_levels", "level_map",
             "level_map.0", "level_map.1", "masked_rows", "n", "n_complete", "n_incomplete",
             "warnings"]
MEAN_KEYS = ["ci", "ci_level", "diagnostics", "diagnostics.floor_hits",
             "diagnostics.nonconverged_fits", "diagnostics.prob_clips",
             "diagnostics.winsorized", "estimate", "estimator", "n", "n_folds",
             "n_incomplete", "per_repetition", "per_repetition.estimates",
             "per_repetition.variances", "repetitions", "seed", "std_error", "trim",
             "variance", "winsorize"]
QUANTILE_KEYS = ["bracket", "psi", "q"]
ORACLE_KEYS = ["clamp_fraction", "draws", "mc_se", "n_missing", "p_missing", "value"]
SUMMARY_KEYS = ["bias", "mean", "mse", "n_failed", "n_success", "name", "variance"]
HEAD = ["command", "config", "format"]


def _mean_entry(prefix):
    return [*_under(f"{prefix}data", DATA_KEYS), f"{prefix}results",
            *_under(f"{prefix}results.missing_mean", MEAN_KEYS),
            *_under(f"{prefix}results.population_mean", MEAN_KEYS)]


REPORT_KEYS = {
    "estimate-mean": [*HEAD, *_mean_entry("")],
    "estimate-quantile": [*HEAD, *_under("data", DATA_KEYS), "results",
                          *_under("results.missing_quantile", QUANTILE_KEYS),
                          *_under("results.population_quantile", QUANTILE_KEYS)],
    "estimate-separate": [*HEAD, "per_instrument",
                          *_under("per_instrument.z1", _mean_entry("")),
                          *_under("per_instrument.z2", _mean_entry(""))],
    "simulate": [*HEAD, *_under("oracle", ORACLE_KEYS),
                 *_under("monte_carlo", [
                     "ci_level", "estimators", "family", "master_seed", "n", "n_folds",
                     "oracle", "repetitions", "replications",
                     *_under("estimators.id", SUMMARY_KEYS),
                     *_under("estimators.if", [*SUMMARY_KEYS, "coverage",
                                               "mean_if_variance"])])],
    "oracle": [*HEAD, "agrees_with_design", "design_reference", "design_tolerance",
               *_under("oracle", ORACLE_KEYS)],
    "robustness": [*HEAD, *_under("robustness", [
        "family", "n", "reference", "reference_error", "seed",
        "scenarios", *(f"scenarios[].{k}" for k in (
            "abs_bias", "corrupted", "estimate", "expect_consistent", "held", "mc_se",
            "population_bias", "reference", "scenario"))])],
}


@pytest.mark.parametrize("case", sorted(REPORT_KEYS))
def test_every_report_key_is_pinned(tmp_path, survey_csv, case):
    command, _, variant = case.partition("-")
    over = {
        "quantile": {"functional": {"kind": "quantile", "q": 0.5}},
        "separate": {"data": {"instruments": ["z1", "z2"], "instrument_mode": "separate"}},
        "simulate": {"simulation": {"family": "single_binary_iv", "n": 250,
                                    "replications": 2, "oracle_draws": 200_000}},
        "oracle": {"simulation": {"family": "dual_binary_iv", "oracle_draws": 200_000}},
        "robustness": {"simulation": {"family": "single_binary_iv"}},
    }.get(variant or command, {})
    argv = {"estimate": ["--data", survey_csv], "robustness": ["--n", "3000"]}.get(command, [])
    if variant == "separate":
        argv = ["--data", str(two_instrument_csv(tmp_path / "two.csv"))]
    out = tmp_path / "report.json"
    assert main([command, "--config", write_yaml(tmp_path / "c.yaml", make_doc(**over)),
                 *argv, "--out", str(out)]) == 0
    paths = _key_paths(json.loads(out.read_text()))
    assert sorted(p for p in paths if not p.startswith("config.")) == sorted(REPORT_KEYS[case])
