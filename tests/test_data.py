"""Observation table contract, functional evaluation, level combination."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mivest.data import (FunctionalSpec, ObservationTable, _linear_quantiles,
                         combine_instrument_levels, evaluate_h, validate_table)
from mivest.exceptions import (ConfigurationError, DataContractError,
                               MissingOutcomeError)

from helpers import small_table


def test_mean_h_is_identity_at_zero_offset():
    assert evaluate_h(FunctionalSpec.mean(), 2.5) == 2.5


def test_mean_h_centers():
    assert evaluate_h(FunctionalSpec.mean(psi=2.5), 2.5) == 0.0


def test_quantile_h_example():
    spec = FunctionalSpec.quantile(0.5, psi=1.0)
    assert evaluate_h(spec, 0.3) == -0.5


@given(psi=st.floats(-50, 50), y1=st.floats(-50, 50), y2=st.floats(-50, 50))
def test_mean_h_has_unit_slope(psi, y1, y2):
    spec = FunctionalSpec.mean(psi=psi)
    lhs = evaluate_h(spec, y1) - evaluate_h(spec, y2)
    assert lhs == pytest.approx(y1 - y2, abs=1e-9)


@given(q=st.floats(0.01, 0.99),
       psi=st.floats(-10, 10),
       ys=st.lists(st.floats(-20, 20), min_size=1, max_size=30))
def test_quantile_h_takes_two_values(q, psi, ys):
    spec = FunctionalSpec.quantile(q, psi=psi)
    vals = evaluate_h(spec, np.array(ys))
    for v in np.unique(vals):
        assert v == pytest.approx(1.0 - q) or v == pytest.approx(-q)


def test_quantile_requires_open_interval():
    for q in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ConfigurationError):
            FunctionalSpec.quantile(q)


def test_custom_requires_callable():
    with pytest.raises(ConfigurationError):
        FunctionalSpec(kind="custom", h=None)


def test_custom_h_is_used():
    spec = FunctionalSpec.custom(lambda y, psi: y * y - psi, psi=1.0)
    assert evaluate_h(spec, 3.0) == 8.0


def test_with_psi_keeps_kind():
    spec = FunctionalSpec.quantile(0.25).with_psi(4.0)
    assert spec.kind == "quantile"
    assert spec.q == 0.25
    assert spec.psi == 4.0


def test_from_arrays_promotes_vector_covariate():
    t = ObservationTable.from_arrays(np.arange(4.0), [0, 1, 0, 1],
                                     [0, 1, 0, 1], [None, 2.0, None, 3.0])
    assert t.X.shape == (4, 1)
    assert t.p == 1


def test_from_arrays_rejects_bad_shapes():
    X = np.zeros((3, 2, 2))
    with pytest.raises(DataContractError):
        ObservationTable.from_arrays(X, [0, 1, 0], [1, 1, 1], [1.0, 1.0, 1.0])
    with pytest.raises(DataContractError):
        ObservationTable.from_arrays(np.zeros((3, 2)), [0, 1], [1, 1],
                                     [1.0, 1.0])


def test_from_arrays_rejects_noninteger_codes():
    with pytest.raises(DataContractError):
        small_table([0.5, 1.0], [1, 1], [1.0, 1.0])


def test_from_arrays_rejects_nonbinary_response():
    with pytest.raises(DataContractError):
        small_table([0, 1], [1, 2], [1.0, 1.0])


def test_outcome_storage_and_lookup():
    t = small_table([0, 1, 1], [1, 0, 1], [1.5, None, 2.5])
    assert t.y_at(0) == 1.5
    assert t.y_at(2) == 2.5
    with pytest.raises(MissingOutcomeError):
        t.y_at(1)
    dense = t.y_dense()
    assert np.isnan(dense[1])
    assert dense[0] == 1.5


def test_y_observed_requires_values_for_respondents():
    t = small_table([0, 1], [1, 1], [1.0, None])
    with pytest.raises(MissingOutcomeError):
        t.y_observed


def test_rh_is_zero_off_support():
    t = small_table([0, 1, 1], [1, 0, 1], [2.0, None, 4.0])
    vals = t.rh(FunctionalSpec.mean(psi=1.0))
    assert vals[1] == 0.0
    assert vals[0] == 1.0
    assert vals[2] == 3.0


def test_counts():
    t = small_table([0, 1, 0, 1], [1, 0, 0, 1], [1.0, None, None, 2.0])
    assert (t.n, t.n0, t.n1) == (4, 2, 2)


def test_validate_clean_table():
    t = small_table([0, 1], [1, 0], [1.0, None])
    assert validate_table(t) == []


def test_validate_flags_outcome_under_missing():
    # bypass from_arrays by building the mask directly
    t = small_table([0, 1], [1, 0], [1.0, None])
    object.__setattr__(t, "y_present", np.array([True, True]))
    object.__setattr__(t, "_y_values", np.array([1.0, 9.0]))
    codes = {v.code for v in validate_table(t)}
    assert "outcome_under_missing" in codes


def test_validate_flags_code_range_and_absent_level():
    t = small_table([0, 2], [1, 0], [1.0, None], L=3)
    codes = {v.code for v in validate_table(t)}
    assert "level_absent" in codes
    t2 = small_table([0, 1], [1, 0], [1.0, None], L=2)
    object.__setattr__(t2, "Z", np.array([0, 5]))
    codes2 = {v.code for v in validate_table(t2)}
    assert "code_range" in codes2


def test_validate_flags_nonfinite_covariate():
    X = np.array([[0.1, np.inf], [0.2, 0.3]])
    t = small_table([0, 1], [1, 0], [1.0, None], X=X)
    codes = {v.code for v in validate_table(t)}
    assert "covariate_nonfinite" in codes


def test_subset_keeps_alignment_and_levels():
    t = small_table([0, 1, 1, 0], [1, 0, 1, 1], [1.0, None, 3.0, 4.0])
    sub = t.subset(np.array([2, 0]))
    assert sub.L == t.L
    assert sub.y_at(0) == 3.0
    assert sub.y_at(1) == 1.0
    mask = np.array([False, True, True, False])
    sub2 = t.subset(mask)
    assert sub2.n == 2
    assert sub2.Z.tolist() == [1, 1]


def test_combine_levels_orders_lexicographically():
    codes, level_map = combine_instrument_levels(
        [np.array([1, 0, 0, 1]), np.array([0, 1, 0, 1])])
    assert level_map == {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)}
    assert codes.tolist() == [2, 1, 0, 3]


def test_combine_levels_drops_unobserved_combos():
    codes, level_map = combine_instrument_levels(
        [np.array([0, 0, 1]), np.array([0, 1, 1])])
    assert len(level_map) == 3
    assert (1, 0) not in level_map.values()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.lists(
    st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=1, max_size=40)))
def test_combine_levels_matches_the_row_sort(rows):
    # small value ranges leave many combinations unobserved; the codes and
    # the map must be those of sorting the rows themselves
    cols = [np.array(c) for c in zip(*rows)]
    combos, inverse = np.unique(np.stack(cols, axis=1), axis=0, return_inverse=True)
    codes, level_map = combine_instrument_levels(cols)
    assert codes.dtype == np.int64
    assert codes.tolist() == inverse.reshape(-1).tolist()
    assert level_map == {i: tuple(int(v) for v in row) for i, row in enumerate(combos)}


def test_combine_levels_beyond_one_key_range():
    # a value range too wide to ravel into one int key still orders the rows
    big = 2**62
    codes, level_map = combine_instrument_levels(
        [np.array([big, -big, big]), np.array([0, 5, -big])])
    assert level_map == {0: (-big, 5), 1: (big, -big), 2: (big, 0)}
    assert codes.tolist() == [2, 0, 1]


def test_combine_levels_input_contract():
    with pytest.raises(DataContractError):
        combine_instrument_levels([])
    with pytest.raises(DataContractError):
        combine_instrument_levels([np.array([0, 1]), np.array([0, 1, 1])])


@pytest.mark.parametrize("order", ["C", "F"])
def test_table_stores_covariates_column_major_and_read_only(order):
    rng = np.random.default_rng(5)
    X = np.array(rng.normal(size=(60, 3)), order=order)
    R = (np.arange(60) % 3 > 0).astype(int)
    table = ObservationTable.from_arrays(X, np.arange(60) % 2, R,
                                         np.where(R == 1, 1.0, np.nan))
    assert table.X.flags.f_contiguous and not table.X.flags.writeable
    assert table.X.tobytes() == np.ascontiguousarray(X).tobytes()
    mask = rng.random(60) < 0.5
    for idx in (mask, np.flatnonzero(mask), np.arange(60)[::-4], np.empty(0, dtype=int)):
        sub = table.subset(idx)
        assert sub.X.flags.f_contiguous and not sub.X.flags.writeable
        assert sub.X.tobytes() == np.ascontiguousarray(X[idx]).tobytes()
    one = ObservationTable.from_arrays(X[:, 0], np.arange(60) % 2, R)
    assert one.X.shape == (60, 1) and one.X.flags.f_contiguous


@pytest.mark.filterwarnings("ignore:invalid value encountered")   # inf - inf, as numpy
@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.sampled_from([-2.0, -0.0, 0.0, 0.5, 3.0]) | st.floats(-1e6, 1e6)
                       | st.sampled_from([np.inf, -np.inf]), min_size=1, max_size=50),
       nan_at=st.none() | st.integers(0, 50),
       probs=st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.25, 0.75, 1.0]),
                      min_size=1, max_size=5))
def test_linear_quantiles_match_numpy_bit_for_bit(values, nan_at, probs):
    # sizes 1 to 50, ties from the small sampled set, infinities, and a NaN
    # anywhere, which makes every quantile NaN
    v = np.array(values)
    if nan_at is not None:
        v = np.insert(v, min(nan_at, v.size), np.nan)
    kept = v.copy()
    got = _linear_quantiles(v, np.array(probs))
    assert got.tobytes() == np.quantile(v, probs).tobytes()
    quartiles = _linear_quantiles(v, np.array([0.25, 0.75]))
    assert quartiles.tobytes() == np.percentile(v, [25.0, 75.0]).tobytes()
    assert v.tobytes() == kept.tobytes()     # the input is not reordered


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 1), st.booleans()), min_size=1, max_size=40),
       picks=st.lists(st.integers(0, 39), max_size=40))
def test_outcome_positions_match_the_per_call_cumsum(rows, picks):
    # subset, y_observed and rh read each row's value position from one
    # cumsum per table; they equal recomputing it on every call, on tables
    # that hold absent outcomes (R = 0 rows without a value, outcomes
    # supplied where R = 0, and R = 1 rows without one, which raise)
    R = np.array([r for r, _ in rows])
    present = np.array([p for _, p in rows])
    Y = np.where(present, np.arange(R.size) * 1.5 - 7.0, np.nan)
    table = ObservationTable.from_arrays(np.arange(R.size, dtype=float), R % 2, R, Y, L=2)
    pos = np.cumsum(table.y_present) - 1
    assert table._y_positions is table._y_positions
    assert table._y_positions.tolist() == pos.tolist()

    idx = np.array([i for i in picks if i < R.size], dtype=int)
    sub = table.subset(idx)
    taken = idx[table.y_present[idx]]
    assert sub.y_present.tolist() == table.y_present[idx].tolist()
    assert sub._y_values.tolist() == table._y_values[pos[taken]].tolist()
    spec = FunctionalSpec.mean(psi=0.5)
    if np.all(present[R == 1]):
        want = table._y_values[pos[R == 1]]
        assert table.y_observed.tolist() == want.tolist()
        rh = np.zeros(R.size)
        rh[R == 1] = want - 0.5
        assert table.rh(spec).tolist() == rh.tolist()
    else:
        with pytest.raises(MissingOutcomeError):
            table.y_observed
        with pytest.raises(MissingOutcomeError):
            table.rh(spec)
