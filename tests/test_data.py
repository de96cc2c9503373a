"""Observation table contract, functional evaluation, level combination."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mivest.data import (FunctionalSpec, ObservationTable,
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
