"""Tests for graded dimension vectors and scalar/graded power operations."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbtaut.graded import (
    UNIT,
    ZERO,
    GradedDim,
    lambda_scalar,
    s_scalar,
    sym_power,
    tensor_all,
    wedge_power,
)
from hilbtaut.oracle import oracle_sym_power, oracle_wedge_power

# Keep total dimension within the reach of the basis-enumeration oracle.
small_spaces = st.dictionaries(
    st.integers(min_value=-2, max_value=3),
    st.integers(min_value=1, max_value=2),
    max_size=3,
).map(GradedDim)

small_chis = st.integers(min_value=-9, max_value=9)


# -- GradedDim basics -------------------------------------------------------


def test_zero_dims_are_dropped():
    space = GradedDim({0: 2, 1: 0, 3: 1})
    assert dict(space.items()) == {0: 2, 3: 1}
    assert space[1] == 0
    assert space[99] == 0


def test_negative_dims_rejected():
    with pytest.raises(ValueError):
        GradedDim({0: -1})


def test_euler_alternates_signs():
    space = GradedDim({0: 2, 1: 5, 2: 4, -1: 1})
    assert space.euler() == 2 - 5 + 4 - 1


def test_unit_and_zero():
    assert dict(UNIT.items()) == {0: 1}
    assert dict(ZERO.items()) == {}
    assert UNIT.euler() == 1
    assert ZERO.euler() == 0


def test_add_is_direct_sum():
    a = GradedDim({0: 1, 1: 2})
    b = GradedDim({1: 3, 4: 1})
    assert dict((a + b).items()) == {0: 1, 1: 5, 4: 1}


def test_tensor_convolves_degrees():
    a = GradedDim({0: 1, 1: 1})
    b = GradedDim({0: 1, 1: 1})
    assert dict(a.tensor(b).items()) == {0: 1, 1: 2, 2: 1}
    assert a.tensor(ZERO) == ZERO
    assert a.tensor(UNIT) == a


def test_tensor_all_empty_is_unit():
    assert tensor_all([]) == UNIT


def test_immutable_and_hashable():
    space = GradedDim({0: 1})
    with pytest.raises(AttributeError):
        space.x = 1
    assert len({GradedDim({0: 1}), GradedDim({0: 1}), GradedDim({1: 1})}) == 2


def test_json_round_trip():
    space = GradedDim({-2: 1, 0: 4, 5: 2})
    assert GradedDim.from_json(space.to_json()) == space


@given(a=small_spaces, b=small_spaces)
def test_euler_additive_and_multiplicative(a, b):
    assert (a + b).euler() == a.euler() + b.euler()
    assert a.tensor(b).euler() == a.euler() * b.euler()


# -- scalar lambda / s operations -------------------------------------------


def test_lambda_scalar_frozen_values():
    assert lambda_scalar(2, -2) == 3
    assert lambda_scalar(0, -7) == 1
    assert lambda_scalar(-1, 5) == 0
    assert lambda_scalar(3, 2) == 0
    assert lambda_scalar(2, 5) == 10


def test_s_scalar_frozen_values():
    assert s_scalar(3, 2) == 4
    assert s_scalar(0, -7) == 1
    assert s_scalar(-2, 3) == 0
    assert s_scalar(2, -1) == 0
    assert s_scalar(2, -2) == 1


@given(k=st.integers(min_value=0, max_value=8), chi=small_chis)
def test_s_is_lambda_of_negated_argument(k, chi):
    assert s_scalar(k, chi) == (-1) ** k * lambda_scalar(k, -chi)


@given(k=st.integers(min_value=0, max_value=8), chi=st.integers(min_value=0, max_value=9))
def test_lambda_matches_binomial_for_nonnegative_chi(k, chi):
    assert lambda_scalar(k, chi) == math.comb(chi, k)


@given(k=st.integers(min_value=0, max_value=8), chi=st.integers(min_value=0, max_value=9))
def test_s_counts_multisets_for_nonnegative_chi(k, chi):
    expected = math.comb(chi + k - 1, k) if chi > 0 else (1 if k == 0 else 0)
    assert s_scalar(k, chi) == expected


# -- graded symmetric / exterior powers --------------------------------------


def test_sym_power_frozen_values():
    assert dict(sym_power(2, GradedDim({0: 1, 2: 1})).items()) == {0: 1, 2: 1, 4: 1}
    assert dict(sym_power(2, GradedDim({1: 2})).items()) == {2: 1}
    assert sym_power(0, GradedDim({5: 4})) == UNIT
    assert sym_power(-1, GradedDim({0: 3})) == ZERO
    assert sym_power(3, ZERO) == ZERO


def test_wedge_power_frozen_values():
    assert dict(wedge_power(2, GradedDim({1: 2})).items()) == {2: 3}
    assert wedge_power(2, GradedDim({0: 1})) == ZERO
    assert dict(wedge_power(2, GradedDim({0: 2})).items()) == {0: 1}
    assert wedge_power(0, ZERO) == UNIT
    assert wedge_power(-3, GradedDim({0: 3})) == ZERO


def test_sym_of_odd_line_squares_to_zero():
    line = GradedDim({3: 1})
    assert sym_power(1, line) == line
    assert sym_power(2, line) == ZERO


def test_wedge_of_even_line_squares_to_zero():
    line = GradedDim({2: 1})
    assert wedge_power(1, line) == line
    assert wedge_power(2, line) == ZERO


def test_powers_match_basis_enumeration_on_mixed_space():
    space = GradedDim({0: 2, 1: 1, 2: 1})
    for k in range(5):
        assert sym_power(k, space) == oracle_sym_power(k, space)
        assert wedge_power(k, space) == oracle_wedge_power(k, space)


@settings(max_examples=60)
@given(space=small_spaces, k=st.integers(min_value=0, max_value=4))
def test_powers_agree_with_enumeration(space, k):
    assert sym_power(k, space) == oracle_sym_power(k, space)
    assert wedge_power(k, space) == oracle_wedge_power(k, space)


@settings(max_examples=60)
@given(space=small_spaces, k=st.integers(min_value=0, max_value=5))
def test_power_euler_factors_through_scalars(space, k):
    assert sym_power(k, space).euler() == s_scalar(k, space.euler())
    assert wedge_power(k, space).euler() == lambda_scalar(k, space.euler())


def test_wedge_exhausts_purely_even_space():
    space = GradedDim({0: 3})
    dims = [wedge_power(k, space)[0] for k in range(5)]
    assert dims == [1, 3, 3, 1, 0]


def test_sym_dimension_growth_on_even_space():
    space = GradedDim({0: 2})
    dims = [sym_power(k, space)[0] for k in range(5)]
    assert dims == [1, 2, 3, 4, 5]
