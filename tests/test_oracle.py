"""Tests for the brute-force oracles: group averaging, orbit enumeration,
and basis enumeration of graded powers."""

from __future__ import annotations

import math
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbtaut.graded import UNIT, ZERO, GradedDim
from hilbtaut.oracle import (
    AVERAGING_BOUND,
    ENUM_BOUND,
    POWER_DIM_BOUND,
    POWER_EXPONENT_BOUND,
    IndexPair,
    SizeBoundError,
    cycles_of,
    invariant_dim,
    oracle_sym_power,
    oracle_wedge_power,
    orbit_decomposition,
)

EVEN_LINE = GradedDim({0: 1})
K3_POINT = GradedDim({0: 1, 2: 1})


# -- cycle structure ----------------------------------------------------------


def test_cycles_of_identity():
    assert sorted(len(c) for c in cycles_of((0, 1, 2))) == [1, 1, 1]


def test_cycles_of_transposition_and_cycle():
    assert sorted(len(c) for c in cycles_of((1, 0, 2))) == [1, 2]
    assert sorted(len(c) for c in cycles_of((1, 2, 0))) == [3]


def test_cycle_counts_partition_n():
    for n in range(1, 6):
        for perm in permutations(range(n)):
            assert sum(len(c) for c in cycles_of(perm)) == n


# -- invariant dimensions by group averaging ----------------------------------


def test_invariants_for_one_point_are_the_whole_space():
    space = GradedDim({0: 2, 1: 1})
    assert invariant_dim(1, 1, 1, space, ZERO, ZERO, ZERO) == space


def test_invariants_of_two_even_lines():
    # Sym^2 of a trivial line is again a line.
    assert invariant_dim(2, 0, 0, ZERO, ZERO, ZERO, EVEN_LINE) == UNIT


def test_invariants_match_symmetric_square_of_k3_point():
    got = invariant_dim(2, 0, 0, ZERO, ZERO, ZERO, K3_POINT)
    assert dict(got.items()) == {0: 1, 2: 1, 4: 1}


def test_sign_twist_turns_symmetric_into_exterior():
    # With the sign character on the first-only block the invariants of
    # two even lines form the exterior square, which vanishes.
    assert invariant_dim(2, 2, 0, ZERO, EVEN_LINE, ZERO, ZERO) == ZERO
    two = GradedDim({0: 2})
    got = invariant_dim(2, 2, 0, ZERO, two, ZERO, ZERO)
    assert dict(got.items()) == {0: 1}


def test_frozen_two_point_hom_invariants():
    hom = K3_POINT
    got = invariant_dim(2, 1, 1, hom, K3_POINT, K3_POINT, K3_POINT)
    assert dict(got.items()) == {0: 2, 2: 4, 4: 2}


def test_frozen_four_point_trivial_tables():
    got = invariant_dim(4, 2, 2, EVEN_LINE, EVEN_LINE, EVEN_LINE, EVEN_LINE)
    assert dict(got.items()) == {0: 2}


def test_averaging_bound_enforced():
    with pytest.raises(SizeBoundError):
        invariant_dim(AVERAGING_BOUND + 1, 0, 0, ZERO, ZERO, ZERO, EVEN_LINE)


def test_subset_sizes_validated():
    with pytest.raises(ValueError):
        invariant_dim(2, 3, 0, ZERO, EVEN_LINE, ZERO, EVEN_LINE)


# -- orbit decomposition -------------------------------------------------------


def test_orbits_of_pairs_on_five_points():
    dec = orbit_decomposition(5, 2, 2)
    table = [
        (o.representative.overlap(), o.size, o.stabilizer_order) for o in dec.orbits
    ]
    assert table == [(2, 10, 12), (1, 60, 2), (0, 30, 4)]


def test_orbit_sizes_sum_to_all_pairs():
    for n, e, f in [(1, 1, 0), (3, 1, 2), (4, 2, 2), (6, 3, 2)]:
        dec = orbit_decomposition(n, e, f)
        assert sum(o.size for o in dec.orbits) == math.comb(n, e) * math.comb(n, f)
        assert len(dec.orbits) == min(e, f) - max(0, e + f - n) + 1


def test_orbit_sizes_times_stabilizer_orders():
    for n, e, f in [(4, 2, 1), (5, 3, 2), (7, 3, 3)]:
        for orbit in orbit_decomposition(n, e, f).orbits:
            assert orbit.size * orbit.stabilizer_order == math.factorial(n)


def test_representatives_are_minimal_and_distinct():
    dec = orbit_decomposition(4, 2, 2)
    reps = [o.representative for o in dec.orbits]
    assert len(set(reps)) == len(reps)
    for orbit in reps:
        # minimality under the full group, checked by brute force
        smallest = min(
            orbit.apply(p) for p in permutations(range(4))
        )
        assert smallest == orbit


def test_enumeration_bound_enforced():
    with pytest.raises(SizeBoundError):
        orbit_decomposition(ENUM_BOUND + 1, 1, 1)


def test_index_pair_round_trip():
    pair = IndexPair.from_indices([0, 2], [1, 2, 3])
    assert pair.first_indices() == (0, 2)
    assert pair.second_indices() == (1, 2, 3)
    assert pair.overlap() == 1


@given(
    n=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_index_pair_apply_is_an_action(n, data):
    first = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    second = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    perm = tuple(data.draw(st.permutations(range(n))))
    pair = IndexPair.from_indices(sorted(first), sorted(second))
    moved = pair.apply(perm)
    assert moved.first_indices() == tuple(sorted(perm[i] for i in first))
    assert moved.second_indices() == tuple(sorted(perm[i] for i in second))
    assert moved.overlap() == pair.overlap()


# -- basis-enumeration powers ---------------------------------------------------


def test_enumerated_sym_counts_multisets():
    space = GradedDim({0: 3})
    assert [oracle_sym_power(k, space)[0] for k in range(4)] == [1, 3, 6, 10]


def test_enumerated_wedge_counts_subsets():
    space = GradedDim({0: 4})
    assert [oracle_wedge_power(k, space)[0] for k in range(6)] == [1, 4, 6, 4, 1, 0]


def test_enumerated_powers_on_odd_lines():
    odd = GradedDim({1: 2})
    assert dict(oracle_sym_power(2, odd).items()) == {2: 1}
    assert dict(oracle_wedge_power(2, odd).items()) == {2: 3}


def test_power_bounds_enforced():
    big = GradedDim({0: POWER_DIM_BOUND + 1})
    with pytest.raises(SizeBoundError):
        oracle_sym_power(1, big)
    with pytest.raises(SizeBoundError):
        oracle_wedge_power(POWER_EXPONENT_BOUND + 1, EVEN_LINE)


def test_zero_power_is_unit():
    assert oracle_sym_power(0, ZERO) == UNIT
    assert oracle_wedge_power(0, GradedDim({2: 1})) == UNIT


@settings(max_examples=40)
@given(
    space=st.dictionaries(
        st.integers(min_value=-1, max_value=2),
        st.integers(min_value=1, max_value=2),
        max_size=2,
    ).map(GradedDim),
    k=st.integers(min_value=0, max_value=3),
)
def test_enumerated_power_euler_signs(space, k):
    # Basis enumeration already encodes the sign rule; its Euler
    # characteristic must factor through the scalar operations.
    from hilbtaut.graded import lambda_scalar, s_scalar

    assert oracle_sym_power(k, space).euler() == s_scalar(k, space.euler())
    assert oracle_wedge_power(k, space).euler() == lambda_scalar(k, space.euler())
