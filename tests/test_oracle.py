"""Tests for the brute-force oracles: group averaging, orbit enumeration,
and basis enumeration of graded powers."""

from __future__ import annotations

import math
import random
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
    _cycle_trace,
    class_size,
    cycle_types,
    invariant_dim,
    oracle_sym_power,
    oracle_wedge_power,
    orbit_decomposition,
)

EVEN_LINE = GradedDim({0: 1})
K3_POINT = GradedDim({0: 1, 2: 1})


# -- cycle types and class sizes ----------------------------------------------


def test_cycle_types_are_the_partitions_of_n():
    assert [len(cycle_types(n)) for n in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]
    assert cycle_types(0) == [()]
    assert cycle_types(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for n in range(9):
        assert all(sum(lengths) == n for lengths in cycle_types(n))


def test_class_sizes_sum_to_the_group_order():
    for n in range(9):
        assert sum(class_size(lengths) for lengths in cycle_types(n)) == math.factorial(n)


def test_class_sizes_count_permutations_by_cycle_type():
    # S_4: 6 four-cycles, 8 three-cycles, 3 double transpositions,
    # 6 transpositions, the identity
    assert [class_size(lengths) for lengths in cycle_types(4)] == [6, 8, 3, 6, 1]


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


def _cycles(perm):
    seen, out = set(), []
    for start in range(len(perm)):
        if start not in seen:
            cycle = [start]
            while perm[cycle[-1]] != start:
                cycle.append(perm[cycle[-1]])
            seen.update(cycle)
            out.append(cycle)
    return out


def _poly_mul(a, b):
    out = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
    return out


def reference_invariant_dims(n, common, first, second, rest):
    """Every (e, f) at once, as the plain average over all n! permutations.

    For each permutation, each cycle goes into neither subset, I only, J
    only or both; the fixed pair's trace is the product of the cycle
    traces.  No cycle type or class size is used.
    """
    sums = {}
    for perm in permutations(range(n)):
        cycles = _cycles(perm)
        for pick_i in range(1 << len(cycles)):
            for pick_j in range(1 << len(cycles)):
                e = f = 0
                term = {0: 1}
                for idx, cycle in enumerate(cycles):
                    in_i, in_j = pick_i >> idx & 1, pick_j >> idx & 1
                    e += in_i * len(cycle)
                    f += in_j * len(cycle)
                    space = [[rest, second], [first, common]][in_i][in_j]
                    term = _poly_mul(term, _cycle_trace(len(cycle), space, in_i ^ in_j))
                total = sums.setdefault((e, f), {})
                for d, c in term.items():
                    total[d] = total.get(d, 0) + c
    order = math.factorial(n)
    out = {}
    for key, total in sums.items():
        assert all(c % order == 0 for c in total.values())
        out[key] = GradedDim({d: c // order for d, c in total.items() if c})
    return out


REFERENCE_FAMILIES = [(n, seed) for n in range(6) for seed in range(4)] + [(6, 0)]


@pytest.mark.parametrize("n, seed", REFERENCE_FAMILIES)
def test_class_sum_matches_the_average_over_every_permutation(n, seed):
    rng = random.Random(1000 * n + seed)
    spaces = []
    for _ in range(4):
        dims = {}
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(-1, 3)
            dims[d] = dims.get(d, 0) + 1
        spaces.append(GradedDim(dims))
    expected = reference_invariant_dims(n, *spaces)
    for e in range(n + 1):
        for f in range(n + 1):
            assert invariant_dim(n, e, f, *spaces) == expected[(e, f)], (e, f)


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
