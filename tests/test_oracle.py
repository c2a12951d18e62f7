"""Tests for the brute-force oracles: group averaging, orbit enumeration,
and basis enumeration of graded powers."""

from __future__ import annotations

import math
import random
from collections import Counter
from itertools import combinations, combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbtaut.graded import UNIT, ZERO, GradedDim
from hilbtaut.oracle import (
    AVERAGING_BOUND,
    ENUM_BOUND,
    POWER_DIM_BOUND,
    POWER_EXPONENT_BOUND,
    ConsistencyError,
    IndexPair,
    SizeBoundError,
    _cycle_trace,
    invariant_dim,
    oracle_sym_power,
    oracle_sym_powers,
    oracle_wedge_power,
    oracle_wedge_powers,
    orbit_decomposition,
)
from hilbtaut.verify import _all_spaces

EVEN_LINE = GradedDim({0: 1})
K3_POINT = GradedDim({0: 1, 2: 1})


def _moved(pair: IndexPair, perm: tuple[int, ...]) -> IndexPair:
    """``pair`` with point i sent to perm[i]."""
    return IndexPair.from_indices(
        [perm[i] for i in pair.first_indices()], [perm[i] for i in pair.second_indices()]
    )


# -- invariant dimensions by group averaging ----------------------------------


def test_invariants_for_one_point_are_the_whole_space():
    space = GradedDim({0: 2, 1: 1})
    assert invariant_dim(1, space, ZERO, ZERO, ZERO)[1, 1, 1] == space


def test_invariants_of_two_even_lines():
    # Sym^2 of a trivial line is again a line.
    assert invariant_dim(2, ZERO, ZERO, ZERO, EVEN_LINE)[2, 0, 0] == UNIT


def test_invariants_match_symmetric_square_of_k3_point():
    got = invariant_dim(2, ZERO, ZERO, ZERO, K3_POINT)[2, 0, 0]
    assert dict(got.items()) == {0: 1, 2: 1, 4: 1}


def test_sign_twist_turns_symmetric_into_exterior():
    # With the sign character on the first-only block the invariants of
    # two even lines form the exterior square, which vanishes.
    assert invariant_dim(2, ZERO, EVEN_LINE, ZERO, ZERO)[2, 2, 0] == ZERO
    two = GradedDim({0: 2})
    got = invariant_dim(2, ZERO, two, ZERO, ZERO)[2, 2, 0]
    assert dict(got.items()) == {0: 1}


def test_frozen_two_point_hom_invariants():
    hom = K3_POINT
    got = invariant_dim(2, hom, K3_POINT, K3_POINT, K3_POINT)[2, 1, 1]
    assert dict(got.items()) == {0: 2, 2: 4, 4: 2}


def test_frozen_four_point_trivial_tables():
    got = invariant_dim(4, EVEN_LINE, EVEN_LINE, EVEN_LINE, EVEN_LINE)[4, 2, 2]
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
    # the recurrence sums over every cycle type at once; it must agree
    # with the plain average at every (n', e, f) with n' <= n
    rng = random.Random(1000 * n + seed)
    spaces = []
    for _ in range(4):
        dims = {}
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(-1, 3)
            dims[d] = dims.get(d, 0) + 1
        spaces.append(GradedDim(dims))
    got = invariant_dim(n, *spaces)
    expected = {}
    for smaller in range(n + 1):
        reference = reference_invariant_dims(smaller, *spaces)
        for e in range(smaller + 1):
            for f in range(smaller + 1):
                expected[smaller, e, f] = reference.get((e, f), ZERO)
    assert got == expected


def test_every_n_e_f_up_to_n_max_is_returned_zero_spaces_included():
    got = invariant_dim(3, ZERO, EVEN_LINE, ZERO, EVEN_LINE)
    assert sorted(got) == [
        (n, e, f) for n in range(4) for e in range(n + 1) for f in range(n + 1)
    ]
    assert got[0, 0, 0] == UNIT
    assert got[2, 2, 0] == ZERO  # the exterior square of an even line
    assert got[3, 0, 3] == ZERO  # the second space is zero


@pytest.mark.parametrize(
    "trace",
    [
        # 2 F_2 = T_1 F_1 + T_2 = 2 * 2 + 1 is odd
        lambda length, space, sign_flags: {0: 2 if length == 1 else 1},
        # F_1 = T_1 is negative
        lambda length, space, sign_flags: {0: -1},
    ],
    ids=["remainder", "negative"],
)
def test_a_division_that_is_not_a_dimension_is_a_consistency_error(monkeypatch, trace):
    monkeypatch.setattr("hilbtaut.oracle._cycle_trace", trace)
    with pytest.raises(ConsistencyError):
        invariant_dim(2, ZERO, ZERO, ZERO, EVEN_LINE)


def test_averaging_bound_enforced():
    with pytest.raises(SizeBoundError):
        invariant_dim(AVERAGING_BOUND + 1, ZERO, ZERO, ZERO, EVEN_LINE)
    with pytest.raises(ValueError, match="n_max >= 0"):
        invariant_dim(-1, ZERO, ZERO, ZERO, EVEN_LINE)


# -- orbit decomposition -------------------------------------------------------


def test_orbits_of_pairs_on_five_points():
    orbits = orbit_decomposition(5, 2, 2)
    table = [
        (o.representative.overlap(), o.size, o.stabilizer_order) for o in orbits
    ]
    assert table == [(2, 10, 12), (1, 60, 2), (0, 30, 4)]


def test_orbit_sizes_sum_to_all_pairs():
    for n, e, f in [(1, 1, 0), (3, 1, 2), (4, 2, 2), (6, 3, 2)]:
        orbits = orbit_decomposition(n, e, f)
        assert sum(o.size for o in orbits) == math.comb(n, e) * math.comb(n, f)
        assert len(orbits) == min(e, f) - max(0, e + f - n) + 1


def test_orbit_sizes_times_stabilizer_orders():
    for n, e, f in [(4, 2, 1), (5, 3, 2), (7, 3, 3)]:
        for orbit in orbit_decomposition(n, e, f):
            assert orbit.size * orbit.stabilizer_order == math.factorial(n)


def test_representatives_are_minimal_and_distinct():
    reps = [o.representative for o in orbit_decomposition(4, 2, 2)]
    assert len(set(reps)) == len(reps)
    for orbit in reps:
        # minimality under the full group, checked by brute force
        smallest = min(
            _moved(orbit, p) for p in permutations(range(4))
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
    moved = _moved(pair, perm)
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


def _counted_power(k: int, space: GradedDim, sym: bool) -> GradedDim:
    # repeatable basis vectors drawn with replacement, the others without
    labels = [d for d, m in space.items() for _ in range(m)]
    free = [d for d in labels if (d % 2 == 0) == sym]
    once = [d for d in labels if (d % 2 == 0) != sym]
    counts: Counter[int] = Counter()
    for a in range(k + 1):
        for x in combinations_with_replacement(free, a):
            for y in combinations(once, k - a):
                counts[sum(x) + sum(y)] += 1
    return GradedDim(counts)


def test_enumerated_powers_match_a_combinations_count_on_every_sweep_space():
    edges = [
        GradedDim({0: POWER_DIM_BOUND}),
        GradedDim({1: POWER_DIM_BOUND}),
        GradedDim({0: 4, 1: 4}),
        GradedDim({-1: 3, 0: 2, 3: 3}),
    ]
    for space in [*_all_spaces((-2, -1, 0, 1, 2, 3), 4), *edges]:
        for sym, powers in ((True, oracle_sym_powers), (False, oracle_wedge_powers)):
            listed = powers(POWER_EXPONENT_BOUND, space)
            assert listed == [
                _counted_power(k, space, sym) for k in range(POWER_EXPONENT_BOUND + 1)
            ]


def test_power_lists_bounds_and_negative_top():
    for powers in (oracle_sym_powers, oracle_wedge_powers):
        assert powers(-1, GradedDim({0: POWER_DIM_BOUND + 1})) == []
        assert powers(0, ZERO) == [UNIT]
        with pytest.raises(SizeBoundError):
            powers(0, GradedDim({0: POWER_DIM_BOUND + 1}))
        with pytest.raises(SizeBoundError):
            powers(POWER_EXPONENT_BOUND + 1, EVEN_LINE)
    assert oracle_sym_power(-1, EVEN_LINE) == oracle_wedge_power(-2, EVEN_LINE) == ZERO


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
