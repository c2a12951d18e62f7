"""Tests for the brute-force oracles: group averaging, orbit enumeration,
and basis enumeration of graded powers."""

from __future__ import annotations

import math
import random
from collections import Counter
from collections.abc import Iterable
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbtaut import oracle
from hilbtaut.graded import ZERO, GradedDim
from hilbtaut.oracle import (
    AVERAGING_BOUND,
    ENUM_BOUND,
    POWER_DIM_BOUND,
    POWER_EXPONENT_BOUND,
    ConsistencyError,
    IndexPair,
    SizeBoundError,
    _cycle_trace,
    _pair_tables,
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


def from_indices(first: Iterable[int], second: Iterable[int]) -> IndexPair:
    """The pair of subsets holding the given points."""
    return IndexPair(sum(1 << i for i in set(first)), sum(1 << i for i in set(second)))


def _moved(pair: IndexPair, perm: tuple[int, ...]) -> IndexPair:
    """``pair`` with point i sent to perm[i]."""
    return from_indices(
        [perm[i] for i in pair.first_indices()], [perm[i] for i in pair.second_indices()]
    )


# -- invariant dimensions by group averaging ----------------------------------


def test_invariants_for_one_point_are_the_whole_space():
    space = GradedDim({0: 2, 1: 1})
    assert invariant_dim(1, space, ZERO, ZERO, ZERO)[1, 1, 1] == space


def test_invariants_of_two_even_lines():
    # Sym^2 of a trivial line is again a line.
    assert invariant_dim(2, ZERO, ZERO, ZERO, EVEN_LINE)[2, 0, 0] == EVEN_LINE


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
    assert got[0, 0, 0] == EVEN_LINE
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


def _moved_mask(mask: int, perm: tuple[int, ...]) -> int:
    """``mask`` with bit i sent to bit perm[i]."""
    return sum(1 << perm[i] for i in range(len(perm)) if mask >> i & 1)


def _full_group_orbits(n: int, e: int, f: int) -> list[tuple[tuple[int, int], int]]:
    """(minimal pair, size) of every orbit, in increasing order, with
    each permutation applied to the masks bit by bit."""
    perms = list(permutations(range(n)))
    masks = {
        size: [sum(1 << i for i in comb) for comb in combinations(range(n), size)]
        for size in (e, f)
    }
    minimum: dict[tuple[int, int], tuple[int, int]] = {}
    for pair in sorted((fm, sm) for fm in masks[e] for sm in masks[f]):
        if pair not in minimum:
            # the images of one pair under all of S_n are its whole orbit
            orbit = {(_moved_mask(pair[0], p), _moved_mask(pair[1], p)) for p in perms}
            least = min(orbit)
            minimum.update(dict.fromkeys(orbit, least))
    return sorted(Counter(minimum.values()).items())


def test_orbits_are_the_full_group_partition_on_every_cell_up_to_six_points():
    for n in range(7):
        for e, f in product(range(n + 1), repeat=2):
            orbits = orbit_decomposition(n, e, f)
            streamed = [(tuple(o.representative), o.size) for o in orbits]
            assert streamed == _full_group_orbits(n, e, f), (n, e, f)


def test_enumeration_bound_enforced():
    with pytest.raises(SizeBoundError):
        orbit_decomposition(ENUM_BOUND + 1, 1, 1)


def test_orbit_decomposition_rejects_an_index_above_n():
    with pytest.raises(ValueError) as err:
        orbit_decomposition(3, 4, 0)
    assert str(err.value) == "need 0 <= e, f <= n, got n=3, e=4, f=0"


def _generator_perms(n: int) -> list[tuple[int, ...]]:
    """The rotation, point i to i + 1 mod n, and the swap of points 0 and
    1; below two points, both are the identity."""
    rotate = tuple((i + 1) % n for i in range(n))
    return [rotate, (1, 0, *range(2, n)) if n >= 2 else rotate]


def test_pair_tables_hold_the_generators_and_the_masks_every_cell_reads():
    cells = [(n, e, f) for n in range(7) for e, f in product(range(n + 1), repeat=2)]
    _pair_tables.cache_clear()
    increasing = [orbit_decomposition(*cell) for cell in cells]
    decreasing = [orbit_decomposition(*cell) for cell in reversed(cells)][::-1]
    _pair_tables.cache_clear()
    fresh = [orbit_decomposition(*cell) for cell in cells]
    assert increasing == decreasing == fresh

    # read after every cell above has used the tables of n <= 6
    for n in range(9):
        tables = _pair_tables(n)
        perms = _generator_perms(n)
        assert len(tables) == n + 1
        for size, (group, rotate, swap) in enumerate(tables):
            # tuples, so no cell can sort or extend what the others read
            assert isinstance(group, tuple)
            assert group == tuple(m for m in range(1 << n) if m.bit_count() == size)
            for image, perm in zip((rotate, swap), perms, strict=True):
                assert isinstance(image, tuple)
                assert sorted(image) == list(range(len(group)))
                assert [group[p] for p in image] == [_moved_mask(m, perm) for m in group]


def _mask_pair_closure(n: int, e: int, f: int) -> list[tuple[tuple[int, int], int, int]]:
    """(least pair, size, stabilizer order) of every orbit, closed under
    the rotation and the swap on plain (first, second) mask pairs marked
    in a byte map of 4^n entries, with images from ``_moved_mask``."""
    images = [[_moved_mask(m, perm) for m in range(1 << n)] for perm in _generator_perms(n)]
    firsts = [m for m in range(1 << n) if m.bit_count() == e]
    seconds = [m for m in range(1 << n) if m.bit_count() == f]
    orbit_of = bytearray(1 << 2 * n)
    orbits = []
    for first in firsts:
        for second in seconds:
            if orbit_of[first << n | second]:
                continue
            number = len(orbits) + 1
            orbit_of[first << n | second] = number
            frontier = [(first, second)]
            size = 1
            while frontier:
                fm, sm = frontier.pop()
                for image in images:
                    code = image[fm] << n | image[sm]
                    if not orbit_of[code]:
                        orbit_of[code] = number
                        size += 1
                        frontier.append((image[fm], image[sm]))
            orbits.append(((first, second), size, math.factorial(n) // size))
    return orbits


def test_orbits_match_a_closure_on_plain_mask_pairs_on_every_cell_up_to_eight_points():
    for n in range(9):
        for e, f in product(range(n + 1), repeat=2):
            orbits = [
                (tuple(o.representative), o.size, o.stabilizer_order)
                for o in orbit_decomposition(n, e, f)
            ]
            assert orbits == _mask_pair_closure(n, e, f), (n, e, f)


def test_orbit_bounds_are_checked_before_any_tabulation():
    _pair_tables.cache_clear()
    with pytest.raises(SizeBoundError):
        orbit_decomposition(ENUM_BOUND + 1, 0, 0)
    with pytest.raises(ValueError):
        orbit_decomposition(3, 4, 0)
    assert _pair_tables.cache_info().currsize == 0


@pytest.fixture
def inject_generators(monkeypatch):
    """Each call makes the given mask images the rotation and the swap
    for every n and drops the cached pair tables; none is cached before
    or after the test."""

    def inject(rotate: tuple[int, ...], swap: tuple[int, ...]) -> None:
        _pair_tables.cache_clear()
        monkeypatch.setattr(oracle, "_mask_generators", lambda n: (rotate, swap))

    _pair_tables.cache_clear()
    yield inject
    _pair_tables.cache_clear()


def _in_each_slot(image: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(rotate, swap) with ``image`` as the rotation and the identity as
    the swap, then the other way round."""
    identity = tuple(range(len(image)))
    return [(image, identity), (identity, image)]


def test_an_orbit_size_that_does_not_divide_n_factorial_is_an_error(inject_generators):
    # a 5-cycle on five of the six two-point masks, the sixth fixed
    cycle = (3, 5, 6, 9, 10)
    image = list(range(16))
    for source, target in zip(cycle, cycle[1:] + cycle[:1]):
        image[source] = target
    for rotate, swap in _in_each_slot(tuple(image)):
        inject_generators(rotate, swap)
        with pytest.raises(ConsistencyError, match="orbit size 5 does not divide group order 24"):
            orbit_decomposition(4, 2, 0)


def test_an_orbit_that_leaves_its_cell_is_an_error(inject_generators):
    # sends the one-point mask 1 to the two-point mask 3 and back, so an
    # orbit of (1, 0) would hold a pair outside the (1, 0) cell
    for rotate, swap in _in_each_slot((0, 3, 2, 1)):
        inject_generators(rotate, swap)
        with pytest.raises(
            ConsistencyError,
            match="a generator sends mask 1 of bit count 1 to mask 3 of bit count 2",
        ):
            orbit_decomposition(2, 1, 0)


def test_a_generator_that_is_not_a_permutation_is_an_error(inject_generators):
    # sends both one-point masks 1 and 2 to 1: the pair (1, 0) is an
    # orbit on its own, and the closure of (2, 0) reaches it, as the
    # rotation in its walk and as the swap when it pushes an image
    for rotate, swap in _in_each_slot((0, 1, 1, 3)):
        inject_generators(rotate, swap)
        with pytest.raises(ConsistencyError, match="orbits 1 and 2 overlap"):
            orbit_decomposition(2, 1, 0)


def test_more_than_255_orbits_in_a_cell_is_an_error(inject_generators):
    # with both generators the identity, each of the C(6, 3)^2 = 400
    # pairs of the (3, 3) cell is an orbit on its own, and the 256th has
    # no byte to be numbered by
    identity = tuple(range(1 << 6))
    inject_generators(identity, identity)
    message = r"^more than 255 orbits in the \(3, 3\) cell of n=6$"
    with pytest.raises(ConsistencyError, match=message):
        orbit_decomposition(6, 3, 3)


def test_index_pair_round_trip():
    pair = from_indices([0, 2], [1, 2, 3])
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
    pair = from_indices(sorted(first), sorted(second))
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
    assert oracle_sym_power(0, ZERO) == EVEN_LINE
    assert oracle_wedge_power(0, GradedDim({2: 1})) == EVEN_LINE


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
        assert powers(0, ZERO) == [EVEN_LINE]
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
