"""Brute-force cross-checks for the closed formulas.

Everything here is deliberately naive: dimensions of invariants are
computed by averaging graded traces over the full symmetric group, and
symmetric/exterior powers by enumerating monomial bases.  The closed
formulas elsewhere in the package must reproduce these numbers exactly.
The group average is a class sum: one trace per cycle type, weighted by
the number of permutations of that type.  Beyond that the only
concessions to speed are hard size bounds.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

from .graded import ZERO, GradedDim

#: largest n for which full symmetric group averaging is attempted
AVERAGING_BOUND = 8

#: largest n for which index pairs are enumerated and split into orbits
ENUM_BOUND = 12

#: bounds for the basis-enumeration power oracle
POWER_DIM_BOUND = 8
POWER_EXPONENT_BOUND = 6


class SizeBoundError(ValueError):
    """Input too large for a brute-force computation."""


class ConsistencyError(RuntimeError):
    """An internal identity failed; indicates a bug, not bad input."""


Perm = tuple[int, ...]


def cycle_types(n: int) -> list[tuple[int, ...]]:
    """The partitions of n, largest part first: the cycle types of S_n."""

    def parts(rest: int, largest: int):
        if rest == 0:
            yield ()
        for part in range(min(rest, largest), 0, -1):
            for tail in parts(rest - part, part):
                yield (part,) + tail

    return list(parts(n, n))


def class_size(lengths: Sequence[int]) -> int:
    """Number of permutations with these cycle lengths, n!/z.

    z is the centralizer order, the product of l^m * m! over the
    distinct lengths l occurring m times.
    """
    z = 1
    for length, mult in Counter(lengths).items():
        z *= length**mult * math.factorial(mult)
    return math.factorial(sum(lengths)) // z


def _cycle_trace(length: int, space: GradedDim, sign_flags: int) -> dict[int, int]:
    # Trace of a single length-l cycle acting on the l-th tensor power of
    # a graded space.  Only the diagonal vectors w x w x ... x w survive;
    # moving the last factor to the front past the others costs
    # (-1)^(d(l-1)) for a degree-d vector.  Each sign character attached
    # to the block contributes a further (-1)^(l-1).
    flag_sign = (-1) ** ((length - 1) * sign_flags)
    out: dict[int, int] = {}
    for d, m in space.items():
        sign = -1 if (d * (length - 1)) % 2 else 1
        out[length * d] = flag_sign * sign * m
    return out


def invariant_dim(
    n: int,
    e: int,
    f: int,
    space_common: GradedDim,
    space_first: GradedDim,
    space_second: GradedDim,
    space_rest: GradedDim,
) -> GradedDim:
    """Graded invariants of the sign-twisted slot representation.

    Slots are indexed by pairs (I, J) of subsets of n points with
    |I| = e, |J| = f.  Points in both subsets carry ``space_common``,
    points only in I carry ``space_first`` twisted by one sign
    character, points only in J carry ``space_second`` twisted by the
    other, and the remaining points carry ``space_rest``.  The dimension
    of the invariants is the average over the symmetric group of the
    graded traces on fixed pairs; a fixed pair is one whose subsets are
    unions of cycles.  The trace depends only on the cycle type, so the
    average is a sum over the partitions of n, each weighted by its
    class size n!/z and divided by n! at the end.

    Averaging must produce non-negative integers degreewise; anything
    else raises ConsistencyError.
    """
    if not 0 <= e <= n or not 0 <= f <= n:
        raise ValueError(f"need 0 <= e, f <= n, got n={n}, e={e}, f={f}")
    if n > AVERAGING_BOUND:
        raise SizeBoundError(f"n={n} exceeds averaging bound {AVERAGING_BOUND}")

    # the four ways a cycle can sit: in neither subset, in I only, in J
    # only, in both; each as (|I| added, |J| added, graded trace)
    placements = {
        length: (
            (0, 0, _cycle_trace(length, space_rest, 0)),
            (length, 0, _cycle_trace(length, space_first, 1)),
            (0, length, _cycle_trace(length, space_second, 1)),
            (length, length, _cycle_trace(length, space_common, 0)),
        )
        for length in range(1, n + 1)
    }

    order = math.factorial(n)
    accumulated: dict[int, int] = {}
    for lengths in cycle_types(n):
        # trace sum over the fixed pairs of one permutation of this type,
        # keyed (|I|, |J|, degree); a subset already too large is dropped
        product = {(0, 0, 0): 1}
        for length in lengths:
            grown: dict[tuple[int, int, int], int] = {}
            for (i, j, d), c in product.items():
                for di, dj, trace in placements[length]:
                    if i + di > e or j + dj > f:
                        continue
                    for td, tc in trace.items():
                        key = (i + di, j + dj, d + td)
                        grown[key] = grown.get(key, 0) + c * tc
            product = grown
        weight = class_size(lengths)
        for (i, j, d), c in product.items():
            if i == e and j == f:
                accumulated[d] = accumulated.get(d, 0) + weight * c

    dims: dict[int, int] = {}
    for d, c in sorted(accumulated.items()):
        quot, rem = divmod(c, order)
        if rem != 0 or quot < 0:
            raise ConsistencyError(
                f"group averaging gave {c}/{order} in degree {d}; "
                "the trace sum must be a non-negative multiple of n!"
            )
        if quot:
            dims[d] = quot
    return GradedDim(dims)


# -- orbit structure of pairs of subsets -------------------------------


@dataclass(frozen=True, order=True)
class IndexPair:
    """A pair of subsets of range(n), stored as bitmasks."""

    first_mask: int
    second_mask: int

    @classmethod
    def from_indices(cls, first: Sequence[int], second: Sequence[int]) -> "IndexPair":
        fm = 0
        for i in first:
            fm |= 1 << i
        sm = 0
        for i in second:
            sm |= 1 << i
        return cls(fm, sm)

    def first_indices(self) -> tuple[int, ...]:
        return _mask_indices(self.first_mask)

    def second_indices(self) -> tuple[int, ...]:
        return _mask_indices(self.second_mask)

    def overlap(self) -> int:
        return (self.first_mask & self.second_mask).bit_count()

    def apply(self, perm: Perm) -> "IndexPair":
        return IndexPair(_apply_mask(perm, self.first_mask), _apply_mask(perm, self.second_mask))


def _mask_indices(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask & (1 << i))


def _apply_mask(perm: Perm, mask: int) -> int:
    out = 0
    for i in range(mask.bit_length()):
        if mask & (1 << i):
            out |= 1 << perm[i]
    return out


@dataclass(frozen=True)
class Orbit:
    representative: IndexPair
    size: int
    stabilizer_order: int


@dataclass(frozen=True)
class OrbitDecomposition:
    n: int
    e: int
    f: int
    orbits: tuple[Orbit, ...]


def orbit_decomposition(n: int, e: int, f: int) -> OrbitDecomposition:
    """Split all (e, f)-subset pairs into symmetric group orbits.

    Orbits are found by explicit closure under two group generators, not
    by any classification.  Each orbit records its minimal pair in the
    (first_mask, second_mask) order, its size and the stabilizer order
    of the representative by orbit-stabilizer.
    """
    if not 0 <= e <= n or not 0 <= f <= n:
        raise ValueError(f"need 0 <= e, f <= n, got n={n}, e={e}, f={f}")
    if n > ENUM_BOUND:
        raise SizeBoundError(f"n={n} exceeds enumeration bound {ENUM_BOUND}")

    generators: list[Perm] = []
    if n >= 2:
        swap = list(range(n))
        swap[0], swap[1] = 1, 0
        generators.append(tuple(swap))
        generators.append(tuple(list(range(1, n)) + [0]))

    first_masks = [sum(1 << i for i in comb) for comb in itertools.combinations(range(n), e)]
    second_masks = [sum(1 << i for i in comb) for comb in itertools.combinations(range(n), f)]
    pairs = sorted(IndexPair(fm, sm) for fm in first_masks for sm in second_masks)

    order = math.factorial(n)
    seen: set[IndexPair] = set()
    orbits: list[Orbit] = []
    for pair in pairs:
        if pair in seen:
            continue
        frontier = [pair]
        members = {pair}
        while frontier:
            current = frontier.pop()
            for gen in generators:
                nxt = current.apply(gen)
                if nxt not in members:
                    members.add(nxt)
                    frontier.append(nxt)
        seen |= members
        size = len(members)
        quot, rem = divmod(order, size)
        if rem != 0:
            raise ConsistencyError(
                f"orbit size {size} does not divide group order {order}"
            )
        orbits.append(Orbit(representative=pair, size=size, stabilizer_order=quot))

    if sum(o.size for o in orbits) != len(pairs):
        raise ConsistencyError("orbit sizes do not add up to the number of pairs")
    return OrbitDecomposition(n=n, e=e, f=f, orbits=tuple(orbits))


# -- basis enumeration for super powers --------------------------------


def _enumerate_power(k: int, space: GradedDim, sym: bool) -> GradedDim:
    if k < 0:
        return ZERO
    if space.total_dim() > POWER_DIM_BOUND:
        raise SizeBoundError(
            f"total dimension {space.total_dim()} exceeds bound {POWER_DIM_BOUND}"
        )
    if k > POWER_EXPONENT_BOUND:
        raise SizeBoundError(f"exponent {k} exceeds bound {POWER_EXPONENT_BOUND}")
    # one label per basis vector; a label of odd degree is unrepeatable
    # in a symmetric power, one of even degree unrepeatable in a wedge
    labels: list[tuple[int, int]] = []
    for d, m in space.items():
        odd = d % 2 != 0
        limited = odd if sym else not odd
        labels.extend((d, 1 if limited else k) for _ in range(m))

    counts: dict[int, int] = {}

    def descend(pos: int, remaining: int, degree: int) -> None:
        if remaining == 0:
            counts[degree] = counts.get(degree, 0) + 1
            return
        if pos == len(labels):
            return
        d, cap = labels[pos]
        for mult in range(min(cap, remaining) + 1):
            descend(pos + 1, remaining - mult, degree + mult * d)

    descend(0, k, 0)
    return GradedDim(counts)


def oracle_sym_power(k: int, space: GradedDim) -> GradedDim:
    """Super-symmetric power by explicit monomial-basis enumeration."""
    return _enumerate_power(k, space, sym=True)


def oracle_wedge_power(k: int, space: GradedDim) -> GradedDim:
    """Super-exterior power by explicit monomial-basis enumeration."""
    return _enumerate_power(k, space, sym=False)
