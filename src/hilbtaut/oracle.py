"""Brute-force cross-checks for the closed formulas.

Everything here is deliberately naive: dimensions of invariants are
averages of graded traces over the full symmetric group, and
symmetric/exterior powers come from enumerating monomial bases.  The
closed formulas elsewhere in the package must reproduce these numbers
exactly.  The group averages for all n up to a bound come from one
integer recurrence, the cycle-index exponential formula (Macdonald,
*Symmetric Functions and Hall Polynomials*, §I.2), fed only by the
trace of a single cycle; beyond that the only concessions to speed are
hard size bounds.
"""

from __future__ import annotations

import itertools
import math
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
    n_max: int,
    space_common: GradedDim,
    space_first: GradedDim,
    space_second: GradedDim,
    space_rest: GradedDim,
) -> dict[tuple[int, int, int], GradedDim]:
    """Graded invariants of the sign-twisted slot representation, keyed
    (n, e, f) for every 0 <= e, f <= n <= n_max, zero spaces included.

    Slots are indexed by pairs (I, J) of subsets of n points with
    |I| = e, |J| = f.  Points in both subsets carry ``space_common``,
    points only in I carry ``space_first`` twisted by one sign
    character, points only in J carry ``space_second`` twisted by the
    other, and the remaining points carry ``space_rest``.  The dimension
    of the invariants is the average over S_n of the graded traces on
    fixed pairs; a fixed pair is one whose subsets are unions of cycles,
    so each cycle sits in neither subset, in I only, in J only or in both.

    With T_r the trace of one r-cycle summed over those four placements
    and F_n the average over S_n, both keyed (|I|, |J|, degree), the
    cycle-index exponential formula reads n F_n = sum_{r=1..n} T_r F_{n-r}
    with F_0 = 1, all in integers.  Each division by n must leave a
    non-negative integer; anything else raises ConsistencyError.
    """
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    if n_max > AVERAGING_BOUND:
        raise SizeBoundError(f"n_max={n_max} exceeds averaging bound {AVERAGING_BOUND}")

    cycle_traces: list[dict[tuple[int, int, int], int]] = [{}]
    averages: list[dict[tuple[int, int, int], int]] = [{(0, 0, 0): 1}]
    for n in range(1, n_max + 1):
        # T_n over the placements (|I| added, |J| added, space, sign flags)
        cycle_traces.append({
            (di, dj, d): c
            for di, dj, space, sign_flags in (
                (0, 0, space_rest, 0), (n, 0, space_first, 1),
                (0, n, space_second, 1), (n, n, space_common, 0),
            )
            for d, c in _cycle_trace(n, space, sign_flags).items()
        })
        total: dict[tuple[int, int, int], int] = {}
        for r in range(1, n + 1):
            for (i, j, d), c in cycle_traces[r].items():
                for (i2, j2, d2), c2 in averages[n - r].items():
                    key = (i + i2, j + j2, d + d2)
                    total[key] = total.get(key, 0) + c * c2
        average: dict[tuple[int, int, int], int] = {}
        for (i, j, d), c in total.items():
            quot, rem = divmod(c, n)
            if rem != 0 or quot < 0:
                raise ConsistencyError(
                    f"group averaging gave {c}/{n} at n={n}, e={i}, f={j}, degree {d}; "
                    "the trace sum must be a non-negative multiple of n"
                )
            if quot:
                average[i, j, d] = quot
        averages.append(average)

    dims: dict[tuple[int, int, int], dict[int, int]] = {
        (n, e, f): {} for n in range(n_max + 1) for e in range(n + 1) for f in range(n + 1)
    }
    for n, average in enumerate(averages):
        for (e, f, d), c in average.items():
            dims[n, e, f][d] = c
    return {key: GradedDim(table) for key, table in dims.items()}


# -- orbit structure of pairs of subsets -------------------------------


@dataclass(frozen=True, order=True)
class IndexPair:
    """A pair of subsets of range(n), stored as bitmasks."""

    first_mask: int
    second_mask: int

    @classmethod
    def from_indices(cls, first: Sequence[int], second: Sequence[int]) -> "IndexPair":
        return cls(sum(1 << i for i in set(first)), sum(1 << i for i in set(second)))

    def first_indices(self) -> tuple[int, ...]:
        return _mask_indices(self.first_mask)

    def second_indices(self) -> tuple[int, ...]:
        return _mask_indices(self.second_mask)

    def overlap(self) -> int:
        return (self.first_mask & self.second_mask).bit_count()


def _mask_indices(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask & (1 << i))


@dataclass(frozen=True)
class Orbit:
    representative: IndexPair
    size: int
    stabilizer_order: int


def orbit_decomposition(n: int, e: int, f: int) -> tuple[Orbit, ...]:
    """Split all (e, f)-subset pairs into symmetric group orbits.

    Orbits are found by explicit closure under two group generators, the
    rotation of all n points and the swap of points 0 and 1, acting on
    plain (first_mask, second_mask) pairs; no classification is used.
    Each orbit records its minimal pair in that order, its size and the
    stabilizer order of the representative by orbit-stabilizer.
    """
    if not 0 <= e <= n or not 0 <= f <= n:
        raise ValueError(f"need 0 <= e, f <= n, got n={n}, e={e}, f={f}")
    if n > ENUM_BOUND:
        raise SizeBoundError(f"n={n} exceeds enumeration bound {ENUM_BOUND}")

    # each generator tabulated once over all 2^n masks
    generators: tuple[list[int], ...] = ()
    if n >= 2:
        full = (1 << n) - 1
        masks = range(1 << n)
        rotate = [(m << 1 | m >> (n - 1)) & full for m in masks]  # point i goes to i + 1 mod n
        swap = [m ^ 3 if (m ^ m >> 1) & 1 else m for m in masks]  # points 0 and 1 trade places
        generators = (rotate, swap)
    first_masks = [sum(1 << i for i in comb) for comb in itertools.combinations(range(n), e)]
    second_masks = [sum(1 << i for i in comb) for comb in itertools.combinations(range(n), f)]
    pairs = sorted((fm, sm) for fm in first_masks for sm in second_masks)

    order = math.factorial(n)
    seen: set[tuple[int, int]] = set()
    orbits: list[Orbit] = []
    for pair in pairs:
        if pair in seen:
            continue
        frontier = [pair]
        members = {pair}
        while frontier:
            fm, sm = frontier.pop()
            for image in generators:
                nxt = (image[fm], image[sm])
                if nxt not in members:
                    members.add(nxt)
                    frontier.append(nxt)
        seen |= members
        size = len(members)
        quot, rem = divmod(order, size)
        if rem != 0:
            raise ConsistencyError(f"orbit size {size} does not divide group order {order}")
        orbits.append(Orbit(representative=IndexPair(*pair), size=size, stabilizer_order=quot))

    if sum(o.size for o in orbits) != len(pairs):
        raise ConsistencyError("orbit sizes do not add up to the number of pairs")
    return tuple(orbits)


# -- basis enumeration for super powers --------------------------------


def _enumerate_powers(top: int, space: GradedDim, sym: bool) -> list[GradedDim]:
    # the powers 0..top, counting each monomial of size <= top once
    if top < 0:
        return []
    if space.total_dim() > POWER_DIM_BOUND:
        raise SizeBoundError(
            f"total dimension {space.total_dim()} exceeds bound {POWER_DIM_BOUND}"
        )
    if top > POWER_EXPONENT_BOUND:
        raise SizeBoundError(f"exponent {top} exceeds bound {POWER_EXPONENT_BOUND}")
    # one label per basis vector; a label of odd degree is unrepeatable
    # in a symmetric power, one of even degree unrepeatable in a wedge
    labels: list[tuple[int, bool]] = []
    for d, m in space.items():
        repeatable = (d % 2 == 0) == sym
        labels.extend((d, repeatable) for _ in range(m))

    counts: list[dict[int, int]] = [{} for _ in range(top + 1)]

    def extend(start: int, size: int, degree: int) -> None:
        # a monomial lists its labels in order, so it grows only at or
        # after its last label, and past it when that one is unrepeatable
        counts[size][degree] = counts[size].get(degree, 0) + 1
        if size == top:
            return
        for pos in range(start, len(labels)):
            d, repeatable = labels[pos]
            extend(pos if repeatable else pos + 1, size + 1, degree + d)

    extend(0, 0, 0)
    return [GradedDim(layer) for layer in counts]


def oracle_sym_powers(top: int, space: GradedDim) -> list[GradedDim]:
    """Super-symmetric powers 0..top by one monomial-basis enumeration;
    negative top gives the empty list."""
    return _enumerate_powers(top, space, sym=True)


def oracle_wedge_powers(top: int, space: GradedDim) -> list[GradedDim]:
    """Super-exterior powers 0..top by one monomial-basis enumeration;
    negative top gives the empty list."""
    return _enumerate_powers(top, space, sym=False)


def oracle_sym_power(k: int, space: GradedDim) -> GradedDim:
    """Super-symmetric power by explicit monomial-basis enumeration."""
    return oracle_sym_powers(k, space)[k] if k >= 0 else ZERO


def oracle_wedge_power(k: int, space: GradedDim) -> GradedDim:
    """Super-exterior power by explicit monomial-basis enumeration."""
    return oracle_wedge_powers(k, space)[k] if k >= 0 else ZERO
