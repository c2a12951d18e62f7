"""Brute-force cross-checks for the closed formulas.

Everything here is deliberately naive: dimensions of invariants are
averages of graded traces over the full symmetric group, and
symmetric/exterior powers come from enumerating monomial bases.  The
closed formulas elsewhere in the package must reproduce these numbers
exactly.  The group averages for all n up to a bound come from one
integer recurrence, the cycle-index exponential formula (Macdonald,
*Symmetric Functions and Hall Polynomials*, §I.2), fed only by the
trace of a single cycle.  The orbit closure reads its subsets, grouped
by size, and their images under the rotation and the swap of points 0
and 1 as positions in their group from tables built once per n and
shared by every (e, f) cell.  Each call marks the pairs it has closed
in one byte map of the cell's C(n, e) * C(n, f) entries (853776 at
n = 12, e = f = 6), holding for each pair the number of its orbit (a
cell has at most n + 1 orbits), so an image already in an earlier
orbit shows that the generators do not permute the pairs.  The power
enumeration lists every monomial of one size, breadth first, and
extends each to the next.  Beyond those, the only concessions to speed
are hard size bounds.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

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
    # each table is fresh and holds only the non-zero quotients
    return {key: GradedDim.wrap(table) for key, table in dims.items()}


# -- orbit structure of pairs of subsets -------------------------------


class IndexPair(NamedTuple):
    """A pair of subsets of range(n), stored as bitmasks; pairs order
    and hash as the tuple (first_mask, second_mask)."""

    first_mask: int
    second_mask: int

    def first_indices(self) -> tuple[int, ...]:
        return _mask_indices(self.first_mask)

    def second_indices(self) -> tuple[int, ...]:
        return _mask_indices(self.second_mask)

    def overlap(self) -> int:
        return (self.first_mask & self.second_mask).bit_count()


def _mask_indices(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask & (1 << i))


class Orbit(NamedTuple):
    representative: IndexPair
    size: int
    stabilizer_order: int


def _mask_generators(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # the images of all 2^n masks under the rotation, point i to i + 1
    # mod n, and under the swap of points 0 and 1; below two points, both
    # are the identity
    masks = range(1 << n)
    if n < 2:
        return tuple(masks), tuple(masks)
    full = (1 << n) - 1
    rotate = tuple((m << 1 | m >> (n - 1)) & full for m in masks)
    swap = tuple(m ^ 3 if (m ^ m >> 1) & 1 else m for m in masks)
    return rotate, swap


@functools.cache
def _pair_tables(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]:
    # per bit count: its masks in increasing order, and the image of each
    # mask under the rotation and under the swap as a position in that
    # same group.  Tuples, so no caller can reorder or extend what every
    # (e, f) cell reads; orbit_decomposition checks n first, so at most
    # ENUM_BOUND + 1 entries
    by_size: list[list[int]] = [[] for _ in range(n + 1)]
    position = [0] * (1 << n)
    for m in range(1 << n):
        group = by_size[m.bit_count()]
        position[m] = len(group)
        group.append(m)
    rotate, swap = _mask_generators(n)
    for image in rotate, swap:
        for m, moved in enumerate(image):
            if moved.bit_count() != m.bit_count():
                raise ConsistencyError(
                    f"a generator sends mask {m} of bit count {m.bit_count()} "
                    f"to mask {moved} of bit count {moved.bit_count()}"
                )
    return tuple(
        (
            tuple(group),
            tuple(position[rotate[m]] for m in group),
            tuple(position[swap[m]] for m in group),
        )
        for group in by_size
    )


def orbit_decomposition(n: int, e: int, f: int) -> tuple[Orbit, ...]:
    """Split all (e, f)-subset pairs into symmetric group orbits.

    Orbits are found by explicit closure under the two group generators,
    the rotation of all n points and the swap of points 0 and 1, acting
    on the pairs of the cell through each subset's position among the
    subsets of its size; no classification is used.  Each orbit is
    closed by walking the rotation's cycles and pushing only the swap's
    new images.  Each orbit records its minimal (first_mask,
    second_mask) pair, its size and the stabilizer order of the
    representative by orbit-stabilizer.  A generator that changes a
    subset's size, two orbits that meet and a size that does not divide
    n! each raise ConsistencyError.
    """
    if not 0 <= e <= n or not 0 <= f <= n:
        raise ValueError(f"need 0 <= e, f <= n, got n={n}, e={e}, f={f}")
    if n > ENUM_BOUND:
        raise SizeBoundError(f"n={n} exceeds enumeration bound {ENUM_BOUND}")

    tables = _pair_tables(n)
    first_masks, first_rotate, first_swap = tables[e]
    second_masks, second_rotate, second_swap = tables[f]
    width = len(second_masks)

    order = math.factorial(n)
    # the number of the orbit that holds each pair, coded i * width + j
    # for the i-th first mask and the j-th second mask
    orbit_of = bytearray(len(first_masks) * width)
    orbits: list[Orbit] = []
    # the codes, and so the least unmarked one, follow the pairs' order
    start = orbit_of.find(0)
    while start >= 0:
        number = len(orbits) + 1
        if number > 255:
            raise ConsistencyError(f"more than 255 orbits in the ({e}, {f}) cell of n={n}")
        orbit_of[start] = number
        frontier = [start]
        size = 1
        while frontier:
            i, j = divmod(frontier.pop(), width)
            # walk the rotation's cycle through (i, j) until it meets a
            # marked pair, pushing the swap's new images
            while True:
                code = first_swap[i] * width + second_swap[j]
                held = orbit_of[code]
                if held != number:
                    # the orbits of a group never overlap
                    if held:
                        raise ConsistencyError(f"orbits {held} and {number} overlap")
                    orbit_of[code] = number
                    size += 1
                    frontier.append(code)
                i, j = first_rotate[i], second_rotate[j]
                code = i * width + j
                held = orbit_of[code]
                if held == number:
                    break
                if held:
                    raise ConsistencyError(f"orbits {held} and {number} overlap")
                orbit_of[code] = number
                size += 1
        quot, rem = divmod(order, size)
        if rem != 0:
            raise ConsistencyError(f"orbit size {size} does not divide group order {order}")
        first, second = divmod(start, width)
        orbits.append(Orbit(IndexPair(first_masks[first], second_masks[second]), size, quot))
        start = orbit_of.find(0, start + 1)
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
    # in a symmetric power, one of even degree unrepeatable in a wedge.
    # A monomial lists its labels in order, so it grows only at or after
    # its last label, and past it when that one is unrepeatable: moves[p]
    # is (next start, degree added) for the label at position p
    moves: list[tuple[int, int]] = []
    for d, m in space.items():
        repeatable = (d % 2 == 0) == sym
        for pos in range(len(moves), len(moves) + m):
            moves.append((pos if repeatable else pos + 1, d))
    steps = [moves[start:] for start in range(len(moves) + 1)]

    # one (start, degree) entry per monomial of the current size
    monomials = [(0, 0)]
    counts: list[dict[int, int]] = [{0: 1}]
    for _ in range(top):
        monomials = [
            (nxt, degree + d) for start, degree in monomials for nxt, d in steps[start]
        ]
        count: dict[int, int] = {}
        for _, degree in monomials:
            count[degree] = count.get(degree, 0) + 1
        counts.append(count)
    # each layer is fresh and counts every monomial it holds at least once
    return [GradedDim.wrap(layer) for layer in counts]


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
