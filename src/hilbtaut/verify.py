"""Property suites tying the closed formulas to their oracles.

Each suite returns a plain verdict dict: the suite name, the seed and
bounds it ran at, one entry per check with a pass flag, and the first
(minimal) counterexample when a check fails.  A check is a function that
returns its first counterexample dict, or None, by early return;
``_first`` picks the first one a sweep finds.  So a passing run builds
no counterexample, and a failing check never hides another: each check
carries its own.  The CLI prints these as JSON; the acceptance tests
assert on them directly.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction

from . import formulas, geometry, oracle
from .graded import (
    GradedDim,
    lambda_scalar,
    s_scalar,
    sym_power,
    sym_powers,
    wedge_power,
    wedge_powers,
)
from .series import TruncSeries

DEFAULT_SEED = 1729

# Integer range of the appendix's χ's, and its highest Q power for the
# scalar rules.
CHI_RANGE = (-6, 6)
K_MAX = 10


def _first(results: Iterable[dict | None]) -> dict | None:
    """The first counterexample among ``results``, or None."""
    return next((r for r in results if r is not None), None)


def _check(name: str, counterexample: object | None, extra: dict | None = None) -> dict:
    entry = {"name": name, "pass": counterexample is None}
    if counterexample is not None:
        entry["counterexample"] = counterexample
    if extra:
        entry.update(extra)
    return entry


def _verdict(suite: str, seed: int | None, bounds: dict, checks: list[dict]) -> dict:
    return {
        "suite": suite,
        "seed": seed,
        "bounds": bounds,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def parallel_map(fn: Callable, items: Iterable) -> list:
    """``fn`` applied to each item in order, in this process.

    The loop that ``whom_oracle`` and ``tensor_euler`` run their work
    items through.  It stays a named function because the benchmark's
    layer tracer times it under this name (``perfbench/tracing.py``).
    """
    return [fn(item) for item in items]


def random_space(
    rng: random.Random, max_total: int = 3, degrees: Sequence[int] = (0, 1, 2)
) -> GradedDim:
    """A random graded dimension table with bounded total dimension."""
    dims: dict[int, int] = {}
    for _ in range(rng.randint(0, max_total)):
        d = rng.choice(degrees)
        dims[d] = dims.get(d, 0) + 1
    return GradedDim(dims)


# -- appendix: generating function identities ---------------------------


def _harmonic_mismatch() -> dict | None:
    """First Q power where exp(sum_r Q^r / r) and 1/(1 - Q) differ."""
    orders = {"Q": K_MAX + 1}
    harmonic = TruncSeries(orders, {(r, 0, 0): Fraction(1, r) for r in range(1, K_MAX + 1)})
    exponentiated = harmonic.exp()
    geometric = (TruncSeries.const(1, orders) - TruncSeries.variable("Q", orders)).int_pow(-1)
    for j in range(K_MAX + 1):
        if exponentiated.coeff(Q=j) != geometric.coeff(Q=j):
            return {"Q_power": j}
    return None


def _scalar_rule_mismatch(rule: Callable[[int, int], int], sign: int, chi: int) -> dict | None:
    """First k where the Q^k coefficient of (1 + sign·Q)^(sign·chi) is
    not rule(k, chi)."""
    orders = {"Q": K_MAX + 1}
    base = TruncSeries.const(1, orders) + sign * TruncSeries.variable("Q", orders)
    series = base.int_pow(sign * chi)
    for k in range(K_MAX + 1):
        if series.coeff(Q=k) != rule(k, chi):
            return {"chi": chi, "k": k}
    return None


def _three_way_mismatch(quad: tuple[int, int, int, int], nmax: int) -> dict | None:
    """First (n, k, l) where closed sum, exp form and product form differ."""
    exp_form = formulas.bichar_series(*quad, n_max=nmax)
    product_form = formulas.bichar_product(*quad, n_max=nmax)
    for n in range(nmax + 1):
        for k in range(n + 1):
            for l in range(n + 1):
                closed = formulas.bichar_closed(formulas.BicharInput(n, k, l, *quad))
                from_exp = formulas.bichar_from_series(exp_form, n, k, l)
                from_product = formulas.bichar_from_series(product_form, n, k, l)
                if not closed == from_exp == from_product:
                    return {
                        "chis": list(quad), "n": n, "k": k, "l": l,
                        "closed": closed, "exp_form": from_exp, "product_form": from_product,
                    }
    return None


def suite_appendix(seed: int = DEFAULT_SEED, nmax: int = 6, count: int = 50) -> dict:
    """Series-side identities: the scalar coefficient rules and the
    three-way agreement of closed sum, exp form and product form."""
    lo, hi = CHI_RANGE
    rng = random.Random(seed)
    quadruples = [tuple(rng.randint(lo, hi) for _ in range(4)) for _ in range(count)]
    chis = range(lo, hi + 1)
    checks = [
        _check("exp_harmonic_is_geometric", _harmonic_mismatch()),
        _check(
            "binomial_coeffs_are_lambda",
            _first(_scalar_rule_mismatch(lambda_scalar, 1, chi) for chi in chis),
        ),
        _check(
            "inverse_coeffs_are_s",
            _first(_scalar_rule_mismatch(s_scalar, -1, chi) for chi in chis),
        ),
        _check(
            "three_way_agreement",
            _first(_three_way_mismatch(quad, nmax) for quad in quadruples),
            {"quadruples": len(quadruples)},
        ),
    ]
    bounds = {"nmax": nmax, "count": count, "chi_range": list(CHI_RANGE), "k_max": K_MAX}
    return _verdict("appendix", seed, bounds, checks)


# -- whom_oracle: closed graded formula vs group averaging --------------


def _family_spaces(seed: int, index: int) -> tuple[GradedDim, GradedDim, GradedDim, GradedDim]:
    rng = random.Random(seed * 1_000_003 + index)
    return tuple(random_space(rng) for _ in range(4))


def _whom_family_task(seed: int, index: int, nmax: int) -> tuple[dict | None, dict | None]:
    """The first cell of one family where ``w_hom`` misses the group
    average, and the first where it breaks the source/target swap."""
    spaces = _family_spaces(seed, index)
    common, first, second, rest = spaces
    averages = oracle.invariant_dim(nmax, *spaces)
    closed_at = formulas.w_hom_cells(nmax, common, first, second, rest)
    swapped_at = formulas.w_hom_cells(nmax, common, second, first, rest)
    oracle_bad = swap_bad = None
    for n in range(1, nmax + 1):
        for e, f in itertools.product(range(n + 1), repeat=2):
            closed = closed_at(n, e, f)
            swapped = swapped_at(n, f, e)
            averaged = averages[n, e, f]
            if oracle_bad is None and closed != averaged:
                oracle_bad = {
                    "family": index, "n": n, "e": e, "f": f,
                    "tables": [s.to_json() for s in spaces],
                    "closed": closed.to_json(), "averaged": averaged.to_json(),
                }
            if swap_bad is None and closed != swapped:
                swap_bad = {
                    "family": index, "n": n, "e": e, "f": f,
                    "tables": [s.to_json() for s in spaces],
                }
    return oracle_bad, swap_bad


def suite_whom_oracle(seed: int = DEFAULT_SEED, nmax: int = 5, count: int = 20) -> dict:
    """Closed Hom-space formula against full symmetric group averaging,
    plus the source/target swap symmetry, on random table families."""
    if nmax > oracle.AVERAGING_BOUND:
        raise oracle.SizeBoundError(
            f"nmax={nmax} exceeds averaging bound {oracle.AVERAGING_BOUND}"
        )
    results = parallel_map(lambda index: _whom_family_task(seed, index, nmax), range(count))
    checks = [
        _check("matches_group_averaging", _first(bad for bad, _ in results), {"families": count}),
        _check("swap_symmetry", _first(bad for _, bad in results)),
    ]
    return _verdict("whom_oracle", seed, {"nmax": nmax, "count": count}, checks)


# -- tensor_euler: closed sum vs term table vs generating function ------


def _tensor_triangle(
    nmax: int, chi_flp: Sequence[int], chi_l: int, chi_o: int, label: str
) -> dict | None:
    """First (n, k) of one input where the three evaluations differ."""
    series = formulas.tensor_euler_series(chi_flp, chi_l, chi_o, n_max=nmax, k_max=nmax)
    for n in range(1, nmax + 1):
        for k in range(n + 1):
            closed = formulas.tensor_euler_closed(n, k, chi_flp, chi_l, chi_o)
            terms = formulas.tensor_euler_terms(n, k, chi_flp, chi_l, chi_o)
            alternating = sum((-1) ** p * sum(contribs) for p, contribs in terms)
            coefficient = formulas.tensor_euler_from_series(series, n, k)
            if not closed == alternating == coefficient:
                return {
                    "input": label, "chi_flp": list(chi_flp[: nmax + 1]),
                    "chi_l": chi_l, "chi_o": chi_o, "n": n, "k": k,
                    "closed": closed, "terms_sum": alternating, "series_coeff": coefficient,
                }
    return None


def suite_tensor_euler(seed: int = DEFAULT_SEED, nmax: int = 6, count: int = 20) -> dict:
    """Three independent evaluations of the tensor-by-wedge Euler number
    on the shipped surface fixtures and on random integer inputs."""
    tasks = []
    for profile in ("k3.json", "p2.json"):
        config = geometry.load_config(geometry.packaged_profile(profile))
        surface = config.surface
        for f_name, l_name in (("O", "O"), ("O", "H"), ("H", "H")):
            chi_flp = geometry.chi_tensor_powers(
                surface, surface.bundle(f_name), surface.bundle(l_name), nmax
            )
            chi_l = geometry.rr_chi(surface, surface.bundle(l_name))
            tasks.append((chi_flp, chi_l, surface.chi_o, f"{profile}:{f_name},{l_name}"))
    rng = random.Random(seed)
    for index in range(count):
        chi_flp = [rng.randint(-6, 6) for _ in range(nmax + 1)]
        chi_l = rng.randint(-6, 6)
        chi_o = rng.randint(-6, 6)
        tasks.append((chi_flp, chi_l, chi_o, f"random:{index}"))

    bad = _first(parallel_map(lambda task: _tensor_triangle(nmax, *task), tasks))
    checks = [_check("closed_terms_series_agree", bad, {"inputs": len(tasks)})]
    return _verdict("tensor_euler", seed, {"nmax": nmax, "count": count}, checks)


# -- graded_powers: super powers vs basis enumeration -------------------


def _all_spaces(degrees: Sequence[int], max_total: int) -> Iterable[GradedDim]:
    for total in range(max_total + 1):
        for multiset in itertools.combinations_with_replacement(degrees, total):
            yield GradedDim(Counter(multiset))


def _basis_mismatch(space: GradedDim, top: int) -> dict | None:
    """The first super power of ``space`` up to ``top``, by k and then
    sym before wedge, that basis enumeration refutes."""
    powers = (
        ("sym", sym_powers(top, space), oracle.oracle_sym_powers(top, space)),
        ("wedge", wedge_powers(top, space), oracle.oracle_wedge_powers(top, space)),
    )
    for k in range(top + 1):
        for power, closed, enumerated in powers:
            if closed[k] != enumerated[k]:
                return {"space": space.to_json(), "k": k, "power": power}
    return None


def _euler_mismatch(index: int, space: GradedDim, k: int) -> dict | None:
    """The k-th super power of ``space`` whose Euler number misses the
    scalar rule at χ(space)."""
    chi = space.euler()
    for power, closed, scalar in (
        ("sym", sym_power, s_scalar),
        ("wedge", wedge_power, lambda_scalar),
    ):
        if closed(k, space).euler() != scalar(k, chi):
            return {"index": index, "space": space.to_json(), "k": k, "power": power}
    return None


def suite_graded_powers(seed: int = DEFAULT_SEED, count: int = 100) -> dict:
    """Super symmetric/exterior powers against monomial-basis
    enumeration, and their Euler compatibility with the scalar
    operations."""
    sweep_degrees = (-2, -1, 0, 1, 2, 3)
    sweep_total = 4
    edge_spaces = [
        GradedDim({0: oracle.POWER_DIM_BOUND}),
        GradedDim({1: oracle.POWER_DIM_BOUND}),
        GradedDim({0: 4, 1: 4}),
        GradedDim({-1: 3, 0: 2, 3: 3}),
    ]
    sweep = [*_all_spaces(sweep_degrees, sweep_total), *edge_spaces]
    top = oracle.POWER_EXPONENT_BOUND
    rng = random.Random(seed)
    draws = (
        (random_space(rng, max_total=6, degrees=range(-3, 5)),
         rng.randint(0, oracle.POWER_EXPONENT_BOUND))
        for _ in range(count)
    )
    checks = [
        _check(
            "matches_basis_enumeration",
            _first(_basis_mismatch(space, top) for space in sweep),
            {"cases": len(sweep) * (top + 1)},
        ),
        _check(
            "euler_compatibility",
            _first(_euler_mismatch(index, *draw) for index, draw in enumerate(draws)),
            {"cases": count},
        ),
    ]
    bounds = {"sweep_degrees": list(sweep_degrees), "sweep_total": sweep_total, "count": count}
    return _verdict("graded_powers", seed, bounds, checks)


# -- orbits: enumeration vs counting and stabilizer formulas -------------


def expected_orbit_profile(n: int, e: int, f: int) -> dict[int, int]:
    """Stabilizer order per overlap i, from the product-of-factorials rule."""
    out = {}
    for i in range(max(0, e + f - n), min(e, f) + 1):
        out[i] = (
            math.factorial(i)
            * math.factorial(e - i)
            * math.factorial(f - i)
            * math.factorial(n - e - f + i)
        )
    return out


def standard_pair(e: int, f: int, i: int) -> oracle.IndexPair:
    """The reference pair with overlap i: the first e points against the
    first i points joined with the f - i points after position e."""
    first = range(e)
    second = list(range(i)) + list(range(e, e + f - i))
    return oracle.IndexPair.from_indices(first, second)


def _stabilizer_mismatch(
    cell: dict, seen: dict[int, oracle.Orbit], expected: dict[int, int]
) -> dict | None:
    """First orbit whose size and stabilizer order do not multiply to n!,
    else the first overlap whose stabilizer order is not the expected one."""
    for i, orbit in seen.items():
        if orbit.size * orbit.stabilizer_order != math.factorial(cell["n"]):
            stabilizer = orbit.stabilizer_order
            return {**cell, "i": i, "size": orbit.size, "stabilizer_order": stabilizer}
    for i, stab in expected.items():
        if seen[i].stabilizer_order != stab:
            return {**cell, "i": i, "computed": seen[i].stabilizer_order, "expected": stab}
    return None


def _reference_mismatch(cell: dict, seen: dict[int, oracle.Orbit]) -> dict | None:
    """First overlap, in increasing order, whose ``standard_pair`` is
    malformed or, for n <= 5, lies outside the enumerated orbit."""
    n, e, f = cell["n"], cell["e"], cell["f"]
    for i in sorted(seen):
        pair = standard_pair(e, f, i)
        first, second = pair.first_indices(), pair.second_indices()
        if (pair.overlap(), len(first), len(second)) != (i, e, f) or (
            n <= 5 and _orbit_of(n, pair) != seen[i].representative
        ):
            return {**cell, "i": i, "pair": [list(first), list(second)]}
    return None


def _orbit_cell(n: int, e: int, f: int) -> tuple[dict | None, dict | None, dict | None]:
    """The first orbit-count, stabilizer-order and reference-pair mismatch
    at one cell.  The last two are checked only where the enumerated
    orbits line up with the expected overlaps."""
    cell = {"n": n, "e": e, "f": f}
    orbits = oracle.orbit_decomposition(n, e, f)
    expected = expected_orbit_profile(n, e, f)
    if len(orbits) != len(expected):
        return {**cell, "computed": len(orbits), "expected": len(expected)}, None, None
    seen = {orbit.representative.overlap(): orbit for orbit in orbits}
    if sorted(seen) != sorted(expected):
        overlaps = {"computed_overlaps": sorted(seen), "expected_overlaps": sorted(expected)}
        return {**cell, **overlaps}, None, None
    return None, _stabilizer_mismatch(cell, seen, expected), _reference_mismatch(cell, seen)


def suite_orbits(seed: int = DEFAULT_SEED, nmax: int = 7) -> dict:
    """Orbit decomposition of subset pairs against the closed count,
    the stabilizer order formula, and the reference representatives."""
    if nmax > oracle.ENUM_BOUND:
        raise oracle.SizeBoundError(f"nmax={nmax} exceeds enumeration bound {oracle.ENUM_BOUND}")
    cells = [
        _orbit_cell(n, e, f)
        for n in range(1, nmax + 1)
        for e, f in itertools.product(range(n + 1), repeat=2)
    ]
    names = ("orbit_count", "stabilizer_orders", "reference_pairs_covered")
    checks = [
        _check(name, _first(cell[index] for cell in cells)) for index, name in enumerate(names)
    ]
    verdict = _verdict("orbits", seed, {"nmax": nmax}, checks)
    verdict["cells"] = len(cells)
    return verdict


@functools.cache
def _mask_images(n: int) -> tuple[tuple[int, ...], ...]:
    # for every permutation of range(n), the image of every mask below
    # 2^n, each built from the mask without its lowest bit; n! 2^n
    # entries kept per n, and the reference check asks only n <= 5
    images = []
    for perm in itertools.permutations(range(n)):
        image = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << perm[low.bit_length() - 1]
        images.append(tuple(image))
    return tuple(images)


def _orbit_of(n: int, pair: oracle.IndexPair) -> oracle.IndexPair:
    # minimal pair in the full-group orbit: a minimum over all of S_n
    fm, sm = pair.first_mask, pair.second_mask
    return oracle.IndexPair(*min((image[fm], image[sm]) for image in _mask_images(n)))


_RUNNERS = {
    "appendix": suite_appendix,
    "whom_oracle": suite_whom_oracle,
    "tensor_euler": suite_tensor_euler,
    "graded_powers": suite_graded_powers,
    "orbits": suite_orbits,
}
SUITES = tuple(_RUNNERS)


def run_suite(name: str, **kwargs) -> dict:
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    return _RUNNERS[name](**kwargs)
