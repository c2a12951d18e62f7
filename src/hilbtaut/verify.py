"""Property suites tying the closed formulas to their oracles.

Each suite returns a plain verdict dict: the suite name, the seed and
bounds it ran at, one entry per check with a pass flag, and the first
(minimal) counterexample when a check fails.  The CLI prints these as
JSON; the acceptance tests assert on them directly.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import formulas, geometry, oracle
from .graded import GradedDim, lambda_scalar, s_scalar, sym_power, wedge_power
from .series import TruncSeries

DEFAULT_SEED = 1729

SUITES = ("appendix", "whom_oracle", "tensor_euler", "graded_powers", "orbits")


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


def parallel_map(fn: Callable, items: Sequence, workers: int) -> list:
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


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


def suite_appendix(
    seed: int = DEFAULT_SEED,
    nmax: int = 6,
    count: int = 50,
    chi_range: tuple[int, int] = (-6, 6),
    k_max: int = 10,
    workers: int = 1,
) -> dict:
    """Series-side identities: the scalar coefficient rules and the
    three-way agreement of closed sum, exp form and product form."""
    del workers  # cheap enough sequentially; kept for a uniform call shape
    checks = []

    orders = {"Q": k_max + 1}
    one = TruncSeries.const(1, orders)
    q = TruncSeries.variable("Q", orders)

    harmonic = TruncSeries.zero(orders)
    qpow = one
    for r in range(1, k_max + 1):
        qpow = qpow * q
        harmonic = harmonic + qpow * Fraction(1, r)
    exponentiated = harmonic.exp()
    geometric = (one - q).int_pow(-1)
    bad = None
    if exponentiated != geometric:
        for j in range(k_max + 1):
            if exponentiated.coeff(Q=j) != geometric.coeff(Q=j):
                bad = {"Q_power": j}
                break
    checks.append(_check("exp_harmonic_is_geometric", bad))

    lo, hi = chi_range
    bad = None
    for chi in range(lo, hi + 1):
        binomial = (one + q).int_pow(chi)
        for k in range(k_max + 1):
            if binomial.coeff(Q=k) != lambda_scalar(k, chi):
                bad = {"chi": chi, "k": k}
                break
        if bad:
            break
    checks.append(_check("binomial_coeffs_are_lambda", bad))

    bad = None
    for chi in range(lo, hi + 1):
        inverse = (one - q).int_pow(-chi)
        for k in range(k_max + 1):
            if inverse.coeff(Q=k) != s_scalar(k, chi):
                bad = {"chi": chi, "k": k}
                break
        if bad:
            break
    checks.append(_check("inverse_coeffs_are_s", bad))

    rng = random.Random(seed)
    quadruples = [
        tuple(rng.randint(lo, hi) for _ in range(4)) for _ in range(count)
    ]
    bad = None
    for quad in quadruples:
        if bad:
            break
        exp_form = formulas.bichar_series(*quad, n_max=nmax)
        product_form = formulas.bichar_product(*quad, n_max=nmax)
        for n in range(nmax + 1):
            if bad:
                break
            for k in range(n + 1):
                for l in range(n + 1):
                    closed = formulas.bichar_closed(
                        formulas.BicharInput(n, k, l, *quad)
                    )
                    from_exp = formulas.bichar_from_series(exp_form, n, k, l)
                    from_product = formulas.bichar_from_series(product_form, n, k, l)
                    if not closed == from_exp == from_product:
                        bad = {
                            "chis": list(quad),
                            "n": n,
                            "k": k,
                            "l": l,
                            "closed": closed,
                            "exp_form": from_exp,
                            "product_form": from_product,
                        }
                        break
                if bad:
                    break
    checks.append(_check("three_way_agreement", bad, {"quadruples": len(quadruples)}))

    bounds = {"nmax": nmax, "count": count, "chi_range": list(chi_range), "k_max": k_max}
    return _verdict("appendix", seed, bounds, checks)


# -- whom_oracle: closed graded formula vs group averaging --------------


def _family_spaces(seed: int, index: int) -> tuple[GradedDim, GradedDim, GradedDim, GradedDim]:
    rng = random.Random(seed * 1_000_003 + index)
    return tuple(random_space(rng) for _ in range(4))


def _whom_family_task(task: tuple[int, int, int]) -> dict | None:
    seed, index, nmax = task
    spaces = _family_spaces(seed, index)
    common, first, second, rest = spaces
    for n in range(1, nmax + 1):
        for e in range(n + 1):
            for f in range(n + 1):
                inp = formulas.WHomInput(
                    n=n, e=e, f=f, hom_ef=common, coh_e_dual=first,
                    coh_f=second, coh_o=rest,
                )
                closed = formulas.w_hom(inp)
                averaged = oracle.invariant_dim(n, e, f, common, first, second, rest)
                if closed != averaged:
                    return {
                        "family": index,
                        "n": n,
                        "e": e,
                        "f": f,
                        "tables": [s.to_json() for s in spaces],
                        "closed": closed.to_json(),
                        "averaged": averaged.to_json(),
                    }
                swapped = formulas.w_hom(
                    formulas.WHomInput(
                        n=n, e=f, f=e, hom_ef=common, coh_e_dual=second,
                        coh_f=first, coh_o=rest,
                    )
                )
                if swapped != closed:
                    return {
                        "family": index,
                        "n": n,
                        "e": e,
                        "f": f,
                        "tables": [s.to_json() for s in spaces],
                        "kind": "swap_asymmetry",
                    }
    return None


def suite_whom_oracle(
    seed: int = DEFAULT_SEED,
    nmax: int = 5,
    count: int = 20,
    workers: int = 1,
) -> dict:
    """Closed Hom-space formula against full symmetric group averaging,
    plus the source/target swap symmetry, on random table families."""
    if nmax > oracle.AVERAGING_BOUND:
        raise oracle.SizeBoundError(
            f"nmax={nmax} exceeds averaging bound {oracle.AVERAGING_BOUND}"
        )
    tasks = [(seed, index, nmax) for index in range(count)]
    results = parallel_map(_whom_family_task, tasks, workers)
    bad = next((r for r in results if r is not None), None)
    swap_bad = bad if bad and bad.get("kind") == "swap_asymmetry" else None
    oracle_bad = bad if bad and bad.get("kind") != "swap_asymmetry" else None
    checks = [
        _check("matches_group_averaging", oracle_bad, {"families": count}),
        _check("swap_symmetry", swap_bad),
    ]
    return _verdict("whom_oracle", seed, {"nmax": nmax, "count": count}, checks)


# -- tensor_euler: closed sum vs term table vs generating function ------


def _tensor_triangle(
    nmax: int, chi_flp: Sequence[int], chi_l: int, chi_o: int, label: str
) -> dict | None:
    series = formulas.tensor_euler_series(chi_flp, chi_l, chi_o, n_max=nmax, k_max=nmax)
    for n in range(1, nmax + 1):
        for k in range(n + 1):
            closed = formulas.tensor_euler_closed(n, k, chi_flp, chi_l, chi_o)
            terms = formulas.tensor_euler_terms(n, k, chi_flp, chi_l, chi_o)
            alternating = sum(
                (-1) ** p * sum(contribs) for p, contribs in terms
            )
            coefficient = formulas.tensor_euler_from_series(series, n, k)
            if not closed == alternating == coefficient:
                return {
                    "input": label,
                    "chi_flp": list(chi_flp[: nmax + 1]),
                    "chi_l": chi_l,
                    "chi_o": chi_o,
                    "n": n,
                    "k": k,
                    "closed": closed,
                    "terms_sum": alternating,
                    "series_coeff": coefficient,
                }
    return None


def _tensor_task(task: tuple) -> dict | None:
    nmax, chi_flp, chi_l, chi_o, label = task
    return _tensor_triangle(nmax, chi_flp, chi_l, chi_o, label)


def suite_tensor_euler(
    seed: int = DEFAULT_SEED,
    nmax: int = 6,
    count: int = 20,
    workers: int = 1,
) -> dict:
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
            tasks.append(
                (nmax, chi_flp, chi_l, surface.chi_o, f"{profile}:{f_name},{l_name}")
            )
    rng = random.Random(seed)
    for index in range(count):
        chi_flp = [rng.randint(-6, 6) for _ in range(nmax + 1)]
        chi_l = rng.randint(-6, 6)
        chi_o = rng.randint(-6, 6)
        tasks.append((nmax, chi_flp, chi_l, chi_o, f"random:{index}"))

    results = parallel_map(_tensor_task, tasks, workers)
    bad = next((r for r in results if r is not None), None)
    checks = [_check("closed_terms_series_agree", bad, {"inputs": len(tasks)})]
    return _verdict("tensor_euler", seed, {"nmax": nmax, "count": count}, checks)


# -- graded_powers: super powers vs basis enumeration -------------------


def _all_spaces(degrees: Sequence[int], max_total: int) -> Iterable[GradedDim]:
    def build(idx: int, left: int, current: dict[int, int]) -> Iterable[GradedDim]:
        if idx == len(degrees):
            yield GradedDim(dict(current))
            return
        for dim in range(left + 1):
            if dim:
                current[degrees[idx]] = dim
            yield from build(idx + 1, left - dim, current)
            current.pop(degrees[idx], None)

    yield from build(0, max_total, {})


def suite_graded_powers(
    seed: int = DEFAULT_SEED,
    count: int = 100,
    workers: int = 1,
) -> dict:
    """Super symmetric/exterior powers against monomial-basis
    enumeration, and their Euler compatibility with the scalar
    operations."""
    del workers
    sweep_degrees = (-2, -1, 0, 1, 2, 3)
    sweep_total = 4
    edge_spaces = [
        GradedDim({0: oracle.POWER_DIM_BOUND}),
        GradedDim({1: oracle.POWER_DIM_BOUND}),
        GradedDim({0: 4, 1: 4}),
        GradedDim({-1: 3, 0: 2, 3: 3}),
    ]
    bad = None
    checked = 0
    for space in list(_all_spaces(sweep_degrees, sweep_total)) + edge_spaces:
        for k in range(oracle.POWER_EXPONENT_BOUND + 1):
            closed_sym = sym_power(k, space)
            closed_wedge = wedge_power(k, space)
            if closed_sym != oracle.oracle_sym_power(k, space):
                bad = {"space": space.to_json(), "k": k, "power": "sym"}
                break
            if closed_wedge != oracle.oracle_wedge_power(k, space):
                bad = {"space": space.to_json(), "k": k, "power": "wedge"}
                break
            checked += 1
        if bad:
            break
    checks = [_check("matches_basis_enumeration", bad, {"cases": checked})]

    rng = random.Random(seed)
    bad = None
    for index in range(count):
        space = random_space(rng, max_total=6, degrees=range(-3, 5))
        k = rng.randint(0, oracle.POWER_EXPONENT_BOUND)
        chi = space.euler()
        if sym_power(k, space).euler() != s_scalar(k, chi):
            bad = {"index": index, "space": space.to_json(), "k": k, "power": "sym"}
            break
        if wedge_power(k, space).euler() != lambda_scalar(k, chi):
            bad = {"index": index, "space": space.to_json(), "k": k, "power": "wedge"}
            break
    checks.append(_check("euler_compatibility", bad, {"cases": count}))

    bounds = {
        "sweep_degrees": list(sweep_degrees),
        "sweep_total": sweep_total,
        "count": count,
    }
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


def suite_orbits(
    seed: int = DEFAULT_SEED,
    nmax: int = 7,
    workers: int = 1,
) -> dict:
    """Orbit decomposition of subset pairs against the closed count,
    the stabilizer order formula, and the reference representatives."""
    del workers
    if nmax > oracle.ENUM_BOUND:
        raise oracle.SizeBoundError(f"nmax={nmax} exceeds enumeration bound {oracle.ENUM_BOUND}")
    bad_count = bad_stab = bad_member = None
    transcript = []
    for n in range(1, nmax + 1):
        for e in range(n + 1):
            for f in range(n + 1):
                decomposition = oracle.orbit_decomposition(n, e, f)
                expected = expected_orbit_profile(n, e, f)
                if len(decomposition.orbits) != len(expected):
                    bad_count = bad_count or {
                        "n": n, "e": e, "f": f,
                        "computed": len(decomposition.orbits),
                        "expected": len(expected),
                    }
                    continue
                seen = {}
                for orbit in decomposition.orbits:
                    i = orbit.representative.overlap()
                    seen[i] = orbit
                    if orbit.size * orbit.stabilizer_order != math.factorial(n):
                        bad_stab = bad_stab or {
                            "n": n, "e": e, "f": f, "i": i,
                            "size": orbit.size,
                            "stabilizer_order": orbit.stabilizer_order,
                        }
                if sorted(seen) != sorted(expected):
                    bad_count = bad_count or {
                        "n": n, "e": e, "f": f,
                        "computed_overlaps": sorted(seen),
                        "expected_overlaps": sorted(expected),
                    }
                    continue
                for i, stab in expected.items():
                    if seen[i].stabilizer_order != stab:
                        bad_stab = bad_stab or {
                            "n": n, "e": e, "f": f, "i": i,
                            "computed": seen[i].stabilizer_order,
                            "expected": stab,
                        }
                    pair = standard_pair(e, f, i)
                    if pair.overlap() != i or (
                        len(pair.first_indices()) != e or len(pair.second_indices()) != f
                    ):
                        bad_member = bad_member or {
                            "n": n, "e": e, "f": f, "i": i, "kind": "malformed"
                        }
                    elif n <= 5 and _orbit_of(n, pair) != seen[i].representative:
                        bad_member = bad_member or {
                            "n": n, "e": e, "f": f, "i": i,
                            "pair": [list(pair.first_indices()), list(pair.second_indices())],
                        }
                transcript.append(
                    {"n": n, "e": e, "f": f, "orbits": len(decomposition.orbits)}
                )
    checks = [
        _check("orbit_count", bad_count),
        _check("stabilizer_orders", bad_stab),
        _check("reference_pairs_covered", bad_member),
    ]
    verdict = _verdict("orbits", seed, {"nmax": nmax}, checks)
    verdict["cells"] = len(transcript)
    return verdict


def _orbit_of(n: int, pair: oracle.IndexPair) -> oracle.IndexPair:
    # minimal pair in the full-group orbit; fine for small n
    best = pair
    for perm in itertools.permutations(range(n)):
        candidate = pair.apply(perm)
        if candidate < best:
            best = candidate
    return best


def run_suite(name: str, **kwargs) -> dict:
    runners = {
        "appendix": suite_appendix,
        "whom_oracle": suite_whom_oracle,
        "tensor_euler": suite_tensor_euler,
        "graded_powers": suite_graded_powers,
        "orbits": suite_orbits,
    }
    if name not in runners:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    return runners[name](**kwargs)
