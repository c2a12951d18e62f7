"""Tests for the verification-suite plumbing."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import pytest

from hilbtaut import formulas, oracle, verify
from hilbtaut.graded import GradedDim, sym_power, sym_powers, wedge_power, wedge_powers
from hilbtaut.oracle import POWER_EXPONENT_BOUND, IndexPair, orbit_decomposition
from hilbtaut.series import TruncSeries
from hilbtaut.verify import (
    DEFAULT_SEED,
    SUITES,
    expected_orbit_profile,
    parallel_map,
    random_space,
    run_suite,
    standard_pair,
)


def from_indices(first, second):
    """The pair of subsets holding the given points."""
    return IndexPair(sum(1 << i for i in set(first)), sum(1 << i for i in set(second)))


def _moved(pair, perm):
    """``pair`` with point i sent to perm[i]."""
    return from_indices(
        [perm[i] for i in pair.first_indices()], [perm[i] for i in pair.second_indices()]
    )


def test_parallel_map_preserves_order():
    items = list(range(-6, 7))
    assert parallel_map(abs, items) == [abs(i) for i in items]


def test_random_space_is_seed_deterministic():
    a = random_space(random.Random(5))
    b = random_space(random.Random(5))
    assert a == b


def test_random_space_respects_bounds():
    rng = random.Random(0)
    for _ in range(50):
        space = random_space(rng, max_total=3, degrees=(0, 1, 2))
        assert sum(m for _, m in space.items()) <= 3
        assert all(d in (0, 1, 2) for d, _ in space.items())


def test_run_suite_dispatch_and_verdict_shape():
    verdict = run_suite("appendix", seed=11, nmax=2, count=3)
    assert verdict["suite"] == "appendix"
    assert verdict["seed"] == 11
    assert isinstance(verdict["bounds"], dict)
    assert verdict["pass"] is True
    assert all(set(c) >= {"name", "pass"} for c in verdict["checks"])


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_run_suite_checks_sizes_before_running(monkeypatch):
    calls = []
    monkeypatch.setattr(oracle, "orbit_decomposition", lambda *args: calls.append(args))
    with pytest.raises(oracle.SizeBoundError):
        run_suite("orbits", nmax=oracle.ENUM_BOUND + 1)
    assert calls == []
    with pytest.raises(ValueError, match=r"^orbits has no --count \(it is exhaustive\)$"):
        run_suite("orbits", count=3)
    with pytest.raises(ValueError, match=r"^graded_powers has no --nmax "):
        run_suite("graded_powers", nmax=3)
    # a size below 1 is refused as the CLI refuses it, before any other fault
    with pytest.raises(ValueError, match=r"^--count must be at least 1, got -3$"):
        run_suite("appendix", count=-3)
    with pytest.raises(ValueError, match=r"^--count must be at least 1, got 0$"):
        run_suite("whom_oracle", count=0)
    with pytest.raises(ValueError, match=r"^--nmax must be at least 1, got 0$"):
        run_suite("orbits", nmax=0)
    with pytest.raises(ValueError, match=r"^--count must be at least 1, got 0$"):
        run_suite("orbits", count=0, nmax=0)
    assert calls == []


def test_all_suites_are_runnable_small():
    small = {
        "appendix": {"nmax": 2, "count": 2},
        "whom_oracle": {"nmax": 2, "count": 2},
        "tensor_euler": {"nmax": 2, "count": 2},
        "graded_powers": {"count": 5},
        "orbits": {"nmax": 5},
    }
    for name in SUITES:
        verdict = run_suite(name, seed=DEFAULT_SEED, **small[name])
        assert verdict["pass"] is True, name


def test_expected_orbit_profile_matches_enumeration():
    for n, e, f in [(3, 1, 1), (5, 2, 2), (6, 3, 1)]:
        profile = expected_orbit_profile(n, e, f)
        found = {
            o.representative.overlap(): o.stabilizer_order
            for o in orbit_decomposition(n, e, f)
        }
        assert profile == found


def test_standard_pair_hits_every_overlap():
    for n in range(9):
        for e, f in itertools.product(range(n + 1), repeat=2):
            for i in range(max(0, e + f - n), min(e, f) + 1):
                pair = standard_pair(e, f, i)
                by_indices = from_indices(range(e), [*range(i), *range(e, e + f - i)])
                assert pair == by_indices, (n, e, f, i)
                assert len(pair.first_indices()) == e
                assert len(pair.second_indices()) == f
                assert pair.overlap() == i


def test_orbit_sizes_follow_from_stabilizers():
    for n, e, f in [(4, 2, 1), (5, 2, 2)]:
        for orbit in orbit_decomposition(n, e, f):
            assert orbit.size == math.factorial(n) // orbit.stabilizer_order


def test_suite_results_are_reproducible():
    a = run_suite("whom_oracle", seed=3, nmax=2, count=2)
    b = run_suite("whom_oracle", seed=3, nmax=2, count=2)
    assert a == b


# -- failure paths: each check names its first counterexample ---------------


def failing(verdict, name):
    """The counterexample of check ``name``, which must have failed."""
    check = next(c for c in verdict["checks"] if c["name"] == name)
    assert verdict["pass"] is False and check["pass"] is False
    return check["counterexample"]


def test_exp_harmonic_check_names_the_first_wrong_power(monkeypatch):
    exp = TruncSeries.exp

    def altered(self):
        value = exp(self)
        if self.orders == (11, 1, 1):  # the harmonic series, Q up to k_max = 10
            value = value + TruncSeries({"Q": 11}, {(3, 0, 0): 1})
        return value

    monkeypatch.setattr(verify.TruncSeries, "exp", altered)
    bad = failing(run_suite("appendix", nmax=2, count=1), "exp_harmonic_is_geometric")
    assert bad == {"Q_power": 3}


@pytest.mark.parametrize(
    "rule, name, cell",
    [
        ("lambda_scalar", "binomial_coeffs_are_lambda", (2, -1)),
        ("s_scalar", "inverse_coeffs_are_s", (3, 2)),
    ],
)
def test_scalar_rule_checks_name_the_first_wrong_coefficient(monkeypatch, rule, name, cell):
    scalar = getattr(verify, rule)
    monkeypatch.setattr(verify, rule, lambda k, chi: scalar(k, chi) + ((k, chi) == cell))
    bad = failing(run_suite("appendix", nmax=2, count=1), name)
    assert bad == {"chi": cell[1], "k": cell[0]}


def test_three_way_check_names_the_first_wrong_quadruple_and_cell(monkeypatch):
    product = verify.formulas.bichar_product

    def altered(*chis, n_max):
        orders = {"Q": n_max + 1, "u": n_max + 1, "v": n_max + 1}
        return product(*chis, n_max=n_max) + TruncSeries(orders, {(2, 1, 1): 1})

    monkeypatch.setattr(verify.formulas, "bichar_product", altered)
    bad = failing(run_suite("appendix", nmax=3, count=2), "three_way_agreement")
    rng = random.Random(DEFAULT_SEED)
    chis = [rng.randint(-6, 6) for _ in range(4)]
    closed = formulas.bichar_closed(2, 1, 1, *chis)
    assert bad == {
        "chis": chis, "n": 2, "k": 1, "l": 1,
        "closed": closed, "exp_form": closed, "product_form": closed + 1,
    }


def test_swap_check_names_the_family_and_cell_of_an_asymmetric_formula(monkeypatch):
    family, n, e, f = 1, 3, 2, 1
    common, first, second, rest = verify._family_spaces(DEFAULT_SEED, family)
    assert first != second
    closed_cells = formulas.w_hom_cells

    def altered_cells(n_top, *tables):
        cell = closed_cells(n_top, *tables)

        def altered(cell_n, cell_e, cell_f):
            value = cell(cell_n, cell_e, cell_f)
            if (cell_n, cell_e, cell_f) == (n, f, e) and tables == (common, second, first, rest):
                return value + GradedDim({0: 1})
            return value

        return altered

    monkeypatch.setattr(verify.formulas, "w_hom_cells", altered_cells)
    verdict = run_suite("whom_oracle", nmax=4, count=3)
    assert next(c for c in verdict["checks"] if c["name"] == "matches_group_averaging")["pass"]
    bad = failing(verdict, "swap_symmetry")
    assert (bad["family"], bad["n"], bad["e"], bad["f"]) == (family, n, e, f)
    assert bad["tables"] == [s.to_json() for s in (common, first, second, rest)]


def test_tensor_check_names_the_first_input_and_cell_that_disagree(monkeypatch):
    terms = verify.formulas.tensor_euler_terms

    def altered(n, k, *chis):
        return terms(n, k, *chis) + ([(0, [1])] if (n, k) == (2, 1) else [])

    monkeypatch.setattr(verify.formulas, "tensor_euler_terms", altered)
    bad = failing(run_suite("tensor_euler", nmax=3, count=1), "closed_terms_series_agree")
    assert (bad["input"], bad["n"], bad["k"]) == ("k3.json:O,O", 2, 1)
    assert bad["terms_sum"] == bad["closed"] + 1 == bad["series_coeff"] + 1


def test_basis_check_names_the_first_wrong_power(monkeypatch):
    wedges = verify.oracle.oracle_wedge_powers
    cell = (2, GradedDim({1: 2}))

    def altered(top, space):
        return [
            power + GradedDim({0: int((k, space) == cell)})
            for k, power in enumerate(wedges(top, space))
        ]

    monkeypatch.setattr(verify.oracle, "oracle_wedge_powers", altered)
    bad = failing(run_suite("graded_powers", count=1), "matches_basis_enumeration")
    assert bad == {"space": {"1": 2}, "k": 2, "power": "wedge"}


def test_euler_check_names_the_first_wrong_draw(monkeypatch):
    scalar = verify.lambda_scalar
    monkeypatch.setattr(verify, "lambda_scalar", lambda k, chi: scalar(k, chi) + 1)
    bad = failing(run_suite("graded_powers", count=3), "euler_compatibility")
    rng = random.Random(DEFAULT_SEED)
    space = random_space(rng, max_total=6, degrees=range(-3, 5))
    k = rng.randint(0, POWER_EXPONENT_BOUND)
    assert bad == {"index": 0, "space": space.to_json(), "k": k, "power": "wedge"}


@pytest.mark.parametrize(
    "profile, name, expected",
    [
        ({1: 2}, "orbit_count", {"computed": 2, "expected": 1}),
        (
            {1: 2, 2: 1},
            "orbit_count",
            {"computed_overlaps": [0, 1], "expected_overlaps": [1, 2]},
        ),
        ({0: 1, 1: 3}, "stabilizer_orders", {"i": 1, "computed": 2, "expected": 3}),
    ],
    ids=["count", "overlaps", "stabilizer"],
)
def test_orbit_checks_name_the_first_wrong_cell(monkeypatch, profile, name, expected):
    assert expected_orbit_profile(3, 1, 1) == {0: 1, 1: 2}
    monkeypatch.setattr(
        verify,
        "expected_orbit_profile",
        lambda n, e, f: profile if (n, e, f) == (3, 1, 1) else expected_orbit_profile(n, e, f),
    )
    bad = failing(run_suite("orbits", nmax=4), name)
    assert bad == {"n": 3, "e": 1, "f": 1, **expected}


def naive_orbit_minimum(n, pair):
    """The least image of ``pair`` over every permutation of range(n)."""
    return min(_moved(pair, perm) for perm in itertools.permutations(range(n)))


def test_orbit_of_is_the_minimum_over_every_permutation():
    # standard_pair is pinned to its orbit's minimum here, once, so the
    # suite need only compare it with the enumerated representative
    for n in range(5):
        for first, second in itertools.product(range(1 << n), repeat=2):
            pair = IndexPair(first, second)
            e, f = first.bit_count(), second.bit_count()
            assert naive_orbit_minimum(n, pair) == standard_pair(e, f, pair.overlap()), pair


def test_orbit_of_is_the_minimum_over_every_permutation_on_five_points():
    # the reference pairs only, as every pair at n = 5 is slow by brute
    # force; each mirror image, point p sent to n - 1 - p, must lead back
    # to the same minimum
    n = 5
    mirror = tuple(reversed(range(n)))
    for e, f in itertools.product(range(n + 1), repeat=2):
        for i in range(max(0, e + f - n), min(e, f) + 1):
            pair = standard_pair(e, f, i)
            assert naive_orbit_minimum(n, pair) == pair, (e, f, i)
            assert naive_orbit_minimum(n, _moved(pair, mirror)) == pair, (e, f, i)


def test_reference_pair_check_names_the_first_pair_off_its_orbit(monkeypatch):
    # (2, 1) is in the right orbit and well formed, but not its minimum
    pair_for = verify.standard_pair
    monkeypatch.setattr(
        verify,
        "standard_pair",
        lambda e, f, i: IndexPair(2, 1) if (e, f, i) == (1, 1, 0) else pair_for(e, f, i),
    )
    bad = failing(run_suite("orbits", nmax=4), "reference_pairs_covered")
    assert bad == {"n": 2, "e": 1, "f": 1, "i": 0, "pair": [[1], [0]]}


def test_reference_pair_check_names_an_oracle_representative_off_the_minimum(monkeypatch):
    # every representative at (6, 2, 2) moved up one point stays in its
    # orbit with its size and stabilizer, but is no longer the minimum
    decompose = oracle.orbit_decomposition

    def shifted(n, e, f):
        orbits = decompose(n, e, f)
        if (n, e, f) != (6, 2, 2):
            return orbits
        return tuple(
            orbit._replace(representative=IndexPair(*(mask << 1 for mask in orbit.representative)))
            for orbit in orbits
        )

    monkeypatch.setattr(oracle, "orbit_decomposition", shifted)
    verdict = run_suite("orbits", nmax=6)
    assert [check["pass"] for check in verdict["checks"]] == [True, True, False]
    bad = failing(verdict, "reference_pairs_covered")
    assert bad == {"n": 6, "e": 2, "f": 2, "i": 0, "pair": [[0, 1], [2, 3]]}


def test_reference_pair_check_names_a_malformed_pair(monkeypatch):
    pair_for = verify.standard_pair
    monkeypatch.setattr(
        verify,
        "standard_pair",
        lambda e, f, i: pair_for(1, 1, 1) if (e, f, i) == (1, 1, 0) else pair_for(e, f, i),
    )
    bad = failing(run_suite("orbits", nmax=4), "reference_pairs_covered")
    assert bad == {"n": 2, "e": 1, "f": 1, "i": 0, "pair": [[0], [0]]}


def test_a_cell_reports_its_first_mismatch_of_each_kind(monkeypatch):
    # at (3, 2, 1) the reference pair is wrong at overlap 0 and the
    # stabilizer order at overlap 1: the walk over the cell's overlaps
    # must not stop at the first, or the second goes unreported
    pair_for = verify.standard_pair
    monkeypatch.setattr(
        verify,
        "standard_pair",
        lambda e, f, i: IndexPair(5, 2) if (e, f, i) == (2, 1, 0) else pair_for(e, f, i),
    )
    assert expected_orbit_profile(3, 2, 1) == {0: 2, 1: 1}
    monkeypatch.setattr(
        verify,
        "expected_orbit_profile",
        lambda n, e, f: {0: 2, 1: 2} if (n, e, f) == (3, 2, 1) else expected_orbit_profile(n, e, f),
    )
    verdict = run_suite("orbits", nmax=4)
    assert failing(verdict, "reference_pairs_covered") == {
        "n": 3, "e": 2, "f": 1, "i": 0, "pair": [[0, 2], [1]]
    }
    assert failing(verdict, "stabilizer_orders") == {
        "n": 3, "e": 2, "f": 1, "i": 1, "computed": 1, "expected": 2
    }


# -- the wrap contract at the power and averaging call sites -------------


def _assert_fresh_positive_tables(spaces: list[GradedDim]) -> None:
    """Each space holds only positive int dimensions, equals its checked
    copy, and owns its table: no two spaces share one dict."""
    for space in spaces:
        assert all(type(d) is int and type(m) is int and m > 0 for d, m in space.items())
        assert space == GradedDim(dict(space.items()))
    assert len({id(space._dims) for space in spaces}) == len(spaces)


@pytest.mark.parametrize(
    "degrees, top", [((-2, -1, 0, 1, 2, 3), 4), ((0,), 5), ((3, -1), 6), ((1, -4, 0, 2), 3)]
)
def test_the_sweep_yields_every_multiset_once_in_order(degrees, top):
    # the suite's verdict counts only its cases, so the tables themselves
    # are pinned here: each multiset once, in combinations_with_replacement
    # order, C(len + t - 1, t) of total t
    sweep = list(verify._all_spaces(degrees, top))
    expected = [
        GradedDim(Counter(multiset))
        for total in range(top + 1)
        for multiset in itertools.combinations_with_replacement(degrees, total)
    ]
    assert sweep == expected
    assert len(set(sweep)) == len(sweep)
    assert Counter(space.total_dim() for space in sweep) == {
        total: math.comb(len(degrees) + total - 1, total) for total in range(top + 1)
    }
    _assert_fresh_positive_tables(sweep)


def test_closed_and_enumerated_powers_keep_the_wrap_contract():
    edge_spaces = [
        GradedDim({0: oracle.POWER_DIM_BOUND}),
        GradedDim({1: oracle.POWER_DIM_BOUND}),
        GradedDim({0: 4, 1: 4}),
        GradedDim({-1: 3, 0: 2, 3: 3}),
    ]
    top = POWER_EXPONENT_BOUND
    for space in [*verify._all_spaces((-2, -1, 0, 1, 2, 3), 4), *edge_spaces]:
        powers = [
            *sym_powers(top, space),
            *wedge_powers(top, space),
            *(sym_power(k, space) for k in range(top + 1)),
            *(wedge_power(k, space) for k in range(top + 1)),
            *oracle.oracle_sym_powers(top, space),
            *oracle.oracle_wedge_powers(top, space),
        ]
        _assert_fresh_positive_tables(powers)


@pytest.mark.parametrize("seed", range(6))
def test_group_averages_keep_the_wrap_contract(seed):
    rng = random.Random(seed)
    spaces = [random_space(rng) for _ in range(4)]
    _assert_fresh_positive_tables(list(oracle.invariant_dim(5, *spaces).values()))
