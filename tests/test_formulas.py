"""Tests for the closed formulas: graded Hom-spaces, Euler characteristics,
and the generating-function expansions that cross-check them."""

from __future__ import annotations

import inspect
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbtaut.graded import (
    ZERO,
    GradedDim,
    lambda_scalar,
    s_scalar,
    sym_powers,
    wedge_powers,
)
from hilbtaut.formulas import (
    VARIANTS,
    MissingTableError,
    Powers,
    Rank3Check,
    bichar_cells,
    bichar_closed,
    bichar_from_series,
    bichar_product,
    bichar_series,
    curve_bichar,
    curve_series,
    negative_index_suppressed,
    rank3_check,
    role_name,
    taut_formula,
    tensor_euler_closed,
    tensor_euler_from_series,
    tensor_euler_series,
    tensor_euler_terms,
    variant_signature,
    variant_slots,
    w_hom,
    w_hom_cells,
    wedge_indices,
)
from hilbtaut.geometry import load_config, packaged_profile, variant_tables
from hilbtaut.oracle import invariant_dim
from hilbtaut.series import VARIABLES, NonUnitWarning, TruncSeries, _wrapped

K3_POINT = GradedDim({0: 1, 2: 1})
K3_TABLES = {
    "hom_ef": K3_POINT,
    "coh_e_dual": K3_POINT,
    "coh_f": K3_POINT,
    "coh_o": K3_POINT,
    "coh_l": K3_POINT,
    "coh_l_dual": K3_POINT,
    "coh_k_dual": K3_POINT,
    "hom_el": K3_POINT,
    "hom_lf": K3_POINT,
    "hom_kl": K3_POINT,
}

chis = st.integers(min_value=-4, max_value=4)


# -- the master formula ---------------------------------------------------------


def w_hom_at(n, e, f, hom_ef, coh_e_dual, coh_f, coh_o):
    """The single ``w_hom`` cell (n, e, f) of four tables."""
    return w_hom_cells(n, hom_ef, coh_e_dual, coh_f, coh_o)(n, e, f)


def test_w_hom_two_points_structure_sheaf_tables():
    got = w_hom_at(2, 1, 1, K3_POINT, K3_POINT, K3_POINT, K3_POINT)
    assert dict(got.items()) == {0: 2, 2: 4, 4: 2}


def test_w_hom_full_overlap_forces_top_term():
    # e = n and f = 0 leaves the single summand with the exterior power
    # of the dual slot; for a two-dimensional odd space that has dim 3.
    got = w_hom_at(2, 2, 0, ZERO, GradedDim({1: 2}), ZERO, K3_POINT)
    assert dict(got.items()) == {2: 3}
    again = w_hom_at(2, 2, 0, ZERO, K3_POINT, ZERO, K3_POINT)
    assert dict(again.items()) == {2: 1}


def test_w_hom_window_can_be_empty():
    # e + f - n > min(e, f) happens only outside the input contract, but
    # a zero table in an active slot empties the sum legitimately.
    assert w_hom_at(3, 2, 2, ZERO, ZERO, ZERO, GradedDim({0: 1})) == ZERO


def test_w_hom_four_points_trivial_tables():
    line = GradedDim({0: 1})
    got = w_hom_at(4, 2, 2, line, line, line, line)
    # Value fixed by the group-averaging oracle: the i = 0 summand dies
    # because the exterior square of a one-dimensional even space is zero.
    assert dict(got.items()) == {0: 2}
    assert got == invariant_dim(4, line, line, line, line)[4, 2, 2]


def test_w_hom_agrees_with_group_averaging_on_mixed_tables():
    hom = GradedDim({0: 1, 1: 1})
    dual = GradedDim({0: 2})
    tgt = GradedDim({1: 1, 2: 1})
    point = GradedDim({0: 1, 2: 1})
    for n in (2, 3):
        for e in range(n + 1):
            for f in range(n + 1):
                got = w_hom_at(n, e, f, hom, dual, tgt, point)
                assert got == invariant_dim(n, hom, dual, tgt, point)[n, e, f]


@pytest.mark.parametrize(
    "profile, names",
    [("k3.json", {"K": "H", "L": "H"}), ("p2.json", {"K": "O", "L": "H"})],
)
def test_w_hom_cells_match_group_averaging_on_profile_tables(profile, names):
    surface = load_config(packaged_profile(profile)).surface
    pairs = variant_slots("Extwedgewedge")
    tables = variant_tables(surface, pairs, {"E": "O", "F": "O", **names})
    slots = [tables[role_name(*pair)] for pair in pairs]
    cells = w_hom_cells(6, *slots)
    averages = invariant_dim(6, *slots)
    for n in range(1, 7):
        for e in range(n + 1):
            for f in range(n + 1):
                assert cells(n, e, f) == averages[n, e, f], (n, e, f)


def dict_tensor(a, b):
    """Poincare polynomials (degree -> dim dicts) multiplied by a double loop."""
    out = {}
    for d1, m1 in a.items():
        for d2, m2 in b.items():
            out[d1 + d2] = out.get(d1 + d2, 0) + m1 * m2
    return out


def dict_cell(n, e, f, powers):
    """The ``w_hom`` cell (n, e, f) summed term by term in plain dicts.

    ``powers`` holds S^j(hom_ef), W^j(coh_e_dual), W^j(coh_f) and
    S^j(coh_o) as degree -> dim dicts, j = 0..n or beyond.
    """
    sym_hom, wedge_source, wedge_target, sym_o = powers
    total = {}
    for i in range(max(0, e + f - n), min(e, f) + 1):
        term = {0: 1}
        for factor in (sym_hom[i], wedge_source[e - i], wedge_target[f - i], sym_o[n + i - e - f]):
            term = dict_tensor(term, factor)
        for d, m in term.items():
            total[d] = total.get(d, 0) + m
    return {d: m for d, m in total.items() if m}


def check_every_cell(top, tables):
    """Compare every ``w_hom_cells`` cell up to ``top`` with ``dict_cell``;
    returns the largest coefficient seen."""
    powers = [
        [dict(p.items()) for p in powers_of(top, table)]
        for powers_of, table in zip((sym_powers, wedge_powers, wedge_powers, sym_powers), tables)
    ]
    cells = w_hom_cells(top, *tables)
    widest = 0
    for n in range(1, top + 1):
        for e in range(n + 1):
            for f in range(n + 1):
                expected = dict_cell(n, e, f, powers)
                assert dict(cells(n, e, f).items()) == expected, (tables, n, e, f)
                widest = max([widest, *expected.values()])
    return widest


def test_packed_cells_match_a_dict_sum_on_random_tables():
    rng = random.Random(20161612)
    for _ in range(12):
        tables = []
        for _ in range(4):
            dims = {}
            for _ in range(rng.randint(0, 8)):
                d = rng.randint(-3, 3)
                dims[d] = dims.get(d, 0) + 1
            tables.append(GradedDim(dims))
        check_every_cell(6, tables)


def test_packed_cells_hold_coefficients_past_32_bits():
    tables = [
        GradedDim({0: 1000, 1: 3}),
        GradedDim({-2: 40, 1: 5}),
        GradedDim({0: 30, -1: 2}),
        GradedDim({-1: 600, 2: 7}),
    ]
    # S^6 of a 1000-dimensional even space alone is C(1005, 6)
    assert check_every_cell(6, tables).bit_length() > 32


def test_packed_cells_match_a_dict_sum_on_k3_tables_up_to_ten_points():
    # the tables O, H and dual(H) of the packaged K3 in every Extwedgewedge
    # slot they fill; at n = 10 a cell sums up to six four-way products
    surface = load_config(packaged_profile("k3.json")).surface
    pairs = variant_slots("Extwedgewedge")
    for k in ("O", "H"):
        for l in ("O", "H"):
            tables = variant_tables(surface, pairs, {"E": "O", "F": "O", "K": k, "L": l})
            check_every_cell(10, [tables[role_name(*pair)] for pair in pairs])


@pytest.mark.parametrize(
    "n, e, f, message",
    [
        (0, 0, 0, "n must be positive"),
        (-1, 0, 0, "n must be positive"),
        (4, 0, 0, "above the top n=3"),
        (2, 3, 0, "need 0 <= e, f <= n"),
        (2, 0, 3, "need 0 <= e, f <= n"),
        (2, -1, 0, "need 0 <= e, f <= n"),
        (3, 1, -2, "need 0 <= e, f <= n"),
    ],
)
def test_w_hom_cells_reject_out_of_range_cells(n, e, f, message):
    cells = w_hom_cells(3, K3_POINT, K3_POINT, K3_POINT, K3_POINT)
    with pytest.raises(ValueError, match=message):
        cells(n, e, f)


def test_w_hom_input_validation():
    powers = Powers(3, K3_POINT, K3_POINT, K3_POINT, K3_POINT)
    # n is checked first, then e and f, then the top the powers reach
    for (n, e, f), message in [
        ((0, 0, 0), "n must be positive, got 0"),
        ((0, 1, 0), "n must be positive, got 0"),
        ((2, 3, 0), "need 0 <= e, f <= n, got n=2, e=3, f=0"),
        ((5, 6, 0), "need 0 <= e, f <= n, got n=5, e=6, f=0"),
        ((5, 0, 0), "n=5 is above the top n=3 these powers reach"),
    ]:
        with pytest.raises(ValueError) as err:
            w_hom(powers, n, e, f)
        assert str(err.value) == message


def test_w_hom_takes_only_powers_and_a_cell():
    assert list(inspect.signature(w_hom).parameters) == ["powers", "n", "e", "f"]


# -- named variants --------------------------------------------------------------


def test_every_variant_has_a_signature_and_tables():
    for variant in VARIANTS:
        e_spec, f_spec, _, _ = variant_signature(variant)
        roles = variant_slots(variant)
        assert len(roles) == 4
        for spec in (e_spec, f_spec):
            assert spec in (0, 1, "k", "l")


@pytest.mark.parametrize(
    "variant, roles",
    [
        ("cohF", ("coh_f", "coh_o", "coh_f", "coh_o")),
        ("cohEvee", ("coh_e_dual", "coh_e_dual", "coh_o", "coh_o")),
        ("ExtEF", ("hom_ef", "coh_e_dual", "coh_f", "coh_o")),
        ("cohwedge", ("coh_l", "coh_o", "coh_l", "coh_o")),
        ("ExtEwedge", ("hom_el", "coh_e_dual", "coh_l", "coh_o")),
        ("ExtwedgeF", ("hom_lf", "coh_l_dual", "coh_f", "coh_o")),
        ("Extwedgewedge", ("hom_kl", "coh_k_dual", "coh_l", "coh_o")),
    ],
)
def test_variant_slots_are_named_by_their_bundles(variant, roles):
    # Hom*(s, t), Hom*(s, O), Hom*(O, t), Hom*(O, O), O written as None
    _, _, source, target = variant_signature(variant)
    slots = variant_slots(variant)
    assert slots == ((source, target), (source, None), (None, target), (None, None))
    assert tuple(role_name(*slot) for slot in slots) == roles


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        variant_signature("cohG")


def test_missing_table_error_names_the_role():
    with pytest.raises(MissingTableError) as err:
        taut_formula("ExtEF", 1, tables={"coh_o": K3_POINT})
    assert "hom_ef" in str(err.value)
    assert err.value.args[0] == "variant 'ExtEF' needs table 'hom_ef', Hom*(E, F)"


@pytest.mark.parametrize(
    "variant, tables, message",
    [
        ("ExtwedgeF", {"hom_lf": K3_POINT},
         "variant 'ExtwedgeF' needs table 'coh_l_dual', Hom*(L, O)"),
        ("ExtEwedge", {"hom_el": K3_POINT, "coh_e_dual": K3_POINT},
         "variant 'ExtEwedge' needs table 'coh_l', Hom*(O, L)"),
        ("cohF", {"coh_f": K3_POINT},
         "variant 'cohF' needs table 'coh_o', Hom*(O, O)"),
    ],
    ids=["coh_l_dual", "coh_l", "coh_o"],
)
def test_missing_table_error_names_each_slot_kind(variant, tables, message):
    # Hom*(s, O), Hom*(O, t) and Hom*(O, O); Hom*(s, t) is the case above
    with pytest.raises(MissingTableError) as err:
        taut_formula(variant, 1, tables=tables)
    assert err.value.args[0] == message


def test_cohF_two_points():
    got = taut_formula("cohF", 2, tables=K3_TABLES)
    assert dict(got.items()) == {0: 1, 2: 2, 4: 1}


def test_cohwedge_zero_index_is_hilbert_scheme_cohomology():
    got = taut_formula("cohwedge", 2, k=0, tables=K3_TABLES)
    assert dict(got.items()) == {0: 1, 2: 1, 4: 1}


def test_single_wedge_variants_reduce_to_fixed_index_ones():
    # With all tables equal, the k = 1 wedge variants coincide with the
    # fixed-index variants they generalize.
    for n in (1, 2, 3):
        assert taut_formula("cohwedge", n, k=1, tables=K3_TABLES) == taut_formula(
            "cohF", n, tables=K3_TABLES
        )
        assert taut_formula("ExtEwedge", n, k=1, tables=K3_TABLES) == taut_formula(
            "ExtEF", n, tables=K3_TABLES
        )
        assert taut_formula("ExtwedgeF", n, k=1, tables=K3_TABLES) == taut_formula(
            "ExtEF", n, tables=K3_TABLES
        )
        assert taut_formula(
            "Extwedgewedge", n, k=1, l=1, tables=K3_TABLES
        ) == taut_formula("ExtEF", n, tables=K3_TABLES)


def test_double_wedge_is_symmetric_in_its_indices_for_equal_tables():
    for n in (2, 3):
        for k in range(n + 1):
            for l in range(n + 1):
                a = taut_formula("Extwedgewedge", n, k=k, l=l, tables=K3_TABLES)
                b = taut_formula("Extwedgewedge", n, k=l, l=k, tables=K3_TABLES)
                assert a == b


def test_substitution_resolves_placeholders():
    assert wedge_indices("Extwedgewedge", 2, 1) == (2, 1)
    assert wedge_indices("ExtwedgeF", 2, 0) == (2, 1)


@pytest.mark.parametrize(
    "variant, expected",
    [
        ("cohF", (0, 1)),
        ("cohEvee", (1, 0)),
        ("ExtEF", (1, 1)),
        ("cohwedge", (0, 2)),
        ("ExtEwedge", (1, 2)),
        ("ExtwedgeF", (2, 1)),
        ("Extwedgewedge", (2, 3)),
    ],
)
def test_wedge_indices_of_every_variant(variant, expected):
    assert wedge_indices(variant, 2, 3) == expected
    # a letter the variant does not use may be None; a used one stays None
    e_spec, f_spec, _, _ = variant_signature(variant)
    uses_k, uses_l = "k" in (e_spec, f_spec), "l" in (e_spec, f_spec)
    assert wedge_indices(variant, 2 if uses_k else None, 3 if uses_l else None) == expected
    missing = wedge_indices(variant, None, None)
    assert [i is None for i in missing] == [spec in ("k", "l") for spec in (e_spec, f_spec)]


def test_negative_index_flag_only_fires_at_top_wedge():
    assert negative_index_suppressed("ExtEwedge", 3, k=3)
    assert negative_index_suppressed("ExtwedgeF", 2, k=2)
    assert not negative_index_suppressed("ExtEwedge", 3, k=2)
    assert not negative_index_suppressed("Extwedgewedge", 3, k=3, l=3)
    assert not negative_index_suppressed("cohF", 1)


# -- Euler characteristic of Hom between wedge powers ------------------------------


def test_bichar_frozen_k3_value():
    assert bichar_closed(2, 1, 1, 2, 2, 2, 2) == 8


def test_bichar_matches_graded_euler():
    for n in (1, 2, 3):
        for k in range(n + 1):
            for l in range(n + 1):
                graded = taut_formula("Extwedgewedge", n, k=k, l=l, tables=K3_TABLES)
                closed = bichar_closed(n, k, l, 2, 2, 2, 2)
                assert graded.euler() == closed


def test_bichar_input_validation():
    # n is checked before k and l
    for (n, k, l), message in [
        ((2, 3, 0), "need 0 <= k, l <= n, got n=2, k=3, l=0"),
        ((-1, 0, 0), "n must be non-negative, got -1"),
        ((-1, 1, 0), "n must be non-negative, got -1"),
    ]:
        with pytest.raises(ValueError) as err:
            bichar_closed(n, k, l, 1, 1, 1, 1)
        assert str(err.value) == message


def test_bichar_cells_of_one_job_agree_with_bichar_closed_below_their_top():
    for chis_ in [(2, 2, 2, 2), (1, 0, 3, 1), (-2, 3, -1, 2)]:
        cell = bichar_cells(5, *chis_)
        for n in range(6):
            for k in range(n + 1):
                for l in range(n + 1):
                    assert cell(n, k, l) == bichar_closed(n, k, l, *chis_)
    for (n, k, l), message in [
        ((6, 0, 0), "n=6 is above the top n=5 these lists reach"),
        ((2, 3, 0), "need 0 <= k, l <= n, got n=2, k=3, l=0"),
        ((-1, 0, 0), "n must be non-negative, got -1"),
    ]:
        with pytest.raises(ValueError) as err:
            bichar_cells(5, 1, 1, 1, 1)(n, k, l)
        assert str(err.value) == message


def test_bichar_series_equals_product_form():
    for chis_ in [(2, 2, 2, 2), (1, 0, 3, 1), (-2, 3, -1, 2)]:
        assert bichar_series(*chis_, n_max=4) == bichar_product(*chis_, n_max=4)


def test_bichar_series_coefficients_match_closed_form():
    series = bichar_series(2, 4, 4, 2, n_max=4)
    for n in range(5):
        for k in range(n + 1):
            for l in range(n + 1):
                closed = bichar_closed(n, k, l, 2, 4, 4, 2)
                assert bichar_from_series(series, n, k, l) == closed


@settings(max_examples=25)
@given(chi_kl=chis, chi_k_dual=chis, chi_l=chis, chi_o=chis)
def test_bichar_three_way_agreement(chi_kl, chi_k_dual, chi_l, chi_o):
    n_max = 3
    series = bichar_series(chi_kl, chi_k_dual, chi_l, chi_o, n_max=n_max)
    product = bichar_product(chi_kl, chi_k_dual, chi_l, chi_o, n_max=n_max)
    assert series == product
    for n in range(n_max + 1):
        for k in range(n + 1):
            for l in range(n + 1):
                closed = bichar_closed(n, k, l, chi_kl, chi_k_dual, chi_l, chi_o)
                assert bichar_from_series(series, n, k, l) == closed


def test_bichar_series_truncated_in_u_and_v_keeps_every_coefficient():
    rng = random.Random(1612)
    n_max = 5
    for _ in range(6):
        chis_ = [rng.randint(-5, 5) for _ in range(4)]
        full = bichar_series(*chis_, n_max=n_max)
        for a, b in [(0, 0), (0, 3), (2, 0), (1, 5), (4, 2), (5, 5)]:
            cut = bichar_series(*chis_, n_max=n_max, k_max=a, l_max=b)
            assert cut.orders == (n_max + 1, b + 1, a + 1)
            for n in range(n_max + 1):
                for k in range(a + 1):
                    for l in range(b + 1):
                        assert cut.coeff_at(n, l, k) == full.coeff_at(n, l, k), (
                            chis_, a, b, n, k, l
                        )


def test_bichar_zeroth_coefficients_are_point_counts():
    series = bichar_series(2, 2, 2, 2, n_max=4)
    # with k = l = 0 the expansion collapses to symmetric powers of chi_o
    for n in range(5):
        assert bichar_from_series(series, n, 0, 0) == s_scalar(n, 2)


@pytest.mark.parametrize("n_max", [0, 1, 2, 3])
def test_bichar_series_rejects_a_float_chi(n_max):
    # a float chi fails in Fraction(chi, 1), a zero one too, and so does one
    # on a ray that truncation skips or at n_max = 0, where no ray is expanded
    for chis_ in [(2, 2.0, 1, 1), (2, 0.0, 1, 1), (2.5, 1, 1, 1), ("x", 1, 1, 1), (None, 1, 1, 1)]:
        with pytest.raises(TypeError, match="Rational instances"):
            bichar_series(*chis_, n_max=n_max)
        with pytest.raises(TypeError, match="Rational instances"):
            bichar_series(*chis_, n_max=n_max, k_max=0, l_max=0)
    # a bool chi in any slot, a skipped or a zero ray's included, fails as the
    # TruncSeries constructor fails on a bool coefficient
    for chis_ in [(True, 1, 1, 1), (1, True, 1, 1), (1, 1, False, 1), (1, 1, 1, False)]:
        with pytest.raises(TypeError, match="must be an int or a Fraction, got"):
            bichar_series(*chis_, n_max=n_max)
        with pytest.raises(TypeError, match="must be an int or a Fraction, got"):
            bichar_series(*chis_, n_max=n_max, k_max=0, l_max=0)
    assert bichar_series(Fraction(4, 2), 2, 1, 1, n_max=n_max) == bichar_series(2, 2, 1, 1, n_max=n_max)


def _checked_bichar_series(chis, n_max, k_max, l_max):
    """bichar_series' argument as Fractions through the checking
    constructor, zeros and all, expanded by exp."""
    chi_kl, chi_k_dual, chi_l, chi_o = chis
    coeffs = {}
    for r in range(1, n_max + 1):
        for exps, chi in (
            ((r, r, r), chi_kl), ((r, 0, r), -chi_k_dual), ((r, r, 0), -chi_l), ((r, 0, 0), chi_o),
        ):
            if exps[1] <= l_max and exps[2] <= k_max:
                coeffs[exps] = Fraction(chi, r)
    return TruncSeries({"Q": n_max + 1, "u": l_max + 1, "v": k_max + 1}, coeffs).exp()


def _sample_quadruples(seed, count):
    """Every chi in -4..4 in each slot with the other three at 1, in all
    four slots at once, ``count`` seeded quadruples from that range, one
    ray's weight 0 beside three others that are not, and Fraction chis."""
    rng = random.Random(seed)
    quads = {(v, v, v, v) for v in range(-4, 5)}
    quads |= {tuple(v if i == slot else 1 for i in range(4)) for v in range(-4, 5) for slot in range(4)}
    quads |= {tuple(rng.randint(-4, 4) for _ in range(4)) for _ in range(count)}
    quads |= {tuple(0 if i == slot else (3, -2, 5, -1)[i] for i in range(4)) for slot in range(4)}
    quads |= {
        (Fraction(1, 2), 2, Fraction(-3, 4), 1),
        (Fraction(4, 2), Fraction(5, 3), -1, Fraction(-7, 2)),
        (Fraction(-1, 3), 0, 0, Fraction(2, 5)),
    }
    return sorted(quads)


@pytest.mark.parametrize("n_max", [*range(9), 12, 16])
def test_bichar_series_equals_the_checked_construction(n_max):
    rng = random.Random(n_max)
    for chis_ in _sample_quadruples(n_max, 40):
        expected = _checked_bichar_series(chis_, n_max, n_max, n_max)
        assert bichar_series(*chis_, n_max=n_max) == expected, chis_
        k_max, l_max = rng.randint(0, n_max), rng.randint(0, n_max)
        expected = _checked_bichar_series(chis_, n_max, k_max, l_max)
        assert bichar_series(*chis_, n_max=n_max, k_max=k_max, l_max=l_max) == expected, chis_


# -- the wrap contract of the series the expansions build ---------------------------


def _assert_wrap_contract(series_list):
    """Each series holds only nonzero values, an int wherever a value is
    integral, exponents inside its orders, and equals its checked copy;
    and each owns its dict: no two series share one."""
    for series in series_list:
        for exps, value in series._coeffs.items():
            assert type(value) is int or (type(value) is Fraction and value.denominator != 1)
            assert value != 0
            assert len(exps) == 3 and all(0 <= e < o for e, o in zip(exps, series.orders))
        assert series == TruncSeries(dict(zip(VARIABLES, series.orders)), dict(series._coeffs))
    assert len({id(series._coeffs) for series in series_list}) == len(series_list)


def test_expansions_keep_the_wrap_contract():
    # every series bichar_series, ray_exp, tensor_euler_series, exp and
    # int_pow return
    made = []
    rng = random.Random(2406)
    for n_max in range(9):
        for chis_ in [(0, 0, 0, 0), (2, 4, 4, 2), (4, -4, 0, 3), (-3, 2, 1, -1), (Fraction(1, 2), 2, Fraction(-3, 2), 1)]:
            made.append(bichar_series(*chis_, n_max=n_max))
            made.append(bichar_series(*chis_, n_max=n_max, k_max=n_max // 2, l_max=1))
        orders = {"Q": n_max + 1, "u": 3, "v": 4}
        for rays in [[(2, 0, Fraction(1, 3))], [(0, 0, -2), (1, 2, 5), (2, 1, 0)], [(0, 1, Fraction(-1, 2)), (0, 1, 3)]]:
            made.append(TruncSeries.ray_exp(orders, rays))
        chi_flp = [rng.choice([0, 0, 1, -2, 5]) for _ in range(n_max + 1)]
        made.append(tensor_euler_series(chi_flp, rng.randint(-3, 3), rng.randint(-3, 3), n_max, n_max))
    orders = {"Q": 5, "u": 3, "v": 2}
    for base in [
        {(1, 0, 0): Fraction(1, 2), (1, 1, 1): 2, (2, 0, 1): Fraction(-4, 3)},
        {(0, 1, 0): 3, (1, 0, 1): Fraction(1, 3)},
        {(1, 0, 0): 1, (2, 2, 0): Fraction(1, 6)},
    ]:
        g = TruncSeries(orders, base)
        made += [g, g.exp()]
        for c0 in (1, -1, 2, Fraction(1, 2)):
            s = g + c0
            made.append(s)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NonUnitWarning)
                made += [s.int_pow(a) for a in range(-3, 4)]
        made += [g.int_pow(a) for a in range(4)]
    _assert_wrap_contract(made)


@pytest.mark.parametrize(
    "coeffs",
    [{(1, 0, 0): 0}, {(1, 0, 0): Fraction(4, 1)}, {(3, 0, 0): 1}],
    ids=["zero", "integral_fraction", "exponent_past_order"],
)
def test_wrap_contract_check_rejects_a_broken_series(coeffs):
    with pytest.raises(AssertionError):
        _assert_wrap_contract([_wrapped((3, 1, 1), coeffs)])


def test_wrap_contract_check_rejects_a_shared_dict():
    coeffs = {(1, 0, 0): 1}
    with pytest.raises(AssertionError):
        _assert_wrap_contract([_wrapped((3, 1, 1), coeffs), _wrapped((3, 1, 1), coeffs)])


# -- Euler characteristics for a tensor product with a wedge power ------------------


def test_tensor_euler_frozen_k3_value():
    assert tensor_euler_closed(2, 1, [2, 2], 2, 2) == 6


def test_tensor_euler_terms_sum_to_closed_value():
    chi_flp = [2, 2, 2, 2]
    for n in (1, 2, 3):
        for k in range(n + 1):
            closed = tensor_euler_closed(n, k, chi_flp, 2, 2)
            terms = tensor_euler_terms(n, k, chi_flp, 2, 2)
            total = sum((-1) ** p * sum(vals) for p, vals in terms)
            assert total == closed


def test_tensor_euler_series_matches_closed_form():
    chi_flp = [1, 3, 6, 10, 15, 21, 28]  # twists of a line bundle on a plane
    series = tensor_euler_series(chi_flp, 3, 1, n_max=5, k_max=5)
    for n in range(6):
        for k in range(n + 1):
            closed = tensor_euler_closed(n, k, chi_flp, 3, 1)
            assert tensor_euler_from_series(series, n, k) == closed


@pytest.mark.parametrize("value", [2.0, 0.0])
def test_tensor_euler_series_rejects_a_float_chi_flp(value):
    # the correction sum goes through the checking constructor
    with pytest.raises(TypeError, match="must be an int or a Fraction"):
        tensor_euler_series([1, value, 6], 1, 1, n_max=2, k_max=2)


def test_tensor_euler_rejects_short_tables():
    # the closed form reads chi_flp[p] for p = 0..k, the series for p = 0..n_max
    with pytest.raises(ValueError):
        tensor_euler_series([1, 2], 1, 1, n_max=4, k_max=2)
    with pytest.raises(ValueError):
        tensor_euler_closed(3, 2, [1, 2], 1, 1)
    assert tensor_euler_closed(3, 1, [1, 2], 1, 1) is not None


def test_tensor_euler_rejects_bad_indices():
    with pytest.raises(ValueError):
        tensor_euler_closed(2, 3, [1, 2, 3, 4], 1, 1)
    with pytest.raises(ValueError):
        tensor_euler_closed(2, -1, [1], 1, 1)
    # n = 0 is the empty configuration: every term carries at least one
    # point, so the count is zero in all three presentations.
    assert tensor_euler_closed(0, 0, [1], 1, 1) == 0


@settings(max_examples=20)
@given(
    chi_l=chis,
    chi_o=chis,
    chi_flp=st.lists(chis, min_size=7, max_size=7),
)
def test_tensor_euler_triangle(chi_l, chi_o, chi_flp):
    n_max = 4
    series = tensor_euler_series(chi_flp, chi_l, chi_o, n_max=n_max, k_max=n_max)
    for n in range(1, n_max + 1):
        for k in range(n + 1):
            closed = tensor_euler_closed(n, k, chi_flp, chi_l, chi_o)
            terms = tensor_euler_terms(n, k, chi_flp, chi_l, chi_o)
            total = sum((-1) ** p * sum(vals) for p, vals in terms)
            assert closed == total
            assert closed == tensor_euler_from_series(series, n, k)


# -- curves and the rank-three check ------------------------------------------------


def test_curve_two_points_differs_from_surface_count():
    # All four Euler characteristics equal to one: two points on a curve
    # give one section, two points on a surface give two.
    assert curve_bichar(2, 1, 1, 1, 1) == 1
    assert bichar_closed(2, 1, 1, 1, 1, 1, 1) == 2


def test_curve_one_point_is_the_hom_space():
    assert curve_bichar(1, 5, 3, 2, 1) == 5


def test_curve_frozen_small_table():
    # genus 0, all bundles trivial: chi(O_C) = 1
    values = [curve_bichar(n, 1, 1, 1, 1) for n in (1, 2, 3, 4)]
    assert values == [1, 1, 0, 0]


@settings(max_examples=60)
@given(chis=st.tuples(*[st.integers(min_value=-5, max_value=5)] * 4))
def test_curve_series_coefficients_are_curve_bichar(chis):
    series = curve_series(*chis, n_max=9)
    assert [series.coeff_at(n) for n in range(1, 10)] == [
        curve_bichar(n, *chis) for n in range(1, 10)
    ]
    assert series.coeff_at(0) == 0


def test_curve_rejects_bad_n():
    with pytest.raises(ValueError):
        curve_bichar(0, 1, 1, 1, 1)


def test_rank3_frozen_values():
    assert rank3_check(2, -20) == Rank3Check(value=21, naive=1)
    assert rank3_check(1, -10) == Rank3Check(value=10, naive=0)
    assert rank3_check(3, 0) == Rank3Check(value=3, naive=3)


def test_rank3_naive_is_lambda_square():
    for chi_o in range(-3, 4):
        check = rank3_check(chi_o, 7)
        assert check.naive == lambda_scalar(2, chi_o)
        assert check.value == check.naive - 7


# -- library input rejections ---------------------------------------------------------

# Q^1 carries 1/2, which no Euler number can be
HALF_AT_Q = TruncSeries({"Q": 2, "u": 1, "v": 1}, {(1, 0, 0): Fraction(1, 2)})


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: bichar_series(1, 1, 1, 1, n_max=-1), "n_max must be non-negative, got -1"),
        (
            lambda: tensor_euler_series([1], 1, 1, n_max=-1, k_max=0),
            "n_max and k_max must be non-negative",
        ),
        (lambda: curve_series(1, 1, 1, 1, n_max=0), "n_max must be positive, got 0"),
        (
            lambda: bichar_from_series(HALF_AT_Q, 1, 0, 0),
            "non-integer coefficient 1/2 at Q^1 u^0 v^0",
        ),
        (
            lambda: tensor_euler_from_series(HALF_AT_Q, 1, 0),
            "non-integer coefficient 1/2 at Q^1 u^0",
        ),
    ],
    ids=["bichar_series_negative_n_max",
         "tensor_euler_series_negative_n_max", "curve_series_zero_n_max",
         "bichar_from_series_fraction", "tensor_euler_from_series_fraction"],
)
def test_library_calls_reject_bad_input_with_one_message(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
