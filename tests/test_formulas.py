"""Tests for the closed formulas: graded Hom-spaces, Euler characteristics,
and the generating-function expansions that cross-check them."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbtaut.graded import UNIT, ZERO, GradedDim, lambda_scalar, s_scalar
from hilbtaut.formulas import (
    VARIANTS,
    BicharInput,
    MissingTableError,
    Rank3Check,
    WHomInput,
    bichar_closed,
    bichar_from_series,
    bichar_product,
    bichar_series,
    curve_bichar,
    curve_series,
    negative_index_suppressed,
    rank3_check,
    required_tables,
    taut_formula,
    taut_substitution,
    tensor_euler_closed,
    tensor_euler_from_series,
    tensor_euler_series,
    tensor_euler_terms,
    variant_signature,
    w_hom,
)
from hilbtaut.oracle import invariant_dim

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


def test_w_hom_two_points_structure_sheaf_tables():
    inp = WHomInput(n=2, e=1, f=1, hom_ef=K3_POINT, coh_e_dual=K3_POINT,
                    coh_f=K3_POINT, coh_o=K3_POINT)
    assert dict(w_hom(inp).items()) == {0: 2, 2: 4, 4: 2}


def test_w_hom_full_overlap_forces_top_term():
    # e = n and f = 0 leaves the single summand with the exterior power
    # of the dual slot; for a two-dimensional odd space that has dim 3.
    inp = WHomInput(n=2, e=2, f=0, hom_ef=ZERO, coh_e_dual=GradedDim({1: 2}),
                    coh_f=ZERO, coh_o=K3_POINT)
    assert dict(w_hom(inp).items()) == {2: 3}
    again = WHomInput(n=2, e=2, f=0, hom_ef=ZERO, coh_e_dual=K3_POINT,
                      coh_f=ZERO, coh_o=K3_POINT)
    assert dict(w_hom(again).items()) == {2: 1}


def test_w_hom_window_can_be_empty():
    # e + f - n > min(e, f) happens only outside the input contract, but
    # a zero table in an active slot empties the sum legitimately.
    inp = WHomInput(n=3, e=2, f=2, hom_ef=ZERO, coh_e_dual=ZERO,
                    coh_f=ZERO, coh_o=UNIT)
    assert w_hom(inp) == ZERO


def test_w_hom_four_points_trivial_tables():
    line = GradedDim({0: 1})
    inp = WHomInput(n=4, e=2, f=2, hom_ef=line, coh_e_dual=line,
                    coh_f=line, coh_o=line)
    # Value fixed by the group-averaging oracle: the i = 0 summand dies
    # because the exterior square of a one-dimensional even space is zero.
    assert dict(w_hom(inp).items()) == {0: 2}
    assert w_hom(inp) == invariant_dim(4, 2, 2, line, line, line, line)


def test_w_hom_agrees_with_group_averaging_on_mixed_tables():
    hom = GradedDim({0: 1, 1: 1})
    dual = GradedDim({0: 2})
    tgt = GradedDim({1: 1, 2: 1})
    point = GradedDim({0: 1, 2: 1})
    for n in (2, 3):
        for e in range(n + 1):
            for f in range(n + 1):
                inp = WHomInput(n=n, e=e, f=f, hom_ef=hom, coh_e_dual=dual,
                                coh_f=tgt, coh_o=point)
                assert w_hom(inp) == invariant_dim(n, e, f, hom, dual, tgt, point)


def test_w_hom_input_validation():
    with pytest.raises(ValueError):
        WHomInput(n=0, e=0, f=0, hom_ef=ZERO, coh_e_dual=ZERO, coh_f=ZERO, coh_o=UNIT)
    with pytest.raises(ValueError):
        WHomInput(n=2, e=3, f=0, hom_ef=ZERO, coh_e_dual=ZERO, coh_f=ZERO, coh_o=UNIT)


# -- named variants --------------------------------------------------------------


def test_every_variant_has_a_signature_and_tables():
    for variant in VARIANTS:
        e_spec, f_spec, roles = variant_signature(variant)
        assert len(roles) == 4
        assert set(required_tables(variant)) == set(roles)
        for spec in (e_spec, f_spec):
            assert spec in (0, 1, "k", "l")


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        variant_signature("cohG")


def test_missing_table_error_names_the_role():
    with pytest.raises(MissingTableError) as err:
        taut_formula("ExtEF", 1, tables={"coh_o": K3_POINT})
    assert "hom_ef" in str(err.value)


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
    inp = taut_substitution("Extwedgewedge", 3, k=2, l=1, tables=K3_TABLES)
    assert (inp.e, inp.f) == (2, 1)
    inp = taut_substitution("ExtwedgeF", 3, k=2, tables=K3_TABLES)
    assert (inp.e, inp.f) == (2, 1)


def test_negative_index_flag_only_fires_at_top_wedge():
    assert negative_index_suppressed("ExtEwedge", 3, k=3)
    assert negative_index_suppressed("ExtwedgeF", 2, k=2)
    assert not negative_index_suppressed("ExtEwedge", 3, k=2)
    assert not negative_index_suppressed("Extwedgewedge", 3, k=3, l=3)
    assert not negative_index_suppressed("cohF", 1)


# -- Euler characteristic of Hom between wedge powers ------------------------------


def test_bichar_frozen_k3_value():
    assert bichar_closed(BicharInput(2, 1, 1, 2, 2, 2, 2)) == 8


def test_bichar_matches_graded_euler():
    for n in (1, 2, 3):
        for k in range(n + 1):
            for l in range(n + 1):
                graded = taut_formula("Extwedgewedge", n, k=k, l=l, tables=K3_TABLES)
                closed = bichar_closed(BicharInput(n, k, l, 2, 2, 2, 2))
                assert graded.euler() == closed


def test_bichar_input_validation():
    with pytest.raises(ValueError):
        BicharInput(2, 3, 0, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        BicharInput(-1, 0, 0, 1, 1, 1, 1)


def test_bichar_series_equals_product_form():
    for chis_ in [(2, 2, 2, 2), (1, 0, 3, 1), (-2, 3, -1, 2)]:
        assert bichar_series(*chis_, n_max=4) == bichar_product(*chis_, n_max=4)


def test_bichar_series_coefficients_match_closed_form():
    series = bichar_series(2, 4, 4, 2, n_max=4)
    for n in range(5):
        for k in range(n + 1):
            for l in range(n + 1):
                closed = bichar_closed(BicharInput(n, k, l, 2, 4, 4, 2))
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
                closed = bichar_closed(
                    BicharInput(n, k, l, chi_kl, chi_k_dual, chi_l, chi_o)
                )
                assert bichar_from_series(series, n, k, l) == closed


def test_bichar_zeroth_coefficients_are_point_counts():
    series = bichar_series(2, 2, 2, 2, n_max=4)
    # with k = l = 0 the expansion collapses to symmetric powers of chi_o
    for n in range(5):
        assert bichar_from_series(series, n, 0, 0) == s_scalar(n, 2)


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
    assert bichar_closed(BicharInput(2, 1, 1, 1, 1, 1, 1)) == 2


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
    assert [series.coeff(Q=n) for n in range(1, 10)] == [
        curve_bichar(n, *chis) for n in range(1, 10)
    ]
    assert series.coeff() == 0


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
