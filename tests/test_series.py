"""Tests for exact truncated multivariate power series."""

from __future__ import annotations

import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbtaut.series import (
    NonUnitWarning,
    OrderMismatchError,
    SeriesDomainError,
    VARIABLES,
    TruncSeries,
)

ORDERS = {"Q": 5}


def geom(orders=None):
    """1 + Q + Q^2 + ... up to truncation."""
    o = orders or ORDERS
    out = TruncSeries.const(1, o)
    for e in range(1, o["Q"]):
        out = out + TruncSeries.variable("Q", o).int_pow(e)
    return out


# -- construction and access --------------------------------------------------


def test_const_and_variable():
    one = TruncSeries.const(1, ORDERS)
    q = TruncSeries.variable("Q", ORDERS)
    assert one.coeff() == 1
    assert q.coeff(Q=1) == 1
    assert q.coeff(Q=2) == 0


def test_coeff_rejects_exponent_past_truncation():
    q = TruncSeries.variable("Q", ORDERS)
    with pytest.raises(ValueError):
        q.coeff(Q=5)


def test_coeff_rejects_unknown_variable():
    q = TruncSeries.variable("Q", ORDERS)
    with pytest.raises(ValueError):
        q.coeff(x=1)


def test_unused_variables_default_to_order_one():
    q = TruncSeries.variable("Q", {"Q": 3})
    with pytest.raises(ValueError):
        q.coeff(u=1)  # u is truncated at order 1, so u^1 is out of range
    assert q.coeff(Q=1, u=0) == 1


def test_variable_at_order_one_is_zero():
    # x = 0 modulo x^1, so a variable truncated away is the zero series
    assert TruncSeries.variable("u", {"Q": 3}) == TruncSeries.zero({"Q": 3})
    assert TruncSeries.variable("Q", {"Q": 1, "u": 2}) == TruncSeries.zero({"u": 2})


def test_unknown_variable_name_rejected():
    with pytest.raises(ValueError):
        TruncSeries.const(1, {"x": 3})
    with pytest.raises(ValueError):
        TruncSeries.variable("x", {"Q": 3})


def test_coefficients_are_exact_fractions():
    half = TruncSeries.const(Fraction(1, 2), ORDERS)
    assert (half + half).coeff() == 1
    assert (half * half).coeff() == Fraction(1, 4)


# -- arithmetic ---------------------------------------------------------------


def test_mul_truncates():
    q = TruncSeries.variable("Q", {"Q": 3})
    sq = q * q
    assert sq.coeff(Q=2) == 1
    assert not (sq * q)


def test_order_mismatch_is_an_error():
    a = TruncSeries.variable("Q", {"Q": 3})
    b = TruncSeries.variable("Q", {"Q": 4})
    with pytest.raises(OrderMismatchError):
        a + b
    with pytest.raises(OrderMismatchError):
        a * b


def test_scalar_coercion():
    q = TruncSeries.variable("Q", ORDERS)
    assert (q + 1).coeff() == 1
    assert (2 * q).coeff(Q=1) == 2
    assert (q - Fraction(1, 3)).coeff() == Fraction(-1, 3)


def test_multivariate_product():
    orders = {"Q": 3, "u": 3}
    q = TruncSeries.variable("Q", orders)
    u = TruncSeries.variable("u", orders)
    prod = (1 + q * u) * (1 + q)
    assert prod.coeff(Q=1, u=1) == 1
    assert prod.coeff(Q=2, u=1) == 1
    assert prod.coeff(Q=1) == 1


# -- int_pow ------------------------------------------------------------------


def test_int_pow_positive_matches_repeated_product():
    base = 1 + TruncSeries.variable("Q", ORDERS)
    assert base.int_pow(3) == base * base * base
    assert base.int_pow(0) == TruncSeries.const(1, ORDERS)


def test_int_pow_negative_inverts():
    base = 1 - TruncSeries.variable("Q", ORDERS)
    inv = base.int_pow(-1)
    assert inv == geom()
    assert (base * inv) == TruncSeries.const(1, ORDERS)


def test_int_pow_negative_binomial_series():
    # (1-Q)^{-2} has coefficients k+1
    base = 1 - TruncSeries.variable("Q", ORDERS)
    inv2 = base.int_pow(-2)
    assert [inv2.coeff(Q=k) for k in range(5)] == [1, 2, 3, 4, 5]


def test_int_pow_zero_constant_cannot_invert():
    q = TruncSeries.variable("Q", ORDERS)
    with pytest.raises(SeriesDomainError):
        q.int_pow(-1)


def test_int_pow_non_unit_constant_warns():
    base = 2 + TruncSeries.variable("Q", ORDERS)
    with pytest.warns(NonUnitWarning):
        inv = base.int_pow(-1)
    assert (base * inv) == TruncSeries.const(1, ORDERS)


def test_int_pow_unit_constants_stay_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (1 - TruncSeries.variable("Q", ORDERS)).int_pow(-3)
        (-1 + TruncSeries.variable("Q", ORDERS)).int_pow(-2)


# -- exp ----------------------------------------------------------------------


def test_exp_requires_zero_constant():
    one = TruncSeries.const(1, ORDERS)
    with pytest.raises(SeriesDomainError):
        one.exp()


def test_exp_of_harmonic_sum_is_geometric():
    q = TruncSeries.variable("Q", ORDERS)
    arg = TruncSeries.zero(ORDERS)
    for r in range(1, 5):
        arg = arg + Fraction(1, r) * q.int_pow(r)
    assert arg.exp() == geom()


def reference_exp(g):
    """exp as the power sum of G^m / m!, stopping once G^m truncates to 0."""
    out = power = TruncSeries.const(1, dict(zip(VARIABLES, g.orders)))
    m = 0
    while power:
        m += 1
        power = power * g * Fraction(1, m)
        out = out + power
    return out


@pytest.mark.parametrize("seed", range(8))
def test_exp_recurrence_matches_power_sum(seed):
    rng = random.Random(seed)
    orders = {"Q": rng.randint(2, 4), "u": rng.randint(2, 3), "v": rng.randint(2, 3)}
    top = tuple(orders[name] for name in VARIABLES)
    coeffs = {}
    for _ in range(rng.randint(3, 6)):
        exps = tuple(rng.randrange(o) for o in top)
        coeffs[exps] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    coeffs[(0, 0, 0)] = 0
    coeffs[(0, 1, 0)] = Fraction(rng.randint(1, 5), rng.randint(1, 3))  # bare u: Q-degree 0
    coeffs[(1, 1, 1)] = Fraction(rng.randint(1, 5), 2)  # all three variables at once
    g = TruncSeries(orders, coeffs)
    assert g.exp() == reference_exp(g)


def test_exp_is_multiplicative():
    orders = {"Q": 4, "u": 3}
    q = TruncSeries.variable("Q", orders)
    u = TruncSeries.variable("u", orders)
    a = q + u * q
    b = 2 * q.int_pow(2)
    assert (a + b).exp() == a.exp() * b.exp()


# -- rendering ----------------------------------------------------------------


def test_str_orders_terms_lexicographically():
    orders = {"Q": 3, "u": 2}
    q = TruncSeries.variable("Q", orders)
    u = TruncSeries.variable("u", orders)
    s = 1 + q + q * u
    assert str(s) == "1 + 1 * Q^1 + 1 * Q^1 u^1"


def test_zero_renders_as_zero():
    assert str(TruncSeries.zero(ORDERS)) == "0"


def test_to_jsonable_shape():
    q = TruncSeries.variable("Q", {"Q": 3})
    data = (1 + 2 * q).to_jsonable()
    assert data["orders"]["Q"] == 3
    assert {"monomial": "1", "coeff": "1"} in data["terms"]
    assert {"monomial": "Q^1", "coeff": "2"} in data["terms"]


# -- algebraic laws -----------------------------------------------------------

coeff_lists = st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=4)


def poly(coeffs, orders=None):
    o = orders or ORDERS
    q = TruncSeries.variable("Q", o)
    out = TruncSeries.const(coeffs[0], o)
    for e, c in enumerate(coeffs[1:], start=1):
        out = out + c * q.int_pow(e)
    return out


@settings(max_examples=50)
@given(a=coeff_lists, b=coeff_lists, c=coeff_lists)
def test_ring_laws(a, b, c):
    pa, pb, pc = poly(a), poly(b), poly(c)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert (pa * pb) * pc == pa * (pb * pc)
    assert pa - pa == TruncSeries.zero(ORDERS)


@settings(max_examples=30)
@given(a=coeff_lists)
def test_geometric_inverse_is_two_sided(a):
    base = poly([1] + a)
    inv = base.int_pow(-1)
    one = TruncSeries.const(1, ORDERS)
    assert base * inv == one
    assert inv * base == one
