"""Tests for exact truncated multivariate power series."""

from __future__ import annotations

import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbtaut import series
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
    assert one.coeff_at(0) == 1
    assert q.coeff_at(1) == 1
    assert q.coeff_at(2) == 0


def test_coeff_rejects_exponent_past_truncation():
    q = TruncSeries.variable("Q", ORDERS)
    with pytest.raises(ValueError):
        q.coeff_at(5)


def test_unused_variables_default_to_order_one():
    q = TruncSeries.variable("Q", {"Q": 3})
    with pytest.raises(ValueError):
        q.coeff_at(0, 1)  # u is truncated at order 1, so u^1 is out of range
    assert q.coeff_at(1, 0) == 1


def test_variable_at_order_one_is_zero():
    # x = 0 modulo x^1, so a variable truncated away is the zero series
    assert TruncSeries.variable("u", {"Q": 3}) == TruncSeries({"Q": 3})
    assert TruncSeries.variable("Q", {"Q": 1, "u": 2}) == TruncSeries({"u": 2})


def test_unknown_variable_name_rejected():
    with pytest.raises(ValueError):
        TruncSeries.const(1, {"x": 3})
    with pytest.raises(ValueError):
        TruncSeries.variable("x", {"Q": 3})


def test_coefficients_are_exact_fractions():
    half = TruncSeries.const(Fraction(1, 2), ORDERS)
    assert (half + half).coeff_at(0) == 1
    assert (half * half).coeff_at(0) == Fraction(1, 4)


@pytest.mark.parametrize("value", [0.1, "1/3", True], ids=["float", "str", "bool"])
def test_constructor_rejects_a_coefficient_that_is_not_an_int_or_a_fraction(value):
    # Fraction() would take each of these: 0.1 as its binary expansion,
    # "1/3" by parsing and True as 1
    with pytest.raises(TypeError, match=r"coefficient at \(1, 0, 0\) must be an int or a Fraction"):
        TruncSeries({"Q": 3}, {(1, 0, 0): value})
    with pytest.raises(TypeError, match="unsupported operand"):
        TruncSeries.variable("Q", {"Q": 3}) + value


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: TruncSeries({"Q": 0}),
            ValueError,
            "truncation order for Q must be a positive int, got 0",
        ),
        (lambda: TruncSeries({"Q": 2}, {(0, 0): 1}), ValueError, "bad exponent tuple (0, 0)"),
        (lambda: TruncSeries({"Q": 3}, {(0.5, 0, 0): 1}), ValueError, "bad exponent tuple (0.5, 0, 0)"),
        (lambda: TruncSeries({"Q": 3}, {(True, 0, 0): 1}), ValueError, "bad exponent tuple (True, 0, 0)"),
        (
            lambda: TruncSeries({"Q": 2}, {(2, 0, 0): 1}),
            ValueError,
            "exponents (2, 0, 0) exceed truncation orders (2, 1, 1)",
        ),
        (lambda: TruncSeries.const(1, ORDERS).coeff_at(-1), ValueError, "negative exponent for Q"),
        (
            lambda: TruncSeries.const(1, ORDERS).int_pow(1.5),
            TypeError,
            "exponent must be int, got 1.5",
        ),
    ],
    ids=["order_zero", "short_exponent_tuple", "float_exponent", "bool_exponent",
         "exponent_past_order", "coeff_negative_exponent", "int_pow_float"],
)
def test_bad_input_is_rejected_with_one_message(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


# -- arithmetic ---------------------------------------------------------------


def test_mul_truncates():
    q = TruncSeries.variable("Q", {"Q": 3})
    sq = q * q
    assert sq.coeff_at(2) == 1
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
    assert (q + 1).coeff_at(0) == 1
    assert (2 * q).coeff_at(1) == 2
    assert (q - Fraction(1, 3)).coeff_at(0) == Fraction(-1, 3)


def test_multivariate_product():
    orders = {"Q": 3, "u": 3}
    q = TruncSeries.variable("Q", orders)
    u = TruncSeries.variable("u", orders)
    prod = (1 + q * u) * (1 + q)
    assert prod.coeff_at(1, 1) == 1
    assert prod.coeff_at(2, 1) == 1
    assert prod.coeff_at(1) == 1


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
    assert [inv2.coeff_at(k) for k in range(5)] == [1, 2, 3, 4, 5]


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


def local_product(a, b, top):
    """Truncated product of two coefficient dicts, without TruncSeries."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            if all(e < o for e, o in zip(exps, top)):
                out[exps] = out.get(exps, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def local_powers(base, top, count):
    """base^0 .. base^(count - 1) as coefficient dicts, by local_product."""
    powers = [{(0, 0, 0): 1}]
    while len(powers) < count:
        powers.append(local_product(powers[-1], base, top))
    return powers


def assert_int_pow_matches_local_reference(s, top):
    """s^a for a = 0..4 against repeated local products and, with a
    nonzero constant term, s^-a for a = 1..4 as the inverse of those."""
    powers = local_powers(dict(s.terms()), top, 5)
    for a in range(5):
        assert dict(s.int_pow(a).terms()) == powers[a]
    if not s.constant_term():
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonUnitWarning)
        for a in range(1, 5):
            assert local_product(dict(s.int_pow(-a).terms()), powers[a], top) == {(0, 0, 0): 1}


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("c0", [1, -1, 2, Fraction(1, 3), 0])
def test_int_pow_matches_local_convolution(seed, c0):
    rng = random.Random(seed)
    orders = {"Q": rng.randint(2, 5), "u": rng.randint(1, 3), "v": rng.randint(1, 3)}
    top = tuple(orders[name] for name in VARIABLES)
    coeffs = {}
    for _ in range(rng.randint(1, 6)):
        exps = tuple(rng.randrange(o) for o in top)
        coeffs[exps] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    coeffs[(0, 0, 0)] = c0
    assert_int_pow_matches_local_reference(TruncSeries(orders, coeffs), top)


# -- exp ----------------------------------------------------------------------


def test_exp_requires_zero_constant():
    one = TruncSeries.const(1, ORDERS)
    with pytest.raises(SeriesDomainError):
        one.exp()


def test_exp_of_harmonic_sum_is_geometric():
    q = TruncSeries.variable("Q", ORDERS)
    arg = TruncSeries(ORDERS)
    for r in range(1, 5):
        arg = arg + Fraction(1, r) * q.int_pow(r)
    assert arg.exp() == geom()


def local_exp(base, top):
    """exp of a coefficient dict with zero constant term, without TruncSeries:
    the power sum of G^m / m!, stopping once G^m truncates to 0."""
    out = power = {(0, 0, 0): Fraction(1)}
    m = 0
    while power:
        m += 1
        power = {e: c / m for e, c in local_product(power, base, top).items()}
        out = {e: out.get(e, 0) + power.get(e, 0) for e in out.keys() | power.keys()}
    return {e: c for e, c in out.items() if c}


def reference_exp(g):
    return TruncSeries(dict(zip(VARIABLES, g.orders)), local_exp(dict(g.terms()), g.orders))


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


def random_coeffs(rng, top, integral):
    coeffs = {}
    for _ in range(rng.randint(2, 7)):
        exps = tuple(rng.randrange(o) for o in top)
        num = rng.randint(-6, 6)
        coeffs[exps] = num if integral else Fraction(num, rng.randint(1, 4))
    return coeffs


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("integral", [True, False], ids=["integral", "fractional"])
def test_exp_and_mul_match_local_reference(seed, integral):
    rng = random.Random(seed)
    orders = {"Q": rng.randint(2, 6), "u": rng.randint(1, 4), "v": rng.randint(1, 4)}
    top = tuple(orders[name] for name in VARIABLES)
    a = TruncSeries(orders, random_coeffs(rng, top, integral))
    b = TruncSeries(orders, random_coeffs(rng, top, integral))
    assert dict((a * b).terms()) == local_product(dict(a.terms()), dict(b.terms()), top)
    g = TruncSeries(orders, {e: c for e, c in a.terms() if e != (0, 0, 0)})
    assert dict(g.exp().terms()) == local_exp(dict(g.terms()), top)


@pytest.mark.parametrize("scale, monomial", [(1, (1, 0, 0)), (2, (1, 1, 0))])
def test_exp_of_an_integral_monomial_has_fractional_coefficients(scale, monomial):
    # exp(c m) = sum_d c^d m^d / d!: integral input, but the exact division
    # by d leaves a remainder (at d = 2 for exp(Q), at d = 3 for exp(2 Q u))
    orders = {"Q": 7, "u": 7}
    g = TruncSeries(orders, {monomial: scale})
    expected = {
        tuple(d * e for e in monomial): Fraction(scale**d, math.factorial(d)) for d in range(7)
    }
    assert dict(g.exp().terms()) == expected
    assert dict(g.exp().terms()) == local_exp(dict(g.terms()), g.orders)


def test_exp_is_multiplicative():
    orders = {"Q": 4, "u": 3}
    q = TruncSeries.variable("Q", orders)
    u = TruncSeries.variable("u", orders)
    a = q + u * q
    b = 2 * q.int_pow(2)
    assert (a + b).exp() == a.exp() * b.exp()


def test_a_term_without_q_grades_the_recurrence_by_total_degree():
    # u carries no Q, so the parts of u + Q and 1 + u + Q by total degree
    # mix terms with and without Q
    orders = {"Q": 5, "u": 4}
    q = TruncSeries.variable("Q", orders)
    u = TruncSeries.variable("u", orders)
    one = TruncSeries.const(1, orders)
    assert (u + q).exp() == u.exp() * q.exp()
    assert (one + u + q).int_pow(-1) * (one + u + q) == one


@pytest.mark.parametrize("power", ["inverse_square", "exp"])
def test_the_recurrence_stops_once_the_rest_of_the_result_is_zero(monkeypatch, power):
    # uQ truncates to 0 from (uQ)^4 on, so (1 + uQ)^-2 and exp(uQ) end at
    # total degree 6 however far the u order reaches; the recurrence
    # divides once per degree 1..8 and then sees two zero parts in a row
    def expand(u_order):
        orders = {"Q": 4, "u": u_order}
        uq = TruncSeries(orders, {(1, 1, 0): 1})
        return (1 + uq).int_pow(-2) if power == "inverse_square" else uq.exp()

    calls = []
    divided = series._divided
    monkeypatch.setattr(series, "_divided", lambda *args: calls.append(1) or divided(*args))
    far = expand(100001)
    assert len(calls) == 8
    assert far.terms() == expand(4).terms()


# -- exp and int_pow on the shapes the CLI expands ----------------------------

#: orders with u and v below the Q order, as in
#: bichar_series(..., n_max=11, k_max=1, l_max=1), and a square one
CLI_ORDERS = [{"Q": 12, "u": 2, "v": 2}, {"Q": 10, "u": 4, "v": 3}, {"Q": 7, "u": 7, "v": 7}]
CLI_IDS = ["Q12_u2_v2", "Q10_u4_v3", "Q7_u7_v7"]


def q_degree_argument(top, chis):
    """sum_r [c1 (Q u v)^r - c2 (Q v)^r - c3 (Q u)^r + c4 Q^r] / r, truncated
    at top, as Fractions: the logarithm of the series bichar_series gives."""
    c1, c2, c3, c4 = chis
    coeffs = {}
    for r in range(1, top[0]):
        for exps, chi in (((r, r, r), c1), ((r, 0, r), -c2), ((r, r, 0), -c3), ((r, 0, 0), c4)):
            if all(e < o for e, o in zip(exps, top)):
                coeffs[exps] = Fraction(chi, r)
    return coeffs


@pytest.mark.parametrize("orders", CLI_ORDERS, ids=CLI_IDS)
@pytest.mark.parametrize("chis", [(2, 4, 4, 2), (3, 1, 0, -2), (-1, -3, 2, 1)])
def test_exp_matches_local_reference_on_cli_shapes(orders, chis):
    top = tuple(orders[name] for name in VARIABLES)
    g = TruncSeries(orders, q_degree_argument(top, chis))
    assert dict(g.exp().terms()) == local_exp(dict(g.terms()), top)


@pytest.mark.parametrize("orders", CLI_ORDERS, ids=CLI_IDS)
def test_int_pow_matches_local_reference_on_cli_shapes(orders):
    # the binomial bases of bichar_product and tensor_euler_series:
    # 1 - m and 1 + m for m = vuQ, vQ, uQ and Q
    top = tuple(orders[name] for name in VARIABLES)
    for monomial in [(1, 1, 1), (1, 0, 1), (1, 1, 0), (1, 0, 0)]:
        for sign in (-1, 1):
            s = TruncSeries(orders, {(0, 0, 0): 1, monomial: sign})
            assert_int_pow_matches_local_reference(s, top)


@pytest.mark.parametrize("c0", [1, -1, 2, Fraction(-3, 2)], ids=["1", "-1", "2", "-3/2"])
def test_int_pow_matches_local_reference_by_total_degree(c0):
    # bare u carries no Q, so the recurrence grades by total degree;
    # rational coefficients, and constants that are not units
    orders = {"Q": 4, "u": 3, "v": 2}
    top = (4, 3, 2)
    s = TruncSeries(
        orders, {(0, 0, 0): c0, (0, 1, 0): Fraction(1, 2), (1, 0, 1): -3, (2, 1, 0): Fraction(5, 3)}
    )
    assert_int_pow_matches_local_reference(s, top)


# -- ray_exp ------------------------------------------------------------------


def _checked_ray_exp(orders, rays):
    """exp of ray_exp's argument, its terms summed as Fractions and built
    through the checking constructor."""
    top = dict(zip(VARIABLES, (1, 1, 1)), **orders)
    log = {}
    for a, b, w in rays:
        for r in range(1, top["Q"]):
            if a * r < top["u"] and b * r < top["v"]:
                log[r, a * r, b * r] = log.get((r, a * r, b * r), 0) + Fraction(w, r)
    return TruncSeries(orders, log).exp()


@pytest.mark.parametrize("seed", range(200))
def test_ray_exp_matches_exp_on_random_rays(seed):
    # one to three rays with steps up to 2, weights 0, ints and Fractions
    rng = random.Random(seed)
    orders = {"Q": rng.randint(1, 7), "u": rng.randint(1, 5), "v": rng.randint(1, 5)}
    weights = [0, 1, -1, 3, -4, Fraction(1, 2), Fraction(-2, 3)]
    rays = [
        (rng.randint(0, 2), rng.randint(0, 2), rng.choice(weights))
        for _ in range(rng.randint(1, 3))
    ]
    assert TruncSeries.ray_exp(orders, rays) == _checked_ray_exp(orders, rays), (orders, rays)


def test_ray_exp_checks_its_orders():
    with pytest.raises(ValueError, match="truncation order for Q must be a positive int, got 3.0"):
        TruncSeries.ray_exp({"Q": 3.0}, [(0, 0, 1)])


# -- rendering ----------------------------------------------------------------


def test_str_orders_terms_lexicographically():
    orders = {"Q": 3, "u": 2}
    q = TruncSeries.variable("Q", orders)
    u = TruncSeries.variable("u", orders)
    s = 1 + q + q * u
    assert str(s) == "1 + 1 * Q^1 + 1 * Q^1 u^1"


def test_zero_renders_as_zero():
    assert str(TruncSeries(ORDERS)) == "0"


def test_to_jsonable_shape():
    q = TruncSeries.variable("Q", {"Q": 3})
    data = (1 + 2 * q).to_jsonable()
    assert data["orders"]["Q"] == 3
    assert {"monomial": "1", "coeff": "1"} in data["terms"]
    assert {"monomial": "Q^1", "coeff": "2"} in data["terms"]


@pytest.mark.parametrize("integral", [True, False], ids=["integral", "fractional"])
def test_public_coefficients_are_fractions(integral):
    orders = {"Q": 4, "u": 3, "v": 2}
    scale = 1 if integral else Fraction(1, 3)
    a = TruncSeries(orders, {(0, 0, 0): 1, (1, 0, 0): 2 * scale, (1, 1, 1): -3 * scale})
    b = TruncSeries(orders, {(0, 0, 0): -1, (1, 1, 0): 5 * scale, (2, 0, 1): scale})
    results = [a + b, a - b, a * b, (a - 1).exp()]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonUnitWarning)
        results += [a.int_pow(e) for e in range(-3, 5)]
    for series in results:
        assert type(series.constant_term()) is Fraction
        assert all(type(c) is Fraction for _, c in series.terms())


def test_coeff_at_gives_a_coefficient_as_the_series_holds_it():
    orders = {"Q": 3, "u": 2, "v": 2}
    series = TruncSeries(orders, {(1, 1, 0): Fraction(4, 2), (2, 0, 1): Fraction(1, 3)})
    assert type(series.coeff_at(1, 1)) is int and series.coeff_at(1, 1) == 2
    assert series.coeff_at(2, 0, 1) == Fraction(1, 3)
    assert series.coeff_at(0) == 0
    for exponents, message in [
        ((-1,), "negative exponent for Q"),
        ((0, 2), "coefficient of u^2 lies beyond truncation order 2"),
        ((3, -1, 5), "coefficient of Q^3 lies beyond truncation order 3"),
    ]:
        with pytest.raises(ValueError) as err:
            series.coeff_at(*exponents)
        assert str(err.value) == message


def test_integral_coefficient_given_as_int_or_fraction_is_one_series():
    orders = {"Q": 3, "u": 2}
    plain = TruncSeries(orders, {(0, 0, 0): 5, (1, 1, 0): -2})
    wrapped = TruncSeries(orders, {(0, 0, 0): Fraction(5), (1, 1, 0): Fraction(-4, 2)})
    assert plain == wrapped
    assert hash(plain) == hash(wrapped)
    assert str(plain) == str(wrapped) == "5 + -2 * Q^1 u^1"
    assert plain.to_jsonable() == wrapped.to_jsonable()


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
    assert pa - pa == TruncSeries(ORDERS)


@settings(max_examples=30)
@given(a=coeff_lists)
def test_geometric_inverse_is_two_sided(a):
    base = poly([1] + a)
    inv = base.int_pow(-1)
    one = TruncSeries.const(1, ORDERS)
    assert base * inv == one
    assert inv * base == one
