"""Truncated power series in the fixed variable set Q, u, v.

Coefficients are exact rationals.  Inside a series an integral
coefficient is held as an int and any other as a Fraction; the two mix
exactly, and the generating functions this package expands have
integral coefficients, so their arithmetic runs on ints.  ``terms``
and ``constant_term`` return Fraction either way; ``coeff_at`` returns
a coefficient as it is held.

Every series carries one truncation order per variable; exponents
greater than or equal to the order are discarded, so an order of 1
means the variable never appears.  Binary operations insist on
identical orders rather than silently extending or truncating either
side.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction

VARIABLES = ("Q", "u", "v")

Exponents = tuple[int, int, int]
Coeff = int | Fraction


class OrderMismatchError(ValueError):
    """Raised when two series with different truncation orders meet."""


class SeriesDomainError(ValueError):
    """Raised when an operation's constant-term precondition fails."""


class NonUnitWarning(UserWarning):
    """Inversion of a series whose constant term is not 1 or -1."""


def _normalize_orders(orders: Mapping[str, int]) -> tuple[int, int, int]:
    unknown = set(orders) - set(VARIABLES)
    if unknown:
        raise ValueError(f"unknown series variables {sorted(unknown)}; allowed: {VARIABLES}")
    out = []
    for name in VARIABLES:
        order = orders.get(name, 1)
        if not isinstance(order, int) or order < 1:
            raise ValueError(f"truncation order for {name} must be a positive int, got {order!r}")
        out.append(order)
    return tuple(out)


def _narrow(value: Coeff) -> Coeff:
    # an integral value as an int, any other as it is
    return value.numerator if value.denominator == 1 else value


def _divided(part: dict, div: Coeff) -> dict:
    # the nonzero values of part, each divided by div: an int wherever
    # the division is exact, else a Fraction (exp(Q) has coefficients
    # 1/d!, so it is not always)
    exact = type(div) is int
    out = {}
    for key, c in part.items():
        if c:
            if exact and type(c) is int:
                quo, rem = divmod(c, div)
                out[key] = Fraction(c, div) if rem else quo
            else:
                out[key] = _narrow(Fraction(c, div))
    return out


def _monomial(q: int, u: int, v: int) -> str:
    # "Q^q u^u v^v" without its zero exponents; "" for the constant
    return ((f" Q^{q}" if q else "") + (f" u^{u}" if u else "") + (f" v^{v}" if v else ""))[1:]


def _wrapped(orders: tuple[int, int, int], coeffs: dict[Exponents, Coeff]) -> "TruncSeries":
    # the series of coeffs itself, neither checked nor copied: every
    # exponent must lie inside the orders, every value must be nonzero and
    # an int wherever it is integral, and no one may change the dict
    series = object.__new__(TruncSeries)
    object.__setattr__(series, "orders", orders)
    object.__setattr__(series, "_coeffs", coeffs)
    return series


class TruncSeries:
    """A truncated series with exact rational coefficients.

    Instances are immutable.  ``orders`` maps variable name to
    truncation order; unnamed variables get order 1.
    """

    __slots__ = ("orders", "_coeffs")

    def __init__(
        self,
        orders: Mapping[str, int],
        coeffs: Mapping[Exponents, Coeff] | None = None,
    ):
        object.__setattr__(self, "orders", _normalize_orders(orders))
        store: dict[Exponents, Coeff] = {}
        for exps, value in (coeffs or {}).items():
            if len(exps) != 3 or any(type(e) is not int or e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps!r}")
            if any(e >= o for e, o in zip(exps, self.orders)):
                raise ValueError(
                    f"exponents {exps} exceed truncation orders {self.orders}"
                )
            if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
                raise TypeError(
                    f"coefficient at {exps} must be an int or a Fraction, got {value!r}"
                )
            if value:
                store[tuple(exps)] = store.get(tuple(exps), 0) + value
        object.__setattr__(self, "_coeffs", {e: _narrow(c) for e, c in store.items() if c})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TruncSeries is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, value: Coeff, orders: Mapping[str, int]) -> "TruncSeries":
        return cls(orders, {(0, 0, 0): value})

    @classmethod
    def variable(cls, name: str, orders: Mapping[str, int]) -> "TruncSeries":
        if name not in VARIABLES:
            raise ValueError(f"unknown variable {name!r}; allowed: {VARIABLES}")
        if orders.get(name, 1) == 1:
            return cls(orders)  # x = 0 modulo x^1
        exps = tuple(1 if n == name else 0 for n in VARIABLES)
        return cls(orders, {exps: 1})

    @classmethod
    def ray_exp(cls, orders: Mapping[str, int], rays: Iterable[tuple[int, int, Coeff]]) -> "TruncSeries":
        """exp of the sum over rays (a, b, w) and r >= 1 of w (u^a v^b Q)^r / r.

        With x = u^a v^b, Q dQ of that sum is sum_rays w xQ / (1 - xQ), so
        exp's recurrence d F_d = sum_j j G_j F_{d-j} on Q-degree parts
        regroups by ray as

            d F_d = sum_rays w H_d,   H_d = xQ (F_{d-1} + H_{d-1}),   H_0 = 0:

        one pass over F_{d-1} per ray and degree.  Truncation is by a
        monomial ideal and the steps only raise exponents, so dropping
        every exponent past its order at each step is exact.  Every weight
        must be an int or a Fraction: a bool raises TypeError, and so does
        anything else in Fraction(w, 1), before a ray whose first step lies
        past the orders, or whose weight is 0, is skipped.
        """
        orders = _normalize_orders(orders)
        q_top, u_top, v_top = orders
        steps = []
        for a, b, w in rays:
            if isinstance(w, bool):
                raise TypeError(f"ray weight must be an int or a Fraction, got {w!r}")
            w = _narrow(Fraction(w, 1))
            if w and a < u_top and b < v_top:
                steps.append((a, b, w))
        # parts are keyed by (u, v), one accumulator H per ray
        accumulators: list[dict[tuple[int, int], Coeff]] = [{} for _ in steps]
        coeffs: dict[Exponents, Coeff] = {(0, 0, 0): 1}
        previous: dict[tuple[int, int], Coeff] = {(0, 0): 1}
        for d in range(1, q_top):
            part: dict[tuple[int, int], Coeff] = {}
            for i, (a, b, w) in enumerate(steps):
                acc = accumulators[i]
                for key, c in previous.items():
                    acc[key] = acc.get(key, 0) + c
                if a or b:
                    acc = accumulators[i] = {
                        (u + a, v + b): c
                        for (u, v), c in acc.items()
                        if u + a < u_top and v + b < v_top
                    }
                for key, c in acc.items():
                    part[key] = part.get(key, 0) + w * c
            previous = _divided(part, d)
            coeffs.update({(d, u, v): c for (u, v), c in previous.items()})
        return _wrapped(orders, coeffs)

    # -- inspection ---------------------------------------------------

    def coeff_at(self, q: int, u: int = 0, v: int = 0) -> Coeff:
        """Coefficient of Q^q u^u v^v as the series holds it: an int when
        integral, else a Fraction.  A negative exponent is an error, and so
        is one past its truncation order: that coefficient was discarded."""
        order_q, order_u, order_v = self.orders
        if not (0 <= q < order_q and 0 <= u < order_u and 0 <= v < order_v):
            for name, e, o in zip(VARIABLES, (q, u, v), self.orders):
                if e < 0:
                    raise ValueError(f"negative exponent for {name}")
                if e >= o:
                    raise ValueError(
                        f"coefficient of {name}^{e} lies beyond truncation order {o}"
                    )
        return self._coeffs.get((q, u, v), 0)

    def terms(self) -> list[tuple[Exponents, Fraction]]:
        """Nonzero terms sorted lexicographically by exponents."""
        return [(e, Fraction(c)) for e, c in sorted(self._coeffs.items())]

    def constant_term(self) -> Fraction:
        return Fraction(self._coeffs.get((0, 0, 0), 0))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.orders == other.orders and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self.orders, frozenset(self._coeffs.items())))

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        pieces = []
        # an int prints as its Fraction does
        for exps, coeff in sorted(self._coeffs.items()):
            mono = _monomial(*exps)
            pieces.append(f"{coeff} * {mono}" if mono else str(coeff))
        return " + ".join(pieces)

    def __repr__(self) -> str:
        orders = {n: o for n, o in zip(VARIABLES, self.orders) if o > 1}
        return f"TruncSeries({orders!r}, {len(self._coeffs)} terms)"

    def to_jsonable(self) -> dict:
        """Mirror of the coefficient map with string coefficients."""
        return {
            "orders": {n: o for n, o in zip(VARIABLES, self.orders)},
            "terms": [
                {"monomial": _monomial(*exps) or "1", "coeff": str(coeff)}
                for exps, coeff in sorted(self._coeffs.items())
            ],
        }

    # -- arithmetic ---------------------------------------------------

    def _check_orders(self, other: "TruncSeries") -> None:
        if self.orders != other.orders:
            mine = dict(zip(VARIABLES, self.orders))
            theirs = dict(zip(VARIABLES, other.orders))
            raise OrderMismatchError(
                f"truncation orders differ: {mine} vs {theirs}; "
                "re-create one side with matching orders"
            )

    def _coerce(self, other: object) -> "TruncSeries | None":
        if isinstance(other, TruncSeries):
            self._check_orders(other)
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return TruncSeries.const(other, dict(zip(VARIABLES, self.orders)))
        return None

    def __add__(self, other: object) -> "TruncSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self._coeffs)
        for exps, coeff in rhs._coeffs.items():
            out[exps] = out.get(exps, 0) + coeff
        return self._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "TruncSeries":
        return _wrapped(self.orders, {e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: object) -> "TruncSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> "TruncSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __mul__(self, other: object) -> "TruncSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out: dict[Exponents, Coeff] = {}
        self._add_products(out, self._limited(self._coeffs.items(), 1), rhs._coeffs.items())
        return self._raw(out)

    __rmul__ = __mul__

    def _limited(self, terms: Iterable, scale: int) -> list[tuple]:
        # each term (q, u, v), c as (q, u, v, scale c, oq - q, ou - u, ov - v):
        # a product with (q2, u2, v2) survives truncation exactly when
        # q2, u2 and v2 lie below those three limits
        oq, ou, ov = self.orders
        return [
            (q, u, v, _narrow(scale * c), oq - q, ou - u, ov - v)
            for (q, u, v), c in terms
        ]

    @staticmethod
    def _add_products(out: dict, left: list[tuple], right: Iterable) -> None:
        # adds every product of a term of left, as _limited gives it, and
        # a term of right into out, dropping exponents past the orders;
        # right must be re-iterable
        for q1, u1, v1, c1, lq, lu, lv in left:
            for (q2, u2, v2), c2 in right:
                if q2 < lq and u2 < lu and v2 < lv:
                    exps = q1 + q2, u1 + u2, v1 + v2
                    out[exps] = out.get(exps, 0) + c1 * c2

    def _raw(self, coeffs: dict[Exponents, Coeff]) -> "TruncSeries":
        # internal constructor: drops zeros and narrows, nothing else
        return _wrapped(self.orders, {e: _narrow(c) for e, c in coeffs.items() if c})

    def _degree_recurrence(
        self, start: Coeff, lead: Coeff, weight: Callable[[int, int], int]
    ) -> "TruncSeries":
        # R with R_0 = start and, for every degree d >= 1,
        #   lead d R_d = sum_{j=1..d} weight(d, j) S_j R_{d-j},
        # where S_j, R_d are the parts of total degree j, d of S = self
        # and R: S_0 is the constant term, and the Euler operator (the sum
        # of x dx over the variables) gives the recurrence.  Truncation is
        # by a monomial ideal, which that operator preserves, so dropping
        # every exponent past its order at each step is exact.  Only the
        # degrees j that S has are visited, and weight(d, j) is asked only
        # when R_{d-j} is nonzero.  R_d reads only the last max(j) parts
        # of R, so once those are all zero the rest of R is too and the
        # recurrence stops.  Integral values stay ints, and the division
        # by lead d stays in ints wherever it is exact.
        start, lead = _narrow(start), _narrow(lead)
        top = sum(o - 1 for o in self.orders)
        by_degree: dict[int, list[tuple[Exponents, Coeff]]] = {}
        for exps, coeff in self._coeffs.items():
            degree = sum(exps)
            if degree:
                by_degree.setdefault(degree, []).append((exps, coeff))
        degrees = sorted(by_degree)
        reach = max(degrees, default=1)
        parts: list[dict[Exponents, Coeff]] = [{(0, 0, 0): start}]
        result = {(0, 0, 0): start}
        for d in range(1, top + 1):
            if not any(parts[-reach:]):
                break
            part: dict[Exponents, Coeff] = {}
            for j in degrees:
                if j > d:
                    break
                earlier = parts[d - j]
                if not earlier:
                    continue
                w = weight(d, j)
                if w:
                    self._add_products(part, self._limited(by_degree[j], w), earlier.items())
            divided = _divided(part, lead * d)
            result.update(divided)
            parts.append(divided)
        return _wrapped(self.orders, result)

    def int_pow(self, exponent: int) -> "TruncSeries":
        """Integer power; negative exponents invert the truncated series.

        With a nonzero constant term c, R = self^a satisfies
        self E(R) = a E(self) R for the Euler operator E of ``exp``, so

            c d R_d = sum_{j=1..d} ((a + 1) j - d) S_j R_{d-j},   R_0 = c^a,

        for every integer a.  Inversion needs a nonzero constant term; a
        constant term other than 1 or -1 still inverts exactly over the
        rationals but is usually a sign of a misderived formula, so it
        warns.  With a zero constant term, a power a >= 0 is a repeated
        product, which stops once it is zero.
        """
        if not isinstance(exponent, int):
            raise TypeError(f"exponent must be int, got {exponent!r}")
        c0 = self.constant_term()
        if c0 == 0:
            if exponent < 0:
                raise SeriesDomainError("cannot invert a series with zero constant term")
            out = TruncSeries.const(1, dict(zip(VARIABLES, self.orders)))
            for _ in range(exponent):
                if not out:
                    break
                out = out * self
            return out
        if exponent < 0 and c0 not in (1, -1):
            warnings.warn(
                f"inverting a series with constant term {c0}",
                NonUnitWarning,
                stacklevel=2,
            )
        return self._degree_recurrence(c0**exponent, c0, lambda d, j: (exponent + 1) * j - d)

    def exp(self) -> "TruncSeries":
        """Exponential; requires zero constant term.

        With G = self and F = exp(G), write G_j and F_d for the parts of
        total degree j and d.  The Euler operator E, the sum of x dx over
        the variables, multiplies degree-d parts by d and is a
        derivation, so E(F) = E(G) F gives the recurrence

            d F_d = sum_{j=1..d} j G_j F_{d-j},   F_0 = 1.
        """
        if (0, 0, 0) in self._coeffs:
            raise SeriesDomainError(
                f"exp needs zero constant term, got {self.constant_term()}"
            )
        return self._degree_recurrence(1, 1, lambda d, j: j)
