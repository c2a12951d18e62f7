"""Truncated power series in the fixed variable set Q, u, v.

Coefficients are exact rationals.  Every series carries one truncation
order per variable; exponents greater than or equal to the order are
discarded, so an order of 1 means the variable never appears.  Binary
operations insist on identical orders rather than silently extending
or truncating either side.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from fractions import Fraction

VARIABLES = ("Q", "u", "v")

Exponents = tuple[int, int, int]


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


class TruncSeries:
    """A truncated series with Fraction coefficients.

    Instances are immutable.  ``orders`` maps variable name to
    truncation order; unnamed variables get order 1.
    """

    __slots__ = ("orders", "_coeffs")

    def __init__(
        self,
        orders: Mapping[str, int],
        coeffs: Mapping[Exponents, Fraction | int] | None = None,
    ):
        object.__setattr__(self, "orders", _normalize_orders(orders))
        store: dict[Exponents, Fraction] = {}
        for exps, value in (coeffs or {}).items():
            if len(exps) != 3 or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps!r}")
            if any(e >= o for e, o in zip(exps, self.orders)):
                raise ValueError(
                    f"exponents {exps} exceed truncation orders {self.orders}"
                )
            value = Fraction(value)
            if value:
                store[tuple(exps)] = store.get(tuple(exps), Fraction(0)) + value
        object.__setattr__(self, "_coeffs", {e: c for e, c in store.items() if c})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TruncSeries is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, orders: Mapping[str, int]) -> "TruncSeries":
        return cls(orders)

    @classmethod
    def const(cls, value: Fraction | int, orders: Mapping[str, int]) -> "TruncSeries":
        return cls(orders, {(0, 0, 0): Fraction(value)})

    @classmethod
    def variable(cls, name: str, orders: Mapping[str, int]) -> "TruncSeries":
        if name not in VARIABLES:
            raise ValueError(f"unknown variable {name!r}; allowed: {VARIABLES}")
        if orders.get(name, 1) == 1:
            return cls(orders)  # x = 0 modulo x^1
        exps = tuple(1 if n == name else 0 for n in VARIABLES)
        return cls(orders, {exps: Fraction(1)})

    # -- inspection ---------------------------------------------------

    def coeff(self, **exponents: int) -> Fraction:
        """Coefficient of the monomial with the named exponents.

        Unnamed variables default to exponent 0.  Asking past a
        truncation order is an error: that coefficient was discarded.
        """
        unknown = set(exponents) - set(VARIABLES)
        if unknown:
            raise ValueError(f"unknown series variables {sorted(unknown)}")
        exps = tuple(exponents.get(n, 0) for n in VARIABLES)
        for name, e, o in zip(VARIABLES, exps, self.orders):
            if e < 0:
                raise ValueError(f"negative exponent for {name}")
            if e >= o:
                raise ValueError(
                    f"coefficient of {name}^{e} lies beyond truncation order {o}"
                )
        return self._coeffs.get(exps, Fraction(0))

    def terms(self) -> list[tuple[Exponents, Fraction]]:
        """Nonzero terms sorted lexicographically by exponents."""
        return sorted(self._coeffs.items())

    def constant_term(self) -> Fraction:
        return self._coeffs.get((0, 0, 0), Fraction(0))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.orders == other.orders and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self.orders, frozenset(self._coeffs.items())))

    def _monomial_str(self, exps: Exponents) -> str:
        parts = [f"{n}^{e}" for n, e in zip(VARIABLES, exps) if e]
        return " ".join(parts)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        pieces = []
        for exps, coeff in self.terms():
            mono = self._monomial_str(exps)
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
                {"monomial": self._monomial_str(exps) or "1", "coeff": str(coeff)}
                for exps, coeff in self.terms()
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
        if isinstance(other, (int, Fraction)):
            return TruncSeries.const(other, dict(zip(VARIABLES, self.orders)))
        return None

    def __add__(self, other: object) -> "TruncSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self._coeffs)
        for exps, coeff in rhs._coeffs.items():
            out[exps] = out.get(exps, Fraction(0)) + coeff
        return self._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "TruncSeries":
        return self._raw({e: -c for e, c in self._coeffs.items()})

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
        orders = self.orders
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in rhs._coeffs.items():
                exps = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                if any(e >= o for e, o in zip(exps, orders)):
                    continue
                out[exps] = out.get(exps, Fraction(0)) + c1 * c2
        return self._raw(out)

    __rmul__ = __mul__

    def _raw(self, coeffs: dict[Exponents, Fraction]) -> "TruncSeries":
        # internal constructor bypassing per-term validation
        result = object.__new__(TruncSeries)
        object.__setattr__(result, "orders", self.orders)
        object.__setattr__(result, "_coeffs", {e: c for e, c in coeffs.items() if c})
        return result

    def _total_degree_bound(self) -> int:
        # a series with zero constant term nilpotent: every monomial has
        # total degree >= 1, and total degree is capped by the sum below
        return sum(o - 1 for o in self.orders)

    def int_pow(self, exponent: int) -> "TruncSeries":
        """Integer power; negative exponents invert the truncated series.

        Inversion needs a nonzero constant term.  A constant term other
        than 1 or -1 still inverts exactly over the rationals but is
        usually a sign of a misderived formula, so it warns.
        """
        if not isinstance(exponent, int):
            raise TypeError(f"exponent must be int, got {exponent!r}")
        one = TruncSeries.const(1, dict(zip(VARIABLES, self.orders)))
        if exponent == 0:
            return one
        if exponent < 0:
            c0 = self.constant_term()
            if c0 == 0:
                raise SeriesDomainError(
                    "cannot invert a series with zero constant term"
                )
            if c0 not in (1, -1):
                warnings.warn(
                    f"inverting a series with constant term {c0}",
                    NonUnitWarning,
                    stacklevel=2,
                )
            # geometric series in x = 1 - self/c0, which is nilpotent
            x = one - self * Fraction(1, c0)
            geom = one
            power = one
            for _ in range(x._total_degree_bound()):
                power = power * x
                if not power:
                    break
                geom = geom + power
            base = geom * Fraction(1, c0)
            exponent = -exponent
        else:
            base = self
        out = one
        while exponent:
            if exponent & 1:
                out = out * base
            base = base * base
            exponent >>= 1
        return out

    def exp(self) -> "TruncSeries":
        """Exponential; requires zero constant term.

        With G = self and F = exp(G), write G_j and F_d for the parts of
        total degree j and d.  The Euler operator (sum of x dx over the
        variables) multiplies degree-d parts by d and is a derivation,
        so E(F) = E(G) F gives the recurrence

            d F_d = sum_{j=1..d} j G_j F_{d-j},   F_0 = 1,

        computed here on coefficient dicts.  Truncation is by a monomial
        ideal, which the Euler operator preserves, so dropping every
        exponent past its order at each step is exact.
        """
        if self.constant_term() != 0:
            raise SeriesDomainError(
                f"exp needs zero constant term, got {self.constant_term()}"
            )
        orders = self.orders
        top = self._total_degree_bound()
        # j G_j for every degree j, as (exponents, coefficient) pairs
        weighted: list[list[tuple[Exponents, Fraction]]] = [[] for _ in range(top + 1)]
        for exps, coeff in self._coeffs.items():
            degree = sum(exps)
            weighted[degree].append((exps, degree * coeff))
        parts: list[dict[Exponents, Fraction]] = [{(0, 0, 0): Fraction(1)}]
        for d in range(1, top + 1):
            part: dict[Exponents, Fraction] = {}
            for j in range(1, d + 1):
                for e1, c1 in weighted[j]:
                    for e2, c2 in parts[d - j].items():
                        exps = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                        if (
                            exps[0] >= orders[0]
                            or exps[1] >= orders[1]
                            or exps[2] >= orders[2]
                        ):
                            continue
                        part[exps] = part.get(exps, 0) + c1 * c2
            parts.append({e: c / d for e, c in part.items() if c})
        return self._raw({e: c for part in parts for e, c in part.items()})
