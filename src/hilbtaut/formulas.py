"""Closed formulas for invariants of tautological sheaves.

The central object is ``w_hom``: the graded Hom-space between exterior
powers of tautological bundles on the Hilbert scheme of n points of a
surface, expressed through the cohomology of the inducing objects on
the surface itself.  The seven named formula variants are generated
from it by substitution; the bicharacteristic and tensor-product Euler
formulas below are independent closed forms that the verification
suites compare against it and against the brute-force oracles.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .graded import (
    ZERO,
    GradedDim,
    lambda_scalar,
    s_scalar,
    sym_powers,
    tensor_all,
    wedge_powers,
)

# Not called here: the benchmark harness's tracer test resolves sym_power
# through this module.
from .graded import sym_power  # noqa: F401
from .series import TruncSeries

class MissingTableError(KeyError):
    """A formula variant was asked to run without one of its inputs."""


@dataclass(frozen=True)
class WHomInput:
    """The four cohomology tables entering the graded Hom formula.

    ``e`` and ``f`` are the exterior power indices on the source and
    target side.  ``hom_ef`` is the graded Hom-space between the two
    inducing objects, ``coh_e_dual`` the cohomology of the dual of the
    source, ``coh_f`` the cohomology of the target, and ``coh_o`` the
    cohomology of the structure sheaf.
    """

    n: int
    e: int
    f: int
    hom_ef: GradedDim
    coh_e_dual: GradedDim
    coh_f: GradedDim
    coh_o: GradedDim

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if not 0 <= self.e <= self.n or not 0 <= self.f <= self.n:
            raise ValueError(
                f"need 0 <= e, f <= n, got n={self.n}, e={self.e}, f={self.f}"
            )


#: S^0..S^top(hom_ef), W^0..W^top(coh_e_dual), W^0..W^top(coh_f) and
#: S^0..S^top(coh_o) of one set of ``w_hom`` tables
Powers = tuple[list[GradedDim], list[GradedDim], list[GradedDim], list[GradedDim]]


def _powers(
    top: int, hom_ef: GradedDim, coh_e_dual: GradedDim, coh_f: GradedDim, coh_o: GradedDim
) -> Powers:
    return (
        sym_powers(top, hom_ef),
        wedge_powers(top, coh_e_dual),
        wedge_powers(top, coh_f),
        sym_powers(top, coh_o),
    )


def w_hom(inp: WHomInput, powers: Powers | None = None) -> GradedDim:
    """Graded Hom-space between exterior powers of tautological sheaves.

    Direct sum over i from max(0, e+f-n) to min(e, f) of

        S^i(hom_ef) (x) W^(e-i)(coh_e_dual) (x) W^(f-i)(coh_f)
            (x) S^(n+i-e-f)(coh_o)

    with S and W the super symmetric and exterior powers.  An empty
    range yields the zero space.

    ``powers`` are the input's own tables' powers up to some top >= n,
    which ``w_hom_cells`` builds once for every cell of a job; without
    them this cell builds them up to n.  ValueError if n is above the top.
    """
    if powers is None:
        powers = _powers(inp.n, inp.hom_ef, inp.coh_e_dual, inp.coh_f, inp.coh_o)
    sym_hom, wedge_source, wedge_target, sym_o = powers
    n, e, f = inp.n, inp.e, inp.f
    if n >= len(sym_o):
        raise ValueError(f"n={n} is above the top n={len(sym_o) - 1} these powers reach")
    out = ZERO
    for i in range(max(0, e + f - n), min(e, f) + 1):
        out = out + tensor_all(
            [sym_hom[i], wedge_source[e - i], wedge_target[f - i], sym_o[n + i - e - f]]
        )
    return out


def w_hom_cells(
    n_top: int,
    hom_ef: GradedDim,
    coh_e_dual: GradedDim,
    coh_f: GradedDim,
    coh_o: GradedDim,
) -> Callable[[int, int, int], GradedDim]:
    """The ``w_hom`` cells (n, e, f) of four tables, n = 1..n_top.

    Builds S^0..S^n_top of ``hom_ef`` and ``coh_o`` and W^0..W^n_top of
    ``coh_e_dual`` and ``coh_f`` in one pass per table, and returns the
    function that hands them to ``w_hom`` at a cell.  Like ``w_hom``, it
    raises ValueError for n < 1, n > n_top, or e or f outside 0..n.
    """
    tables = (hom_ef, coh_e_dual, coh_f, coh_o)
    powers = _powers(n_top, *tables)

    def cell(n: int, e: int, f: int) -> GradedDim:
        return w_hom(WHomInput(n, e, f, *tables), powers)

    return cell


#: table role -> (source, target) bundle letters.  Every input table is
#: the graded Hom-space Hom*(source, target) on the surface, a missing
#: letter standing for the structure sheaf O: H*(F) = Hom*(O, F) and
#: H*(E^dual) = Hom*(E, O).
TABLE_ROLES: dict[str, tuple[str | None, str | None]] = {
    "hom_ef": ("E", "F"),
    "coh_e_dual": ("E", None),
    "coh_f": (None, "F"),
    "coh_o": (None, None),
    "coh_l": (None, "L"),
    "coh_l_dual": ("L", None),
    "coh_k_dual": ("K", None),
    "hom_el": ("E", "L"),
    "hom_lf": ("L", "F"),
    "hom_kl": ("K", "L"),
}


def role_bundles(role: str, names: Mapping[str, str]) -> tuple[str | None, str | None]:
    """Source and target bundle names of a table role; None stands for O.

    ``names`` maps the bundle letters E, F, K, L to profile bundle names.
    """
    if role not in TABLE_ROLES:
        raise ValueError(f"unknown table role {role!r}")
    src, tgt = TABLE_ROLES[role]
    return (names[src] if src else None, names[tgt] if tgt else None)


# Substitution table: variant -> (e, f, slot keys) where e/f may be the
# wedge indices k and l.  Slots are (hom_ef, coh_e_dual, coh_f, coh_o)
# of WHomInput in that order.  Duplicate keys encode identities like
# Hom*(O, F) = H*(F) and H*(O^dual) = H*(O); the variants for a single
# wedge power set the source (resp. target) to the structure sheaf.
_SUBSTITUTIONS: dict[str, tuple[object, object, tuple[str, str, str, str]]] = {
    "cohF": (0, 1, ("coh_f", "coh_o", "coh_f", "coh_o")),
    "cohEvee": (1, 0, ("coh_e_dual", "coh_e_dual", "coh_o", "coh_o")),
    "ExtEF": (1, 1, ("hom_ef", "coh_e_dual", "coh_f", "coh_o")),
    "cohwedge": (0, "k", ("coh_l", "coh_o", "coh_l", "coh_o")),
    "ExtEwedge": (1, "k", ("hom_el", "coh_e_dual", "coh_l", "coh_o")),
    "ExtwedgeF": ("k", 1, ("hom_lf", "coh_l_dual", "coh_f", "coh_o")),
    "Extwedgewedge": ("k", "l", ("hom_kl", "coh_k_dual", "coh_l", "coh_o")),
}

VARIANTS = tuple(_SUBSTITUTIONS)


def required_tables(variant: str) -> tuple[str, ...]:
    """The table keys a variant needs, in slot order without repeats."""
    return tuple(dict.fromkeys(variant_signature(variant)[2]))


def variant_signature(
    variant: str,
) -> tuple[int | str, int | str, tuple[str, str, str, str]]:
    """Wedge indices and slot roles of a variant.

    Returns (e, f, roles) where e and f are either fixed integers or the
    placeholder strings "k"/"l", and roles names the four tables that
    land in the WHomInput slots.
    """
    if variant not in _SUBSTITUTIONS:
        raise ValueError(f"unknown formula variant {variant!r}; choose from {VARIANTS}")
    return _SUBSTITUTIONS[variant]


def taut_substitution(
    variant: str,
    n: int,
    k: int = 0,
    l: int = 0,
    tables: Mapping[str, GradedDim] = (),
) -> WHomInput:
    """Resolve a formula variant to the underlying w_hom input."""
    e_spec, f_spec, keys = variant_signature(variant)
    indices = {"k": k, "l": l}
    e = indices[e_spec] if isinstance(e_spec, str) else e_spec
    f = indices[f_spec] if isinstance(f_spec, str) else f_spec
    tables = dict(tables or {})
    slots = []
    for key in keys:
        if key not in tables:
            src, tgt = TABLE_ROLES[key]
            raise MissingTableError(
                f"variant {variant!r} needs table {key!r}, Hom*({src or 'O'}, {tgt or 'O'})"
            )
        slots.append(tables[key])
    return WHomInput(n=n, e=e, f=f, hom_ef=slots[0], coh_e_dual=slots[1],
                     coh_f=slots[2], coh_o=slots[3])


def taut_formula(
    variant: str,
    n: int,
    k: int = 0,
    l: int = 0,
    tables: Mapping[str, GradedDim] = (),
) -> GradedDim:
    """One of the seven named graded Hom formulas.

    Implemented purely as a substitution into ``w_hom`` so the variants
    cannot drift apart from it.
    """
    return w_hom(taut_substitution(variant, n, k, l, tables))


def negative_index_suppressed(variant: str, n: int, k: int = 0, l: int = 0) -> bool:
    """Whether the variant's expanded form has a vanishing S^(-1) term.

    The single-wedge Ext formulas are displayed with an S^(n-k-1)
    factor; at k = n that index is -1 and the term is dropped by the
    zero convention.  Reports carry a flag whenever this fires.
    """
    if variant in ("ExtEwedge", "ExtwedgeF"):
        return k == n
    return False


# -- Euler characteristic of Hom between two wedge powers ---------------


@dataclass(frozen=True)
class BicharInput:
    """Euler characteristics feeding the wedge-vs-wedge counting formula."""

    n: int
    k: int
    l: int
    chi_kl: int
    chi_k_dual: int
    chi_l: int
    chi_o: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"n must be non-negative, got {self.n}")
        if not 0 <= self.k <= self.n or not 0 <= self.l <= self.n:
            raise ValueError(
                f"need 0 <= k, l <= n, got n={self.n}, k={self.k}, l={self.l}"
            )


def bichar_closed(inp: BicharInput) -> int:
    """Euler pairing of two wedge powers of tautological line bundles.

    Sum over i from max(0, k+l-n) to min(k, l) of
    s^i(chi_kl) * lambda^(k-i)(chi_k_dual) * lambda^(l-i)(chi_l)
    * s^(n+i-k-l)(chi_o).
    """
    total = 0
    for i in range(max(0, inp.k + inp.l - inp.n), min(inp.k, inp.l) + 1):
        total += (
            s_scalar(i, inp.chi_kl)
            * lambda_scalar(inp.k - i, inp.chi_k_dual)
            * lambda_scalar(inp.l - i, inp.chi_l)
            * s_scalar(inp.n + i - inp.k - inp.l, inp.chi_o)
        )
    return total


def _bichar_orders(n_max: int) -> dict[str, int]:
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    return {"Q": n_max + 1, "u": n_max + 1, "v": n_max + 1}


def bichar_series(
    chi_kl: int, chi_k_dual: int, chi_l: int, chi_o: int, n_max: int
) -> TruncSeries:
    """Generating function of the wedge-vs-wedge Euler pairings.

    exp of sum over r >= 1 of
    [chi_kl (vuQ)^r - chi_k_dual (vQ)^r - chi_l (uQ)^r + chi_o Q^r] / r,
    truncated past Q^n_max.  Up to the sign (-1)^(k+l), the coefficient
    of v^k u^l Q^n is bichar_closed at (n, k, l).

    The argument's coefficients are written down monomial by monomial
    (exponents ordered Q, u, v) and ``TruncSeries.exp`` expands it by
    the recurrence d F_d = sum_j j G_j F_{d-j} on total-degree parts.
    Neither step uses the product form of ``bichar_product``, so the two
    stay independent checks of each other.
    """
    coeffs: dict[tuple[int, int, int], Fraction] = {}
    for r in range(1, n_max + 1):
        for exps, chi in (
            ((r, r, r), chi_kl),
            ((r, 0, r), -chi_k_dual),
            ((r, r, 0), -chi_l),
            ((r, 0, 0), chi_o),
        ):
            coeffs[exps] = Fraction(chi, r)
    return TruncSeries(_bichar_orders(n_max), coeffs).exp()


def bichar_product(
    chi_kl: int, chi_k_dual: int, chi_l: int, chi_o: int, n_max: int
) -> TruncSeries:
    """Product form of ``bichar_series``:

    (1-vuQ)^(-chi_kl) (1-vQ)^(chi_k_dual) (1-uQ)^(chi_l) (1-Q)^(-chi_o).

    Must agree with ``bichar_series`` coefficientwise.
    """
    orders = _bichar_orders(n_max)
    one = TruncSeries.const(1, orders)
    q = TruncSeries.variable("Q", orders)
    u = TruncSeries.variable("u", orders)
    v = TruncSeries.variable("v", orders)
    return (
        (one - v * u * q).int_pow(-chi_kl)
        * (one - v * q).int_pow(chi_k_dual)
        * (one - u * q).int_pow(chi_l)
        * (one - q).int_pow(-chi_o)
    )


def bichar_from_series(series: TruncSeries, n: int, k: int, l: int) -> int:
    """Read one Euler pairing off either generating function."""
    coeff = series.coeff(Q=n, u=l, v=k)
    if coeff.denominator != 1:
        raise ValueError(f"non-integer coefficient {coeff} at Q^{n} u^{l} v^{k}")
    sign = -1 if (k + l) % 2 else 1
    return sign * coeff.numerator


# -- Euler characteristic of a tensor with one wedge power --------------


def _check_tensor_args(n: int, k: int, chi_flp: Sequence[int]) -> None:
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    if len(chi_flp) < k + 1:
        raise ValueError(
            f"chi_flp needs entries for p = 0..{k}, got only {len(chi_flp)}"
        )


def tensor_euler_closed(
    n: int, k: int, chi_flp: Sequence[int], chi_l: int, chi_o: int
) -> int:
    """Euler characteristic of (sheaf tensor k-th wedge) on n points.

    ``chi_flp[p]`` is the Euler characteristic of F tensored with the
    p-th power of the line bundle.  The value is

        s^(n-k-1)(chi_o) * sum_{p=0}^{k} (-1)^p chi_flp[p] lambda^(k-p)(chi_l)
      - s^(n-k)(chi_o) * sum_{p=1}^{k} (-1)^p chi_flp[p] lambda^(k-p)(chi_l)

    with the second sum empty for k = 0.
    """
    _check_tensor_args(n, k, chi_flp)
    first = sum(
        (-1) ** p * chi_flp[p] * lambda_scalar(k - p, chi_l) for p in range(k + 1)
    )
    second = sum(
        (-1) ** p * chi_flp[p] * lambda_scalar(k - p, chi_l) for p in range(1, k + 1)
    )
    return s_scalar(n - k - 1, chi_o) * first - s_scalar(n - k, chi_o) * second


def tensor_euler_terms(
    n: int, k: int, chi_flp: Sequence[int], chi_l: int, chi_o: int
) -> list[tuple[int, list[int]]]:
    """Per-degree Euler numbers of the complex computing the tensor.

    Returns, for each degree p = 0..k, the Euler characteristics of the
    direct summands sitting there.  These are pre-differential numbers:
    the complex carries maps between the degrees, so individual entries
    are not dimensions of anything on the Hilbert scheme — only the
    alternating sum over p is, and it reproduces ``tensor_euler_closed``.
    """
    _check_tensor_args(n, k, chi_flp)
    s_low = s_scalar(n - k - 1, chi_o)
    s_high = s_scalar(n - k, chi_o)
    out: list[tuple[int, list[int]]] = []
    for p in range(k + 1):
        if p == k:
            contributions = [chi_flp[k] * s_low]
        else:
            contributions = [
                chi_flp[p + 1] * lambda_scalar(k - p - 1, chi_l) * s_high,
                chi_flp[p] * lambda_scalar(k - p, chi_l) * s_low,
            ]
        out.append((p, contributions))
    return out


def tensor_euler_series(
    chi_flp: Sequence[int], chi_l: int, chi_o: int, n_max: int, k_max: int
) -> TruncSeries:
    """Generating function with coefficient of u^k Q^n the tensor Euler value.

    (1+uQ)^chi_l / (1-Q)^chi_o times the alternating correction sum
    over p >= 1 of (-1)^(p-1) [chi_flp(p-1) u^(p-1) + chi_flp(p) u^p] Q^p.
    """
    if n_max < 0 or k_max < 0:
        raise ValueError("n_max and k_max must be non-negative")
    if len(chi_flp) < n_max + 1:
        raise ValueError(
            f"chi_flp needs entries for p = 0..{n_max}, got only {len(chi_flp)}"
        )
    orders = {"Q": n_max + 1, "u": k_max + 1}
    one = TruncSeries.const(1, orders)
    q = TruncSeries.variable("Q", orders)
    u = TruncSeries.variable("u", orders)
    prefactor = (one + u * q).int_pow(chi_l) * (one - q).int_pow(-chi_o)
    # the correction's coefficients, monomial by monomial (exponents
    # ordered Q, u, v): (-1)^(p-1) chi_flp(a) at u^a Q^p, a = p-1, p
    correction = {
        (p, a, 0): (-1) ** (p - 1) * chi_flp[a]
        for p in range(1, n_max + 1)
        for a in (p - 1, p)
        if a <= k_max
    }
    return prefactor * TruncSeries(orders, correction)


def tensor_euler_from_series(series: TruncSeries, n: int, k: int) -> int:
    coeff = series.coeff(Q=n, u=k)
    if coeff.denominator != 1:
        raise ValueError(f"non-integer coefficient {coeff} at Q^{n} u^{k}")
    return coeff.numerator


# -- curves and the rank 3 comparison -----------------------------------


def curve_bichar(n: int, chi_ef: int, chi_e_dual: int, chi_f: int, chi_oc: int) -> int:
    """Euler pairing of tautological bundles on n points of a curve.

    chi_ef * sum_{p=0}^{n-1} (-1)^p lambda^(n-1-p)(chi_oc)
    + chi_e_dual * chi_f * sum_{p=0}^{n-2} (-1)^p lambda^(n-2-p)(chi_oc);
    the second sum is empty for n = 1.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    first = sum((-1) ** p * lambda_scalar(n - 1 - p, chi_oc) for p in range(n))
    second = sum((-1) ** p * lambda_scalar(n - 2 - p, chi_oc) for p in range(n - 1))
    return chi_ef * first + chi_e_dual * chi_f * second


def curve_series(
    chi_ef: int, chi_e_dual: int, chi_f: int, chi_oc: int, n_max: int
) -> TruncSeries:
    """Generating function of ``curve_bichar`` in Q, truncated past Q^n_max:

        Q (chi_ef + chi_e_dual chi_f Q) (1+Q)^(chi_oc - 1).

    The alternating sums in ``curve_bichar`` are the coefficients of
    (1+Q)^chi_oc / (1+Q), so the coefficient of Q^n is curve_bichar at n.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be positive, got {n_max}")
    orders = {"Q": n_max + 1}
    q = TruncSeries.variable("Q", orders)
    return q * (chi_ef + chi_e_dual * chi_f * q) * (1 + q).int_pow(chi_oc - 1)


class Rank3Check(NamedTuple):
    """Determinant-bundle Euler value on the Hilbert square vs the naive guess."""

    value: int
    naive: int


def rank3_check(chi_o: int, chi_omega: int) -> Rank3Check:
    """Euler characteristic of det of the tautological rank 6 bundle.

    For a trivial rank 3 bundle on the surface, the determinant of the
    induced bundle on two points has Euler characteristic
    lambda^2(chi_o) - chi_omega.  The naive expectation that det
    commutes with the tautological construction would instead predict
    lambda^2(chi_o).  Both are returned; they differ unless chi_omega
    is zero.
    """
    predicted = lambda_scalar(2, chi_o)
    return Rank3Check(value=predicted - chi_omega, naive=predicted)
