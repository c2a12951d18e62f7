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

import math
from collections.abc import Callable, Mapping, Sequence
from typing import NamedTuple

from .graded import GradedDim, lambda_scalar, s_scalar, sym_powers, wedge_powers

# Not called here: the benchmark harness's tracer test resolves sym_power
# through this module.
from .graded import sym_power  # noqa: F401
from .series import TruncSeries

class MissingTableError(KeyError):
    """A formula variant was asked to run without one of its inputs."""


class Powers:
    """The powers of four ``w_hom`` tables up to n = ``top``, packed as ints.

    ``hom_ef`` and ``coh_o`` give S^0..S^top, ``coh_e_dual`` and
    ``coh_f`` give W^0..W^top, each from one pass over its table.  Every
    power is a Poincare polynomial with non-negative coefficients, and a
    tensor product multiplies Poincare polynomials with no sign, so a
    power is packed as the one int sum m_d 2^(w (d - low)), with low the
    lowest degree in its list (never positive: S^0 = W^0 is the unit),
    and a tensor product is one int multiply.

    The width w is the bit length of a bound on any coefficient of any
    cell, so no coefficient carries into its neighbour and the packing
    is exact.  A coefficient of a cell is at most the cell's total
    dimension, at most sum_i tot(A_i) tot(B_e-i) tot(C_f-i) tot(D_n+i-e-f)
    over the four lists A, B, C, D.  Each of the four indices takes a
    different value for every i, so for each list X that sum is at most
    the sum of tot over X times the largest tot of each other list; w
    comes from the least of these four bounds.
    """

    __slots__ = ("top", "width", "low", "_lists")

    def __init__(
        self,
        top: int,
        hom_ef: GradedDim,
        coh_e_dual: GradedDim,
        coh_f: GradedDim,
        coh_o: GradedDim,
    ):
        lists = (
            sym_powers(top, hom_ef),
            wedge_powers(top, coh_e_dual),
            wedge_powers(top, coh_f),
            sym_powers(top, coh_o),
        )
        self.top = top
        # a negative top gives empty lists, which no cell reads
        totals = [[p.total_dim() for p in powers] for powers in lists]
        largest = [max(t, default=0) for t in totals]
        bound = min(
            sum(totals[x]) * math.prod(largest[:x] + largest[x + 1:]) for x in range(4)
        )
        self.width = width = bound.bit_length()
        lows = [min((d for p in powers for d in p), default=0) for powers in lists]
        self.low = sum(lows)
        self._lists = tuple(
            [sum(m << width * (d - low) for d, m in p.items()) for p in powers]
            for powers, low in zip(lists, lows)
        )

    def unpack(self, packed: int) -> GradedDim:
        """The graded space of a packed sum of four-way products."""
        width = self.width
        mask = (1 << width) - 1
        degree = self.low
        dims = {}
        while packed:
            coeff = packed & mask
            if coeff:
                dims[degree] = coeff
            packed >>= width
            degree += 1
        # every value is a positive int: no check to repeat
        return GradedDim.wrap(dims)


def w_hom(powers: Powers, n: int, e: int, f: int) -> GradedDim:
    """Graded Hom-space between exterior powers of tautological sheaves.

    Direct sum over i from max(0, e+f-n) to min(e, f) of

        S^i(hom_ef) (x) W^(e-i)(coh_e_dual) (x) W^(f-i)(coh_f)
            (x) S^(n+i-e-f)(coh_o)

    with S and W the super symmetric and exterior powers, each summand
    one product of the four packed ``powers``.  An empty range yields
    the zero space.
    ValueError for n < 1, e or f outside 0..n, or n above the powers' top.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0 <= e <= n or not 0 <= f <= n:
        raise ValueError(f"need 0 <= e, f <= n, got n={n}, e={e}, f={f}")
    if n > powers.top:
        raise ValueError(f"n={n} is above the top n={powers.top} these powers reach")
    sym_hom, wedge_source, wedge_target, sym_o = powers._lists
    total = 0
    for i in range(max(0, e + f - n), min(e, f) + 1):
        total += sym_hom[i] * wedge_source[e - i] * wedge_target[f - i] * sym_o[n - e - f + i]
    return powers.unpack(total)


def w_hom_cells(
    n_top: int,
    hom_ef: GradedDim,
    coh_e_dual: GradedDim,
    coh_f: GradedDim,
    coh_o: GradedDim,
) -> Callable[[int, int, int], GradedDim]:
    """The ``w_hom`` cells (n, e, f) of four tables, n = 1..n_top.

    ``hom_ef`` is the graded Hom-space between the two inducing objects,
    ``coh_e_dual`` the cohomology of the dual of the source, ``coh_f``
    that of the target and ``coh_o`` that of the structure sheaf.
    Packs their powers up to n_top once (``Powers``) and returns the
    function that hands them to ``w_hom`` at a cell.
    """
    powers = Powers(n_top, hom_ef, coh_e_dual, coh_f, coh_o)

    def cell(n: int, e: int, f: int) -> GradedDim:
        return w_hom(powers, n, e, f)

    return cell


#: variant -> (e, f, source, target).  Every variant is the cell (e, f)
#: of Hom*(W^e source^[n], W^f target^[n]): e and f are fixed or the wedge
#: index "k" or "l", source and target are the bundle letters E, F, K, L
#: or None, which stands for the structure sheaf O.
_VARIANTS: dict[str, tuple[int | str, int | str, str | None, str | None]] = {
    "cohF": (0, 1, None, "F"),
    "cohEvee": (1, 0, "E", None),
    "ExtEF": (1, 1, "E", "F"),
    "cohwedge": (0, "k", None, "L"),
    "ExtEwedge": (1, "k", "E", "L"),
    "ExtwedgeF": ("k", 1, "L", "F"),
    "Extwedgewedge": ("k", "l", "K", "L"),
}

VARIANTS = tuple(_VARIANTS)

#: the (source, target) of a table Hom*(source, target); None stands for O
Slot = tuple[str | None, str | None]


def variant_signature(variant: str) -> tuple[int | str, int | str, str | None, str | None]:
    """The (e, f, source, target) of a variant; None stands for O."""
    if variant not in _VARIANTS:
        raise ValueError(f"unknown formula variant {variant!r}; choose from {VARIANTS}")
    return _VARIANTS[variant]


def variant_slots(variant: str) -> tuple[Slot, Slot, Slot, Slot]:
    """The four tables of a variant in ``w_hom_cells``' order:
    Hom*(s, t), Hom*(s, O), Hom*(O, t) and Hom*(O, O)."""
    _, _, source, target = variant_signature(variant)
    return (source, target), (source, None), (None, target), (None, None)


def role_name(source: str | None, target: str | None) -> str:
    """The name of the table Hom*(source, target), None standing for O:
    ``coh_o``, ``coh_<t>``, ``coh_<s>_dual`` or ``hom_<st>``."""
    if source is None:
        return f"coh_{(target or 'O').lower()}"
    if target is None:
        return f"coh_{source.lower()}_dual"
    return f"hom_{source.lower()}{target.lower()}"


def wedge_indices(variant: str, k: int | None, l: int | None) -> tuple[int | None, int | None]:
    """The exterior power indices (e, f) of a variant at wedge indices k, l.

    A fixed index stays as it is; the placeholder "k" or "l" takes the
    value of k or l, None included.
    """
    e_spec, f_spec, _, _ = variant_signature(variant)
    indices = {"k": k, "l": l}
    return indices.get(e_spec, e_spec), indices.get(f_spec, f_spec)


def taut_formula(
    variant: str,
    n: int,
    k: int = 0,
    l: int = 0,
    tables: Mapping[str, GradedDim] = (),
) -> GradedDim:
    """One of the seven named graded Hom formulas.

    ``tables`` holds each table under its ``role_name``.  Implemented
    purely as a substitution into ``w_hom`` so the variants cannot drift
    apart from it.
    """
    slots = []
    for source, target in variant_slots(variant):
        role = role_name(source, target)
        if role not in tables:
            raise MissingTableError(
                f"variant {variant!r} needs table {role!r}, "
                f"Hom*({source or 'O'}, {target or 'O'})"
            )
        slots.append(tables[role])
    return w_hom_cells(n, *slots)(n, *wedge_indices(variant, k, l))


def negative_index_suppressed(variant: str, n: int, k: int = 0, l: int = 0) -> bool:
    """Whether the variant's expanded form has a vanishing S^(-1) term.

    The single-wedge Ext formulas (indices 1 and k) are displayed with an
    S^(n-k-1) factor; at k = n that index is -1 and the term is dropped
    by the zero convention.  Reports carry a flag whenever this fires.
    """
    e_spec, f_spec, _, _ = variant_signature(variant)
    return {e_spec, f_spec} == {1, "k"} and k == n


# -- Euler characteristic of Hom between two wedge powers ---------------


def bichar_cells(
    n_top: int, chi_kl: int, chi_k_dual: int, chi_l: int, chi_o: int
) -> Callable[[int, int, int], int]:
    """The Euler pairings (n, k, l) of two wedge powers of tautological
    line bundles, n = 0..n_top.

    Sum over i from max(0, k+l-n) to min(k, l) of
    s^i(chi_kl) * lambda^(k-i)(chi_k_dual) * lambda^(l-i)(chi_l)
    * s^(n+i-k-l)(chi_o).  Lists the four scalar operations up to n_top
    once and returns the function that sums one cell from them.
    ValueError for n < 0, k or l outside 0..n, or n above n_top.
    """
    indices = range(n_top + 1)
    sym_kl = [s_scalar(i, chi_kl) for i in indices]
    wedge_k_dual = [lambda_scalar(i, chi_k_dual) for i in indices]
    wedge_l = [lambda_scalar(i, chi_l) for i in indices]
    sym_o = [s_scalar(i, chi_o) for i in indices]

    def cell(n: int, k: int, l: int) -> int:
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        if not 0 <= k <= n or not 0 <= l <= n:
            raise ValueError(f"need 0 <= k, l <= n, got n={n}, k={k}, l={l}")
        if n > n_top:
            raise ValueError(f"n={n} is above the top n={n_top} these lists reach")
        total = 0
        for i in range(max(0, k + l - n), min(k, l) + 1):
            total += sym_kl[i] * wedge_k_dual[k - i] * wedge_l[l - i] * sym_o[n + i - k - l]
        return total

    return cell


def bichar_closed(
    n: int, k: int, l: int, chi_kl: int, chi_k_dual: int, chi_l: int, chi_o: int
) -> int:
    """Euler pairing of two wedge powers of tautological line bundles:
    ``bichar_cells`` at n_top = n."""
    return bichar_cells(n, chi_kl, chi_k_dual, chi_l, chi_o)(n, k, l)


def _bichar_orders(
    n_max: int, k_max: int | None = None, l_max: int | None = None
) -> dict[str, int]:
    # the orders of Q, u and v; k_max and l_max default to n_max
    k_max = n_max if k_max is None else k_max
    l_max = n_max if l_max is None else l_max
    for name, value in (("n_max", n_max), ("k_max", k_max), ("l_max", l_max)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    return {"Q": n_max + 1, "u": l_max + 1, "v": k_max + 1}


def bichar_series(
    chi_kl: int,
    chi_k_dual: int,
    chi_l: int,
    chi_o: int,
    n_max: int,
    k_max: int | None = None,
    l_max: int | None = None,
) -> TruncSeries:
    """Generating function of the wedge-vs-wedge Euler pairings.

    exp of sum over r >= 1 of
    [chi_kl (vuQ)^r - chi_k_dual (vQ)^r - chi_l (uQ)^r + chi_o Q^r] / r,
    truncated past Q^n_max, v^k_max and u^l_max (k_max and l_max default
    to n_max).  Up to the sign (-1)^(k+l), the coefficient of v^k u^l Q^n
    is bichar_closed at (n, k, l).  Truncation is by a monomial ideal and
    the expansion only adds exponents, so lower orders of u and v leave
    every coefficient they keep unchanged.

    The argument is a sum over four geometric rays, vuQ, vQ, uQ and Q,
    so ``TruncSeries.ray_exp`` expands it.  No step forms the product
    form of ``bichar_product``, so the two stay independent checks of
    each other.
    """
    # negation would turn a bool chi into an int weight, which ray_exp accepts
    if isinstance(chi_k_dual, bool) or isinstance(chi_l, bool):
        raise TypeError("a chi must be an int or a Fraction, got a bool")
    # the rays vuQ, vQ, uQ and Q as (u step, v step, weight)
    rays = ((1, 1, chi_kl), (0, 1, -chi_k_dual), (1, 0, -chi_l), (0, 0, chi_o))
    return TruncSeries.ray_exp(_bichar_orders(n_max, k_max, l_max), rays)


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
    coeff = series.coeff_at(n, l, k)
    if type(coeff) is not int:
        raise ValueError(f"non-integer coefficient {coeff} at Q^{n} u^{l} v^{k}")
    return -coeff if (k + l) % 2 else coeff


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
    coeff = series.coeff_at(n, k)
    if type(coeff) is not int:
        raise ValueError(f"non-integer coefficient {coeff} at Q^{n} u^{k}")
    return coeff


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
