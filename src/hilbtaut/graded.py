"""Graded vector space dimensions and their tensor calculus.

A finite dimensional Z-graded vector space is recorded by its Poincare
polynomial: a finitely supported map from integer degree to dimension.
Degrees may be negative.  All operations below treat odd degrees as odd
in the super sense, so symmetric and exterior powers follow the
Koszul sign rule: the symmetric power of an odd line is truncated and
the exterior power of an odd line is divided.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping


class GradedDim:
    """Immutable finitely supported degree -> dimension map.

    Zero dimensions are dropped on construction, so two equal spaces
    always compare and hash equal.  The empty map is the zero space.
    """

    __slots__ = ("_dims",)

    def __init__(self, dims: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = dims.items() if isinstance(dims, Mapping) else dims
        store: dict[int, int] = {}
        for degree, dim in items:
            if not isinstance(degree, int) or not isinstance(dim, int):
                raise TypeError(f"degrees and dimensions must be int, got {degree!r}: {dim!r}")
            if dim < 0:
                raise ValueError(f"dimension in degree {degree} is negative: {dim}")
            if dim:
                store[degree] = store.get(degree, 0) + dim
        object.__setattr__(self, "_dims", store)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GradedDim is immutable")

    def __getitem__(self, degree: int) -> int:
        return self._dims.get(degree, 0)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._dims))

    def __len__(self) -> int:
        return len(self._dims)

    def __bool__(self) -> bool:
        return bool(self._dims)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedDim):
            return NotImplemented
        return self._dims == other._dims

    def __hash__(self) -> int:
        return hash(frozenset(self._dims.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{d}: {m}" for d, m in self.items())
        return f"GradedDim({{{inner}}})"

    def items(self) -> list[tuple[int, int]]:
        """Sorted (degree, dimension) pairs."""
        return sorted(self._dims.items())

    def total_dim(self) -> int:
        return sum(self._dims.values())

    def euler(self) -> int:
        """Alternating sum of dimensions, sum((-1)^d * dim_d)."""
        return sum(m if d % 2 == 0 else -m for d, m in self._dims.items())

    def __add__(self, other: "GradedDim") -> "GradedDim":
        """Direct sum: dimensions add degreewise."""
        if not isinstance(other, GradedDim):
            return NotImplemented
        out = dict(self._dims)
        for d, m in other._dims.items():
            out[d] = out.get(d, 0) + m
        return GradedDim(out)

    def tensor(self, other: "GradedDim") -> "GradedDim":
        """Tensor product: Poincare polynomials multiply."""
        out: dict[int, int] = {}
        for d1, m1 in self._dims.items():
            for d2, m2 in other._dims.items():
                key = d1 + d2
                out[key] = out.get(key, 0) + m1 * m2
        return GradedDim(out)

    def to_json(self) -> dict[str, int]:
        """JSON-friendly form with string degree keys, sorted."""
        return {str(d): m for d, m in self.items()}

    @classmethod
    def from_json(cls, data: Mapping[str, int]) -> "GradedDim":
        try:
            if any(isinstance(m, bool) for m in data.values()):
                raise TypeError("dimensions must be int, not bool")
            return cls({int(d): m for d, m in data.items()})
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad graded dimension table {data!r}: {exc}") from None


#: the unit for tensor: a single even line in degree 0
UNIT = GradedDim({0: 1})

#: the zero space
ZERO = GradedDim()


def tensor_all(spaces: Iterable[GradedDim]) -> GradedDim:
    out = UNIT
    for space in spaces:
        out = out.tensor(space)
        if not out:
            return ZERO
    return out


def lambda_scalar(k: int, chi: int) -> int:
    """k-th lambda operation on an integer: binomial(chi, k) for any sign.

    Falling factorial chi(chi-1)...(chi-k+1) over k!, which is the
    coefficient of Q^k in (1+Q)^chi.  Negative k gives 0, k = 0 gives 1.
    """
    if k < 0:
        return 0
    num = 1
    for j in range(k):
        num *= chi - j
    quot, rem = divmod(num, math.factorial(k))
    assert rem == 0
    return quot


def s_scalar(k: int, chi: int) -> int:
    """k-th symmetric operation on an integer: rising factorial over k!.

    Equals (-1)^k * lambda_scalar(k, -chi), the coefficient of Q^k in
    (1-Q)^(-chi).  Negative k gives 0, k = 0 gives 1.
    """
    if k < 0:
        return 0
    num = 1
    for j in range(k):
        num *= chi + j
    quot, rem = divmod(num, math.factorial(k))
    assert rem == 0
    return quot


def _power_layers(k: int, space: GradedDim, sym: bool) -> GradedDim:
    # Coefficient of z^k in the product over degrees d of the z-expansion
    # of the d-th layer.  For sym: even layers contribute (1-z t^d)^(-m)
    # and odd layers (1+z t^d)^m; for wedge the roles swap.  Layers are
    # dicts degree -> coefficient, indexed by z-power, truncated past z^k.
    layers: list[dict[int, int] | None] = [None] * (k + 1)
    layers[0] = {0: 1}
    for d, m in space.items():
        bosonic = (d % 2 == 0) == sym
        if bosonic:
            factor = [s_scalar(j, m) for j in range(k + 1)]
        else:
            factor = [math.comb(m, j) for j in range(min(m, k) + 1)]
        new: list[dict[int, int] | None] = [None] * (k + 1)
        for a in range(k + 1):
            base = layers[a]
            if base is None:
                continue
            for b, c in enumerate(factor):
                if a + b > k:
                    break
                if c == 0:
                    continue
                tgt = new[a + b]
                if tgt is None:
                    tgt = {}
                    new[a + b] = tgt
                for deg, coeff in base.items():
                    key = deg + d * b
                    tgt[key] = tgt.get(key, 0) + coeff * c
        layers = new
    top = layers[k]
    return GradedDim(top or {})


def sym_power(k: int, space: GradedDim) -> GradedDim:
    """k-th super-symmetric power of a graded space.

    Negative k gives the zero space, k = 0 the unit.  Compatible with
    Euler characteristics: euler(sym_power(k, V)) == s_scalar(k, euler(V)).
    """
    if k < 0:
        return ZERO
    return _power_layers(k, space, sym=True)


def wedge_power(k: int, space: GradedDim) -> GradedDim:
    """k-th super-exterior power of a graded space.

    Negative k gives the zero space, k = 0 the unit.  Compatible with
    Euler characteristics: euler(wedge_power(k, V)) == lambda_scalar(k, euler(V)).
    """
    if k < 0:
        return ZERO
    return _power_layers(k, space, sym=False)
