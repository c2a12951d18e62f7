"""Exact invariants of tautological sheaves on Hilbert schemes of points.

Graded Hom-spaces, Euler characteristics and generating functions are
computed in closed form over the integers and cross-checked against
brute-force oracles (group averaging, basis enumeration, truncated
series expansion).
"""

from .formulas import (
    Rank3Check,
    bichar_closed,
    bichar_product,
    bichar_series,
    curve_bichar,
    rank3_check,
    taut_formula,
    tensor_euler_closed,
    tensor_euler_series,
    tensor_euler_terms,
    w_hom,
    w_hom_cells,
)
from .graded import GradedDim, lambda_scalar, s_scalar, sym_power, wedge_power
from .series import TruncSeries

__version__ = "0.1.0"

__all__ = [
    "GradedDim",
    "Rank3Check",
    "TruncSeries",
    "bichar_closed",
    "bichar_product",
    "bichar_series",
    "curve_bichar",
    "lambda_scalar",
    "rank3_check",
    "s_scalar",
    "sym_power",
    "taut_formula",
    "tensor_euler_closed",
    "tensor_euler_series",
    "tensor_euler_terms",
    "w_hom",
    "w_hom_cells",
    "wedge_power",
]
