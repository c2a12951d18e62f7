"""Published closed forms, pinned against the rows of ``hilbtaut table``.

Each variant is a cell of one master formula, and its inputs come from a
table of (e, f, source, target).  A fault in that table moves the graded
and the Euler route together, so no runtime check of a row sees it.
These tests do: they rebuild each row from the surface tables alone,
with the symmetric and exterior powers of ``graded`` and a local tensor
product, by the formulas the literature proves:

* H*(X^[n], O) = S^n H*(O);
* H*(F^[n]) = H*(F) (x) S^(n-1) H*(O) (Scala 2009);
* H*(Lambda^k L^[n]) = Lambda^k H*(L) (x) S^(n-k) H*(O) (Scala 2009);
* Ext*(E^[n], F^[n]) = Ext*(E, F) (x) S^(n-1) H*(O)
  (+) H*(E^dual) (x) H*(F) (x) S^(n-2) H*(O) (Krug 2014).

No expected value goes through ``w_hom`` or the variant table.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout

import pytest

from hilbtaut.cli import main
from hilbtaut.geometry import load_config, packaged_profile, surface_table
from hilbtaut.graded import ZERO, GradedDim, sym_powers, wedge_powers

#: every row is checked up to this n, past ``oracle.POWER_EXPONENT_BOUND``,
#: which is why the expected powers come from ``graded``, not the oracle
N_TOP = 16
PROFILES = ("k3.json", "p2.json")
BUNDLES = ("O", "H")


def tensor(*spaces: GradedDim) -> GradedDim:
    """Tensor product of graded spaces: Poincare polynomials multiply."""
    dims = {0: 1}
    for space in spaces:
        product: dict[int, int] = {}
        for d1, m1 in dims.items():
            for d2, m2 in space.items():
                product[d1 + d2] = product.get(d1 + d2, 0) + m1 * m2
        dims = product
    return GradedDim(dims)


def power(powers: list[GradedDim], j: int) -> GradedDim:
    """The j-th of a list of powers; a negative power is the zero space."""
    return powers[j] if j >= 0 else ZERO


def table_rows(formula: str, profile: str, *flags: str) -> list[dict]:
    """The JSON rows of one ``table`` run, up to n = N_TOP, in process."""
    argv = ["table", "--formula", formula, "--surface", profile, "--n", f"1..{N_TOP}"]
    with redirect_stdout(io.StringIO()) as out:
        code = main([*argv, *flags, "--format", "json"])
    assert code == 0
    rows = json.loads(out.getvalue())["rows"]
    assert rows
    return rows


def mismatches(rows: list[dict], published) -> list[tuple]:
    """The cells whose graded table differs from ``published(row)``."""
    return [
        (row["n"], row["k"], row["l"])
        for row in rows
        if row["graded"] != published(row).to_json()
    ]


def surface_of(profile: str):
    return load_config(packaged_profile(profile)).surface


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("line", BUNDLES)
def test_hilbert_scheme_cohomology_is_a_symmetric_power(profile, line):
    # the k = 0 cells of cohwedge: Lambda^0 L^[n] is the structure sheaf
    sym_o = sym_powers(N_TOP, surface_table(surface_of(profile), None, None))
    rows = table_rows("cohwedge", profile, "--L", line, "--k", "0")
    assert mismatches(rows, lambda row: sym_o[row["n"]]) == []


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("bundle", BUNDLES)
def test_cohomology_of_a_tautological_bundle(profile, bundle):
    surface = surface_of(profile)
    sym_o = sym_powers(N_TOP, surface_table(surface, None, None))
    h_f = surface_table(surface, None, bundle)
    rows = table_rows("cohF", profile, "--F", bundle)
    assert mismatches(rows, lambda row: tensor(h_f, sym_o[row["n"] - 1])) == []


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("line", BUNDLES)
def test_cohomology_of_a_wedge_power(profile, line):
    surface = surface_of(profile)
    sym_o = sym_powers(N_TOP, surface_table(surface, None, None))
    wedge_l = wedge_powers(N_TOP, surface_table(surface, None, line))

    def published(row):
        n, k = row["n"], row["k"]
        return tensor(wedge_l[k], sym_o[n - k])

    rows = table_rows("cohwedge", profile, "--L", line, "--k", "0..n")
    assert mismatches(rows, published) == []


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("source", BUNDLES)
@pytest.mark.parametrize("target", BUNDLES)
def test_ext_between_tautological_bundles(profile, source, target):
    surface = surface_of(profile)
    sym_o = sym_powers(N_TOP, surface_table(surface, None, None))
    ext_ef = surface_table(surface, source, target)
    h_e_dual = surface_table(surface, source, None)
    h_f = surface_table(surface, None, target)

    def published(row):
        n = row["n"]
        return tensor(ext_ef, sym_o[n - 1]) + tensor(h_e_dual, h_f, power(sym_o, n - 2))

    rows = table_rows("ExtEF", profile, "--E", source, "--F", target)
    assert mismatches(rows, published) == []
