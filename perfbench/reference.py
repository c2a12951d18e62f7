"""Independent check of every op's output.

Nothing here imports ``hilbtaut``.  Euler numbers come from rank-1
Riemann-Roch on the profile JSON and ``math.comb`` binomials; series
coefficients come from expanding the generating functions' product
forms by hand.  ``check_op`` returns ``None`` for a correct output and a
one-line reason otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction
from pathlib import Path

CSV_HEADER = ["formula_id", "n", "k", "l", "euler", "graded", "cross_checks"]

#: variant -> (source index, target index, the four slot roles); an
#: index is an int or the name of the range flag that supplies it
SUBSTITUTIONS = {
    "cohF": (0, 1, ("coh_f", "coh_o", "coh_f", "coh_o")),
    "cohEvee": (1, 0, ("coh_e_dual", "coh_e_dual", "coh_o", "coh_o")),
    "ExtEF": (1, 1, ("hom_ef", "coh_e_dual", "coh_f", "coh_o")),
    "cohwedge": (0, "k", ("coh_l", "coh_o", "coh_l", "coh_o")),
    "ExtEwedge": (1, "k", ("hom_el", "coh_e_dual", "coh_l", "coh_o")),
    "ExtwedgeF": ("k", 1, ("hom_lf", "coh_l_dual", "coh_f", "coh_o")),
    "Extwedgewedge": ("k", "l", ("hom_kl", "coh_k_dual", "coh_l", "coh_o")),
}

#: role -> (source bundle letter, target bundle letter); the role's
#: lattice class is target minus source, a missing letter meaning O
ROLE_CLASSES = {
    "coh_o": (None, None),
    "coh_f": (None, "F"),
    "coh_l": (None, "L"),
    "coh_e_dual": ("E", None),
    "coh_l_dual": ("L", None),
    "coh_k_dual": ("K", None),
    "hom_ef": ("E", "F"),
    "hom_el": ("E", "L"),
    "hom_lf": ("L", "F"),
    "hom_kl": ("K", "L"),
}


def lam(k: int, chi: int) -> int:
    """Coefficient of Q^k in (1+Q)^chi."""
    if k < 0:
        return 0
    if chi >= 0:
        return math.comb(chi, k)
    return (-1) ** k * math.comb(k - chi - 1, k)


def sym(k: int, chi: int) -> int:
    """Coefficient of Q^k in (1-Q)^(-chi)."""
    return (-1) ** k * lam(k, -chi) if k >= 0 else 0


# -- profiles ------------------------------------------------------------


class Surface:
    def __init__(self, data: dict):
        self.chi_o = data["chi_O"]
        self.gram = data["gram"]
        self.canonical = data["canonical"]
        self.bundles = data.get("bundles", {})
        self.chi_omega = data.get("chi_Omega")

    def vector(self, name: str | None) -> list[int]:
        if name is None or (name == "O" and name not in self.bundles):
            return [0] * len(self.gram)
        return self.bundles[name]

    def dot(self, a: list[int], b: list[int]) -> int:
        return sum(x * g * y for x, row in zip(a, self.gram) for g, y in zip(row, b))

    def chi(self, v: list[int]) -> int:
        """Riemann-Roch: chi(O) + (v.v - v.K) / 2."""
        twice = self.dot(v, v) - self.dot(v, self.canonical)
        if twice % 2:
            raise ValueError(f"non-integral Riemann-Roch for class {v}")
        return self.chi_o + twice // 2

    def role_chi(self, role: str, names: dict[str, str]) -> int:
        src, tgt = ROLE_CLASSES[role]
        a = self.vector(names[src] if src else None)
        b = self.vector(names[tgt] if tgt else None)
        return self.chi([y - x for x, y in zip(a, b)])


def load_profile(profiles: Path, name: str) -> dict:
    return json.loads((profiles / name).read_text())


def bichar_euler(n: int, e: int, f: int, chis: tuple[int, int, int, int]) -> int:
    """Euler pairing from the product form of its generating function:
    coefficient of v^e u^f Q^n, times (-1)^(e+f), in
    (1-vuQ)^(-a) (1-vQ)^b (1-uQ)^c (1-Q)^(-d)."""
    a, b, c, d = chis
    total = 0
    for i in range(max(0, e + f - n), min(e, f) + 1):
        total += sym(i, a) * lam(e - i, b) * lam(f - i, c) * sym(n - e - f + i, d)
    return total


# -- output parsing --------------------------------------------------------

_MONOMIAL = re.compile(r"^(?P<var>[Quvt])\^(?P<exp>\d+)$")


def parse_series(text: str, label: str) -> dict[tuple[int, int, int], Fraction]:
    """Parse ``label: c * Q^a u^b v^c + ...`` into {(Q, u, v): coeff}."""
    prefix = f"{label}: "
    if not text.startswith(prefix) or not text.endswith("\n") or text.count("\n") != 1:
        raise ValueError("series output is not one labelled line")
    body = text[len(prefix):-1]
    out: dict[tuple[int, int, int], Fraction] = {}
    if body == "0":
        return out
    for piece in body.split(" + "):
        coeff_text, _, monomial = piece.partition(" * ")
        exps = {"Q": 0, "u": 0, "v": 0}
        for factor in monomial.split() if monomial else ():
            m = _MONOMIAL.match(factor)
            if m is None or m["var"] == "t":
                raise ValueError(f"bad monomial {factor!r}")
            exps[m["var"]] = int(m["exp"])
        key = (exps["Q"], exps["u"], exps["v"])
        if key in out:
            raise ValueError(f"monomial {key} printed twice")
        out[key] = Fraction(coeff_text)
    return out


def _flags(argv: list[str]) -> dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


def _range(text: str, n: int) -> range:
    lo, _, hi = text.partition("..")
    return range(int(lo), (n if hi == "n" else min(int(hi), n)) + 1)


# -- per-command checks ------------------------------------------------------


def _check_table(flags: dict[str, str], stdout: str, profiles: Path) -> str | None:
    reader = csv.reader(io.StringIO(stdout))
    if next(reader, None) != CSV_HEADER:
        return "bad CSV header"
    rows = list(reader)
    formula = flags["--formula"]
    names = {x: flags.get(f"--{x}", "O") for x in "EFKL"}
    if formula == "rank3_check":
        surface = Surface(load_profile(profiles, flags["--surface"])["surface"])
        value = lam(2, surface.chi_o) - surface.chi_omega
        naive_ok = "pass" if surface.chi_omega == 0 else "fail"
        expected = [["rank3_check", "2", "", "", str(value), "", f"lambda_sq_conjecture:{naive_ok}"]]
        return None if rows == expected else f"rank3 row {rows} != {expected}"
    lo, hi = (int(x) for x in flags["--n"].split(".."))
    if formula == "curve_bichar":
        curve = load_profile(profiles, flags["--curve"])["curve"]
        genus = curve["genus"]
        bundles = {"O": {"rank": 1, "degree": 0}, **curve.get("bundles", {})}
        src, tgt = bundles[names["E"]], bundles[names["F"]]
        if src["rank"] != 1 or tgt["rank"] != 1:
            return "reference handles rank-1 curve bundles only"
        chi_oc = 1 - genus
        chi_ef = tgt["degree"] - src["degree"] + chi_oc
        chi_pair = (chi_oc - src["degree"]) * (tgt["degree"] + chi_oc)
        expected = []
        for n in range(lo, hi + 1):
            # Q (chi_ef + chi_e_dual chi_f Q) (1+Q)^(chi_oc - 1)
            euler = chi_ef * lam(n - 1, chi_oc - 1) + chi_pair * lam(n - 2, chi_oc - 1)
            expected.append((n, None, None, euler))
    else:
        surface = Surface(load_profile(profiles, flags["--surface"])["surface"])
        e_spec, f_spec, roles = SUBSTITUTIONS[formula]
        chis = tuple(surface.role_chi(r, names) for r in roles)
        expected = []
        for n in range(lo, hi + 1):
            ks = _range(flags["--k"], n) if "--k" in flags else [None]
            ls = _range(flags["--l"], n) if "--l" in flags else [None]
            for k in ks:
                for l in ls:
                    index = {"k": k, "l": l}
                    e = index[e_spec] if isinstance(e_spec, str) else e_spec
                    f = index[f_spec] if isinstance(f_spec, str) else f_spec
                    expected.append((n, k, l, bichar_euler(n, e, f, chis)))
    if len(rows) != len(expected):
        return f"{len(rows)} rows, expected {len(expected)}"
    for row, (n, k, l, euler) in zip(rows, expected):
        cells = (formula, str(n), "" if k is None else str(k), "" if l is None else str(l))
        if tuple(row[:4]) != cells:
            return f"row {row[:4]} where {list(cells)} was expected"
        if row[4] != str(euler):
            return f"euler {row[4]} at {list(cells)}, reference {euler}"
        if row[5]:
            graded = [item.split(":") for item in row[5].split(";")]
            alternating = sum((-1) ** int(d[1:]) * int(m) for d, m in graded)
            if alternating != euler:
                return f"graded column sums to {alternating} at {list(cells)}, euler {euler}"
        checks = [item.rsplit(":", 1) for item in row[6].split(";")] if row[6] else []
        if any(status != "pass" for _, status in checks):
            return f"cross-checks {row[6]!r} at {list(cells)}"
    return None


def _check_series(flags: dict[str, str], stdout: str, profiles: Path) -> str | None:
    surface = Surface(load_profile(profiles, flags["--surface"])["surface"])
    formula = flags["--formula"]
    n_max = int(flags.get("--n-max", 6))
    names = {x: flags.get(f"--{x}", "O") for x in "EFKL"}
    try:
        printed = parse_series(stdout, formula)
    except ValueError as exc:
        return str(exc)
    expected: dict[tuple[int, int, int], Fraction] = {}
    if formula == "bichar":
        chis = tuple(
            surface.role_chi(r, names) for r in ("hom_kl", "coh_k_dual", "coh_l", "coh_o")
        )
        for n in range(n_max + 1):
            for k in range(n + 1):
                for l in range(n + 1):
                    value = (-1) ** (k + l) * bichar_euler(n, k, l, chis)
                    if value:
                        expected[(n, l, k)] = Fraction(value)
    else:
        k_max = int(flags.get("--k-max", n_max))
        f_vec, l_vec = surface.vector(names["F"]), surface.vector(names["L"])
        chi_l = surface.chi(l_vec)

        def chi_flp(p: int) -> int:
            return surface.chi([a + p * b for a, b in zip(f_vec, l_vec)])

        # correction terms (u-power, Q-power, coeff), then multiplied by
        # (1+uQ)^chi_l (1-Q)^(-chi_o), whose u^a Q^b coefficient is
        # lam(a, chi_l) sym(b - a, chi_o)
        correction = []
        for p in range(1, n_max + 1):
            sign = (-1) ** (p - 1)
            if p - 1 <= k_max:
                correction.append((p - 1, p, sign * chi_flp(p - 1)))
            if p <= k_max:
                correction.append((p, p, sign * chi_flp(p)))
        for n in range(n_max + 1):
            for k in range(k_max + 1):
                value = sum(
                    c * lam(k - a, chi_l) * sym(n - b - (k - a), surface.chi_o)
                    for a, b, c in correction
                    if a <= k and b <= n and n - b >= k - a
                )
                if value:
                    expected[(n, k, 0)] = Fraction(value)
    if printed != expected:
        wrong = sorted(set(printed) ^ set(expected)) or sorted(
            key for key in expected if printed[key] != expected[key]
        )
        return f"series coefficient mismatch at (Q, u, v) = {wrong[0]}"
    return None


def _check_verify(flags: dict[str, str], stdout: str) -> str | None:
    try:
        verdict = json.loads(stdout)
    except json.JSONDecodeError:
        return "verdict is not JSON"
    suite = flags["--suite"]
    if verdict.get("suite") != suite or verdict.get("seed") != int(flags["--seed"]):
        return "verdict names another suite or seed"
    for flag in ("--nmax", "--count"):
        if flag in flags and verdict["bounds"].get(flag[2:]) != int(flags[flag]):
            return f"verdict bounds {verdict['bounds']} ignore {flag}"
    if verdict.get("pass") is not True:
        return "verdict pass flag is not true"
    if not verdict["checks"] or any(c.get("pass") is not True for c in verdict["checks"]):
        return "a verdict check failed"
    if suite == "orbits":
        cells = sum((n + 1) ** 2 for n in range(1, int(flags["--nmax"]) + 1))
        if verdict.get("cells") != cells:
            return f"orbits covered {verdict.get('cells')} cells, expected {cells}"
    return None


def check_op(argv: list[str], code: int, stdout: str, profiles: Path) -> str | None:
    """Why this op's result is wrong, or None when it is right."""
    if code != 0:
        return f"exit code {code}"
    flags = _flags(argv)
    try:
        if argv[0] == "table":
            return _check_table(flags, stdout, profiles)
        if argv[0] == "series":
            return _check_series(flags, stdout, profiles)
        if argv[0] == "verify":
            return _check_verify(flags, stdout)
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return f"unknown command {argv[0]!r}"
