"""Command line driver: invariant tables, verification suites, series.

Subcommands:

  table   evaluate a formula over ranges of (n, k, l) against a profile
  verify  run one of the property suites and print its JSON verdict
  series  expand a generating function from a profile
  run     execute the job list stored in a config file

Ranges are inclusive, written "a..b" or a single "a"; for --k/--l the
upper bound may be the letter n, meaning the per-row value of n.  Cells
whose k or l exceeds n are skipped.  Exit codes: 0 success, 1 internal
consistency failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections.abc import Callable
from pathlib import Path
from typing import NoReturn

from . import formulas, geometry, oracle, verify
from .formulas import BicharInput, MissingTableError
from .geometry import ConfigError

DEFAULT_SEED = verify.DEFAULT_SEED

TABLE_FORMULAS = formulas.VARIANTS + ("curve_bichar", "rank3_check")
SERIES_FORMULAS = ("bichar", "tensor_euler")

CSV_HEADER = ["formula_id", "n", "k", "l", "euler", "graded", "cross_checks"]

#: cross-checks that compare two formulas which must agree; a failure is
#: an internal inconsistency, not a property of the input
MUST_AGREE_CHECKS = {
    "bichar_closed",
    "bichar_series",
    "curve_series",
    "equals_chi_ef",
    "quadratic_simplification",
}

class UsageError(ValueError):
    """Bad command line input; maps to exit code 2."""


def parse_range(text: str, flag: str, allow_n: bool = False) -> tuple[int, int | None]:
    """Parse "a", "a..b", or (for --k/--l) "a..n"."""
    s = text.strip()
    try:
        if ".." in s:
            left, right = s.split("..", 1)
            lo = int(left)
            if right == "n":
                if not allow_n:
                    raise UsageError(f'{flag}: upper bound "n" is only valid for --k/--l')
                hi: int | None = None
            else:
                hi = int(right)
                if hi < lo:
                    raise UsageError(f"{flag}: empty range {s!r}")
        else:
            lo = int(s)
            hi = lo
    except ValueError as exc:
        if isinstance(exc, UsageError):
            raise
        raise UsageError(f'{flag}: bad range {s!r}; use "a", "a..b" or "a..n"') from None
    if lo < 0:
        raise UsageError(f"{flag}: range must be non-negative, got {s!r}")
    return lo, hi


def _expand(bound: tuple[int, int | None], n: int) -> list[int]:
    lo, hi = bound
    top = n if hi is None else min(hi, n)
    return list(range(lo, top + 1))


# -- table ---------------------------------------------------------------

#: the letters whose bundles a table job selects with --E/--F/--K/--L
BUNDLE_LETTERS = ("E", "F", "K", "L")


def _resolve_job(
    path: Path, formula: str, names: dict[str, str], n_top: int | None
) -> Callable[[int | None, int | None, int | None], dict]:
    """Resolve everything the rows of one table job share.

    Loads the profile, looks up the role Euler characteristics, the
    cohomology tables (or the reason the rows are euler-only) and the
    generating function expanded at the job's largest n, and returns
    the function that computes the row at (n, k, l) from them.
    """
    config = geometry.load_config(path)
    if formula == "rank3_check":
        row = _rank3_row(config)
        return lambda n, k, l: row
    if formula == "curve_bichar":
        return _curve_job(config, names, n_top)
    return _variant_job(config, formula, names, n_top)


def _variant_job(
    config: geometry.Config, formula: str, names: dict[str, str], n_top: int
) -> Callable[[int, int | None, int | None], dict]:
    surface = config.surface
    if surface is None:
        raise ConfigError(f"formula {formula!r} needs a surface profile")
    e_spec, f_spec, roles = formulas.variant_signature(formula)
    chis = geometry.variant_chis(surface, roles, names)
    slot_chis = tuple(chis[r] for r in roles)
    # one expansion per job: truncating at the job's largest n leaves
    # every lower coefficient unchanged
    series = formulas.bichar_series(*slot_chis, n_max=n_top)
    job_notes = []
    try:
        tables = geometry.variant_tables(surface, formulas.required_tables(formula), names)
    except ConfigError as exc:
        tables = None
        job_notes.append(f"euler only: {exc}")
    used = sorted({b for role in roles for b in formulas.TABLE_ROLES[role] if b})
    inputs = {
        "bundles": {b: names[b] for b in used},
        "chis": {role: chis[role] for role in sorted(set(roles))},
    }

    def row(n: int, k: int | None, l: int | None) -> dict:
        e = k if e_spec == "k" else e_spec
        f = l if f_spec == "l" else (k if f_spec == "k" else f_spec)
        euler = formulas.bichar_closed(BicharInput(n, e, f, *slot_chis))
        graded = None
        cross_checks = []
        if tables is not None:
            graded = formulas.taut_formula(formula, n, k=k or 0, l=l or 0, tables=tables)
            cross_checks.append(["bichar_closed", graded.euler() == euler])
        series_value = formulas.bichar_from_series(series, n, e, f)
        cross_checks.append(["bichar_series", series_value == euler])
        notes = list(job_notes)
        if formulas.negative_index_suppressed(formula, n, k or 0, l or 0):
            notes.append("vanishing symmetric power of negative index suppressed (k = n)")
        return {
            "formula_id": formula,
            "n": n,
            "k": k,
            "l": l,
            "euler": euler,
            "graded": graded.to_json() if graded is not None else None,
            "cross_checks": cross_checks,
            "inputs": inputs,
            "notes": notes,
        }

    return row


def _curve_job(
    config: geometry.Config, names: dict[str, str], n_top: int
) -> Callable[[int, None, None], dict]:
    curve = config.curve
    if curve is None:
        raise ConfigError("formula 'curve_bichar' needs a curve profile")
    chis = geometry.curve_chis(curve, names)
    series = formulas.curve_series(
        chis["chi_ef"], chis["chi_e_dual"], chis["chi_f"], chis["chi_oc"], n_max=n_top
    )
    inputs = {
        "bundles": {"E": names["E"], "F": names["F"]},
        "chis": chis,
        "genus": curve.genus,
    }

    def row(n: int, k: None, l: None) -> dict:
        value = formulas.curve_bichar(n, **chis)
        cross_checks: list[list] = []
        if n == 1:
            cross_checks.append(["equals_chi_ef", value == chis["chi_ef"]])
        if n == 2:
            expected = -curve.genus * chis["chi_ef"] + chis["chi_e_dual"] * chis["chi_f"]
            cross_checks.append(["quadratic_simplification", value == expected])
        cross_checks.append(["curve_series", series.coeff(Q=n) == value])
        return {
            "formula_id": "curve_bichar",
            "n": n,
            "k": None,
            "l": None,
            "euler": value,
            "graded": None,
            "cross_checks": cross_checks,
            "inputs": inputs,
            "notes": [],
        }

    return row


def _rank3_row(config: geometry.Config) -> dict:
    surface = config.surface
    if surface is None:
        raise ConfigError("formula 'rank3_check' needs a surface profile")
    if surface.chi_omega is None:
        raise ConfigError("surface.chi_Omega is required for rank3_check")
    result = formulas.rank3_check(surface.chi_o, surface.chi_omega)
    return {
        "formula_id": "rank3_check",
        "n": 2,
        "k": None,
        "l": None,
        "euler": result.value,
        "graded": None,
        "cross_checks": [["lambda_sq_conjecture", result.value == result.naive]],
        "inputs": {
            "chi_O": surface.chi_o,
            "chi_Omega": surface.chi_omega,
            "naive": result.naive,
        },
        "notes": ["the lambda_sq_conjecture check records the naive prediction"],
    }


def _table_cells(
    formula: str,
    n_range: tuple[int, int] | None,
    k_range: tuple[int, int | None] | None,
    l_range: tuple[int, int | None] | None,
) -> list[tuple[int | None, int | None, int | None]]:
    if formula == "rank3_check":
        if n_range is not None or k_range is not None or l_range is not None:
            raise UsageError("rank3_check takes no --n/--k/--l ranges")
        return [(None, None, None)]
    if n_range is None:
        raise UsageError(f"--n is required for {formula}")
    if formula == "curve_bichar":
        if k_range is not None or l_range is not None:
            raise UsageError("curve_bichar takes no --k/--l ranges")
        if n_range[0] < 1:
            raise UsageError("curve_bichar needs n >= 1")
        uses_k = uses_l = False
    else:
        e_spec, f_spec, _ = formulas.variant_signature(formula)
        uses_k = "k" in (e_spec, f_spec)
        uses_l = "l" in (e_spec, f_spec)
        if k_range is not None and not uses_k:
            raise UsageError(f"{formula} takes no --k range")
        if l_range is not None and not uses_l:
            raise UsageError(f"{formula} takes no --l range")
        if n_range[0] < 1:
            raise UsageError(f"{formula} needs n >= 1")
    cells = []
    for n in range(n_range[0], n_range[1] + 1):
        ks = _expand(k_range or (0, None), n) if uses_k else [None]
        ls = _expand(l_range or (0, None), n) if uses_l else [None]
        for k in ks:
            for l in ls:
                cells.append((n, k, l))
    return cells


def _render_graded(graded: dict | None) -> str:
    if graded is None:
        return ""
    return ";".join(f"d{d}:{graded[d]}" for d in sorted(graded, key=int))


def _render_checks(checks: list) -> str:
    return ";".join(f"{name}:{'pass' if ok else 'fail'}" for name, ok in checks)


def rows_to_csv(rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(
            [
                row["formula_id"],
                "" if row["n"] is None else row["n"],
                "" if row["k"] is None else row["k"],
                "" if row["l"] is None else row["l"],
                row["euler"],
                _render_graded(row["graded"]),
                _render_checks(row["cross_checks"]),
            ]
        )
    return buffer.getvalue()


def rows_to_json(formula: str, profile: str, rows: list[dict]) -> str:
    document = {
        "command": "table",
        "formula_id": formula,
        "profile": profile,
        "rows": rows,
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {out}: {exc.strerror}") from None


def _at_least(value: int | None, floor: int, flag: str) -> None:
    if value is not None and value < floor:
        raise UsageError(f"{flag} must be at least {floor}, got {value}")


def run_table(args: argparse.Namespace) -> int:
    _at_least(args.workers, 1, "--workers")
    if args.surface and args.curve:
        raise UsageError("pass either --surface or --curve, not both")
    profile = args.surface or args.curve
    if profile is None:
        raise UsageError("a --surface or --curve profile is required")
    n_range = None if args.n is None else _exact_range(args.n, "--n")
    k_range = None if args.k is None else parse_range(args.k, "--k", allow_n=True)
    l_range = None if args.l is None else parse_range(args.l, "--l", allow_n=True)
    cells = _table_cells(args.formula, n_range, k_range, l_range)
    # resolved before any cell, so bad input fails even when no cell is in range
    row_at = _resolve_job(
        geometry.resolve_profile(profile),
        args.formula,
        {b: getattr(args, b) for b in BUNDLE_LETTERS},
        n_range[1] if n_range is not None else None,
    )
    rows = [row_at(*cell) for cell in cells]
    for row in rows:
        for name, ok in row["cross_checks"]:
            if not ok and name in MUST_AGREE_CHECKS:
                raise oracle.ConsistencyError(
                    f"cross-check {name} failed at "
                    f"(formula={row['formula_id']}, n={row['n']}, "
                    f"k={row['k']}, l={row['l']})"
                )
    if args.format == "csv":
        text = rows_to_csv(rows)
    else:
        text = rows_to_json(args.formula, profile, rows)
    _emit(text, args.out)
    return 0


# -- verify ---------------------------------------------------------------


def run_verify(args: argparse.Namespace) -> int:
    _at_least(args.workers, 1, "--workers")
    _at_least(args.count, 1, "--count")
    _at_least(args.nmax, 1, "--nmax")
    kwargs: dict = {"seed": args.seed, "workers": args.workers}
    if args.nmax is not None:
        if args.suite == "graded_powers":
            raise UsageError("graded_powers has no --nmax bound (its domain is fixed)")
        kwargs["nmax"] = args.nmax
    if args.count is not None:
        if args.suite == "orbits":
            raise UsageError("orbits has no --count (it is exhaustive)")
        kwargs["count"] = args.count
    verdict = verify.run_suite(args.suite, **kwargs)
    text = json.dumps(verdict, indent=2, sort_keys=True) + "\n"
    _emit(text, args.out)
    return 0 if verdict["pass"] else 1


# -- series ---------------------------------------------------------------


def run_series(args: argparse.Namespace) -> int:
    _at_least(args.n_max, 0, "--n-max")
    if args.formula == "bichar" and args.k_max is not None:
        raise UsageError("bichar takes no --k-max")
    _at_least(args.k_max, 0, "--k-max")
    surface = geometry.load_config(geometry.resolve_profile(args.surface)).surface
    if surface is None:
        raise ConfigError("series formulas need a surface profile")
    for name in (args.F, args.K, args.L):
        surface.bundle(name)  # every selected bundle must exist, used or not
    n_max = args.n_max
    if args.formula == "bichar":
        names = {"K": args.K, "L": args.L}
        roles = formulas.variant_signature("Extwedgewedge")[2]
        chis = geometry.variant_chis(surface, roles, names)
        series = formulas.bichar_series(*(chis[r] for r in roles), n_max=n_max)
        inputs: dict = {"bundles": names, "chis": chis, "n_max": n_max}
    else:  # tensor_euler
        k_max = args.k_max if args.k_max is not None else n_max
        chi_flp = geometry.chi_tensor_powers(
            surface, surface.bundle(args.F), surface.bundle(args.L), n_max
        )
        chi_l = geometry.rr_chi(surface, surface.bundle(args.L))
        series = formulas.tensor_euler_series(
            chi_flp, chi_l, surface.chi_o, n_max=n_max, k_max=k_max
        )
        inputs = {
            "bundles": {"F": args.F, "L": args.L},
            "chi_flp": chi_flp,
            "chi_l": chi_l,
            "chi_o": surface.chi_o,
            "n_max": n_max,
            "k_max": k_max,
        }
    if args.format == "json":
        document = {
            "command": "series",
            "formula_id": args.formula,
            "inputs": inputs,
            "series": series.to_jsonable(),
        }
        text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    else:
        text = f"{args.formula}: {series}\n"
    _emit(text, args.out)
    return 0


# -- run (config job list) -------------------------------------------------


def run_jobs(config_path: str) -> int:
    resolved = geometry.resolve_profile(config_path)
    config = geometry.load_config(resolved)
    if not config.jobs:
        raise ConfigError(f"config {config_path} has no jobs")
    for index, entry in enumerate(config.jobs):
        if "command" not in entry:
            raise ConfigError(f"jobs[{index}] is missing field 'command'")
        command = str(entry["command"])
        if command == "run":
            raise ConfigError(f"jobs[{index}]: a job cannot itself be 'run'")
        argv = [command]
        for key, value in entry.items():
            if key == "command":
                continue
            argv.extend((f"--{str(key).replace('_', '-')}", str(value)))
        # Jobs inherit the config's geometry unless they name their own; the
        # config file itself doubles as the profile argument.
        if command in ("table", "series") and not ({"surface", "curve"} & set(entry)):
            wants_curve = command == "table" and entry.get("formula") == "curve_bichar"
            if wants_curve and config.curve is not None:
                argv.extend(("--curve", str(resolved)))
            elif not wants_curve and config.surface is not None:
                argv.extend(("--surface", str(resolved)))
        try:
            args = _build_parser(_JobArgumentParser).parse_args(argv)
        except UsageError as exc:
            raise UsageError(f"jobs[{index}]: {exc}") from None
        code = _run_args(args)
        if code != 0:
            return code
    return 0


# -- argument parsing -------------------------------------------------------


class _JobArgumentParser(argparse.ArgumentParser):
    """Parser for ``run`` config jobs: an error raises instead of exiting.

    ``exit_on_error=False`` would not do, because argparse still exits
    on unrecognized and on missing required arguments.  A job key must
    spell out its flag: no abbreviations, and no ``help`` that would
    print usage and end the run.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)

    def error(self, message: str) -> NoReturn:
        raise UsageError(message)


def _build_parser(
    parser_class: type[argparse.ArgumentParser] = argparse.ArgumentParser,
) -> argparse.ArgumentParser:
    # subparsers are built with the same class as their parent
    parser = parser_class(
        prog="hilbtaut",
        description="Invariant tables and verification for tautological sheaves "
        "on Hilbert schemes of points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    range_help = (
        'Ranges are inclusive: "a..b" or a single "a". For --k/--l the upper '
        'bound may be "n" (the per-row value of n); cells with k or l above '
        "n are skipped."
    )

    t = sub.add_parser(
        "table",
        help="evaluate a formula over (n, k, l) ranges",
        epilog=range_help,
    )
    t.add_argument("--formula", required=True, choices=TABLE_FORMULAS)
    t.add_argument("--surface", metavar="PROFILE", help="surface config (path or packaged name)")
    t.add_argument("--curve", metavar="PROFILE", help="curve config (path or packaged name)")
    t.add_argument("--n", metavar="RANGE")
    t.add_argument("--k", metavar="RANGE")
    t.add_argument("--l", metavar="RANGE")
    t.add_argument("--E", default="O", metavar="BUNDLE")
    t.add_argument("--F", default="O", metavar="BUNDLE")
    t.add_argument("--K", default="O", metavar="BUNDLE")
    t.add_argument("--L", default="O", metavar="BUNDLE")
    t.add_argument("--format", choices=("csv", "json"), default="csv")
    t.add_argument("--out", metavar="PATH")
    t.add_argument("--workers", type=int, default=1)

    v = sub.add_parser("verify", help="run a property suite")
    v.add_argument("--suite", required=True, choices=verify.SUITES)
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v.add_argument("--nmax", "--n", dest="nmax", type=int, default=None)
    v.add_argument("--count", type=int, default=None)
    v.add_argument("--workers", type=int, default=1)
    v.add_argument("--out", metavar="PATH")

    s = sub.add_parser("series", help="expand a generating function")
    s.add_argument("--formula", required=True, choices=SERIES_FORMULAS)
    s.add_argument("--surface", required=True, metavar="PROFILE")
    s.add_argument("--n-max", dest="n_max", type=int, default=6)
    s.add_argument("--k-max", dest="k_max", type=int, default=None)
    s.add_argument("--F", default="O", metavar="BUNDLE")
    s.add_argument("--K", default="O", metavar="BUNDLE")
    s.add_argument("--L", default="O", metavar="BUNDLE")
    s.add_argument("--format", choices=("text", "json"), default="text")
    s.add_argument("--out", metavar="PATH")

    r = sub.add_parser("run", help="execute the jobs list of a config file")
    r.add_argument("--config", required=True, metavar="PATH")

    return parser


def _exact_range(text: str, flag: str) -> tuple[int, int]:
    lo, hi = parse_range(text, flag, allow_n=False)
    assert hi is not None
    return lo, hi


def _run_args(args: argparse.Namespace) -> int:
    if args.command == "run":
        return run_jobs(args.config)
    if args.command == "table":
        return run_table(args)
    if args.command == "verify":
        return run_verify(args)
    return run_series(args)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run_args(args)
    except (UsageError, ConfigError, MissingTableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except oracle.ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
