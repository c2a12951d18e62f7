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

Every subcommand's flags are described once, in ``COMMANDS``.  A command
line of full ``--flag value`` pairs is read straight from that table;
anything else (help, abbreviations, ``--flag=value``, a value starting
with "-", every malformed line) goes to an argparse parser built from
the same table, so help text and error messages are argparse's own.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import NamedTuple, NoReturn

from . import formulas, geometry, oracle, verify
from .geometry import ConfigError

DEFAULT_SEED = verify.DEFAULT_SEED

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

#: a table job's parsed --n, --k and --l ranges, None where a flag is
#: absent; a --k/--l upper bound None stands for the row's n
Range = tuple[int, int | None]
Ranges = tuple[tuple[int, int] | None, Range | None, Range | None]
#: the profile flag a job was given, "surface" or "curve", and its value
Profile = tuple[str, str]


def _load_part(
    profile: Profile, part: str, formula: str, names: dict[str, str]
) -> geometry.SurfaceData | geometry.CurveData:
    """The surface or the curve of a table job's profile.

    The profile must come from the flag of that part.  Every selected
    bundle must exist in it, also one the formula does not use and also
    when no cell is in range.
    """
    flag, spec = profile
    if flag != part:
        raise UsageError(f"{formula} reads its profile from --{part}, not --{flag}")
    data = getattr(geometry.load_config(geometry.resolve_profile(spec)), part)
    if data is None:
        raise ConfigError(f"formula {formula!r} needs a {part} profile")
    for name in names.values():
        data.bundle(name)
    return data


def _variant_job(formula: str, profile: Profile, names: dict[str, str], ranges: Ranges) -> list[dict]:
    n_range, k_range, l_range = ranges
    e_spec, f_spec, roles = formulas.variant_signature(formula)
    uses_k = "k" in (e_spec, f_spec)
    uses_l = "l" in (e_spec, f_spec)
    if n_range is None:
        raise UsageError(f"--n is required for {formula}")
    if k_range is not None and not uses_k:
        raise UsageError(f"{formula} takes no --k range")
    if l_range is not None and not uses_l:
        raise UsageError(f"{formula} takes no --l range")
    if n_range[0] < 1:
        raise UsageError(f"{formula} needs n >= 1")
    surface = _load_part(profile, "surface", formula, names)
    n_top = n_range[1]
    cells = [
        (n, k, l, *formulas.wedge_indices(formula, k, l))
        for n in range(n_range[0], n_top + 1)
        for k in (_expand(k_range or (0, None), n) if uses_k else [None])
        for l in (_expand(l_range or (0, None), n) if uses_l else [None])
    ]
    chis = geometry.variant_chis(surface, roles, names)
    slot_chis = tuple(chis[r] for r in roles)
    # one expansion and one set of powers per job: truncating at the
    # cells' largest n, e and f leaves every coefficient they read and
    # every power unchanged
    series = formulas.bichar_series(
        *slot_chis,
        n_max=n_top,
        k_max=max((e for _, _, _, e, _ in cells), default=0),
        l_max=max((f for _, _, _, _, f in cells), default=0),
    )
    job_notes = []
    try:
        tables = geometry.variant_tables(surface, roles, names)
    except ConfigError as exc:
        graded_at = None
        job_notes.append(f"euler only: {exc}")
    else:
        graded_at = formulas.w_hom_cells(n_top, *(tables[role] for role in roles))
    used = sorted({b for role in roles for b in formulas.TABLE_ROLES[role] if b})
    inputs = {
        "bundles": {b: names[b] for b in used},
        "chis": {role: chis[role] for role in sorted(set(roles))},
    }
    rows = []
    for n, k, l, e, f in cells:
        euler = formulas.bichar_closed(n, e, f, *slot_chis)
        graded = None
        cross_checks = []
        if graded_at is not None:
            graded = graded_at(n, e, f)
            cross_checks.append(["bichar_closed", graded.euler() == euler])
        series_value = formulas.bichar_from_series(series, n, e, f)
        cross_checks.append(["bichar_series", series_value == euler])
        notes = list(job_notes)
        if formulas.negative_index_suppressed(formula, n, k or 0, l or 0):
            notes.append("vanishing symmetric power of negative index suppressed (k = n)")
        rows.append({
            "formula_id": formula,
            "n": n,
            "k": k,
            "l": l,
            "euler": euler,
            "graded": graded.to_json() if graded is not None else None,
            "cross_checks": cross_checks,
            "inputs": inputs,
            "notes": notes,
        })
    return rows


def _curve_job(formula: str, profile: Profile, names: dict[str, str], ranges: Ranges) -> list[dict]:
    n_range, k_range, l_range = ranges
    if n_range is None:
        raise UsageError(f"--n is required for {formula}")
    if k_range is not None or l_range is not None:
        raise UsageError("curve_bichar takes no --k/--l ranges")
    if n_range[0] < 1:
        raise UsageError("curve_bichar needs n >= 1")
    curve = _load_part(profile, "curve", formula, names)
    chis = geometry.curve_chis(curve, names)
    series = formulas.curve_series(
        chis["chi_ef"], chis["chi_e_dual"], chis["chi_f"], chis["chi_oc"], n_max=n_range[1]
    )
    inputs = {
        "bundles": {"E": names["E"], "F": names["F"]},
        "chis": chis,
        "genus": curve.genus,
    }
    rows = []
    for n in range(n_range[0], n_range[1] + 1):
        value = formulas.curve_bichar(n, **chis)
        cross_checks: list[list] = []
        if n == 1:
            cross_checks.append(["equals_chi_ef", value == chis["chi_ef"]])
        if n == 2:
            expected = -curve.genus * chis["chi_ef"] + chis["chi_e_dual"] * chis["chi_f"]
            cross_checks.append(["quadratic_simplification", value == expected])
        cross_checks.append(["curve_series", series.coeff(Q=n) == value])
        rows.append({
            "formula_id": "curve_bichar",
            "n": n,
            "k": None,
            "l": None,
            "euler": value,
            "graded": None,
            "cross_checks": cross_checks,
            "inputs": inputs,
            "notes": [],
        })
    return rows


def _rank3_job(formula: str, profile: Profile, names: dict[str, str], ranges: Ranges) -> list[dict]:
    n_range, k_range, l_range = ranges
    if n_range is not None or k_range is not None or l_range is not None:
        raise UsageError("rank3_check takes no --n/--k/--l ranges")
    surface = _load_part(profile, "surface", formula, names)
    result = formulas.rank3_check(surface.chi_o, surface.chi_omega)
    return [{
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
    }]


#: formula id -> the job that checks the table's ranges before it loads
#: the profile, then returns the table's rows; the variants come first
TABLE_JOBS: dict[str, Callable[[str, Profile, dict[str, str], Ranges], list[dict]]] = {
    **dict.fromkeys(formulas.VARIANTS, _variant_job),
    "curve_bichar": _curve_job,
    "rank3_check": _rank3_job,
}
TABLE_FORMULAS = tuple(TABLE_JOBS)


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
    flag = "surface" if args.surface else "curve"
    profile = getattr(args, flag)
    if profile is None:
        raise UsageError("a --surface or --curve profile is required")
    n_range = None if args.n is None else _exact_range(args.n, "--n")
    k_range = None if args.k is None else parse_range(args.k, "--k", allow_n=True)
    l_range = None if args.l is None else parse_range(args.l, "--l", allow_n=True)
    names = {b: getattr(args, b) for b in BUNDLE_LETTERS}
    rows = TABLE_JOBS[args.formula](
        args.formula, (flag, profile), names, (n_range, k_range, l_range)
    )
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
    kwargs: dict = {"seed": args.seed}
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
    names = {b: getattr(args, b) for b in "FKL"}
    surface = _load_part(("surface", args.surface), "surface", args.formula, names)
    n_max = args.n_max
    if args.formula == "bichar":
        roles = formulas.variant_signature("Extwedgewedge")[2]
        chis = geometry.variant_chis(surface, roles, names)
        series = formulas.bichar_series(*(chis[r] for r in roles), n_max=n_max)
        inputs: dict = {"bundles": {b: names[b] for b in "KL"}, "chis": chis, "n_max": n_max}
    else:  # tensor_euler
        k_max = args.k_max if args.k_max is not None else n_max
        sheaf, line = surface.bundle(names["F"]), surface.bundle(names["L"])
        chi_flp = geometry.chi_tensor_powers(surface, sheaf, line, n_max)
        chi_l = geometry.rr_chi(surface, line)
        series = formulas.tensor_euler_series(
            chi_flp, chi_l, surface.chi_o, n_max=n_max, k_max=k_max
        )
        inputs = {
            "bundles": {b: names[b] for b in "FL"},
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
        for key, value in entry.items():
            if isinstance(value, bool) or not isinstance(value, (str, int)):
                raise ConfigError(
                    f"jobs[{index}]: {key!r} must be a string or an integer, "
                    f"got {json.dumps(value)}"
                )
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
        args = _read_args(argv)
        if args is None:
            try:
                args = _build_parser(_JobArgumentParser).parse_args(argv)
            except UsageError as exc:
                raise UsageError(f"jobs[{index}]: {exc}") from None
        code = _run_args(args)
        if code != 0:
            return code
    return 0


# -- argument parsing -------------------------------------------------------


class Flag(NamedTuple):
    """One flag of a subcommand, in ``add_argument``'s terms."""

    names: tuple[str, ...]
    dest: str
    type: Callable[[str], object] | None = None
    choices: tuple[str, ...] | None = None
    default: object = None
    required: bool = False
    metavar: str | None = None
    help: str | None = None


class Command(NamedTuple):
    help: str
    epilog: str | None
    flags: tuple[Flag, ...]


def _bundle_flags(letters: Sequence[str]) -> tuple[Flag, ...]:
    return tuple(Flag((f"--{b}",), b, default="O", metavar="BUNDLE") for b in letters)


_RANGE_HELP = (
    'Ranges are inclusive: "a..b" or a single "a". For --k/--l the upper '
    'bound may be "n" (the per-row value of n); cells with k or l above '
    "n are skipped."
)

#: every subcommand's flags, in help order; _read_args and _build_parser
#: both read this one table
COMMANDS = {
    "table": Command("evaluate a formula over (n, k, l) ranges", _RANGE_HELP, (
        Flag(("--formula",), "formula", choices=TABLE_FORMULAS, required=True),
        Flag(("--surface",), "surface", metavar="PROFILE",
             help="surface config (path or packaged name)"),
        Flag(("--curve",), "curve", metavar="PROFILE",
             help="curve config (path or packaged name)"),
        Flag(("--n",), "n", metavar="RANGE"),
        Flag(("--k",), "k", metavar="RANGE"),
        Flag(("--l",), "l", metavar="RANGE"),
        *_bundle_flags(BUNDLE_LETTERS),
        Flag(("--format",), "format", choices=("csv", "json"), default="csv"),
        Flag(("--out",), "out", metavar="PATH"),
        Flag(("--workers",), "workers", type=int, default=1),
    )),
    "verify": Command("run a property suite", None, (
        Flag(("--suite",), "suite", choices=verify.SUITES, required=True),
        Flag(("--seed",), "seed", type=int, default=DEFAULT_SEED),
        Flag(("--nmax", "--n"), "nmax", type=int),
        Flag(("--count",), "count", type=int),
        Flag(("--workers",), "workers", type=int, default=1),
        Flag(("--out",), "out", metavar="PATH"),
    )),
    "series": Command("expand a generating function", None, (
        Flag(("--formula",), "formula", choices=SERIES_FORMULAS, required=True),
        Flag(("--surface",), "surface", required=True, metavar="PROFILE"),
        Flag(("--n-max",), "n_max", type=int, default=6),
        Flag(("--k-max",), "k_max", type=int),
        *_bundle_flags("FKL"),
        Flag(("--format",), "format", choices=("text", "json"), default="text"),
        Flag(("--out",), "out", metavar="PATH"),
    )),
    "run": Command("execute the jobs list of a config file", None, (
        Flag(("--config",), "config", required=True, metavar="PATH"),
    )),
}


def _read_args(argv: Sequence[str]) -> argparse.Namespace | None:
    """The namespace argparse gives a plain command line, else None.

    A plain line is a command followed by ``flag value`` pairs, each flag
    spelt in full and each value free of a leading "-", converting to its
    type and lying in its choices, with every required flag present; a
    repeated flag keeps its last value, as in argparse.  Anything else,
    help and abbreviations included, is left to argparse, so its help
    text and its error messages are the only ones there are.
    """
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    flags = COMMANDS[argv[0]].flags
    by_name = {name: flag for flag in flags for name in flag.names}
    values = {}
    for name, text in zip(argv[1::2], argv[2::2]):
        flag = by_name.get(name)
        if flag is None or text.startswith("-"):
            return None
        try:
            value = text if flag.type is None else flag.type(text)
        except (TypeError, ValueError):
            return None
        if flag.choices is not None and value not in flag.choices:
            return None
        values[flag.dest] = value
    if any(flag.required and flag.dest not in values for flag in flags):
        return None
    return argparse.Namespace(
        command=argv[0], **{flag.dest: values.get(flag.dest, flag.default) for flag in flags}
    )


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
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, epilog=command.epilog)
        for flag in command.flags:
            p.add_argument(
                *flag.names, dest=flag.dest, type=flag.type, choices=flag.choices,
                default=flag.default, required=flag.required, metavar=flag.metavar,
                help=flag.help,
            )
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


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_args(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    try:
        return _run_args(args)
    except oracle.ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
