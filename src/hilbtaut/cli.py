"""Command line driver: invariant tables, verification suites, series.

Subcommands:

  table   evaluate a formula over ranges of (n, k, l) against a profile
  verify  run one of the property suites and print its JSON verdict
  series  expand a generating function from a profile
  run     execute the job list stored in a config file

Ranges are inclusive, written "a..b" or a single "a"; for --k/--l the
upper bound may be the letter n, meaning the per-row value of n.  Cells
whose k or l exceeds n are skipped.  Exit codes: 0 success, 1 internal
consistency failure, 2 usage or config error or out of memory.

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
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import NamedTuple, NoReturn

from . import formulas, geometry, oracle, verify
from .geometry import ConfigError
from .graded import GradedDim

DEFAULT_SEED = verify.DEFAULT_SEED

#: each series formula and the largest --n-max it accepts: the largest
#: size whose fresh run on k3, every bundle H, ends within about 30 s
SERIES_FORMULAS = {"bichar": 512, "tensor_euler": 2816}

CSV_HEADER = ["formula_id", "n", "k", "l", "euler", "graded", "cross_checks"]

#: cross-checks that record an observation and may read "fail"; a failure
#: of any other check is an internal inconsistency, not a property of the input
RECORD_CHECKS = {"lambda_sq_conjecture"}

class UsageError(ValueError):
    """Bad command line input; maps to exit code 2."""


def parse_range(text: str, flag: str, allow_n: bool = False) -> tuple[int, int | None]:
    """Parse "a", "a..b", or (for --k/--l) "a..n"."""
    s = text.strip()
    left, dots, right = s.partition("..")
    try:
        lo = int(left)
        hi = lo if not dots else None if right == "n" else int(right)
    except ValueError:
        raise UsageError(f'{flag}: bad range {s!r}; use "a", "a..b" or "a..n"') from None
    if hi is None and not allow_n:
        raise UsageError(f'{flag}: upper bound "n" is only valid for --k/--l')
    if hi is not None and hi < lo:
        raise UsageError(f"{flag}: empty range {s!r}")
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

#: a table job's --n, --k and --l ranges, None where its formula takes no
#: such flag; a --k/--l upper bound None stands for the row's n
Range = tuple[int, int | None]
Ranges = tuple[tuple[int, int] | None, Range | None, Range | None]


def _load_part(
    spec: str, part: str, formula: str, names: dict[str, str]
) -> geometry.SurfaceData | geometry.CurveData:
    """The surface or the curve of profile ``spec``.

    Every selected bundle must exist in it, also one the formula does
    not use and also when no cell is in range.
    """
    data = getattr(geometry.load_config(geometry.resolve_profile(spec)), part)
    if data is None:
        raise ConfigError(f"formula {formula!r} needs a {part} profile")
    for name in names.values():
        data.bundle(name)
    return data


def _row(
    formula: str, n: int, euler: int, cross_checks: list, inputs: dict, notes: list[str],
    k: int | None = None, l: int | None = None, graded: GradedDim | None = None,
) -> dict:
    """One table row, as ``rows_to_csv`` and ``_rows_to_json`` read it."""
    return {
        "formula_id": formula, "n": n, "k": k, "l": l, "euler": euler,
        "graded": graded,
        "cross_checks": cross_checks, "inputs": inputs, "notes": notes,
    }


def _variant_job(
    formula: str, surface: geometry.SurfaceData, names: dict[str, str], ranges: Ranges
) -> Iterator[dict]:
    n_range, k_range, l_range = ranges
    _, _, source, target = formulas.variant_signature(formula)
    n_top = n_range[1]
    cells = [
        (n, k, l, *formulas.wedge_indices(formula, k, l))
        for n in range(n_range[0], n_top + 1)
        for k in (_expand(k_range, n) if k_range else [None])
        for l in (_expand(l_range, n) if l_range else [None])
    ]
    slots = formulas.variant_slots(formula)
    roles = [formulas.role_name(*slot) for slot in slots]
    chis = geometry.variant_chis(surface, slots, names)
    slot_chis = tuple(chis[role] for role in roles)
    euler_at = formulas.bichar_cells(n_top, *slot_chis)
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
        tables = geometry.variant_tables(surface, slots, names)
    except ConfigError as exc:
        graded_at = None
        job_notes.append(f"euler only: {exc}")
    else:
        graded_at = formulas.w_hom_cells(n_top, *(tables[role] for role in roles))
    inputs = {"bundles": {b: names[b] for b in (source, target) if b}, "chis": chis}
    for n, k, l, e, f in cells:
        euler = euler_at(n, e, f)
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
        yield _row(formula, n, euler, cross_checks, inputs, notes, k=k, l=l, graded=graded)


def _curve_job(
    formula: str, curve: geometry.CurveData, names: dict[str, str], ranges: Ranges
) -> Iterator[dict]:
    n_range = ranges[0]
    chis = geometry.curve_chis(curve, names)
    series = formulas.curve_series(
        chis["chi_ef"], chis["chi_e_dual"], chis["chi_f"], chis["chi_oc"], n_max=n_range[1]
    )
    inputs = {"bundles": {"E": names["E"], "F": names["F"]}, "chis": chis, "genus": curve.genus}
    for n in range(n_range[0], n_range[1] + 1):
        value = formulas.curve_bichar(n, **chis)
        cross_checks: list[list] = []
        if n == 1:
            cross_checks.append(["equals_chi_ef", value == chis["chi_ef"]])
        if n == 2:
            expected = -curve.genus * chis["chi_ef"] + chis["chi_e_dual"] * chis["chi_f"]
            cross_checks.append(["quadratic_simplification", value == expected])
        cross_checks.append(["curve_series", series.coeff_at(n) == value])
        yield _row(formula, n, value, cross_checks, inputs, [])


def _rank3_job(
    formula: str, surface: geometry.SurfaceData, names: dict[str, str], ranges: Ranges
) -> Iterator[dict]:
    result = formulas.rank3_check(surface.chi_o, surface.chi_omega)
    inputs = {"chi_O": surface.chi_o, "chi_Omega": surface.chi_omega, "naive": result.naive}
    checks = [["lambda_sq_conjecture", result.value == result.naive]]
    notes = ["the lambda_sq_conjecture check records the naive prediction"]
    yield _row(formula, 2, result.value, checks, inputs, notes)


#: formula id -> (job, part, flags, n_bound): the job that yields the
#: table's rows from the profile part it reads, "surface" or "curve", the
#: range flags the formula takes and the largest top --n it accepts, None
#: where it takes no --n; a variant takes --k or --l exactly when its e or
#: f is "k" or "l".  Each bound is the largest size whose fresh run ends
#: within about 30 s: a variant on k3 with every bundle H and --k/--l 0..n,
#: the curve on genus0_curve with --E P --F O.  The variants come first.
TABLE_JOBS: dict[str, tuple[Callable[..., Iterator[dict]], str, str, int | None]] = {
    **{
        variant: (_variant_job, "surface", "n" + "".join(
            index for index in "kl" if index in formulas.variant_signature(variant)[:2]
        ), n_bound)
        for variant, n_bound in {
            "cohF": 2250, "cohEvee": 2250, "ExtEF": 2250, "cohwedge": 1250,
            "ExtEwedge": 1200, "ExtwedgeF": 1200, "Extwedgewedge": 120,
        }.items()
    },
    "curve_bichar": (_curve_job, "curve", "n", 10_000),
    "rank3_check": (_rank3_job, "surface", "", None),
}
TABLE_FORMULAS = tuple(TABLE_JOBS)


def _render_graded(graded: GradedDim | None) -> str | None:
    if graded is None:
        return None
    return ";".join(f"d{d}:{m}" for d, m in graded.items())


def _render_checks(checks: list) -> str:
    return ";".join(f"{name}:{'pass' if ok else 'fail'}" for name, ok in checks)


def rows_to_csv(rows: Iterable[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        # csv writes None as an empty field
        writer.writerow(
            [
                row["formula_id"],
                row["n"],
                row["k"],
                row["l"],
                row["euler"],
                _render_graded(row["graded"]),
                _render_checks(row["cross_checks"]),
            ]
        )
    return buffer.getvalue()


def _json(document: dict) -> str:
    """The text of a JSON document that ``table``, ``verify`` or ``series`` prints."""
    return json.dumps(document, indent=2, sort_keys=True, default=GradedDim.to_json) + "\n"


def _rows_to_json(head: dict, rows: Iterable[dict]) -> str:
    """``_json({**head, "rows": list(rows)})``, encoded one row at a time.

    "rows" sorts after every key of ``head``, so the document ends on the
    rows list; the last "null" of a one-row frame is where its rows go.
    """
    opening, closing = _json({**head, "rows": [None]}).rsplit("null", 1)
    buffer = io.StringIO()
    for row in rows:
        buffer.write(",\n    " if buffer.tell() else opening)
        # a row sits two levels deep, and json escapes every newline in a string
        buffer.write(_json(row)[:-1].replace("\n", "\n    "))
    if not buffer.tell():
        return _json({**head, "rows": []})
    buffer.write(closing)
    return buffer.getvalue()


def _emit(text: str, out: str | None) -> None:
    try:
        if out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(out, "w") as file:
                file.write(text)
    except OSError as exc:
        if out is None and isinstance(exc, BrokenPipeError):
            # Python flushes stdout again at exit: the null device takes
            # what is left, so the closed pipe raises no second error
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        target = "to stdout" if out is None else f"--out {out}"
        raise UsageError(f"cannot write {target}: {exc.strerror}") from None


def _at_least(value: int | None, floor: int, flag: str) -> None:
    if value is not None and value < floor:
        raise UsageError(f"{flag} must be at least {floor}, got {value}")


def _checked(rows: Iterable[dict]) -> Iterator[dict]:
    """The rows, up to the first failed check that is not a record, which raises."""
    for row in rows:
        for name, ok in row["cross_checks"]:
            if not ok and name not in RECORD_CHECKS:
                raise oracle.ConsistencyError(
                    f"cross-check {name} failed at "
                    f"(formula={row['formula_id']}, n={row['n']}, "
                    f"k={row['k']}, l={row['l']})"
                )
        yield row


def run_table(args: argparse.Namespace) -> tuple[int, str]:
    if args.surface and args.curve:
        raise UsageError("pass either --surface or --curve, not both")
    flag = "surface" if args.surface else "curve"
    profile = getattr(args, flag)
    if profile is None:
        raise UsageError("a --surface or --curve profile is required")
    given = {x: getattr(args, x) for x in "nkl" if getattr(args, x) is not None}
    ranges = {x: parse_range(text, f"--{x}", allow_n=x != "n") for x, text in given.items()}
    formula = args.formula
    job, part, flags, n_bound = TABLE_JOBS[formula]
    if "n" in flags and "n" not in ranges:
        raise UsageError(f"--n is required for {formula}")
    if not set(ranges) <= set(flags):
        refused = [f"--{x}" for x in "nkl" if x not in flags]
        plural = "s" if len(refused) > 1 else ""
        raise UsageError(f"{formula} takes no {'/'.join(refused)} range{plural}")
    if "n" in ranges:
        n_lo, n_hi = ranges["n"]
        if n_lo < 1:
            raise UsageError(f"{formula} needs n >= 1")
        if n_hi > n_bound:
            raise UsageError(f"--n {n_hi} exceeds the {formula} bound {n_bound}")
    if flag != part:
        raise UsageError(f"{formula} reads its profile from --{part}, not --{flag}")
    names = {b: getattr(args, b) for b in BUNDLE_LETTERS}
    data = _load_part(profile, part, formula, names)
    # a --k/--l range the formula takes and was not given is 0..n
    rows = _checked(job(formula, data, names, tuple(
        ranges.get(x, (0, None)) if x in flags else None for x in "nkl"
    )))
    if args.format == "csv":
        return 0, rows_to_csv(rows)
    return 0, _rows_to_json({"command": "table", "formula_id": formula, "profile": profile}, rows)


# -- verify ---------------------------------------------------------------


def run_verify(args: argparse.Namespace) -> tuple[int, str]:
    sizes = {"nmax": args.nmax, "count": args.count}
    sizes = {size: value for size, value in sizes.items() if value is not None}
    verdict = verify.run_suite(args.suite, seed=args.seed, **sizes)
    return (0 if verdict["pass"] else 1), _json(verdict)


# -- series ---------------------------------------------------------------


def run_series(args: argparse.Namespace) -> tuple[int, str]:
    _at_least(args.n_max, 0, "--n-max")
    if args.formula == "bichar" and args.k_max is not None:
        raise UsageError("bichar takes no --k-max")
    _at_least(args.k_max, 0, "--k-max")
    n_bound = SERIES_FORMULAS[args.formula]
    if args.n_max > n_bound:
        raise UsageError(f"--n-max {args.n_max} exceeds the {args.formula} bound {n_bound}")
    names = {b: getattr(args, b) for b in "FKL"}
    surface = _load_part(args.surface, "surface", args.formula, names)
    n_max = args.n_max
    if args.formula == "bichar":
        slots = formulas.variant_slots("Extwedgewedge")
        chis = geometry.variant_chis(surface, slots, names)
        series = formulas.bichar_series(
            *(chis[formulas.role_name(*slot)] for slot in slots), n_max=n_max
        )
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
    if args.format == "text":
        return 0, f"{args.formula}: {series}\n"
    document = {
        "command": "series",
        "formula_id": args.formula,
        "inputs": inputs,
        "series": series.to_jsonable(),
    }
    return 0, _json(document)


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
        argv = [command]
        for key, value in entry.items():
            if isinstance(value, bool) or not isinstance(value, (str, int)):
                raise ConfigError(
                    f"jobs[{index}]: {key!r} must be a string or an integer, "
                    f"got {json.dumps(value)}"
                )
            if key != "command":
                argv.extend((f"--{key.replace('_', '-')}", str(value)))
        if command == "run":
            raise ConfigError(f"jobs[{index}]: a job cannot itself be 'run'")
        # Jobs inherit the config's geometry unless they name their own; the
        # config file itself doubles as the profile argument.  Every value is
        # a string or an integer by now, so the formula is a valid key.
        row = TABLE_JOBS.get(entry.get("formula")) if command == "table" else None
        part = row[1] if row else "surface"
        own = {"surface", "curve"} & entry.keys()
        if command in ("table", "series") and not own and getattr(config, part) is not None:
            argv.extend((f"--{part}", resolved))
        args = _read_args(argv)
        try:
            if args is None:
                args = _build_parser(_JobArgumentParser).parse_args(argv)
            code = _run_args(args)
        except ValueError as exc:
            raise UsageError(f"jobs[{index}]: {exc}") from None
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
        Flag(("--formula",), "formula", choices=tuple(SERIES_FORMULAS), required=True),
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


#: per command, read once from COMMANDS: each flag by every spelling,
#: every flag's default by dest, in flag order, and the required dests
_LOOKUPS = {
    name: (
        {spelling: flag for flag in command.flags for spelling in flag.names},
        {flag.dest: flag.default for flag in command.flags},
        {flag.dest for flag in command.flags if flag.required},
    )
    for name, command in COMMANDS.items()
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
    by_name, defaults, required = _LOOKUPS[argv[0]]
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
    if not required <= values.keys():
        return None
    return argparse.Namespace(command=argv[0], **{**defaults, **values})


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


def _run_args(args: argparse.Namespace) -> int:
    try:
        if args.command == "run":
            return run_jobs(args.config)
        _at_least(getattr(args, "workers", None), 1, "--workers")
        # built at each call, so that a runner replaced on the module is the
        # one that runs
        runner = {"table": run_table, "verify": run_verify, "series": run_series}[args.command]
        code, text = runner(args)
        _emit(text, args.out)
        return code
    except MemoryError:
        pass
    # raised once the MemoryError and the frames its traceback holds are
    # gone; a usage error, so that a run job's line names the job
    raise UsageError("out of memory")


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # integers of any size print, and profile integers of any size are read
    # (the limit exists from Python 3.10.7 on)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
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
