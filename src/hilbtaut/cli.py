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
import functools
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

from . import formulas, geometry, oracle, verify
from .formulas import BicharInput, MissingTableError
from .geometry import ConfigError
from .series import TruncSeries

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


@dataclass(frozen=True)
class JobSpec:
    """One unit of CLI work, assembled from flags or a config job entry."""

    command: str
    formula_id: str | None = None
    profile: str | None = None
    n_range: tuple[int, int] | None = None
    k_range: tuple[int, int | None] | None = None
    l_range: tuple[int, int | None] | None = None
    e_name: str = "O"
    f_name: str = "O"
    k_name: str = "O"
    l_name: str = "O"
    out: str | None = None
    format: str = "csv"
    seed: int = DEFAULT_SEED
    suite: str | None = None
    nmax: int | None = None
    count: int | None = None
    workers: int = 1
    n_max: int = 6
    k_max: int | None = None


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


@functools.lru_cache(maxsize=None)
def _profile(path: str) -> geometry.Config:
    return geometry.load_config(path)


@functools.lru_cache(maxsize=None)
def _bichar_series_cached(chis: tuple[int, int, int, int], n_max: int) -> TruncSeries:
    return formulas.bichar_series(*chis, n_max=n_max)


@functools.lru_cache(maxsize=None)
def _curve_series_cached(chis: tuple[int, int, int, int], n_max: int) -> TruncSeries:
    return formulas.curve_series(*chis, n_max=n_max)


def _variant_row(
    config: geometry.Config,
    formula: str,
    n: int,
    k: int | None,
    l: int | None,
    names: dict[str, str],
    n_top: int,
) -> dict:
    surface = config.surface
    if surface is None:
        raise ConfigError(f"formula {formula!r} needs a surface profile")
    e_spec, f_spec, roles = formulas.variant_signature(formula)
    chis = geometry.variant_chis(
        surface,
        roles,
        e_name=names["E"],
        f_name=names["F"],
        k_name=names["K"],
        l_name=names["L"],
    )
    slot_chis = tuple(chis[r] for r in roles)
    e = k if e_spec == "k" else e_spec
    f = l if f_spec == "l" else (k if f_spec == "k" else f_spec)
    euler = formulas.bichar_closed(BicharInput(n, e, f, *slot_chis))
    # one expansion per job: truncating at the job's largest n leaves
    # every lower coefficient unchanged
    series = _bichar_series_cached(slot_chis, n_top)
    series_value = formulas.bichar_from_series(series, n, e, f)
    cross_checks: list[tuple[str, bool]] = []
    notes: list[str] = []

    graded = None
    try:
        tables = geometry.variant_tables(
            surface,
            formulas.required_tables(formula),
            e_name=names["E"],
            f_name=names["F"],
            k_name=names["K"],
            l_name=names["L"],
        )
        graded = formulas.taut_formula(formula, n, k=k or 0, l=l or 0, tables=tables)
        cross_checks.append(("bichar_closed", graded.euler() == euler))
    except ConfigError as exc:
        notes.append(f"euler only: {exc}")
    cross_checks.append(("bichar_series", series_value == euler))
    if formulas.negative_index_suppressed(formula, n, k or 0, l or 0):
        notes.append("vanishing symmetric power of negative index suppressed (k = n)")

    used = sorted({b for role in roles for b in formulas.TABLE_ROLES[role] if b})
    return {
        "formula_id": formula,
        "n": n,
        "k": k,
        "l": l,
        "euler": euler,
        "graded": graded.to_json() if graded is not None else None,
        "cross_checks": [[name, ok] for name, ok in cross_checks],
        "inputs": {
            "bundles": {b: names[b] for b in used},
            "chis": {role: chis[role] for role in sorted(set(roles))},
        },
        "notes": notes,
    }


def _curve_row(config: geometry.Config, n: int, names: dict[str, str], n_top: int) -> dict:
    curve = config.curve
    if curve is None:
        raise ConfigError("formula 'curve_bichar' needs a curve profile")
    chis = geometry.curve_chis(curve, names["E"], names["F"])
    value = formulas.curve_bichar(n, **chis)
    cross_checks: list[list] = []
    if n == 1:
        cross_checks.append(["equals_chi_ef", value == chis["chi_ef"]])
    if n == 2:
        expected = -curve.genus * chis["chi_ef"] + chis["chi_e_dual"] * chis["chi_f"]
        cross_checks.append(["quadratic_simplification", value == expected])
    series = _curve_series_cached(
        (chis["chi_ef"], chis["chi_e_dual"], chis["chi_f"], chis["chi_oc"]), n_top
    )
    cross_checks.append(["curve_series", series.coeff(Q=n) == value])
    return {
        "formula_id": "curve_bichar",
        "n": n,
        "k": None,
        "l": None,
        "euler": value,
        "graded": None,
        "cross_checks": cross_checks,
        "inputs": {
            "bundles": {"E": names["E"], "F": names["F"]},
            "chis": chis,
            "genus": curve.genus,
        },
        "notes": [],
    }


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


def _table_row(payload: tuple) -> dict:
    path, formula, n, k, l, e_name, f_name, k_name, l_name, n_top = payload
    config = _profile(path)
    names = {"E": e_name, "F": f_name, "K": k_name, "L": l_name}
    if formula == "rank3_check":
        return _rank3_row(config)
    if formula == "curve_bichar":
        return _curve_row(config, n, names, n_top)
    return _variant_row(config, formula, n, k, l, names, n_top)


def _table_payloads(job: JobSpec) -> list[tuple]:
    if job.formula_id == "rank3_check":
        if job.n_range is not None or job.k_range is not None or job.l_range is not None:
            raise UsageError("rank3_check takes no --n/--k/--l ranges")
        cells: list[tuple[int | None, int | None, int | None]] = [(None, None, None)]
    else:
        if job.n_range is None:
            raise UsageError(f"--n is required for {job.formula_id}")
        if job.formula_id == "curve_bichar":
            if job.k_range is not None or job.l_range is not None:
                raise UsageError("curve_bichar takes no --k/--l ranges")
            if job.n_range[0] < 1:
                raise UsageError("curve_bichar needs n >= 1")
            uses_k = uses_l = False
        else:
            e_spec, f_spec, _ = formulas.variant_signature(job.formula_id)
            uses_k = "k" in (e_spec, f_spec)
            uses_l = "l" in (e_spec, f_spec)
            if job.k_range is not None and not uses_k:
                raise UsageError(f"{job.formula_id} takes no --k range")
            if job.l_range is not None and not uses_l:
                raise UsageError(f"{job.formula_id} takes no --l range")
            if job.n_range[0] < 1:
                raise UsageError(f"{job.formula_id} needs n >= 1")
        cells = []
        k_range = job.k_range or (0, None)
        l_range = job.l_range or (0, None)
        for n in range(job.n_range[0], job.n_range[1] + 1):
            ks = _expand(k_range, n) if uses_k else [None]
            ls = _expand(l_range, n) if uses_l else [None]
            for k in ks:
                for l in ls:
                    cells.append((n, k, l))
    path = str(geometry.resolve_profile(job.profile))
    n_top = job.n_range[1] if job.n_range is not None else None
    return [
        (path, job.formula_id, n, k, l, job.e_name, job.f_name, job.k_name, job.l_name, n_top)
        for n, k, l in cells
    ]


def _row_sort_key(row: dict) -> tuple:
    blank = -1
    return (
        row["formula_id"],
        row["n"] if row["n"] is not None else blank,
        row["k"] if row["k"] is not None else blank,
        row["l"] if row["l"] is not None else blank,
    )


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


def rows_to_json(job: JobSpec, rows: list[dict]) -> str:
    document = {
        "command": "table",
        "formula_id": job.formula_id,
        "profile": job.profile,
        "rows": rows,
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def run_table(job: JobSpec) -> int:
    payloads = _table_payloads(job)
    rows = verify.parallel_map(_table_row, payloads, job.workers)
    rows.sort(key=_row_sort_key)
    for row in rows:
        for name, ok in row["cross_checks"]:
            if not ok and name in MUST_AGREE_CHECKS:
                raise oracle.ConsistencyError(
                    f"cross-check {name} failed at "
                    f"(formula={row['formula_id']}, n={row['n']}, "
                    f"k={row['k']}, l={row['l']})"
                )
    text = rows_to_csv(rows) if job.format == "csv" else rows_to_json(job, rows)
    _emit(text, job.out)
    return 0


# -- verify ---------------------------------------------------------------


def run_verify(job: JobSpec) -> int:
    kwargs: dict = {"seed": job.seed, "workers": job.workers}
    if job.nmax is not None:
        if job.suite == "graded_powers":
            raise UsageError("graded_powers has no --nmax bound (its domain is fixed)")
        kwargs["nmax"] = job.nmax
    if job.count is not None:
        if job.suite == "orbits":
            raise UsageError("orbits has no --count (it is exhaustive)")
        kwargs["count"] = job.count
    verdict = verify.run_suite(job.suite, **kwargs)
    text = json.dumps(verdict, indent=2, sort_keys=True) + "\n"
    _emit(text, job.out)
    return 0 if verdict["pass"] else 1


# -- series ---------------------------------------------------------------


def run_series(job: JobSpec) -> int:
    config = _profile(str(geometry.resolve_profile(job.profile)))
    surface = config.surface
    if surface is None:
        raise ConfigError("series formulas need a surface profile")
    k_max = job.k_max if job.k_max is not None else job.n_max
    if job.formula_id == "bichar":
        roles = formulas.variant_signature("Extwedgewedge")[2]
        chis = geometry.variant_chis(
            surface, roles, k_name=job.k_name, l_name=job.l_name
        )
        series = formulas.bichar_series(*(chis[r] for r in roles), n_max=job.n_max)
        inputs: dict = {
            "bundles": {"K": job.k_name, "L": job.l_name},
            "chis": chis,
            "n_max": job.n_max,
        }
    elif job.formula_id == "tensor_euler":
        chi_flp = geometry.chi_tensor_powers(
            surface, surface.bundle(job.f_name), surface.bundle(job.l_name), job.n_max
        )
        chi_l = geometry.rr_chi(surface, surface.bundle(job.l_name))
        series = formulas.tensor_euler_series(
            chi_flp, chi_l, surface.chi_o, n_max=job.n_max, k_max=k_max
        )
        inputs = {
            "bundles": {"F": job.f_name, "L": job.l_name},
            "chi_flp": chi_flp,
            "chi_l": chi_l,
            "chi_o": surface.chi_o,
            "n_max": job.n_max,
            "k_max": k_max,
        }
    else:
        raise UsageError(f"unknown series formula {job.formula_id!r}")
    if job.format == "json":
        document = {
            "command": "series",
            "formula_id": job.formula_id,
            "inputs": inputs,
            "series": series.to_jsonable(),
        }
        text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    else:
        text = f"{job.formula_id}: {series}\n"
    _emit(text, job.out)
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
    t.add_argument("--E", dest="e_name", default="O", metavar="BUNDLE")
    t.add_argument("--F", dest="f_name", default="O", metavar="BUNDLE")
    t.add_argument("--K", dest="k_name", default="O", metavar="BUNDLE")
    t.add_argument("--L", dest="l_name", default="O", metavar="BUNDLE")
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
    s.add_argument("--F", dest="f_name", default="O", metavar="BUNDLE")
    s.add_argument("--K", dest="k_name", default="O", metavar="BUNDLE")
    s.add_argument("--L", dest="l_name", default="O", metavar="BUNDLE")
    s.add_argument("--format", choices=("text", "json"), default="text")
    s.add_argument("--out", metavar="PATH")

    r = sub.add_parser("run", help="execute the jobs list of a config file")
    r.add_argument("--config", required=True, metavar="PATH")

    return parser


def _job_from_args(args: argparse.Namespace) -> JobSpec:
    if args.command in ("table", "verify") and args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    if args.command == "table":
        if args.surface and args.curve:
            raise UsageError("pass either --surface or --curve, not both")
        profile = args.surface or args.curve
        if profile is None:
            raise UsageError("a --surface or --curve profile is required")
        return JobSpec(
            command="table",
            formula_id=args.formula,
            profile=profile,
            n_range=None if args.n is None else _exact_range(args.n, "--n"),
            k_range=None if args.k is None else parse_range(args.k, "--k", allow_n=True),
            l_range=None if args.l is None else parse_range(args.l, "--l", allow_n=True),
            e_name=args.e_name,
            f_name=args.f_name,
            k_name=args.k_name,
            l_name=args.l_name,
            out=args.out,
            format=args.format,
            workers=args.workers,
        )
    if args.command == "verify":
        if args.count is not None and args.count < 1:
            raise UsageError(f"--count must be at least 1, got {args.count}")
        return JobSpec(
            command="verify",
            suite=args.suite,
            seed=args.seed,
            nmax=args.nmax,
            count=args.count,
            workers=args.workers,
            out=args.out,
        )
    if args.command == "series":
        return JobSpec(
            command="series",
            formula_id=args.formula,
            profile=args.surface,
            n_max=args.n_max,
            k_max=args.k_max,
            f_name=args.f_name,
            k_name=args.k_name,
            l_name=args.l_name,
            format=args.format,
            out=args.out,
        )
    raise UsageError(f"unknown command {args.command!r}")


def _exact_range(text: str, flag: str) -> tuple[int, int]:
    lo, hi = parse_range(text, flag, allow_n=False)
    assert hi is not None
    return lo, hi


def _run_args(args: argparse.Namespace) -> int:
    if args.command == "run":
        return run_jobs(args.config)
    job = _job_from_args(args)
    if job.command == "table":
        return run_table(job)
    if job.command == "verify":
        return run_verify(job)
    return run_series(job)


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
