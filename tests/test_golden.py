"""Golden CLI outputs: fixed invocations must print byte-identical stdout.

The files under ``tests/golden/`` hold the stdout of each invocation
below as recorded from a reference build.  A refactor that keeps
behaviour must keep every byte; a change that means to alter output
re-records with ``PYTHONPATH=src python tests/test_golden.py`` and says
so in its change notes.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from hilbtaut import cli
from hilbtaut.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

_VARIANTS = ("cohF", "cohEvee", "ExtEF", "cohwedge", "ExtEwedge", "ExtwedgeF", "Extwedgewedge")


def _variant_argv(formula: str, profile: str, names: tuple[str, ...], fmt: str) -> list[str]:
    ranges = ["--n", "1..3" if fmt == "csv" else "1..2"]
    if formula in ("cohwedge", "ExtEwedge", "ExtwedgeF", "Extwedgewedge"):
        ranges += ["--k", "0..n"]
    if formula == "Extwedgewedge":
        ranges += ["--l", "0..n"]
    e, f, k, l = names
    return [
        "table", "--formula", formula, "--surface", profile, *ranges,
        "--E", e, "--F", f, "--K", k, "--L", l, "--format", fmt,
    ]


def _invocations() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    # k3 with every bundle H; p2 with mixed names so a swapped letter shows
    for profile, names in (("k3.json", ("H", "H", "H", "H")), ("p2.json", ("O", "H", "H", "O"))):
        stem = profile.removesuffix(".json")
        for formula in _VARIANTS:
            for fmt in ("csv", "json"):
                cases[f"table_{formula}_{stem}.{fmt}"] = _variant_argv(formula, profile, names, fmt)
    for fmt in ("csv", "json"):
        cases[f"table_curve_bichar.{fmt}"] = [
            "table", "--formula", "curve_bichar", "--curve", "genus0_curve.json",
            "--n", "1..4", "--E", "P", "--F", "O", "--format", fmt,
        ]
    cases["table_rank3_check_k3.csv"] = ["table", "--formula", "rank3_check", "--surface", "k3.json"]
    cases["table_rank3_check_p2.json"] = [
        "table", "--formula", "rank3_check", "--surface", "p2.json", "--format", "json",
    ]
    cases["series_bichar_k3.txt"] = [
        "series", "--formula", "bichar", "--surface", "k3.json", "--n-max", "3", "--K", "H", "--L", "H",
    ]
    cases["series_bichar_p2.json"] = [
        "series", "--formula", "bichar", "--surface", "p2.json", "--n-max", "2",
        "--K", "H", "--format", "json",
    ]
    cases["series_tensor_euler_k3.txt"] = [
        "series", "--formula", "tensor_euler", "--surface", "k3.json", "--n-max", "4",
        "--F", "H", "--L", "H",
    ]
    cases["series_tensor_euler_p2.json"] = [
        "series", "--formula", "tensor_euler", "--surface", "p2.json", "--n-max", "3",
        "--k-max", "2", "--L", "H", "--format", "json",
    ]
    cases["verify_appendix.json"] = ["verify", "--suite", "appendix", "--nmax", "3", "--count", "5"]
    cases["verify_whom_oracle.json"] = ["verify", "--suite", "whom_oracle", "--nmax", "3", "--count", "3"]
    cases["verify_tensor_euler.json"] = ["verify", "--suite", "tensor_euler", "--nmax", "3", "--count", "3"]
    cases["verify_graded_powers.json"] = ["verify", "--suite", "graded_powers", "--count", "10"]
    cases["verify_orbits.json"] = ["verify", "--suite", "orbits", "--nmax", "4"]
    cases["verify_orbits_nmax7.json"] = ["verify", "--suite", "orbits", "--nmax", "7"]
    cases["run_jobs.txt"] = ["run", "--config", str(GOLDEN / "run_jobs_config.json")]
    return cases


INVOCATIONS = _invocations()


def _stdout(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_golden_output(name):
    code, out = _stdout(INVOCATIONS[name])
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_golden_output_is_read_without_argparse(monkeypatch, name):
    # every golden line, and every job of the run config, is a plain
    # "flag value" line that the flag table reads without a parser
    def no_parser(*args, **kwargs):
        raise AssertionError("built an argparse parser")

    monkeypatch.setattr(cli, "_build_parser", no_parser)
    code, out = _stdout(INVOCATIONS[name])
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for name, argv in sorted(INVOCATIONS.items()):
        code, out = _stdout(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / name).write_bytes(out.encode())
