"""End-to-end tests for the command line interface."""

from __future__ import annotations

import argparse
import errno
import io
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from hilbtaut import cli, formulas, geometry, graded, oracle, verify
from hilbtaut.cli import CSV_HEADER, SERIES_FORMULAS, UsageError, main, parse_range
from hilbtaut.graded import GradedDim
from hilbtaut.series import TruncSeries
from hilbtaut.verify import DEFAULT_SEED


# -- range parsing ---------------------------------------------------------------


def test_parse_range_single_value():
    assert parse_range("3", "--n") == (3, 3)
    assert parse_range(" 0 ", "--n") == (0, 0)


def test_parse_range_interval():
    assert parse_range("1..4", "--n") == (1, 4)
    assert parse_range("2..2", "--n") == (2, 2)
    assert parse_range(" 1 .. 3 ", "--n") == (1, 3)


def test_parse_range_symbolic_upper_bound():
    assert parse_range("0..n", "--k", allow_n=True) == (0, None)
    with pytest.raises(UsageError):
        parse_range("0..n", "--n")


def test_parse_range_rejects_garbage():
    bad_range = '--n: bad range {!r}; use "a", "a..b" or "a..n"'.format
    for text, allow_n, message in [
        ("", True, bad_range("")),
        ("x", True, bad_range("x")),
        ("1..", True, bad_range("1..")),
        ("..3", True, bad_range("..3")),
        ("n..2", True, bad_range("n..2")),
        ("1..0", True, "--n: empty range '1..0'"),
        ("-1", True, "--n: range must be non-negative, got '-1'"),
        ("1..2..3", True, bad_range("1..2..3")),
        ("2..", True, bad_range("2..")),
        ("..", True, bad_range("..")),
        # the order and the "n" bound are checked before the sign
        ("-2..-5", True, "--n: empty range '-2..-5'"),
        ("-1..n", False, '--n: upper bound "n" is only valid for --k/--l'),
    ]:
        with pytest.raises(UsageError) as info:
            parse_range(text, "--n", allow_n=allow_n)
        assert str(info.value) == message, text


# -- table command -----------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table_csv_shape(capsys):
    code, out, err = run_cli(
        capsys, "table", "--formula", "cohF", "--surface", "k3.json", "--n", "1..2"
    )
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[0] == "formula_id,n,k,l,euler,graded,cross_checks"
    assert lines[1] == "cohF,1,,,2,d0:1;d2:1,bichar_closed:pass;bichar_series:pass"
    assert lines[2] == "cohF,2,,,4,d0:1;d2:2;d4:1,bichar_closed:pass;bichar_series:pass"


def test_table_double_wedge_grid(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--formula", "Extwedgewedge", "--surface", "k3.json",
        "--n", "1..2", "--k", "0..n", "--l", "0..n",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    # one row per (n, k, l) cell with k, l <= n
    assert len(rows) == 4 + 9
    cell = next(r for r in rows if r[1:4] == ["2", "1", "1"])
    assert cell[4] == "8"
    assert cell[5] == "d0:2;d2:4;d4:2"


def test_table_json_structure(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--formula", "ExtEF", "--surface", "k3.json",
        "--n", "1", "--E", "H", "--F", "H", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "table"
    row = data["rows"][0]
    assert row["euler"] == sum(
        (-1) ** int(d) * v for d, v in row["graded"].items()
    )
    assert row["inputs"]["bundles"] == {"E": "H", "F": "H"}
    assert all(name and isinstance(ok, bool) for name, ok in row["cross_checks"])


def test_table_rank3_row(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--formula", "rank3_check", "--surface", "k3.json",
        "--format", "json",
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["euler"] == 21
    assert row["inputs"]["naive"] == 1
    assert ["lambda_sq_conjecture", False] in row["cross_checks"]


def test_table_rank3_requires_const_chi_omega(capsys):
    # a profile without a surface cannot run the check
    code, _, err = run_cli(
        capsys, "table", "--formula", "rank3_check", "--surface",
        "genus0_curve.json",
    )
    assert code == 2 and "error" in err


K3_LATTICE = {"chi_O": 2, "picard_rank": 1, "gram": [[4]], "canonical": [0], "bundles": {"H": [1]}}


def test_table_rank3_derives_chi_omega_when_the_profile_omits_it(capsys, tmp_path):
    path = tmp_path / "k3_lattice.json"
    path.write_text(json.dumps({"surface": K3_LATTICE}))
    code, out, _ = run_cli(
        capsys, "table", "--formula", "rank3_check", "--surface", str(path), "--format", "json"
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["euler"] == 21 and row["inputs"]["chi_Omega"] == -20


def test_a_wrong_chi_omega_is_rejected_at_load_naming_its_key(capsys, tmp_path):
    path = tmp_path / "k3_lattice.json"
    path.write_text(json.dumps({"surface": {**K3_LATTICE, "chi_Omega": -21}}))
    code, out, err = run_cli(
        capsys, "table", "--formula", "rank3_check", "--surface", str(path)
    )
    assert code == 2 and out == ""
    assert err == "error: surface.chi_Omega is -21 but K.K - 10*chi_O gives -20\n"


def test_a_missing_cohomology_table_degrades_the_rows_to_euler_only(capsys, tmp_path):
    path = tmp_path / "k3_lattice.json"
    path.write_text(json.dumps({"surface": {**K3_LATTICE, "cohomology": {"O": {"0": 1, "2": 1}}}}))
    argv = ["table", "--formula", "ExtEF", "--E", "H", "--F", "H", "--n", "1..2", "--surface", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out.splitlines()[1:] == [
        "ExtEF,1,,,2,,bichar_series:pass",
        "ExtEF,2,,,20,,bichar_series:pass",
    ]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    for row in json.loads(out)["rows"]:
        assert row["graded"] is None
        assert row["notes"] == [
            "euler only: no cohomology table for 'dual(H)' (class [-1]); "
            "graded formulas need user-supplied tables"
        ]


def test_a_missing_hom_table_names_its_hom_key_in_the_euler_only_note(capsys, tmp_path):
    # Hom*(H, G) is neither H*(G) nor H*(H^dual), so its key is hom(H,G)
    data = json.loads(Path(cli.geometry.packaged_profile("k3.json")).read_text())
    data["surface"]["bundles"] = {"H": [1], "G": [3]}
    path = tmp_path / "k3_g.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(
        capsys, "table", "--formula", "ExtEF", "--E", "H", "--F", "G", "--n", "1",
        "--format", "json", "--surface", str(path),
    )
    assert code == 0 and err == ""
    rows = json.loads(out)["rows"]
    assert rows and all(row["graded"] is None for row in rows)
    for row in rows:
        assert row["notes"] == [
            "euler only: no cohomology table for 'hom(H,G)' (class [2]); "
            "graded formulas need user-supplied tables"
        ]


def _k3_with_hom_h_h(tmp_path, table):
    data = json.loads(Path(cli.geometry.packaged_profile("k3.json")).read_text())
    data["surface"]["cohomology"]["hom(H,H)"] = table
    path = tmp_path / "k3_hom_h_h.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_two_keys_of_one_class_with_different_tables_exit_two(capsys, tmp_path):
    # hom(H,H) and O are one class; a table that differs from O's must not
    # answer for Hom*(H, H) = H*(O)
    path = _k3_with_hom_h_h(tmp_path, {"0": 2})
    code, out, err = run_cli(
        capsys, "table", "--formula", "ExtEF", "--E", "H", "--F", "H", "--n", "1", "--surface", path
    )
    assert code == 2 and out == ""
    assert err == (
        "error: surface.cohomology['O'] and ['hom(H,H)'] are both class [0] "
        "but their tables differ\n"
    )


@pytest.mark.parametrize("variant", formulas.VARIANTS)
def test_two_keys_of_one_class_with_equal_tables_give_the_plain_rows(capsys, tmp_path, variant):
    e_spec, f_spec, _, _ = formulas.variant_signature(variant)
    argv = ["table", "--formula", variant, "--n", "1..3"]
    argv += ["--k", "0..n"] if "k" in (e_spec, f_spec) else []
    argv += ["--l", "0..n"] if "l" in (e_spec, f_spec) else []
    argv += ["--E", "H", "--F", "H", "--K", "H", "--L", "H"]
    plain = run_cli(capsys, *argv, "--surface", "k3.json")
    duplicated = run_cli(capsys, *argv, "--surface", _k3_with_hom_h_h(tmp_path, {"0": 1, "2": 1}))
    assert plain[0] == 0 and plain[1]
    assert duplicated == plain


def test_table_curve_rows(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--formula", "curve_bichar", "--curve",
        "genus0_curve.json", "--n", "1..2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].startswith("curve_bichar,1,,,1,")
    assert lines[2].startswith("curve_bichar,2,,,1,")
    assert "equals_chi_ef:pass" in lines[1]
    assert "quadratic_simplification:pass" in lines[2]


def test_table_curve_nontrivial_bundles(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--formula", "curve_bichar", "--curve",
        "genus0_curve.json", "--n", "2", "--E", "P", "--F", "P",
    )
    assert code == 0


def test_table_usage_errors(capsys):
    # missing profile
    code, _, err = run_cli(capsys, "table", "--formula", "cohF", "--n", "1")
    assert code == 2
    # both profiles at once
    code, _, err = run_cli(
        capsys, "table", "--formula", "cohF", "--surface", "k3.json",
        "--curve", "genus0_curve.json", "--n", "1",
    )
    assert code == 2
    # missing --n
    code, _, err = run_cli(
        capsys, "table", "--formula", "cohF", "--surface", "k3.json"
    )
    assert code == 2
    # k range on a formula without a wedge index
    code, _, err = run_cli(
        capsys, "table", "--formula", "cohF", "--surface", "k3.json",
        "--n", "1", "--k", "0..n",
    )
    assert code == 2
    # n = 0 rejected for formulas over configurations of points
    code, _, err = run_cli(
        capsys, "table", "--formula", "cohF", "--surface", "k3.json", "--n", "0"
    )
    assert code == 2
    # unknown packaged profile
    code, _, err = run_cli(
        capsys, "table", "--formula", "cohF", "--surface", "nope.json", "--n", "1"
    )
    assert code == 2


def test_table_rejects_unknown_bundle_even_when_unused(capsys):
    code, out, err = run_cli(
        capsys, "table", "--formula", "cohF", "--surface", "k3.json",
        "--n", "1", "--E", "nope",
    )
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "unknown bundle 'nope'" in err


def test_table_rejects_unknown_bundle_when_no_cell_is_in_range(capsys):
    # k starts above every n, so the job has no rows; the bundle is still checked
    code, out, err = run_cli(
        capsys, "table", "--formula", "cohwedge", "--surface", "k3.json",
        "--L", "nosuch", "--n", "1..3", "--k", "5..n",
    )
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "unknown bundle 'nosuch'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--formula", "curve_bichar", "--curve", "genus0_curve.json", "--n", "1", "--K", "nosuch"],
        ["--formula", "rank3_check", "--surface", "k3.json", "--E", "nosuch"],
    ],
)
def test_every_table_formula_rejects_an_unknown_bundle(capsys, argv):
    code, out, err = run_cli(capsys, "table", *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "unknown bundle 'nosuch'" in err


#: every table formula that refuses a range flag, and the one line that
#: names all the flags it refuses
REFUSALS = {
    "cohF": "cohF takes no --k/--l ranges",
    "cohEvee": "cohEvee takes no --k/--l ranges",
    "ExtEF": "ExtEF takes no --k/--l ranges",
    "cohwedge": "cohwedge takes no --l range",
    "ExtEwedge": "ExtEwedge takes no --l range",
    "ExtwedgeF": "ExtwedgeF takes no --l range",
    "curve_bichar": "curve_bichar takes no --k/--l ranges",
    "rank3_check": "rank3_check takes no --n/--k/--l ranges",
}

_BAD_EMPTY_RANGE = '''bad range ''; use "a", "a..b" or "a..n"'''


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rank3_check", "--n", "1"], "rank3_check takes no --n/--k/--l ranges"),
        (["curve_bichar", "--k", "1"], "--n is required for curve_bichar"),
        (["cohF", "--k", "1"], "--n is required for cohF"),
        (["cohwedge", "--n", "1", "--l", "0..n"], "cohwedge takes no --l range"),
        (["curve_bichar", "--n", "1", "--k", "0..n"], "curve_bichar takes no --k/--l ranges"),
        (["curve_bichar", "--n", "0..2"], "curve_bichar needs n >= 1"),
        # every (formula, refused flag) pair of the table, also one refused
        # together with n < 1, which is checked after it
        *(
            ([formula, *(["--n", "0"] if "n" in flags else []), f"--{x}", "1"], REFUSALS[formula])
            for formula, (_, _, flags, _) in cli.TABLE_JOBS.items()
            for x in "nkl"
            if x not in flags
        ),
        (["ExtEF", "--n", ""], f"--n: {_BAD_EMPTY_RANGE}"),
        (["rank3_check", "--n", ""], f"--n: {_BAD_EMPTY_RANGE}"),
        (["cohwedge", "--n", "1", "--k", ""], f"--k: {_BAD_EMPTY_RANGE}"),
        (["Extwedgewedge", "--n", "1", "--k", "0..n", "--l", ""], f"--l: {_BAD_EMPTY_RANGE}"),
    ],
)
def test_table_usage_errors_beat_an_unknown_profile(capsys, argv, message):
    code, out, err = run_cli(capsys, "table", "--formula", *argv, "--surface", "nope.json")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["cohF", "--surface", "k3.json", "--n", "1..3"],
        ["Extwedgewedge", "--surface", "k3.json", "--n", "1..3", "--k", "0..n", "--l", "0..n"],
        ["curve_bichar", "--curve", "genus0_curve.json", "--n", "1..3"],
        ["rank3_check", "--surface", "k3.json"],
    ],
)
def test_each_table_job_loads_its_profile_once(capsys, monkeypatch, argv):
    real = cli.geometry.load_config
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.geometry, "load_config", counting)
    code, _, _ = run_cli(capsys, "table", "--formula", *argv)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("variant", formulas.VARIANTS)
@pytest.mark.parametrize(
    "profile, names",
    [
        ("k3.json", {"E": "H", "F": "H", "K": "H", "L": "H"}),
        ("p2.json", {"E": "O", "F": "H", "K": "H", "L": "O"}),
    ],
)
def test_table_rows_are_the_library_substitution(capsys, variant, profile, names):
    # the CLI rows and taut_formula resolve (k, l) through one wedge_indices
    e_spec, f_spec, _, _ = formulas.variant_signature(variant)
    argv = ["table", "--formula", variant, "--surface", profile, "--n", "1..4"]
    argv += ["--k", "0..n"] if "k" in (e_spec, f_spec) else []
    argv += ["--l", "0..n"] if "l" in (e_spec, f_spec) else []
    for letter, name in names.items():
        argv += [f"--{letter}", name]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    surface = cli.geometry.load_config(cli.geometry.packaged_profile(profile)).surface
    tables = cli.geometry.variant_tables(surface, formulas.variant_slots(variant), names)
    rows = json.loads(out)["rows"]
    assert rows
    for row in rows:
        k, l = row["k"] or 0, row["l"] or 0
        expected = formulas.taut_formula(variant, row["n"], k, l, tables)
        assert row["graded"] == expected.to_json(), row


def test_table_rejects_non_integer_table_dimensions(capsys, tmp_path):
    profile = {
        "surface": {
            "chi_O": 2, "picard_rank": 1, "gram": [[4]], "canonical": [0],
            "bundles": {"H": [1]}, "cohomology": {"H": {"0": 4.9}},
        }
    }
    path = tmp_path / "float.json"
    path.write_text(json.dumps(profile))
    code, out, err = run_cli(
        capsys, "table", "--formula", "cohF", "--surface", str(path), "--n", "1"
    )
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_table_rejects_a_degree_key_that_is_not_a_plain_integer(capsys, tmp_path):
    profile = {
        "surface": {
            "chi_O": 2, "picard_rank": 1, "gram": [[4]], "canonical": [0],
            "bundles": {"H": [1]}, "cohomology": {"H": {"0": 3, "00": 1}},
        }
    }
    path = tmp_path / "padded.json"
    path.write_text(json.dumps(profile))
    code, out, err = run_cli(
        capsys, "table", "--formula", "cohF", "--surface", str(path), "--F", "H", "--n", "1"
    )
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: surface.cohomology['H']: ")
    assert "degree '00' is not written as a plain integer" in err


@pytest.mark.parametrize(
    "section, field", [("surface", "bundles"), ("surface", "cohomology"), ("curve", "bundles")]
)
def test_table_rejects_a_profile_section_that_is_not_an_object(
    capsys, tmp_path, section, field
):
    base = {
        "surface": {"chi_O": 2, "picard_rank": 1, "gram": [[4]], "canonical": [0]},
        "curve": {"genus": 0},
    }[section]
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({section: {**base, field: [1]}}))
    formula = "cohF" if section == "surface" else "curve_bichar"
    code, out, err = run_cli(
        capsys, "table", "--formula", formula, f"--{section}", str(path), "--n", "1"
    )
    assert code == 2 and out == ""
    assert err == f"error: {section}.{field} must be a JSON object, got [1]\n"


def test_table_rejects_a_curve_profile_with_cohomology_tables(capsys, tmp_path):
    # no curve row reads a cohomology table, so a curve profile holds none
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"curve": {"genus": 0, "cohomology": {"O": {"0": 1}}}}))
    code, out, err = run_cli(
        capsys, "table", "--formula", "curve_bichar", "--curve", str(path), "--n", "1"
    )
    assert (code, out) == (2, "")
    assert err == "error: unknown curve fields ['cohomology']\n"


def test_table_rejects_a_curve_bundle_of_rank_below_one_naming_its_key(capsys, tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(
        {"curve": {"genus": 0, "bundles": {"P": {"rank": 0, "degree": 1}}}}
    ))
    code, out, err = run_cli(
        capsys, "table", "--formula", "curve_bichar", "--curve", str(path), "--n", "1"
    )
    assert code == 2 and out == ""
    assert err == "error: curve.bundles['P']: bundle rank must be positive, got 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--formula", "cohF", "--F", "H", "--n", "1"],
        ["table", "--formula", "rank3_check"],
        ["series", "--formula", "tensor_euler", "--F", "H", "--n-max", "1"],
    ],
    ids=["table_cohF", "table_rank3_check", "series_tensor_euler"],
)
def test_an_odd_bundle_is_rejected_at_load_naming_its_key(capsys, tmp_path, argv):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"surface": {
        "chi_O": 1, "picard_rank": 1, "gram": [[3]], "canonical": [0],
        "bundles": {"H": [1]}, "chi_Omega": 0,
    }}))
    code, out, err = run_cli(capsys, *argv, "--surface", str(path))
    assert code == 2 and out == ""
    assert err == (
        "error: surface.bundles['H']: non-integral Riemann-Roch: "
        "D.D - D.K = 3 is odd\n"
    )


@pytest.mark.parametrize(
    "profile, argv, message",
    [
        (
            {"surface": {"chi_O": 2, "picard_rank": 1, "gram": [[4]], "canonical": [0],
                         "bundles": {"O": [1], "H": [1]}}},
            ["--formula", "cohF", "--F", "H", "--n", "1..2", "--surface"],
            "surface.bundles['O'] must be the zero class, got [1]",
        ),
        (
            {"curve": {"genus": 0, "bundles": {"O": {"rank": 1, "degree": 1},
                                               "P": {"rank": 1, "degree": 1}}}},
            ["--formula", "curve_bichar", "--E", "P", "--F", "P", "--n", "1..2", "--curve"],
            "curve.bundles['O'] must be rank 1, degree 0, got rank 1, degree 1",
        ),
        (
            {"surface": {"chi_O": 2, "picard_rank": 1, "gram": [[4]], "canonical": [0],
                         "bundles": {"H": [1]}, "cohomology": {"Z": {"0": 2}}}},
            ["--formula", "cohF", "--n", "1", "--surface"],
            "surface.cohomology['Z']: unknown bundle 'Z'; profile has ['H']",
        ),
        (
            {"surface": {**K3_LATTICE, "chi_O": "2"}},
            ["--formula", "cohF", "--n", "1", "--surface"],
            'surface.chi_O must be an integer, got "2"',
        ),
        (
            {"surface": {**K3_LATTICE, "chi_Omega": None}},
            ["--formula", "rank3_check", "--surface"],
            "surface.chi_Omega must be an integer, got null",
        ),
        (
            {"surface": {**K3_LATTICE, "bundles": None}},
            ["--formula", "rank3_check", "--surface"],
            "surface.bundles must be a JSON object, got null",
        ),
        (
            {"surface": {**K3_LATTICE, "canonical": [True]}},
            ["--formula", "rank3_check", "--surface"],
            "surface.canonical must be an integer, got true",
        ),
        (
            {"surface": {**K3_LATTICE, "cohomology": {"H": [4]}}},
            ["--formula", "cohF", "--n", "1", "--surface"],
            "surface.cohomology['H'] must be a degree->dim map",
        ),
        (
            {"surface": {"chi_O": 2, "picard_rank": 1, "gram": [[4]]}},
            ["--formula", "cohF", "--n", "1", "--surface"],
            "surface is missing field 'canonical'",
        ),
        (
            {"surface": {**K3_LATTICE, "picard_rank": 0}},
            ["--formula", "cohF", "--n", "1", "--surface"],
            "surface.picard_rank must be positive, got 0",
        ),
        (
            {"surface": {**K3_LATTICE, "gram": [[4], [4]]}},
            ["--formula", "cohF", "--n", "1", "--surface"],
            "surface.gram must be a 1x1 matrix",
        ),
        (
            {"surface": {"chi_O": 2, "picard_rank": 2, "gram": [[0, 1], [1]],
                         "canonical": [0, 0]}},
            ["--formula", "cohF", "--n", "1", "--surface"],
            "surface.gram row 1 must have length 2",
        ),
        (
            {"surface": {**K3_LATTICE, "canonical": [0, 0]}},
            ["--formula", "cohF", "--n", "1", "--surface"],
            "surface.canonical must have length 1",
        ),
        (
            {"curve": {"bundles": {}}},
            ["--formula", "curve_bichar", "--n", "1", "--curve"],
            "curve is missing field 'genus'",
        ),
        (
            {"curve": {"genus": -1}},
            ["--formula", "curve_bichar", "--n", "1", "--curve"],
            "curve.genus must be non-negative, got -1",
        ),
        (
            {"surface": 3},
            ["--formula", "cohF", "--n", "1", "--surface"],
            "config field 'surface' must be an object or a profile name",
        ),
        (
            {"surface": K3_LATTICE, "jobs": 3},
            ["--formula", "cohF", "--n", "1", "--surface"],
            "config field 'jobs' must be a list of objects",
        ),
    ],
    ids=["surface_O_not_zero", "curve_O_not_trivial", "cohomology_key_unknown_bundle",
         "chi_O_a_string", "chi_Omega_null", "bundles_null", "canonical_a_bool",
         "cohomology_table_a_list", "canonical_missing",
         "picard_rank_zero", "gram_too_many_rows", "gram_row_too_short",
         "canonical_too_long", "genus_missing", "genus_negative",
         "surface_not_an_object", "jobs_not_a_list"],
)
def test_table_rejects_a_profile_at_load_naming_its_key(
    capsys, tmp_path, profile, argv, message
):
    # every structure-sheaf slot is read through the name O, so a profile
    # binding O to anything else would skew every Euler number silently
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    code, out, err = run_cli(capsys, "table", *argv, str(path))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "files, fragment",
    [
        ({"profile.json": b'{"surface": "profile.json"}'}, "references itself"),
        (
            {
                "profile.json": b'{"surface": "other.json"}',
                "other.json": b'{"surface": "profile.json"}',
            },
            "references itself",
        ),
        ({"profile.json": b"[" * 100_000}, "nests too deeply"),
        ({"profile.json": b'{"surface": "\xff"}'}, "is not UTF-8"),
        ({"profile.json": '{"surface": "k3.json"}'.encode("utf-16")}, "is not UTF-8 text"),
        ({"profile.json": b"[1]"}, "must be a JSON object"),
        ({"profile.json": b'{"surface": '}, "is not valid JSON: "),
    ],
    ids=["self_reference", "reference_cycle", "deep_nesting", "not_utf8", "utf16",
         "not_an_object", "not_json"],
)
def test_table_rejects_an_unloadable_profile_naming_the_file(
    capsys, tmp_path, monkeypatch, files, fragment
):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    code, out, err = run_cli(
        capsys, "table", "--formula", "cohF", "--surface", "profile.json", "--n", "1"
    )
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: config profile.json ")
    assert fragment in err


@pytest.mark.parametrize("command", ["table", "verify"])
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_are_rejected(capsys, command, workers):
    args = {
        "table": ["--formula", "cohF", "--surface", "k3.json", "--n", "1"],
        "verify": ["--suite", "orbits", "--nmax", "2"],
    }[command]
    code, out, err = run_cli(capsys, command, *args, "--workers", workers)
    assert code == 2 and out == ""
    assert err == f"error: --workers must be at least 1, got {workers}\n"


def test_table_consistency_failure_is_exit_one(capsys, monkeypatch):
    real = cli.formulas.bichar_cells

    def lying(*args: int):
        cell = real(*args)
        return lambda n, k, l: cell(n, k, l) + 1

    monkeypatch.setattr(cli.formulas, "bichar_cells", lying)
    for fmt in ("csv", "json"):
        code, out, err = run_cli(
            capsys, "table", "--formula", "cohF", "--surface", "k3.json", "--n", "1",
            "--format", fmt,
        )
        assert (code, out) == (1, ""), fmt
        assert "consistency failure" in err


def test_a_failed_check_not_declared_a_record_is_exit_one(capsys, monkeypatch):
    job, *rest = cli.TABLE_JOBS["cohF"]

    def with_unlisted_check(*args):
        rows = list(job(*args))
        rows[0]["cross_checks"].append(["unlisted_check", False])
        return rows

    monkeypatch.setitem(cli.TABLE_JOBS, "cohF", (with_unlisted_check, *rest))
    for fmt in ("csv", "json"):
        code, out, err = run_cli(
            capsys, "table", "--formula", "cohF", "--surface", "k3.json", "--n", "1",
            "--format", fmt,
        )
        assert (code, out) == (1, ""), fmt
        assert err == (
            "consistency failure: cross-check unlisted_check failed at "
            "(formula=cohF, n=1, k=None, l=None)\n"
        )


@pytest.mark.parametrize(
    "fmt, renderer", [("csv", "_render_checks"), ("json", "_json")], ids=["csv", "json"]
)
def test_a_table_renders_each_row_before_its_job_builds_the_next(
    capsys, monkeypatch, fmt, renderer
):
    real_row, real_render = cli._row, getattr(cli, renderer)
    built, seen = [], []

    def counting_row(*args, **kwargs):
        built.append(args)
        return real_row(*args, **kwargs)

    def watching_render(value):
        # csv renders the checks of each row; json encodes each row, and
        # the document's frame, which has no checks
        if fmt == "csv" or "cross_checks" in value:
            seen.append(len(built))
        return real_render(value)

    monkeypatch.setattr(cli, "_row", counting_row)
    monkeypatch.setattr(cli, renderer, watching_render)
    code, out, _ = run_cli(
        capsys, "table", "--formula", "ExtEF", "--surface", "k3.json", "--n", "1..3",
        "--format", fmt,
    )
    rows = out.splitlines()[1:] if fmt == "csv" else json.loads(out)["rows"]
    assert code == 0 and len(rows) == 3
    # the rows built when each row was rendered
    assert seen == [1, 2, 3]


@pytest.mark.parametrize("n_range", ["1..5", "3..5"])
def test_table_expands_the_bichar_series_once_per_job(capsys, monkeypatch, n_range):
    real = cli.formulas.bichar_series
    calls = []

    def counting(*chis, n_max, k_max, l_max):
        calls.append((n_max, k_max, l_max))
        return real(*chis, n_max=n_max, k_max=k_max, l_max=l_max)

    monkeypatch.setattr(cli.formulas, "bichar_series", counting)
    code, _, _ = run_cli(
        capsys, "table", "--formula", "ExtEwedge", "--surface", "k3.json",
        "--E", "H", "--L", "H", "--n", n_range, "--k", "0..n",
    )
    assert code == 0
    # ExtEwedge is (e, f) = (1, k): v to order 1, u to the top n
    assert calls == [(5, 1, 5)]


def test_a_table_whose_ranges_select_no_cell_prints_only_the_header(capsys):
    empty = {"command": "table", "formula_id": "Extwedgewedge", "profile": "p2.json", "rows": []}
    for fmt, header in [
        ("csv", ",".join(CSV_HEADER) + "\n"),
        ("json", json.dumps(empty, indent=2, sort_keys=True) + "\n"),
    ]:
        code, out, err = run_cli(
            capsys, "table", "--formula", "Extwedgewedge", "--surface", "p2.json",
            "--K", "H", "--L", "H", "--n", "1..2", "--k", "3..4", "--l", "0..n",
            "--format", fmt,
        )
        assert (code, out, err) == (0, header, ""), fmt


def test_a_json_table_is_its_document_encoded_whole(capsys, tmp_path):
    # the rows take the place of the frame's last "null", also when the
    # profile path holds one before it
    profile = tmp_path / "null" / "null.json"
    profile.parent.mkdir()
    profile.write_text(Path(geometry.resolve_profile("k3.json")).read_text())
    code, out, err = run_cli(
        capsys, "table", "--formula", "Extwedgewedge", "--surface", str(profile),
        "--K", "H", "--L", "H", "--n", "1..2", "--k", "0..n", "--l", "0..n", "--format", "json",
    )
    assert (code, err) == (0, "")
    names = {"E": "O", "F": "O", "K": "H", "L": "H"}
    surface = geometry.load_config(str(profile)).surface
    rows = list(cli._variant_job("Extwedgewedge", surface, names, ((1, 2), (0, None), (0, None))))
    assert len(rows) == 13
    document = {
        "command": "table", "formula_id": "Extwedgewedge", "profile": str(profile), "rows": rows,
    }
    assert out == json.dumps(document, indent=2, sort_keys=True, default=GradedDim.to_json) + "\n"


def count_power_passes(monkeypatch):
    """Record the top power k of every pass over a space's power layers."""
    calls = []
    layers = graded._power_layers

    def counting(k, space, sym):
        calls.append(k)
        return layers(k, space, sym)

    monkeypatch.setattr(graded, "_power_layers", counting)
    return calls


def test_table_runs_one_power_pass_per_slot_table(capsys, monkeypatch):
    passes = count_power_passes(monkeypatch)
    code, _, _ = run_cli(
        capsys, "table", "--formula", "Extwedgewedge", "--surface", "k3.json",
        "--K", "H", "--L", "H", "--n", "1..5", "--k", "0..n", "--l", "0..n",
    )
    assert code == 0
    assert passes == [5, 5, 5, 5]


def test_whom_oracle_runs_a_fixed_number_of_power_passes_per_family(capsys, monkeypatch):
    passes = count_power_passes(monkeypatch)
    counts = []
    for nmax in ("2", "5"):
        passes.clear()
        code, _, _ = run_cli(
            capsys, "verify", "--suite", "whom_oracle", "--count", "3", "--nmax", nmax
        )
        assert code == 0
        assert set(passes) == {int(nmax)}
        counts.append(len(passes))
    # two orientations of four tables bound the passes of one family
    assert counts[0] == counts[1] <= 3 * 8


def test_table_resolves_chis_and_tables_once_per_job(capsys, monkeypatch):
    calls = []
    for name in ("variant_chis", "variant_tables"):
        real = getattr(cli.geometry, name)

        def counting(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(cli.geometry, name, counting)
    code, out, _ = run_cli(
        capsys, "table", "--formula", "Extwedgewedge", "--surface", "k3.json",
        "--K", "H", "--n", "1..3", "--k", "0..n", "--l", "0..n", "--workers", "1",
    )
    assert code == 0
    assert len(out.splitlines()) == 1 + 4 + 9 + 16
    assert sorted(calls) == ["variant_chis", "variant_tables"]


def test_curve_table_expands_its_series_once_and_must_agree(capsys, monkeypatch):
    real = cli.formulas.curve_series
    calls = []

    def off_by_one(*chis, n_max):
        calls.append(n_max)
        q = TruncSeries.variable("Q", {"Q": n_max + 1})
        return real(*chis, n_max=n_max) + q * q

    monkeypatch.setattr(cli.formulas, "curve_series", off_by_one)
    code, out, err = run_cli(
        capsys, "table", "--formula", "curve_bichar", "--curve", "genus0_curve.json",
        "--n", "2..4",
    )
    assert calls == [4]
    assert code == 1 and out == ""
    assert "cross-check curve_series failed" in err


def test_table_out_writes_file(capsys, tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys, "table", "--formula", "cohF", "--surface", "k3.json",
        "--n", "1", "--out", str(target),
    )
    assert code == 0
    assert target.read_text().startswith(",".join(CSV_HEADER))


def test_table_deterministic_across_worker_counts(capsys, tmp_path):
    args = ["table", "--formula", "Extwedgewedge", "--surface", "k3.json",
            "--n", "1..3", "--k", "0..n", "--l", "0..n"]
    one = tmp_path / "one.csv"
    two = tmp_path / "two.csv"
    assert main(args + ["--workers", "1", "--out", str(one)]) == 0
    assert main(args + ["--workers", "2", "--out", str(two)]) == 0
    capsys.readouterr()
    assert one.read_bytes() == two.read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        ["table", "--formula", "Extwedgewedge", "--surface", "k3.json",
         "--n", "1..3", "--k", "0..n", "--l", "0..n"],
        ["verify", "--suite", "whom_oracle", "--nmax", "3", "--count", "4"],
        ["verify", "--suite", "tensor_euler", "--nmax", "3", "--count", "3"],
    ],
    ids=["table", "whom_oracle", "tensor_euler"],
)
def test_table_starts_no_process_pool(capsys, monkeypatch, args):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    _, expected, _ = run_cli(capsys, *args, "--workers", "1")
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    code, out, err = run_cli(capsys, *args, "--workers", "3")
    assert code == 0 and err == ""
    assert out == expected


def test_importing_the_cli_loads_no_process_pool():
    # no command needs concurrent.futures (and through it multiprocessing
    # and logging), so a plain start must not import it
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, hilbtaut.cli; print('concurrent.futures' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "False"


def test_importing_the_cli_loads_neither_dataclasses_nor_pathlib():
    # each costs every fresh start its import; -S keeps site hooks from
    # importing them first
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import hilbtaut.cli; "
        "print(sorted({'dataclasses', 'pathlib'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_the_module_entry_point_runs_the_cli():
    src = str(Path(cli.__file__).resolve().parents[1])
    golden = Path(__file__).resolve().parent / "golden" / "table_rank3_check_k3.csv"

    def run(module, *argv):
        return subprocess.run(
            [sys.executable, "-m", module, *argv], env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
        )

    result = run("hilbtaut", "table", "--formula", "rank3_check", "--surface", "k3.json")
    assert result.returncode == 0 and result.stdout == golden.read_bytes()
    result = run("hilbtaut", "table", "--formula", "rank3_check", "--surface", "nosuch.json")
    assert result.returncode == 2 and result.stdout == b""
    assert result.stderr.count(b"\n") == 1 and result.stderr.startswith(b"error: ")
    # without cli.py's __main__ block this would exit 0 and print nothing
    result = run("hilbtaut.cli", "--help")
    assert result.returncode == 0 and result.stdout.startswith(b"usage: hilbtaut ")


# -- reading the command line -------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"


def _plain_argvs(capsys, monkeypatch) -> list[list[str]]:
    """The golden lines, README's examples and the golden run config's jobs."""
    from test_golden import INVOCATIONS
    from test_readme_examples import _examples

    argvs = [list(argv) for argv in INVOCATIONS.values()]
    argvs += [shlex.split(command)[1:] for command in _examples()]
    real = cli._read_args
    seen = []

    def recording(argv):
        seen.append(list(argv))
        return real(argv)

    monkeypatch.setattr(cli, "_read_args", recording)
    assert main(["run", "--config", str(GOLDEN / "run_jobs_config.json")]) == 0
    monkeypatch.undo()
    capsys.readouterr()
    # the first line read is the run command itself, the others its jobs
    return argvs + seen[1:]


def _mutations(argv: list[str], rng: random.Random) -> list[list[str]]:
    """Seeded variants of a plain line, most of which the flag table leaves to argparse."""
    command, rest = argv[0], argv[1:]
    pairs = [rest[i:i + 2] for i in range(0, len(rest), 2)]
    i = rng.randrange(len(pairs))
    name, value = pairs[i]

    def with_pair(*tokens: str) -> list[str]:
        return [command, *sum(pairs[:i], []), *tokens, *sum(pairs[i + 1:], [])]

    out = [
        with_pair(name[:-1], value) if len(name) > 3 else with_pair("--form", value),
        with_pair(f"{name}={value}"),
        with_pair(name, "-5"),
        with_pair(name, "-"),
        argv + [name, value],
        [command, name, rng.choice(["7", "x", "csv", "1..2"]), *rest],
        argv + [name, rng.choice(["7", "x", "json", "k3.json"])],
        argv + ["-h"],
        [command, "-h", *rest],
        argv + ["--help"],
        ["tabel", *rest],
        argv + [rng.choice(["--out", "--n", "--workers", "--E"])],
        argv + ["extra"],
        argv[:1],
    ]
    for flag in cli.COMMANDS[command].flags:
        if flag.required:
            out.append([command, *sum((p for p in pairs if p[0] not in flag.names), [])])
        if flag.type is int:
            out.append(argv + [flag.names[0], "x"])
        if flag.choices is not None:
            out.append(argv + [flag.names[0], "nosuch"])
            out.append([command, flag.names[0], "nosuch", *rest])
    return out


@pytest.mark.parametrize("parser_class", [argparse.ArgumentParser, cli._JobArgumentParser])
def test_the_flag_table_reads_what_argparse_reads(capsys, monkeypatch, parser_class):
    parser = cli._build_parser(parser_class)

    def parsed(argv):
        try:
            return vars(parser.parse_args(argv))
        except (SystemExit, UsageError):
            return None
        finally:
            capsys.readouterr()

    plain = _plain_argvs(capsys, monkeypatch)
    rng = random.Random(20161)
    argvs = plain + [m for argv in plain for m in _mutations(argv, rng)] + [[]]
    assert len(argvs) > 500
    disagree = []
    for argv in argvs:
        expected = parsed(argv)
        read = cli._read_args(argv)
        if read is not None and vars(read) != expected:
            disagree.append((argv, vars(read), expected))
    assert disagree == []
    # the reader is not vacuous: every plain line is read without argparse
    assert [argv for argv in plain if cli._read_args(argv) is None] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--formu", "rank3_check", "--surface", "k3.json"],
        ["table", "--formula", "rank3_check", "--surface=k3.json"],
        ["table", "--formu=rank3_check", "--surf", "k3.json"],
    ],
)
def test_argparse_still_reads_abbreviations_and_equals_forms(capsys, argv):
    assert cli._read_args(argv) is None
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out == (GOLDEN / "table_rank3_check_k3.csv").read_text()


def test_an_ambiguous_abbreviation_is_argparse_s_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--form", "rank3_check", "--surface=k3.json"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.endswith("error: ambiguous option: --form could match --formula, --format\n")


def test_argparse_still_reads_a_negative_seed(capsys):
    argv = ["verify", "--suite", "appendix", "--nmax", "2", "--count", "1", "--seed", "-5"]
    assert cli._read_args(argv) is None
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["seed"] == -5


def test_table_help_is_argparse_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert out.startswith("usage: hilbtaut table [-h] --formula")
    assert "--curve PROFILE" in out and "Ranges are inclusive" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cohF", "--curve", "k3.json", "--n", "1"], "cohF reads its profile from --surface, not --curve"),
        (["Extwedgewedge", "--curve", "k3.json", "--n", "1", "--k", "0..n", "--l", "0..n"],
         "Extwedgewedge reads its profile from --surface, not --curve"),
        (["rank3_check", "--curve", "k3.json"], "rank3_check reads its profile from --surface, not --curve"),
        (["curve_bichar", "--surface", "genus0_curve.json", "--n", "1"],
         "curve_bichar reads its profile from --curve, not --surface"),
        # the ranges are still checked first
        (["curve_bichar", "--surface", "genus0_curve.json"], "--n is required for curve_bichar"),
        (["cohF", "--curve", "k3.json", "--n", "0"], "cohF needs n >= 1"),
    ],
)
def test_each_table_formula_reads_only_its_own_profile_flag(capsys, argv, message):
    # cohF --curve k3.json used to print the surface table and exit 0
    code, out, err = run_cli(capsys, "table", "--formula", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_a_run_job_that_names_the_wrong_profile_flag_exits_two(capsys, tmp_path):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(
        {"jobs": [{"command": "table", "formula": "cohF", "curve": "k3.json", "n": "1"}]}
    ))
    code, out, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2 and out == ""
    assert err == "error: jobs[0]: cohF reads its profile from --surface, not --curve\n"


# -- verify command -----------------------------------------------------------------


def test_verify_json_verdict(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "appendix", "--nmax", "3", "--count", "5"
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["suite"] == "appendix"
    assert verdict["pass"] is True
    assert verdict["seed"] == 1729
    assert all(isinstance(c["pass"], bool) for c in verdict["checks"])


@pytest.mark.parametrize("count", ["0", "-5"])
def test_verify_count_below_one_is_a_usage_error(capsys, count):
    code, out, err = run_cli(
        capsys, "verify", "--suite", "whom_oracle", "--count", count, "--nmax", "2"
    )
    assert code == 2 and out == ""
    assert err == f"error: --count must be at least 1, got {count}\n"


@pytest.mark.parametrize(
    "suite, nmax", [("appendix", "0"), ("whom_oracle", "-1"), ("orbits", "-3")]
)
def test_verify_nmax_below_one_is_a_usage_error(capsys, suite, nmax):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--nmax", nmax)
    assert code == 2 and out == ""
    assert err == f"error: --nmax must be at least 1, got {nmax}\n"


def test_verify_rejects_inapplicable_knobs(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--suite", "graded_powers", "--nmax", "3"
    )
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "--suite", "orbits", "--count", "9")
    assert code == 2


#: every numeric size bound of the suite table plus one, and sizes far past
#: the bounds, which would otherwise build work lists without end
OVERSIZE = [
    *(
        (suite, size, str(bound + 1))
        for suite, (_, bounds) in verify.SUITE_TABLE.items()
        for size, bound in bounds.items()
        if not isinstance(bound, str)
    ),
    *(
        (suite, "count", str(10**20))
        for suite in ("appendix", "whom_oracle", "tensor_euler", "graded_powers")
    ),
    ("appendix", "nmax", "100000"),
    ("tensor_euler", "nmax", "100000"),
]


@pytest.mark.parametrize(
    "suite, size, value",
    OVERSIZE,
    ids=[
        "-".join((suite, value) if size == "nmax" else (suite, size, value))
        for suite, size, value in OVERSIZE
    ],
)
def test_verify_size_bound_is_a_usage_error(capsys, suite, size, value):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, f"--{size}", value)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "bound" in err


def test_verify_deterministic_across_worker_counts(capsys, tmp_path):
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    base = ["verify", "--suite", "whom_oracle", "--nmax", "3", "--count", "4"]
    assert main(base + ["--workers", "1", "--out", str(one)]) == 0
    assert main(base + ["--workers", "3", "--out", str(two)]) == 0
    capsys.readouterr()
    assert one.read_bytes() == two.read_bytes()


def test_whom_oracle_averages_each_family_once(capsys, monkeypatch):
    calls = []
    averaging = oracle.invariant_dim

    def counted(*args):
        calls.append(args[0])
        return averaging(*args)

    monkeypatch.setattr(oracle, "invariant_dim", counted)
    code, _, _ = run_cli(
        capsys, "verify", "--suite", "whom_oracle", "--count", "3", "--nmax", "4"
    )
    assert code == 0
    assert calls == [4, 4, 4]


def alter_w_hom(monkeypatch, calls):
    """Add one to the ``w_hom`` cell at each listed ``(n, e, f, tables)``."""
    closed_cells = formulas.w_hom_cells

    def altered_cells(n_top, *tables):
        cell = closed_cells(n_top, *tables)

        def altered(n, e, f):
            value = cell(n, e, f)
            return value + GradedDim({0: 1}) if (n, e, f, tables) in calls else value

        return altered

    monkeypatch.setattr(verify.formulas, "w_hom_cells", altered_cells)


def test_a_failing_verify_still_writes_its_verdict_to_out(capsys, monkeypatch, tmp_path):
    common, first, second, rest = verify._family_spaces(DEFAULT_SEED, 1)
    alter_w_hom(monkeypatch, [(3, 2, 1, (common, first, second, rest))])
    target = tmp_path / "verdict.json"
    code, out, err = run_cli(
        capsys, "verify", "--suite", "whom_oracle", "--count", "3", "--nmax", "4",
        "--out", str(target),
    )
    assert (code, out, err) == (1, "", "")
    assert '"pass": false' in target.read_text()


def run_whom_oracle(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--suite", "whom_oracle", "--count", "3", "--nmax", "4"
    )
    assert code == 1 and err == ""
    return {c["name"]: c for c in json.loads(out)["checks"]}


def test_whom_oracle_names_the_family_and_cell_a_wrong_formula_gives(capsys, monkeypatch):
    family, n, e, f = 1, 3, 2, 1
    common, first, second, rest = verify._family_spaces(DEFAULT_SEED, family)
    assert first != second
    alter_w_hom(monkeypatch, [(n, e, f, (common, first, second, rest))])
    checks = run_whom_oracle(capsys)
    check = checks["matches_group_averaging"]
    assert check["pass"] is False
    bad = check["counterexample"]
    assert (bad["family"], bad["n"], bad["e"], bad["f"]) == (family, n, e, f)
    assert bad["averaged"] != bad["closed"]
    # the altered value meets the unaltered swapped one at the same cell
    swap = checks["swap_symmetry"]
    assert swap["pass"] is False
    assert swap["counterexample"] == {key: bad[key] for key in ("family", "n", "e", "f", "tables")}


def test_whom_oracle_failure_does_not_hide_a_later_swap_asymmetry(capsys, monkeypatch):
    zero = verify._family_spaces(DEFAULT_SEED, 0)
    common, first, second, rest = verify._family_spaces(DEFAULT_SEED, 1)
    assert first != second
    alter_w_hom(monkeypatch, [
        (3, 1, 1, zero),
        (3, 1, 1, (zero[0], zero[2], zero[1], zero[3])),
        (3, 1, 2, (common, second, first, rest)),
    ])
    checks = run_whom_oracle(capsys)
    oracle_bad = checks["matches_group_averaging"]["counterexample"]
    swap_bad = checks["swap_symmetry"]["counterexample"]
    assert (oracle_bad["family"], oracle_bad["n"], oracle_bad["e"], oracle_bad["f"]) == (0, 3, 1, 1)
    assert (swap_bad["family"], swap_bad["n"], swap_bad["e"], swap_bad["f"]) == (1, 3, 2, 1)


def test_verify_seed_changes_random_content(capsys):
    code_a, out_a, _ = run_cli(
        capsys, "verify", "--suite", "whom_oracle", "--nmax", "2", "--count", "3"
    )
    code_b, out_b, _ = run_cli(
        capsys, "verify", "--suite", "whom_oracle", "--nmax", "2", "--count", "3",
        "--seed", "7",
    )
    assert code_a == code_b == 0
    assert json.loads(out_a)["seed"] == 1729
    assert json.loads(out_b)["seed"] == 7


# -- series command -----------------------------------------------------------------


def test_series_text_output(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--formula", "bichar", "--surface", "k3.json",
        "--n-max", "2",
    )
    assert code == 0
    assert out.startswith("bichar: 1 + ")
    assert "Q^2 u^1 v^1" in out


def test_series_json_output(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--formula", "tensor_euler", "--surface", "k3.json",
        "--n-max", "2", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "series"
    assert data["formula_id"] == "tensor_euler"
    assert data["series"]["orders"]["Q"] == 3


def test_series_at_n_max_zero(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--formula", "tensor_euler", "--surface", "k3.json", "--n-max", "0"
    )
    assert code == 0 and out == "tensor_euler: 0\n"
    code, out, _ = run_cli(
        capsys, "series", "--formula", "bichar", "--surface", "k3.json", "--n-max", "0"
    )
    assert code == 0 and out == "bichar: 1\n"


def test_series_coefficient_matches_table_euler(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--formula", "bichar", "--surface", "k3.json",
        "--n-max", "2", "--K", "H", "--L", "H", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    terms = {t["monomial"]: int(t["coeff"]) for t in data["series"]["terms"]}
    # the (n, k, l) = (2, 1, 1) coefficient carries sign (-1)^(k+l)
    assert terms["Q^2 u^1 v^1"] == 20


@pytest.mark.parametrize(
    "formula, flag", [("bichar", "--n-max"), ("tensor_euler", "--n-max"), ("tensor_euler", "--k-max")]
)
def test_series_negative_size_names_the_flag(capsys, formula, flag):
    code, out, err = run_cli(
        capsys, "series", "--formula", formula, "--surface", "k3.json", flag, "-1"
    )
    assert code == 2 and out == ""
    assert err == f"error: {flag} must be at least 0, got -1\n"


def test_series_bichar_rejects_k_max(capsys):
    code, out, err = run_cli(
        capsys, "series", "--formula", "bichar", "--surface", "k3.json",
        "--n-max", "2", "--k-max", "5",
    )
    assert code == 2 and out == ""
    assert err == "error: bichar takes no --k-max\n"


#: one size above each table and series bound, with the profile flag of
#: the formula's part; the profile does not exist, as the bound is checked
#: before it is read
TOP_OVERSIZE = [
    *(
        (["table", "--formula", formula, f"--{part}", "nope.json", "--n", f"1..{bound + 1}"],
         f"--n {bound + 1} exceeds the {formula} bound {bound}")
        for formula, (_, part, _, bound) in cli.TABLE_JOBS.items()
        if bound is not None
    ),
    *(
        (["series", "--formula", formula, "--surface", "nope.json", "--n-max", str(bound + 1)],
         f"--n-max {bound + 1} exceeds the {formula} bound {bound}")
        for formula, bound in SERIES_FORMULAS.items()
    ),
]


@pytest.mark.parametrize(
    "argv, message", TOP_OVERSIZE, ids=[f"{argv[0]}-{argv[2]}" for argv, _ in TOP_OVERSIZE]
)
def test_table_and_series_size_bound_is_a_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("formula, letter", [("bichar", "--F"), ("tensor_euler", "--K")])
def test_series_rejects_unknown_bundle_even_when_unused(capsys, formula, letter):
    code, out, err = run_cli(
        capsys, "series", "--formula", formula, "--surface", "k3.json",
        "--n-max", "2", letter, "nosuch",
    )
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "unknown bundle 'nosuch'" in err


@pytest.mark.parametrize("formula", SERIES_FORMULAS)
def test_series_without_a_surface_names_the_formula(capsys, formula):
    code, out, err = run_cli(
        capsys, "series", "--formula", formula, "--surface", "genus0_curve.json"
    )
    assert code == 2 and out == ""
    assert err == f"error: formula {formula!r} needs a surface profile\n"


# -- --out ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--formula", "cohF", "--surface", "k3.json", "--n", "1"],
        ["verify", "--suite", "orbits", "--nmax", "2"],
        ["series", "--formula", "bichar", "--surface", "k3.json", "--n-max", "1"],
    ],
    ids=["table", "verify", "series"],
)
@pytest.mark.parametrize(
    "target, reason",
    [("missing/x", "No such file or directory"), (".", "Is a directory")],
    ids=["missing_directory", "directory"],
)
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, argv, target, reason):
    path = tmp_path / target
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == 2 and out == ""
    assert err == f"error: cannot write --out {path}: {reason}\n"


def _no_space(*args):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("method", ["write", "flush"])
@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["table", "--formula", "rank3_check", "--surface", "k3.json"], ""),
        (["verify", "--suite", "orbits", "--nmax", "3"], ""),
        (["series", "--formula", "bichar", "--surface", "k3.json", "--n-max", "1"], ""),
        (["run", "--config", "jobs.json"], "jobs[0]: "),
    ],
    ids=["table", "verify", "series", "run"],
)
def test_a_failed_write_to_stdout_exits_two_with_one_line(
    capsys, tmp_path, monkeypatch, method, argv, prefix
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "jobs.json").write_text(json.dumps(
        {"surface": "k3.json", "jobs": [{"command": "table", "formula": "rank3_check"}]}
    ))
    monkeypatch.setattr(sys, "stdout", type("FullStdout", (io.StringIO,), {method: _no_space})())
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {prefix}cannot write to stdout: No space left on device\n"


def test_a_closed_pipe_on_stdout_exits_two_with_one_line():
    # the reader is gone before the program starts, so its first write
    # fails; Python's flush of stdout at exit must add no second error
    src = str(Path(cli.__file__).resolve().parents[1])
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "hilbtaut", "table", "--formula", "rank3_check",
             "--surface", "k3.json"],
            env={**os.environ, "PYTHONPATH": src}, stdout=write, stderr=subprocess.PIPE,
            timeout=60,
        )
    finally:
        os.close(write)
    assert result.returncode == 2
    assert result.stderr == b"error: cannot write to stdout: Broken pipe\n"


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
@pytest.mark.parametrize(
    "command, prefix", [("table", ""), ("run", "jobs[0]: ")], ids=["table", "run"]
)
def test_running_out_of_memory_exits_two_with_one_line(tmp_path, command, prefix):
    import resource

    limit = 100 * 2**20
    (tmp_path / "jobs.json").write_text(json.dumps({"surface": "k3.json", "jobs": [
        {"command": "table", "formula": "cohF", "F": "H", "n": "1..2250"}
    ]}))
    argv = {
        "table": ["table", "--formula", "cohF", "--surface", "k3.json", "--F", "H",
                  "--n", "1..2250"],
        "run": ["run", "--config", str(tmp_path / "jobs.json")],
    }[command]
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "hilbtaut", *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr == f"error: {prefix}out of memory\n".encode()


def test_an_integer_past_python_s_digit_limit_prints(capsys, tmp_path):
    # chi(H) = 1 + 200000000 / 2, and lambda^800 of it has 4424 digits,
    # past the 4300 that Python converts to text by default
    profile = tmp_path / "big.json"
    profile.write_text(json.dumps({"surface": {
        "chi_O": 1, "picard_rank": 1, "gram": [[200000000]], "canonical": [0],
        "bundles": {"H": [1]},
    }}))
    code, out, err = run_cli(
        capsys, "table", "--formula", "cohwedge", "--surface", str(profile),
        "--L", "H", "--n", "800", "--k", "800",
    )
    assert (code, err) == (0, "")
    row = out.splitlines()[1].split(",")
    # main has lifted the limit for this process too
    assert row[4] == str(graded.lambda_scalar(800, 10**8 + 1))
    assert len(row[4]) == 4424


def test_out_with_a_trailing_slash_names_a_directory(capsys, tmp_path):
    target = f"{tmp_path}/x.csv/"
    code, out, err = run_cli(
        capsys, "table", "--formula", "rank3_check", "--surface", "k3.json", "--out", target
    )
    assert code == 2 and out == ""
    assert err == f"error: cannot write --out {target}: Is a directory\n"
    assert not (tmp_path / "x.csv").exists()


# -- run command --------------------------------------------------------------------


def test_run_executes_jobs_with_inherited_surface(capsys, tmp_path):
    table_out = tmp_path / "t.csv"
    config = {
        "surface": "k3.json",
        "jobs": [
            {
                "command": "table",
                "formula": "cohF",
                "n": "1..2",
                "out": str(table_out),
            },
            {"command": "verify", "suite": "orbits", "nmax": "4"},
        ],
    }
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "run", "--config", str(path))
    assert code == 0
    assert table_out.read_text().startswith(",".join(CSV_HEADER))
    assert json.loads(out)["suite"] == "orbits"


def test_run_curve_job(capsys, tmp_path):
    config = {
        "curve": "genus0_curve.json",
        "jobs": [{"command": "table", "formula": "curve_bichar", "n": "1..2"}],
    }
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "run", "--config", str(path))
    assert code == 0
    assert "curve_bichar,2,,,1," in out
    # a series job inherits no surface from a curve-only config
    config["jobs"] = [{"command": "series", "formula": "bichar"}]
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "run", "--config", str(path))
    assert (code, out) == (2, "")
    assert err == "error: jobs[0]: the following arguments are required: --surface\n"


def test_run_rejects_jobless_config(capsys, tmp_path):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps({"surface": "k3.json"}))
    code, _, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2


def test_run_stops_at_first_failing_job(capsys, tmp_path):
    path = tmp_path / "jobs.json"
    path.write_text(
        json.dumps(
            {
                "surface": "k3.json",
                "jobs": [
                    {"command": "table", "formula": "cohF"},  # missing n
                    {"command": "verify", "suite": "orbits", "nmax": "3"},
                ],
            }
        )
    )
    code, out, _ = run_cli(capsys, "run", "--config", str(path))
    assert code == 2
    assert "orbits" not in out


def test_run_returns_the_code_of_the_first_job_that_fails(capsys, tmp_path, monkeypatch):
    # an altered closed formula makes the verify job exit 1; the table
    # job after it must not run
    common, first, second, rest = verify._family_spaces(DEFAULT_SEED, 1)
    alter_w_hom(monkeypatch, [(3, 2, 1, (common, first, second, rest))])
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps({"jobs": [
        {"command": "verify", "suite": "whom_oracle", "count": 3, "nmax": 4},
        {"command": "table", "formula": "cohF", "surface": "k3.json", "n": "1"},
    ]}))
    code, out, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 1 and err == ""
    assert json.loads(out)["suite"] == "whom_oracle"
    assert ",".join(CSV_HEADER) not in out


def _profile_dirs(tmp_path, monkeypatch, config):
    """sub/cfg.json holding ``config``, next to sub/mine.json, whose H has
    chi 3; the working directory holds another mine.json, whose H has chi 4."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "mine.json").write_text(
        json.dumps({"surface": {**K3_LATTICE, "gram": [[2]]}})
    )
    (tmp_path / "sub" / "cfg.json").write_text(json.dumps(config))
    (tmp_path / "mine.json").write_text(json.dumps({"surface": K3_LATTICE}))


@pytest.mark.parametrize("decoy", [False, True], ids=["no_cwd_profile", "other_cwd_profile"])
def test_run_reads_a_profile_reference_from_the_directory_of_its_config(
    capsys, tmp_path, monkeypatch, decoy
):
    job = {"command": "table", "formula": "cohF", "n": "1", "F": "H"}
    _profile_dirs(tmp_path, monkeypatch, {"surface": "mine.json", "jobs": [job]})
    if not decoy:
        (tmp_path / "mine.json").unlink()
    code, out, err = run_cli(capsys, "run", "--config", "sub/cfg.json")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith("cohF,1,,,3,")


def test_run_reads_a_job_surface_flag_from_the_working_directory(
    capsys, tmp_path, monkeypatch
):
    job = {"command": "table", "formula": "cohF", "n": "1", "F": "H", "surface": "mine.json"}
    _profile_dirs(tmp_path, monkeypatch, {"jobs": [job]})
    code, out, err = run_cli(capsys, "run", "--config", "sub/cfg.json")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith("cohF,1,,,4,")


def test_run_rejects_a_nested_run_job(capsys, tmp_path):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps({"jobs": [{"command": "run", "config": str(path)}]}))
    code, out, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2 and out == ""
    assert err == "error: jobs[0]: a job cannot itself be 'run'\n"


@pytest.mark.parametrize(
    "entry, message",
    [
        (
            {"command": "verify", "suite": "orbits", "nmaxx": 3},
            "error: jobs[0]: unrecognized arguments: --nmaxx 3\n",
        ),
        (
            {"command": "verify"},
            "error: jobs[0]: the following arguments are required: --suite\n",
        ),
        (
            {"command": "verify", "suite": "orbits", "nma": 3},
            "error: jobs[0]: unrecognized arguments: --nma 3\n",
        ),
        (
            {"command": "verify", "suite": "orbits", "help": 1},
            "error: jobs[0]: unrecognized arguments: --help 1\n",
        ),
        ({"suite": "orbits"}, "error: jobs[0] is missing field 'command'\n"),
        (
            {"command": None},
            "error: jobs[0]: 'command' must be a string or an integer, got null\n",
        ),
        (
            {"command": ["table"]},
            "error: jobs[0]: 'command' must be a string or an integer, got [\"table\"]\n",
        ),
        # every value is checked before the command is
        (
            {"command": "run", "out": None},
            "error: jobs[0]: 'out' must be a string or an integer, got null\n",
        ),
    ],
)
def test_run_names_the_job_an_argument_error_comes_from(capsys, tmp_path, entry, message):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps({"jobs": [entry]}))
    code, out, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2 and out == ""
    assert err == message


@pytest.mark.parametrize(
    "jobs, message",
    [
        (
            [
                {"command": "table", "formula": "rank3_check"},
                {"command": "table", "formula": "ExtEF", "n": "3..1"},
            ],
            "error: jobs[1]: --n: empty range '3..1'\n",
        ),
        (
            [{"command": "verify", "suite": "orbits", "count": 3}],
            "error: jobs[0]: orbits has no --count (it is exhaustive)\n",
        ),
        (
            [{"command": "series", "formula": "tensor_euler", "n_max": -1}],
            "error: jobs[0]: --n-max must be at least 0, got -1\n",
        ),
        (
            # the config has no curve for the job to inherit
            [{"command": "table", "formula": "curve_bichar", "n": "1"}],
            "error: jobs[0]: a --surface or --curve profile is required\n",
        ),
        (
            [{"command": "table", "formula": "cohF", "n": "1", "workers": 0}],
            "error: jobs[0]: --workers must be at least 1, got 0\n",
        ),
        (
            [{"command": "verify", "suite": "orbits", "nmax": 3, "workers": 0}],
            "error: jobs[0]: --workers must be at least 1, got 0\n",
        ),
    ],
    ids=[
        "table_empty_range", "verify_count_of_orbits", "series_negative_n_max",
        "curve_job_without_a_curve", "table_zero_workers", "verify_zero_workers",
    ],
)
def test_run_names_the_job_an_error_after_parsing_comes_from(capsys, tmp_path, jobs, message):
    # these errors used to print without the job's index
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps({"surface": "k3.json", "jobs": jobs}))
    code, _, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2
    assert err == message


@pytest.mark.parametrize(
    "value, shown",
    [(None, "null"), (True, "true"), (1.5, "1.5"), ([3], "[3]"), ({"a": 1}, '{"a": 1}')],
)
def test_run_rejects_a_job_value_that_is_not_a_string_or_an_integer(
    capsys, tmp_path, monkeypatch, value, shown
):
    # "out": null used to write a file named None and exit 0
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "jobs.json"
    entry = {"command": "verify", "suite": "orbits", "nmax": 2, "out": value}
    path.write_text(json.dumps({"jobs": [entry]}))
    code, out, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2 and out == ""
    assert err == f"error: jobs[0]: 'out' must be a string or an integer, got {shown}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["jobs.json"]
