"""End-to-end tests for the command line interface."""

from __future__ import annotations

import json

import pytest

from hilbtaut import cli
from hilbtaut.cli import CSV_HEADER, UsageError, main, parse_range
from hilbtaut.formulas import BicharInput
from hilbtaut.series import TruncSeries


# -- range parsing ---------------------------------------------------------------


def test_parse_range_single_value():
    assert parse_range("3", "--n") == (3, 3)
    assert parse_range(" 0 ", "--n") == (0, 0)


def test_parse_range_interval():
    assert parse_range("1..4", "--n") == (1, 4)
    assert parse_range("2..2", "--n") == (2, 2)


def test_parse_range_symbolic_upper_bound():
    assert parse_range("0..n", "--k", allow_n=True) == (0, None)
    with pytest.raises(UsageError):
        parse_range("0..n", "--n")


def test_parse_range_rejects_garbage():
    for bad in ("", "x", "1..", "..3", "n..2", "1..0", "-1"):
        with pytest.raises(UsageError):
            parse_range(bad, "--n", allow_n=True)


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
    # a profile without chi_Omega cannot run the check
    code, _, err = run_cli(
        capsys, "table", "--formula", "rank3_check", "--surface",
        "genus0_curve.json",
    )
    assert code == 2 and "error" in err


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


@pytest.mark.parametrize(
    "section, field", [("surface", "bundles"), ("surface", "cohomology"),
                       ("curve", "bundles"), ("curve", "cohomology")]
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
    real = cli.formulas.bichar_closed

    def lying(inp: BicharInput) -> int:
        return real(inp) + 1

    monkeypatch.setattr(cli.formulas, "bichar_closed", lying)
    code, _, err = run_cli(
        capsys, "table", "--formula", "cohF", "--surface", "k3.json", "--n", "1"
    )
    assert code == 1
    assert "consistency failure" in err


@pytest.mark.parametrize("n_range", ["1..5", "3..5"])
def test_table_expands_the_bichar_series_once_per_job(capsys, monkeypatch, n_range):
    real = cli.formulas.bichar_series
    calls = []

    def counting(*chis, n_max):
        calls.append(n_max)
        return real(*chis, n_max=n_max)

    monkeypatch.setattr(cli.formulas, "bichar_series", counting)
    code, _, _ = run_cli(
        capsys, "table", "--formula", "ExtEwedge", "--surface", "k3.json",
        "--E", "H", "--L", "H", "--n", n_range, "--k", "0..n",
    )
    assert code == 0
    assert calls == [5]


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


def test_table_starts_no_process_pool(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("table started a process pool")

    args = ["table", "--formula", "Extwedgewedge", "--surface", "k3.json",
            "--n", "1..3", "--k", "0..n", "--l", "0..n"]
    _, expected, _ = run_cli(capsys, *args, "--workers", "1")
    monkeypatch.setattr("hilbtaut.verify.ProcessPoolExecutor", no_pool)
    code, out, err = run_cli(capsys, *args, "--workers", "3")
    assert code == 0 and err == ""
    assert out == expected


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


@pytest.mark.parametrize(
    "suite, nmax", [("whom_oracle", "9"), ("orbits", "13")]
)
def test_verify_size_bound_is_a_usage_error(capsys, suite, nmax):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--nmax", nmax)
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


@pytest.mark.parametrize("formula, letter", [("bichar", "--F"), ("tensor_euler", "--K")])
def test_series_rejects_unknown_bundle_even_when_unused(capsys, formula, letter):
    code, out, err = run_cli(
        capsys, "series", "--formula", formula, "--surface", "k3.json",
        "--n-max", "2", letter, "nosuch",
    )
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "unknown bundle 'nosuch'" in err


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
    ],
)
def test_run_names_the_job_an_argument_error_comes_from(capsys, tmp_path, entry, message):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps({"jobs": [entry]}))
    code, out, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2 and out == ""
    assert err == message
