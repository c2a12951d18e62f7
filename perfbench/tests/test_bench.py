"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hilbtaut.cli
import hilbtaut.formulas
import hilbtaut.graded
import reference
import run
import workloads
from forkrun import OpResult, OpServer
from hilbtaut.series import TruncSeries
from tracing import Tracer, install

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent

TABLE_OP = ["table", "--formula", "ExtEF", "--surface", "k3.json", "--E", "H", "--F", "H",
            "--n", "1..4", "--workers", "1"]
SERIES_OP = ["series", "--formula", "bichar", "--surface", "p2.json", "--K", "O", "--L", "H",
             "--n-max", "4"]
OPS = [
    TABLE_OP,
    SERIES_OP,
    ["table", "--formula", "Extwedgewedge", "--surface", "p2.json", "--K", "H", "--L", "O",
     "--n", "1..3", "--k", "0..n", "--l", "0..n", "--workers", "1"],
    ["table", "--formula", "curve_bichar", "--curve", "genus0_curve.json", "--E", "P",
     "--F", "O", "--n", "1..5", "--workers", "1"],
    ["table", "--formula", "rank3_check", "--surface", "k3.json", "--workers", "1"],
    ["series", "--formula", "tensor_euler", "--surface", "k3.json", "--F", "H", "--L", "O",
     "--n-max", "5"],
    ["verify", "--suite", "whom_oracle", "--seed", "7", "--nmax", "3", "--count", "1",
     "--workers", "1"],
    ["verify", "--suite", "orbits", "--seed", "7", "--nmax", "3", "--workers", "1"],
]


@pytest.fixture(scope="module")
def server():
    with OpServer(hilbtaut.cli) as op_server:
        yield op_server


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_op_list(name):
    first = workloads.generate(name, 11)
    assert first == workloads.generate(name, 11)
    assert first != workloads.generate(name, 12)
    rungs = [op["rung"] for op in first if "rung" in op]
    assert rungs and len(rungs) == len(set(rungs))


def test_every_op_passes_the_reference(server):
    for argv in OPS:
        result = server.run(argv)
        assert reference.check_op(argv, result.code, result.stdout, run.PROFILES) is None, argv


class _Corrupting:
    """Stands in for the op server and edits one op's real output."""

    def __init__(self, real, edit):
        self.real, self.edit = real, edit

    def run(self, argv, traced=False):
        result = self.real.run(argv, traced)
        return OpResult(result.code, result.wall_s, self.edit(result.stdout), "", None, 0)


def _one_pass_failures(server, argv, edit):
    bench_run = run.Run(_Corrupting(server, edit), [{"argv": argv}], deadline=float("inf"))
    bench_run.one_pass()
    return bench_run.failed


def test_corrupted_csv_row_counts_as_failed(server):
    def bump_euler(text):
        lines = text.splitlines(keepends=True)
        cells = lines[3].split(",")
        cells[4] = str(int(cells[4]) + 1)
        lines[3] = ",".join(cells)
        return "".join(lines)

    assert _one_pass_failures(server, TABLE_OP, lambda text: text) == 0
    assert _one_pass_failures(server, TABLE_OP, bump_euler) == 1
    assert _one_pass_failures(server, TABLE_OP, lambda t: t.replace(":pass", ":fail", 1)) == 1


def test_corrupted_series_coefficient_counts_as_failed(server):
    def bump_last(text):
        head, _, last = text.rstrip("\n").rpartition(" + ")
        coeff, _, monomial = last.partition(" * ")
        return f"{head} + {int(coeff) + 1} * {monomial}\n"

    assert _one_pass_failures(server, SERIES_OP, lambda text: text) == 0
    assert _one_pass_failures(server, SERIES_OP, bump_last) == 1
    assert _one_pass_failures(server, SERIES_OP, lambda t: t.rsplit(" + ", 1)[0] + "\n") == 1


def test_wrappers_sit_at_every_name_callers_resolve():
    original_sym = hilbtaut.graded.sym_power
    original_mul = TruncSeries.__mul__
    uninstall = install(Tracer())
    try:
        assert hilbtaut.graded.sym_power is not original_sym
        assert hilbtaut.formulas.sym_power is hilbtaut.graded.sym_power
        assert TruncSeries.__rmul__ is TruncSeries.__mul__ is not original_mul
    finally:
        uninstall()
    assert hilbtaut.formulas.sym_power is original_sym is hilbtaut.graded.sym_power
    assert TruncSeries.__rmul__ is original_mul is TruncSeries.__mul__


def test_traced_and_untraced_outputs_are_identical(server):
    names = set()
    for argv in OPS:
        plain = server.run(argv)
        traced = server.run(argv, traced=True)
        assert (traced.code, traced.stdout) == (plain.code, plain.stdout), argv
        assert plain.spans is None and traced.spans
        names |= {span[0] for span in traced.spans}
    assert {
        "cli.main",
        "formulas.bichar_series",
        "series.TruncSeries.exp",
        "series.TruncSeries.__mul__",
        "formulas.w_hom",
        "graded.sym_power",
        "oracle.invariant_dim",
        "oracle.orbit_decomposition",
    } <= names


def _bench(*args):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(tmp_path, trace, section):
    ops = [{"argv": argv} for argv in OPS] + [
        {"argv": TABLE_OP[:-3] + ["1..2", "--workers", "1"], "rung": 2},
        {"argv": TABLE_OP, "rung": 4},
    ]
    replay = tmp_path / "ops.json"
    replay.write_text(json.dumps({"workload": "table_mix", "seed": 0, "ops": ops}))
    proc = _bench("--replay", str(replay), "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    op_runs = len(ops) * (run.MIN_PASSES if trace == "0" else 2)
    setup_runs = -(-op_runs // run.SETUP_EVERY) if trace == "0" else 0
    assert result["attempted"] == op_runs + setup_runs
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace == "0":
        assert result["metrics"]["reach_n"]["value"] == 4


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "table_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
