"""hilbtaut benchmark: seeded CLI workloads, one forked child per op.

    python3 perfbench/run.py --workload table_mix --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The workload's op list is generated from ``--seed`` (see workloads.py)
and recorded under ``perfbench/out/`` so that ``--replay FILE`` runs it
again exactly.  A closed loop with one client runs the list in passes,
at least ``MIN_PASSES`` passes and more while they are expected to end
within ``--seconds``; an op's time is its median over the passes.
Every op's output is checked against an independent reference
(reference.py); an op that exits non-zero, raises or prints a wrong
value counts as failed.

The host is a shared virtual machine whose speed drifts by a third and
more over seconds to minutes.  So this process times ``calibrate``, a
fixed loop of stdlib rational arithmetic, right after every op, and
every reported time is rescaled to the speed at which that loop takes
``CALIBRATION_S``.  The loop runs here, never in the op server, so it
warms no bytecode that the ops run.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, which
holds every metric's name and unit.  ``setup_s`` comes from fresh
interpreters started one after every ``SETUP_EVERY`` ops across all
passes; each is timed against a bare interpreter started right after
it, not against ``calibrate`` (see ``BARE_START_S``).
``--trace 1`` runs one untraced pass and then one pass with layer spans
(tracing.py) and reports the per-layer metrics; traced outputs must
equal the untraced ones.  The last line of stdout is the JSON result; a
readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import reference
import workloads
from forkrun import OpResult, OpServer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PROFILES = SRC / "hilbtaut" / "profiles"
OUT = Path(__file__).resolve().parent / "out"

#: no op starts later than this after the run began, so the run ends
#: well inside 180 s even if the program under test got much slower
DEADLINE_S = 120.0

#: every op runs in at least this many passes; its time is the median
MIN_PASSES = 3

#: wall time of ``calibrate`` at the reference speed, about the fastest
#: it runs on a 2.1 GHz Xeon vCPU under Python 3.11
CALIBRATION_S = 0.00275

#: an op's host speed is the median calibration of the ops this many
#: places before and after it, so one noisy calibration moves it little
SPEED_WINDOW = 5

#: a fresh interpreter is timed for setup_s after the first op and then
#: after every this many ops, about 30 times in a run
SETUP_EVERY = 12
SETUP_ARGV = ["table", "--formula", "rank3_check", "--surface", "k3.json"]

#: start-up time of a bare ``python3 -c pass`` at the reference speed.
#: Start-up is mostly kernel and file work, which ``calibrate`` does not
#: track: over batches of 30 setup runs, the median rescaled by it spread
#: as widely as the raw one (0.12-0.19), while the median ratio to a bare
#: interpreter started right after each run spread 0.02.  So setup_s is
#: that ratio times this constant.
BARE_START_S = 0.04


@functools.cache
def spec() -> dict:
    """BENCHMARK.json: the workloads' reasons, every metric's name and unit.

    Read only once the op server has forked, like all of this process's work.
    """
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in spec()[section]}


def calibrate() -> float:
    """Wall time of a fixed loop of exact rational arithmetic in a dict,
    the kind of work that dominates hilbtaut ops."""
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict[tuple[int, int], Fraction] = {}
        third = Fraction(1, 3)
        for i in range(800):
            key = (i % 7, i % 11)
            table[key] = table.get(key, 0) + third * Fraction(i, 7)
        return time.perf_counter() - start
    finally:
        gc.enable()


class Run:
    """Results of the ops run so far, checked as they arrive."""

    def __init__(self, server: OpServer, ops: list[dict], deadline: float):
        self.server = server
        self.ops = ops
        self.deadline = deadline
        self.attempted = 0
        self.results: list[tuple[int, OpResult]] = []
        self.failures: list[str] = []
        self.failed_ops: set[int] = set()
        self.calibrations: list[float] = []
        #: wall time of each setup run over that of a bare interpreter
        self.setup: list[float] = []
        self.setup_every = 0

    def one_pass(
        self, traced: bool = False, expect: dict[int, str] | None = None
    ) -> list[tuple[int, OpResult]]:
        """Run every op once; with ``expect``, outputs must have those digests."""
        done = []
        for index, op in enumerate(self.ops):
            self.attempted += 1
            command = " ".join(op["argv"])
            if time.monotonic() > self.deadline:
                self.failures.append(f"{command}: not started, run deadline passed")
                self.failed_ops.add(index)
                continue
            result = self.server.run(op["argv"], traced)
            self.calibrations.append(calibrate())
            reason = reference.check_op(op["argv"], result.code, result.stdout, PROFILES)
            if reason is None and expect is not None and digest(result.stdout) != expect.get(index):
                reason = "traced output differs from the untraced output"
            if reason is not None:
                detail = result.stderr.strip().splitlines()[-1:] or [""]
                self.failures.append(f"{command}: {reason} {detail[0]}".strip())
                self.failed_ops.add(index)
            done.append((index, result))
            if self.setup_every and len(self.calibrations) % self.setup_every == 1:
                self.time_setup()
        self.results += done
        return done

    def time_setup(self) -> None:
        """Time a fresh ``python -m hilbtaut`` trivial table against a bare
        interpreter, and check the table."""
        self.attempted += 1
        proc, wall = run_timed([sys.executable, "-m", "hilbtaut", *SETUP_ARGV])
        _, bare = run_timed([sys.executable, "-c", "pass"])
        self.setup.append(wall / bare)
        reason = reference.check_op(SETUP_ARGV, proc.returncode, proc.stdout, PROFILES)
        if reason:
            self.failures.append(f"setup: {reason}")

    @property
    def failed(self) -> int:
        return len(self.failures)

    def rescale(self) -> None:
        """Set every result's host speed from the calibrations around it."""
        for i, (_, result) in enumerate(self.results):
            window = self.calibrations[max(0, i - SPEED_WINDOW): i + SPEED_WINDOW + 1]
            result.speed = CALIBRATION_S / statistics.median(window)

    def setup_s(self) -> float:
        """Median setup time at the reference start-up speed."""
        return BARE_START_S * statistics.median(self.setup)


def run_timed(argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    """Run a fresh interpreter from the checkout root; its result and wall time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    return proc, time.perf_counter() - start


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def ops_per_s(results: list[tuple[int, OpResult]]) -> float:
    return len(results) / sum(r.scaled_s for _, r in results)


# -- end-to-end ---------------------------------------------------------------


def op_medians(run: Run) -> dict[int, float]:
    """Each op's median rescaled time over the passes that ran it."""
    times: dict[int, list[float]] = defaultdict(list)
    for index, result in run.results:
        times[index].append(result.scaled_s)
    return {index: statistics.median(values) for index, values in times.items()}


def reach_n(workload: workloads.Workload, run: Run, medians: dict[int, float]) -> int:
    """Largest ladder rung whose op, and every lower rung's, succeeded
    and finished within the workload's budget."""
    ladder = sorted((op["rung"], i) for i, op in enumerate(run.ops) if "rung" in op)
    if not ladder:
        return 0
    reach = ladder[0][0] - 1
    for rung, index in ladder:
        if index in run.failed_ops or medians.get(index, math.inf) > workload.budget_s:
            break
        reach = rung
    return reach


def end_to_end(workload: workloads.Workload, run: Run) -> dict[str, float]:
    medians = op_medians(run)
    walls = list(medians.values())
    return {
        "ops_per_s": len(walls) / sum(walls),
        "op_s.p50": statistics.median(walls),
        "op_s.p90": statistics.quantiles(walls, n=10)[8],
        "reach_n": reach_n(workload, run, medians),
        "setup_s": run.setup_s(),
        "peak_rss_mb": max(r.max_rss_kb for _, r in run.results) / 1024,
        "success_rate": 1 - run.failed / run.attempted,
    }


# -- per layer ----------------------------------------------------------------


def layer_totals(ops: list[dict], traced: list[tuple[int, OpResult]]) -> dict[str, float]:
    """Calls, inclusive and self seconds, and counts per span name,
    summed over one traced pass."""
    totals: dict[str, float] = defaultdict(float)
    table_calls = table_rows = variant_calls = variant_ns = 0
    for index, result in traced:
        spans = result.spans or []
        covered = [0.0] * len(spans)
        for name, start, end, parent, _, count_s in spans:
            if parent >= 0:
                covered[parent] += end - start + count_s
        calls = 0
        speed = result.speed
        for (name, start, end, _, counts, _), inner in zip(spans, covered):
            totals[f"{name}.calls"] += 1
            totals[f"{name}.s"] += (end - start) * speed
            totals[f"{name}.self_s"] += (end - start - inner) * speed
            totals[f"{name.split('.')[0]}.self_total"] += (end - start - inner) * speed
            for key, value in (counts or {}).items():
                totals[f"{name}.{key}"] += value
            calls += name == "formulas.bichar_series"
        argv = ops[index]["argv"]
        if argv[0] == "table":
            table_calls += calls
            table_rows += max(result.stdout.count("\n") - 1, 0)
            if "--n" in argv and "--surface" in argv:  # a formula variant
                lo, hi = argv[argv.index("--n") + 1].split("..")
                variant_calls += calls
                variant_ns += int(hi) - int(lo) + 1
        totals["trace.spans"] += len(spans)
        totals["trace.op_s"] += result.scaled_s
    totals["formulas.bichar_series.per_row"] = table_calls / table_rows if table_rows else 0.0
    totals["formulas.bichar_series.per_distinct_n"] = (
        variant_calls / variant_ns if variant_ns else 0.0
    )
    perms = totals["oracle.invariant_dim.perms"]
    totals["oracle.invariant_dim.class_ratio"] = (
        totals["oracle.invariant_dim.classes"] / perms if perms else 0.0
    )
    for name in units("per_layer"):
        if name.endswith(".self_share"):
            module = name.split(".")[0]
            totals[name] = totals[f"{module}.self_total"] / totals["trace.op_s"]
    return totals


def write_spans(path: Path, record: dict, traced: list[tuple[int, OpResult]]) -> None:
    """One JSON line per span: [op, id, parent, name, start, end, counts,
    count_s], times in seconds from the op's first span."""
    with path.open("w") as out:
        out.write(json.dumps({"workload": record["workload"], "seed": record["seed"]}) + "\n")
        for index, result in traced:
            spans = result.spans or []
            origin = spans[0][1] if spans else 0.0
            for span_id, (name, start, end, parent, counts, count_s) in enumerate(spans):
                line = [index, span_id, parent, name, round(start - origin, 7),
                        round(end - origin, 7), counts, round(count_s, 7)]
                out.write(json.dumps(line) + "\n")


# -- entry point ---------------------------------------------------------------


def import_cli():
    """Import ``hilbtaut.cli`` from this checkout's ``src``, or exit."""
    if not (SRC / "hilbtaut" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'hilbtaut'} not found; run from a hilbtaut checkout")
    sys.path.insert(0, str(SRC))
    import hilbtaut.cli

    if Path(hilbtaut.cli.__file__).resolve().parent != (SRC / "hilbtaut").resolve():
        sys.exit(f"error: imported hilbtaut from {hilbtaut.cli.__file__}, not from {SRC}")
    return hilbtaut.cli


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", type=Path, metavar="FILE",
                        help="run a recorded op list instead of generating one")
    args = parser.parse_args(argv)
    if args.replay is None and args.workload is None:
        parser.error("--workload or --replay is required")
    return args


def main(argv: list[str] | None = None) -> int:
    # the op server must fork before this process runs anything else
    with OpServer(import_cli()) as server:
        return run_benchmark(server, parse_args(argv))


def run_benchmark(server: OpServer, args: argparse.Namespace) -> int:
    started = time.monotonic()
    if args.replay is not None:
        record = json.loads(args.replay.read_text())
    else:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "ops": workloads.generate(args.workload, args.seed),
        }
        OUT.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        (OUT / f"{stem}.ops.json").write_text(json.dumps(record, indent=1) + "\n")
    workload = workloads.WORKLOADS[record["workload"]]
    ops = record["ops"]
    run = Run(server, ops, started + DEADLINE_S)

    if args.trace == 0:
        run.setup_every = SETUP_EVERY
        begin = time.monotonic()
        for passes in itertools.count(1):
            pass_start = time.monotonic()
            run.one_pass()
            now = time.monotonic()
            if passes >= MIN_PASSES and now - begin + (now - pass_start) > args.seconds:
                break
        run.rescale()
        values = end_to_end(workload, run)
        section = "end_to_end"
        samples = (f"timing samples: {len(ops)} ops, each the median of {passes} passes; "
                   f"{len(run.setup)} setup runs")
    else:
        plain = run.one_pass()
        expect = {index: digest(result.stdout) for index, result in plain}
        traced = run.one_pass(traced=True, expect=expect)
        run.rescale()
        values = layer_totals(ops, traced)
        values["trace.overhead"] = 1 - ops_per_s(traced) / ops_per_s(plain)
        section = "per_layer"
        samples = f"layer totals over one traced pass of {len(ops)} ops"
        if args.replay is None:
            write_spans(OUT / f"{record['workload']}.spans.jsonl", record, traced)

    attempted = run.attempted
    print(f"{record['workload']} seed {record['seed']}: {attempted} ops, "
          f"{run.failed} failed (error_rate {run.failed / attempted:.4f}); {samples}",
          file=sys.stderr)
    for failure in run.failures[:10]:
        print(f"  FAILED {failure}", file=sys.stderr)
    metrics = units(section)
    for name, unit in metrics.items():
        print(f"  {name:40s} {values[name]:14.6g} {unit}", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
