"""Run every workload over a range of seeds and summarise the metrics.

    python3 perfbench/baseline.py --seeds 1..10 --out perfbench/baseline/NAME.json

Runs ``run.py`` once per workload and seed with ``--trace 0``, then once
per workload with ``--trace 1`` on the first seed.  Prints, per workload,
every end-to-end metric with its unit, median, quartile spread (the
distance between the first and third quartile as a share of the median)
and the number of runs; writes every value to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1..10", help='inclusive range "a..b"')
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split(".."))
    seeds = list(range(lo, hi + 1))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report: dict = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": len(os.sched_getaffinity(0)),
        "seeds": seeds,
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for workload in workloads.WORKLOADS:
        runs = [run_once(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        traced = run_once(workload, seeds[0], spec["run_seconds"], 1)
        entry = {"runs": runs, "traced": traced, "end_to_end": {}}
        print(f"{workload}: {len(runs)} runs, {sum(r['failed'] for r in runs)} failed ops "
              f"of {sum(r['attempted'] for r in runs)}")
        for metric in spec["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            summary = summarise([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = summary
            flag = "" if summary["spread"] <= metric["bound"] / 3 else "  (spread above bound/3)"
            print(f"  {name:14s} {summary['median']:12.6g} {unit:6s} spread {summary['spread']:.3f}"
                  f" bound {metric['bound']}{flag}")
        report["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
