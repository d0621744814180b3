#!/usr/bin/env python3
"""Run workloads N times and print each metric's median and quartiles.

    python3 perfbench/repeat.py --runs 10 [--workloads khop,mixed_rw]
                                [--first-seed 1] [--seconds 10] [--trace 0]
                                [--log runs.jsonl]

Each run gets its own seed (first-seed, first-seed + 1, ...).  For every
metric the table shows the median, the first and third quartiles and
the spread (Q3 - Q1) / median, as statistics.quantiles(n=4) gives them;
this is how the bounds in BENCHMARK.json are set and checked.  --log
appends every run's record line (the full per-run detail) to a file.  A run
that fails, or reports correct=false, makes the command exit 1.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def run_once(workload, seed, seconds, trace, log):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    if log:
        with open(log, "a") as f:
            f.write("\n".join(lines[-2:]) + "\n")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="khop,point_reads,mixed_rw")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--log")
    args = ap.parse_args()
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads(BENCHMARK.read_text())["run_seconds"]

    ok = True
    for workload in args.workloads.split(","):
        values, failed_share = {}, set()
        for i in range(args.runs):
            seed = args.first_seed + i
            res = run_once(workload, seed, seconds, args.trace, args.log)
            ok = ok and res["correct"]
            failed_share.add(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
            print(f"  {workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}",
                  file=sys.stderr, flush=True)
        print(f"{workload}: {args.runs} runs, failed share "
              f"{sorted(failed_share)}")
        print(f"  {'metric':32} {'unit':8} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8}")
        for name, (unit, vals) in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:32} {unit:8} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.3f}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
