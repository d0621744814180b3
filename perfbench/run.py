#!/usr/bin/env python3
"""Build the engine and the perfbench drivers, then run one workload.

    python3 perfbench/run.py --workload khop --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  --trace 0 runs the untraced
end-to-end driver over the RESP socket; --trace 1 runs the in-process
per-layer replay.  Build output goes to stderr; the driver's last
stdout line is the result object.  Exits non-zero, without a result,
when the engine sources are missing or anything fails.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("khop", "point_reads", "mixed_rw")
# Every run must end within 180 s; the first one in a checkout also
# builds and may take longer.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (ROOT / base / "perfbench").resolve()


def build(bdir, targets):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"engine sources not found under {ROOT}")
    if not (bdir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(bdir), "-j", jobs,
                    "--target", *targets], check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    driver = "perfbench_trace" if args.trace else "perfbench_load"
    try:
        build(bdir, ["resp_server", driver])
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    workdir = bdir.parent / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [str(bdir / driver), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--workdir", str(workdir)]
    if args.trace:
        traces = bdir.parent / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    else:
        cmd += ["--server", str(bdir / "engine" / "examples" / "resp_server")]

    # The driver and the servers it starts share one process group, so a
    # timeout takes all of them down.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("run timed out")
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"driver exited with {proc.returncode}")
        return 4
    # The result line carries exactly the metrics BENCHMARK.json lists
    # for this mode; the record line above it keeps everything measured.
    result = json.loads(lines[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace
                                     else "end_to_end"]]
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        log(f"driver did not report {missing}")
        return 5
    result["metrics"] = {n: result["metrics"][n] for n in names}
    print("\n".join(lines[:-1] + [json.dumps(result)]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
