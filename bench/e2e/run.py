#!/usr/bin/env python3
"""Builds bsub_bench from this checkout and runs one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds T --trace 0|1

The build goes to .bench_build/ at the repository root (configured once,
then incremental). The benchmark's output is passed through; its last line
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
That line is checked against the metric names BENCHMARK.json declares.
Exits non-zero, printing no result, if the build or the run fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bsub_bench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (first time) and builds bsub_bench; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        cmd = ["cmake", "--build", BUILD, "--target", "bsub_bench", "-j", jobs]
        return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        log("build failed")
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd.append("--traced")
    # Own process group, so a timeout stops the benchmark's children too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 1

    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(out)
        log(f"no result line (exit code {proc.returncode})")
        return 1
    want = declared_metrics(args.trace)
    if want is not None and sorted(want) != sorted(result["metrics"]):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log("metric names differ from BENCHMARK.json")
        return 1
    sys.stdout.write(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
