#!/usr/bin/env python3
"""Build and run the qiset end-to-end benchmark.

Usage, from the root of a qiset checkout:

    python3 perfbench/run.py --workload <isa-sweep|recalibrate|service|all>
                             --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds the library and the benchmark
benchmark program from source into .bench_build/ (later calls only rebuild what
changed). Build output goes to stderr; stdout carries the benchmark's
own report, whose last line is one JSON object with the keys
correct, attempted, failed and metrics. With --workload all the three
workloads run in turn and the last line merges them, prefixing every
metric with its workload name. The exit code is nonzero when the
build fails or any output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["isa-sweep", "recalibrate", "service"]
# One run must end within 180 s; leave room for start-up.
RUN_TIMEOUT_S = 175


def build():
    """Configure (once) and build the benchmark; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no qiset sources next to perfbench/", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr so stdout stays the report.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return os.path.isfile(BINARY)


def run_one(workload, args):
    """Run one workload: (exit code, parsed last line or None, lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans", os.path.join(
            traces, "%s-seed%d.json" % (workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        sys.stdout.write(exc.stdout or "")
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, None, []
    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        pass
    return proc.returncode, result, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()

    if not build():
        return 2

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads:
        code, result, lines = run_one(workload, args)
        if len(workloads) == 1:
            sys.stdout.write("\n".join(lines) + "\n")
            return code
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if code != 0 or result is None:
            status = status or code or 1
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][workload + "/" + name] = metric
    print(json.dumps(merged))
    return status


if __name__ == "__main__":
    sys.exit(main())
