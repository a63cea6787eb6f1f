#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

Runs every workload twice with one seed, untraced and traced, and
checks that:
  * each run exits 0 and reports correct outputs;
  * the printed metric names are exactly those BENCHMARK.json lists;
  * native_2q_mean, neg_log10_fidelity_mean, circuit_duration_us_mean
    (untraced) and profile_cache.misses, routing.swaps (traced) repeat
    exactly;
  * the timed phase of recalibrate makes no profile-cache misses.

Usage, from the root of a qiset checkout (builds like run.py does):

    python3 perfbench/test_determinism.py [--seed N] [--seconds S]
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

EXACT = {
    0: ["native_2q_mean", "neg_log10_fidelity_mean",
        "circuit_duration_us_mean"],
    1: ["profile_cache.misses", "routing.swaps"],
}


def invoke(workload, seed, seconds, trace):
    proc = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=run.RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    return proc.returncode, json.loads(lines[-2])["side"], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=2)
    args = parser.parse_args()
    if not run.build():
        return 2

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: {m["name"] for m in bench["end_to_end"]},
                1: {m["name"] for m in bench["per_layer"]}}

    failures = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            runs = [invoke(workload, args.seed, args.seconds, trace)
                    for _ in range(2)]
            tag = "%s trace=%d" % (workload, trace)
            for code, side, result in runs:
                if code != 0 or not result["correct"] or result["failed"]:
                    failures.append("%s: exit %d, correct=%s, failed=%d"
                                    % (tag, code, result["correct"],
                                       result["failed"]))
                names = set(result["metrics"])
                if names != expected[trace]:
                    failures.append("%s: metric names differ from "
                                    "BENCHMARK.json: %s" % (
                                        tag, sorted(names ^ expected[trace])))
                if workload == "recalibrate" and trace == 0 and \
                        side["timed_cache_misses"]["value"] != 0:
                    failures.append("%s: timed phase missed the cache" % tag)
            first, second = runs[0][2]["metrics"], runs[1][2]["metrics"]
            for name in EXACT[trace]:
                a, b = first[name]["value"], second[name]["value"]
                if a != b:
                    failures.append("%s: %s differs between runs: %r vs %r"
                                    % (tag, name, a, b))
            print("%-26s checked" % tag, flush=True)

    for failure in failures:
        print("FAIL " + failure)
    print("determinism self-test: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
