#!/usr/bin/env python3
"""Steadiness check: runs one workload k times and reports, per end-to-end
metric, the median, the quartiles and the spread (Q3 - Q1) / median as a
fraction of the metric's bound in BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/steady.py --workload lsbench-churn-tcp [--runs 10] [--first-seed 1]

Each run takes BENCHMARK.json's run_seconds and one of the seeds
first-seed, first-seed + 1, ... Exits non-zero if a run fails or is
incorrect, if a spread exceeds its bound, or if the failed share differs
between runs.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    shares = set()
    ok = True
    for k in range(args.runs):
        seed = args.first_seed + k
        cmd = bench["command"] + ["--workload", args.workload, "--seed",
                                  str(seed), "--seconds", str(seconds),
                                  "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: exit %d\n%s" % (seed, proc.returncode, proc.stderr[-2000:]))
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("seed %d: incorrect\n%s" % (seed, proc.stderr[-2000:]))
            ok = False
        shares.add((result["failed"], result["attempted"]))
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, result["metrics"][n]["value"]) for n in bounds)),
            flush=True)

    ratios = {f * 1.0 / a for f, a in shares}
    if len(ratios) > 1:
        print("failed share differs between runs: %s" % sorted(shares))
        ok = False
    print("\n%-18s %12s %12s %12s %8s %8s %8s" %
          ("metric", "median", "q1", "q3", "spread", "bound", "/bound"))
    for name, m in bounds.items():
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        frac = spread / m["bound"]
        flag = ""
        if frac > 1:
            flag = "  OVER"
            ok = False
        elif frac > 1 / 3:
            flag = "  >1/3"
        print("%-18s %12.6g %12.6g %12.6g %8.4f %8.3f %8.3f%s" %
              (name, med, q1, q3, spread, m["bound"], frac, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
