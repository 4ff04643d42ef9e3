#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py ... --smoke      # tiny inputs, a quick end-to-end check
    python3 perfbench/run.py --selftest       # quantile and self-time arithmetic

Builds the TurboFlux libraries and the perfbench binary from source into
$CARGO_TARGET_DIR (default .bench_build) on first use. A round is a fixed
amount of work in its own process; a run is as many rounds as their
measured length (ROUND_SECONDS) fits into --seconds, at least one. Every
metric is the median over the rounds (with --trace 1 the last round is
traced and gives the per-layer metrics), and the rounds' outputs must
agree. The last round also checks the outputs against the reference. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it describes the run: host, build type,
source revision, workload, seed and each round's inputs and phase times.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("netflow-engine", "lsbench-churn-tcp")
BUILD_TYPE = "Release"
# Wall time of one round (one process) as measured on a 4-vCPU Xeon, the
# reference host: a run of --seconds is --seconds // ROUND_SECONDS rounds.
# Separate processes average out per-process speed differences of a shared
# host.
ROUND_SECONDS = {"netflow-engine": 12, "lsbench-churn-tcp": 16}
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    src = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", src, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(build_dir, "perfbench")


def source_revision(root):
    """The git commit if this is a git checkout, else a hash of src/."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(root, base))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    binary = build(root, build_dir)
    if binary is None:
        log("perfbench: build failed")
        return 1
    if args.selftest:
        return subprocess.run([binary, "--selftest"]).returncode

    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    out_dir = os.path.join(root, target, "perfbench-results")
    rounds = 1 if args.smoke else max(1, args.seconds // ROUND_SECONDS[args.workload])
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results, inputs = [], []
    for k in range(rounds):
        last = k == rounds - 1
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--trace", "1" if args.trace and last else "0",
               "--work_dir", work_dir, "--out_dir", out_dir,
               "--reference", "1" if last else "0"]
        if args.smoke:
            cmd.append("--smoke")
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                                  text=True,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
            return 1
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log("perfbench: binary exited with %d" % proc.returncode)
            return 1
        results.append(json.loads(lines[-1]))
        for line in lines[:-1]:
            if line.startswith("inputs "):
                inputs.append(json.loads(line[len("inputs "):]))
            else:
                print(line)

    digests = {i.get("output_digest") for i in inputs}
    correct = all(r["correct"] for r in results) and len(digests) == 1
    if len(digests) != 1:
        log("perfbench: rounds disagree on their outputs: %s" % sorted(map(str, digests)))
    if args.trace:
        metrics = results[-1]["metrics"]  # per-layer, from the traced round
    else:
        metrics = {}
        for name, m in results[0]["metrics"].items():
            values = [r["metrics"].get(name, {}).get("value") for r in results]
            if None not in values:
                metrics[name] = {"value": statistics.median(values), "unit": m["unit"]}
    result = {"correct": correct,
              "attempted": sum(r["attempted"] for r in results),
              "failed": sum(r["failed"] for r in results),
              "metrics": metrics}
    run = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "host": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                 "machine": platform.machine()},
        "build_type": BUILD_TYPE, "revision": source_revision(root),
        "rounds": inputs,
    }
    if args.trace:
        run["artifacts"] = os.path.join(
            target, "perfbench-results", "%s-seed%d.{stats.json,spans.jsonl}"
            % (args.workload, args.seed))
    print("run " + json.dumps(run, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
