#!/usr/bin/env python3
"""Build and run the whole-path benchmark.

    python3 pathbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 pathbench/run.py --workload all --seed <n> --seconds <s>

Run from the repository root.  The first run configures and builds the
simulator libraries and the pathbench binary into .bench_build/ (later runs
only re-check the build).  Build output goes to stderr, so the last line of
stdout is the binary's JSON result.  Traced runs write their raw spans to
.bench_build/spans/<workload>-seed<n>.jsonl.

`--workload all` runs every workload untraced and traced and prints every
metric with its unit, the traced per-span self times and the tracing
overhead; its last line merges the results as "<workload>.<metric>".
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "pathbench")
WORKLOADS = ["call_churn", "call_hold", "stream_native", "stream_encap"]
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the binary; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("pathbench: simulator sources (src/) not found next to pathbench/",
              file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "pathbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("pathbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run_binary(workload, seed, seconds, trace, capture):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("pathbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return None


def run_all(seed, seconds):
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        for trace in (0, 1):
            proc = run_binary(w, seed, seconds, trace, capture=True)
            if proc is None or not proc.stdout.strip():
                return 1
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            res = json.loads(lines[-1])
            merged["correct"] = merged["correct"] and res["correct"] and proc.returncode == 0
            merged["attempted"] += res["attempted"]
            merged["failed"] += res["failed"]
            for name, m in res["metrics"].items():
                merged["metrics"]["%s.%s" % (w, name)] = m
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not build():
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    proc = run_binary(args.workload, args.seed, args.seconds, args.trace, capture=False)
    return 1 if proc is None else proc.returncode


if __name__ == "__main__":
    sys.exit(main())
