#!/usr/bin/env python3
"""Determinism self-check of the whole-path benchmark.

    python3 pathbench/selftest.py

For every workload, plays the count episode twice with one seed and once
with another.  Passes when the two same-seed runs print byte-identical
per-layer counts (events, allocations, cells, segments, instructions,
messages) and input digests with every correctness gate held, and the
other seed changes the generated inputs.  Exits 0 on pass.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (sibling module: build() and the binary path)


def counts(workload, seed):
    proc = subprocess.run([run.BINARY, "--workload", workload, "--seed", str(seed),
                           "--counts-only"], stdout=subprocess.PIPE, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    line = proc.stdout.strip().splitlines()[-1]
    return proc.returncode, line


def main():
    if not run.build():
        return 2
    ok = True
    for w in run.WORKLOADS:
        rc_a, a = counts(w, 7)
        rc_b, b = counts(w, 7)
        rc_c, c = counts(w, 8)
        same = a == b
        inputs_differ = json.loads(a)["digest"] != json.loads(c)["digest"]
        gates = rc_a == 0 and rc_b == 0 and rc_c == 0
        verdict = same and inputs_differ and gates
        ok = ok and verdict
        print("%-14s %s  same-seed counts identical: %s, other seed changes inputs: %s, "
              "gates held: %s" % (w, "PASS" if verdict else "FAIL", same, inputs_differ, gates))
        if not same:
            print("  seed 7 run 1: " + a)
            print("  seed 7 run 2: " + b)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
