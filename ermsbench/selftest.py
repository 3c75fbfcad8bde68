#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 ermsbench/selftest.py [--seconds S]

Checks that
  1. the binary's metric catalogue (--list-metrics) matches BENCHMARK.json,
     names and units, end-to-end and per-layer;
  2. on every workload, a plain run and a traced run with the same seed
     both pass their output checks and report the same outcome digest (the
     traced run also compares each traced episode with the plain episode
     of the same input).
Exits 0 when all hold, 1 otherwise.
"""

import argparse
import json
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (the sibling build-and-run script)


def run_binary(binary, workload, seed, seconds, trace):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S)
    digest = re.search(r"^digest \S+ ([0-9a-f]{16})$", out.stdout, re.M)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return out.returncode, digest.group(1) if digest else None, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    binary = run.build()
    problems = []

    listed = subprocess.run([binary, "--list-metrics"], capture_output=True, text=True,
                            check=True).stdout.split("\n")
    catalogue = {"end_to_end": [], "per_layer": []}
    for line in filter(None, listed):
        kind, name, unit = line.split()
        catalogue[kind].append((name, unit))
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for kind in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        if declared != catalogue[kind]:
            problems.append(f"BENCHMARK.json {kind} differs from the binary's catalogue")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")

    for workload in run.WORKLOADS:
        rc0, d0, r0 = run_binary(binary, workload, run.DEFAULT_SEED, args.seconds, 0)
        rc1, d1, r1 = run_binary(binary, workload, run.DEFAULT_SEED, args.seconds, 1)
        ok = rc0 == 0 and rc1 == 0 and r0["correct"] and r1["correct"] and d0 and d0 == d1
        print(f"{workload}: digest {d0} / {d1}, exit {rc0} / {rc1} -> {'ok' if ok else 'FAIL'}")
        if not ok:
            problems.append(f"{workload}: runs disagree or fail their checks")

    for p in problems:
        print("FAIL:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
