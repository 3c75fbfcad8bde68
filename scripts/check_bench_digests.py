#!/usr/bin/env python3
"""Check that benchmark episodes still reach their recorded outcomes.

    python3 scripts/check_bench_digests.py [--record]

Runs the ermsbench workloads that drive the whole control loop
(lifecycle_skewed and writes_failures) at the default and the held-out
seed for one second each, and compares the outcome digests of inputs 0-2
with scripts/bench_digests.json. A change meant to keep outcomes
byte-identical must pass as is. A change that alters outcomes on purpose
re-records the file with --record and says so in CHANGES.md.

Exits 0 when every digest matches (or after --record), 1 on a mismatch,
2 when a run fails.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = os.path.join(ROOT, "scripts", "bench_digests.json")
WORKLOADS = ("lifecycle_skewed", "writes_failures")
SEEDS = (1, 2012)  # ermsbench/run.py's DEFAULT_SEED and HELD_OUT_SEED
INPUTS = 3  # a run has at least three plain episodes
EPISODE = re.compile(r"^episode \d+ plain: input (\d+),.* digest ([0-9a-f]{16})$", re.M)


def episode_digests(workload, seed):
    """Digest of each plain episode's input, for inputs 0 .. INPUTS-1."""
    cmd = [sys.executable, os.path.join(ROOT, "ermsbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    found = {}
    for match in EPISODE.finditer(out.stdout):
        found.setdefault(match.group(1), match.group(2))
    missing = [i for i in range(INPUTS) if str(i) not in found]
    if out.returncode != 0 or missing:
        sys.stderr.write(out.stderr[-4000:] + out.stdout[-4000:])
        print(f"{workload} seed {seed}: run failed (exit {out.returncode}, "
              f"inputs missing: {missing})")
        sys.exit(2)
    return {str(i): found[str(i)] for i in range(INPUTS)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="write the digests of this tree to scripts/bench_digests.json")
    args = parser.parse_args()

    measured = {w: {str(s): episode_digests(w, s) for s in SEEDS} for w in WORKLOADS}
    if args.record:
        with open(DIGESTS, "w") as f:
            json.dump(measured, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"recorded {DIGESTS}")
        return 0

    with open(DIGESTS) as f:
        expected = json.load(f)
    mismatches = 0
    for workload in WORKLOADS:
        for seed in SEEDS:
            for i in range(INPUTS):
                want = expected[workload][str(seed)][str(i)]
                got = measured[workload][str(seed)][str(i)]
                ok = want == got
                mismatches += 0 if ok else 1
                print(f"{workload} seed {seed} input {i}: {got} "
                      f"{'ok' if ok else 'MISMATCH, recorded ' + want}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
