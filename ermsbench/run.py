#!/usr/bin/env python3
"""Build and run the ERMS repository benchmark.

    python3 ermsbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Builds ermsbench/ (and the libraries under src/ it links) with CMake into
.bench_build/ at the repository root on first use, then runs one workload.
Build output goes to stderr; stdout carries the episode lines, provenance,
every metric with its unit, and as its last line one JSON result object.
The exit code is the binary's: 0 when every output check held, 1 when one
failed, 2 when the build or the arguments failed.

Seeds: DEFAULT_SEED is the one used while tuning the workloads;
HELD_OUT_SEED was never used while writing them, so a claim measured on
the default seed can be re-checked on it (see README.md).
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("replay_uniform", "lifecycle_skewed", "writes_failures", "ec_bytes")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2012
RUN_TIMEOUT_S = 170


def build_dir():
    # Keyed by the source location: a CMake cache is bound to its source dir.
    key = hashlib.sha1(HERE.encode()).hexdigest()[:8]
    return os.path.join(ROOT, ".bench_build", "ermsbench-" + key)


def source_id():
    """git describe when the tree is a repository, else a hash of the sources."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True)
        if out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "ermsbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "ermsbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"ermsbench: build failed: {err}", file=sys.stderr)
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--source", source_id()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"ermsbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
