#!/usr/bin/env python3
"""Builds the MD-GAN cluster benchmark from source and runs it.

    python3 perfbench/run.py --workload tcp-sync-swap --seed 1 \
        --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR if set,
else .bench_build; the first run configures and compiles the library,
later runs only re-check it. Build output goes to stderr, so the last
line on stdout is the benchmark's result JSON.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "md_gan_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build(build_dir)
    binary = os.path.join(build_dir, "md_gan_bench")
    sys.stdout.flush()
    proc = subprocess.run([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", args.trace])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
