#!/usr/bin/env python3
"""Builds and runs the SoD2 host benchmark.

Usage, from the repository root:

    python3 hostbench/run.py --workload short-seq --seed 1 --seconds 15 --trace 0

Workloads: short-seq, large-image, serve-open. The benchmark binary is
built in release mode into $CARGO_TARGET_DIR (default .bench_build). Its
detail report goes to stdout, and the last stdout line is the result
object {"correct", "attempted", "failed", "metrics"}. With --trace 1 the
spans of the traced run are written to
$CARGO_TARGET_DIR/hostbench/spans-<workload>.jsonl.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("short-seq", "large-image", "serve-open")
# A run must finish within 180 s; the binary gets what is left after the
# (cached) build check.
RUN_TIMEOUT_S = 170


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"hostbench: cannot run cargo: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("hostbench: build failed", file=sys.stderr)
        return 1

    out_dir = os.path.join(target, "hostbench")
    cmd = [
        os.path.join(target, "release", "sod2-hostbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--mvc-cache", os.path.join(out_dir, "mvc-cache"),
    ]
    if args.trace:
        cmd += ["--spans-out", os.path.join(out_dir, f"spans-{args.workload}.jsonl")]
    try:
        # On timeout, run() kills the benchmark and waits for it to exit.
        ran = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"hostbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if ran.returncode != 0:
        print(f"hostbench: benchmark exited with {ran.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(ran.stdout.decode())
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
