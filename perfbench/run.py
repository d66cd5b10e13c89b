#!/usr/bin/env python3
"""Builds lca-serve and the benchmark client from source, then runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload hot-classic --seed 1 --seconds 10 --trace 0

The daemon is built in the repository's own workspace; the client
(`perfbench/`, a workspace of its own) in a subdirectory of the same target
directory: `$CARGO_TARGET_DIR`, or `.bench_build` when that is unset. Build
output goes to stderr; the client's result is the last line of stdout.
Exits nonzero, printing no result, when there is nothing to build.
"""

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("hot-classic", "heavy-k2", "wire-pipelined")


def build(cmd, env):
    result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates/serve").is_dir():
        sys.exit(f"perfbench: no lca workspace to build at {ROOT}")

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build(["cargo", "build", "--release", "--offline", "--quiet",
           "-p", "lca-serve", "--bin", "lca-serve"], env)
    client_env = dict(env, CARGO_TARGET_DIR=str(target / "perfbench"))
    build(["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")], client_env)

    # The client stops the daemons it starts, and its reads time out, so a
    # stuck daemon fails the run rather than hanging it.
    return subprocess.run([
        str(target / "perfbench" / "release" / "lca-perfbench"),
        "--server", str(target / "release" / "lca-serve"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
