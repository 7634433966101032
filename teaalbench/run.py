#!/usr/bin/env python3
"""Builds the TeAAL benchmark from source and runs one workload.

Run from the repository root:

    python3 teaalbench/run.py --workload catalog_cold --seed 1 --seconds 20 --trace 0

The release build goes to $CARGO_TARGET_DIR (default: .bench_build in the
current directory). Cargo's own output goes to stderr, so the benchmark's
JSON result stays the last line of stdout. A failed build exits non-zero
without printing a result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("teaalbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "teaalbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
