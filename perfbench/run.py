#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload imcaf-ubg --seed 1 --seconds 30 --trace 0

Workloads: imcaf-ubg, daemon-mix, cluster-solve. The build goes to
$CARGO_TARGET_DIR (default .bench_build); the run's scratch files (the
daemon snapshot, the span dump of a traced run) go to perfbench-work under
it. Build output goes to stderr; the last line of stdout is the run's JSON
result. The exit code is the benchmark's: 0 when every check passed.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = target / "release" / "perfbench"
    run = subprocess.run(
        [str(binary), *sys.argv[1:], "--work-dir", str(target / "perfbench-work")],
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
