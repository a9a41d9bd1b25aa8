#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

Run from the repository root:

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it checks that
  * a timed run (--trace 0) passes its answer checks and prints every
    end-to-end metric, by name and with its unit, in the table and in the
    final JSON line, on two seeds;
  * a traced run (--trace 1) does the same for every per-layer metric;
  * a run fed one corrupted answer (--corrupt flips one seed) fails its
    checks: exit code 1, "correct": false, at least one failed operation.
Exits 1 on the first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload, seed, trace, *extra):
    args = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
            "--size", "tiny", *extra]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, lines, result, proc.stderr


def fail(message, stderr=""):
    print(f"smoke: FAIL: {message}\n{stderr}", file=sys.stderr)
    sys.exit(1)


def check_printed(workload, lines, result, wanted):
    if sorted(result["metrics"]) != sorted(wanted):
        fail(f"{workload}: printed {sorted(result['metrics'])}, expected {sorted(wanted)}")
    table = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            table[parts[0]] = parts[2]
    for name, unit in wanted.items():
        if result["metrics"][name]["unit"] != unit:
            fail(f"{workload}: {name} unit {result['metrics'][name]['unit']}, expected {unit}")
        if table.get(f"{workload}.{name}") != unit:
            fail(f"{workload}: table line for {name} with unit {unit} missing")


def main():
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        for seed, trace, wanted in ((1, 0, end_to_end), (2, 0, end_to_end), (1, 1, per_layer)):
            code, lines, result, stderr = run(workload, seed, trace)
            if code != 0 or not result or result["correct"] is not True:
                fail(f"{workload} seed {seed} trace {trace}: exit {code}", stderr)
            if result["attempted"] < 1 or result["failed"] != 0:
                fail(f"{workload}: attempted {result['attempted']} failed {result['failed']}")
            check_printed(workload, lines, result, wanted)
            print(f"smoke: {workload} seed {seed} trace {trace}: ok")
        code, _, result, stderr = run(workload, 1, 0, "--corrupt")
        if code != 1 or not result or result["correct"] is not False or result["failed"] < 1:
            fail(f"{workload}: corrupted answer not caught (exit {code})", stderr)
        print(f"smoke: {workload} corrupted answer caught")
    print("smoke: ok")


if __name__ == "__main__":
    main()
