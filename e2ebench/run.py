#!/usr/bin/env python3
"""Builds the end-to-end benchmark driver and runs one workload.

Usage (from the repository root):

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --self-test

The driver is configured and built under .bench_build/e2ebench on first use
(build output goes to standard error).  The last line of standard output is
the result object; see e2ebench/README.md for the metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
DRIVER = BUILD / "e2ebench_driver"


def build():
    """Configures (once) and builds the driver; output goes to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "e2ebench_driver",
         "-j", jobs],
        check=True, stdout=sys.stderr)


def self_test():
    """Driver self-tests, then the driver's names against BENCHMARK.json."""
    status = subprocess.run([str(DRIVER), "--self-test"]).returncode
    listed = subprocess.run([str(DRIVER), "--list"], check=True,
                            capture_output=True, text=True).stdout.split("\n")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    driver = {"workload": [], "end_to_end": [], "per_layer": []}
    for line in filter(None, listed):
        kind, *rest = line.split()
        driver[kind].append(tuple(rest))
    declared = {
        "workload": [(w["name"],) for w in spec["workloads"]],
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    for kind, names in declared.items():
        if names != driver[kind]:
            print(f"self-test failed: BENCHMARK.json {kind} differ from "
                  f"the driver's: {names} vs {driver[kind]}", file=sys.stderr)
            status = 1
    print("BENCHMARK.json matches the driver" if status == 0
          else "BENCHMARK.json check FAILED")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"e2ebench: build failed: {error}", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    work_dir = BUILD / "work" / f"{args.workload}-{os.getpid()}"
    return subprocess.run(
        [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--work-dir", str(work_dir)]).returncode


if __name__ == "__main__":
    sys.exit(main())
