#!/usr/bin/env python3
"""Builds and runs the springfs workload benchmark.

Usage, from the root of a checkout:

    python3 springbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds springbench (the springfs library from src/ plus the generator in
this directory) with CMake into $CARGO_TARGET_DIR, or .bench_build when it
is unset, then runs one workload. Build output goes to stderr, so the last
line on stdout is the benchmark's JSON result, holding the metrics
BENCHMARK.json lists. Traced runs write their spans to
<build dir>/spans/<workload>-<seed>.tsv. Exits non-zero, without a result,
when the sources are missing, the build fails or the run dies.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def load_benchmark() -> dict:
    with open(BENCH_DIR.parent / "BENCHMARK.json") as f:
        return json.load(f)


def build(build_dir: Path) -> bool:
    if not (BENCH_DIR.parent / "src" / "CMakeLists.txt").is_file():
        print("springbench: springfs sources (src/) not found", file=sys.stderr)
        return False
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "springbench",
                  "-j", "2"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("springbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = build_dir.resolve()
    if not build(build_dir):
        return 1

    command = [str(build_dir / "springbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        spans = build_dir / "spans"
        spans.mkdir(exist_ok=True)
        command += ["--span-file",
                    str(spans / f"{args.workload}-{args.seed}.tsv")]
    try:
        run = subprocess.run(command, timeout=RUN_TIMEOUT_S,
                             stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print("springbench: run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(run.stdout, end="")
        print("springbench: no result line", file=sys.stderr)
        return 1
    # The program prints every metric it measures (p99s and the failure
    # share too); the result carries the ones BENCHMARK.json lists.
    key = "per_layer" if args.trace == "1" else "end_to_end"
    listed = [m["name"] for m in load_benchmark()[key]]
    missing = [name for name in listed if name not in result["metrics"]]
    if missing:
        print(run.stdout, end="")
        print("springbench: metrics missing: " + ", ".join(missing),
              file=sys.stderr)
        return 1
    result["metrics"] = {name: result["metrics"][name] for name in listed}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
