#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 e2e_bench/run.py --workload <active-fleet|passive-fleet|recovery-churn>
                             --seed <n> --seconds <s> --trace <0|1>

The benchmark is a CMake package of its own (e2e_bench/CMakeLists.txt). It
compiles the library sources under src/ into .bench_build/e2e_bench and runs
the resulting binary, whose last line of standard output is the JSON result.
Build output goes to standard error. NOTES.md describes the workloads and
metrics.
"""

import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2e_bench"
RUN_TIMEOUT_S = 170


def build() -> bool:
    if not (ROOT / "src" / "core" / "deployment.hpp").is_file():
        print("e2e_bench: library sources (src/) not found next to e2e_bench/", file=sys.stderr)
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("e2e_bench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main() -> int:
    if not build():
        return 2
    binary = BUILD / "e2e_bench"
    try:
        # The binary writes flight dumps (if any) into the working directory.
        return subprocess.run([str(binary)] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"e2e_bench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
