#!/usr/bin/env python3
"""Build and run the CEEMS stack benchmark.

Usage, from the repository root:

    python3 stackbench/run.py --workload generation|mixed \
        --seed N --seconds S --trace 0|1

Builds `stackbench` (the repository's src/ libraries plus the program in
stackbench/src) as an optimised CMake build under .bench_build/, then runs
it with the given arguments. Build output goes to stderr; the benchmark's
last stdout line is its result object. Exits non-zero, without a result,
when the sources are missing, the build fails or the run fails.
"""
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("stackbench: no src/ next to stackbench/; nothing to build",
              file=sys.stderr)
        return 2
    build_dir = os.path.join(root, ".bench_build", "stackbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    try:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", build_dir, "--target",
                        "stackbench", "-j", jobs],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as error:
        print(f"stackbench: build failed: {error}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    binary = os.path.join(build_dir, "stackbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("stackbench: run timed out", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
