#!/usr/bin/env python3
"""Build and run the twin's benchmark (see README.md in this directory).

    python3 twinbench/run.py --workload serve-mixed --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The first call configures and compiles
the benchmark program and the twin's libraries into .bench_build/ (a few
minutes); later calls only re-check the build. All other arguments go to the
program, whose last stdout line is the result JSON. Exits non-zero, with
no result line, when the build fails or the program breaks or overruns.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "twinbench")
BINARY = os.path.join(BUILD, "twinbench")
# The program stops waiting for work 150 s into a run (kRunLimitS in
# src/common.hpp); this is the last resort behind it.
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then let the build tool decide what is stale."""
    log = sys.stderr
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=log, stderr=log)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "twinbench", "-j4"],
        check=True, stdout=log, stderr=log)


def main(argv):
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.stderr.write(f"twinbench: build failed: {e}\n")
        return 1

    workdir = os.path.join(".bench_build", f"work-{os.getpid()}")
    cmd = [BINARY] + argv + ["--workdir", workdir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"twinbench: run exceeded {RUN_TIMEOUT_S} s\n")
        code = 1
    finally:
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
