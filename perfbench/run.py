#!/usr/bin/env python3
"""Builds and runs the itdb end-to-end benchmark.

    python3 perfbench/run.py --workload service --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The first run configures and builds the
itdb libraries, itdb_serve and the load generator (Release) under
.bench_build/perfbench; later runs only check that the build is current.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result.  See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for required in ("src/CMakeLists.txt", "tools/itdb_serve.cc"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("missing %s: run from an itdb checkout" % required)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(
        ["cmake", "--build", BUILD, "--target", "itdb_e2e", "itdb_serve",
         "-j", jobs], stdout=sys.stderr)
    if result.returncode != 0:
        fail("build failed")
    # Flush the build's output now, so its writeback does not stall the
    # server's WAL writes in the first measured run.
    os.sync()


def main():
    os.chdir(ROOT)
    build()
    command = [os.path.join(BUILD, "itdb_e2e")] + sys.argv[1:] + [
        "--serve-bin", os.path.join(BUILD, "itdb_serve"),
        "--work-dir", os.path.join(".bench_build", "work"),
        "--root", "."]
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
