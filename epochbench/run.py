#!/usr/bin/env python3
"""Build and run the Patchwork epoch benchmark.

Run from the root of a checkout:

    python3 epochbench/run.py --workload wide_mix --seed 1 --seconds 20

The first call configures and builds the Patchwork libraries and the
benchmark binary into .bench_build/epochbench (CMake, RelWithDebInfo);
later calls only rebuild what changed. Build output goes to stderr. The
binary's stdout is passed through; its last line is the result JSON.
Exits non-zero when the sources are missing, the build fails, or a
correctness check fails.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "epochbench")
BINARY = os.path.join(BUILD, "epochbench")


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build():
    """Configure (once) and build; returns the build's exit code."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        rc = subprocess.call(cmd, stdout=sys.stderr, cwd=ROOT)
        if rc != 0:
            return rc
    return subprocess.call(["cmake", "--build", BUILD, "-j", jobs()],
                           stdout=sys.stderr, cwd=ROOT)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("epochbench: no Patchwork sources under %s/src" % ROOT,
              file=sys.stderr)
        return 2
    rc = build()
    if rc != 0:
        print("epochbench: build failed (%d)" % rc, file=sys.stderr)
        return rc
    # Write back what the build (or an earlier run) left dirty, so the
    # timed run does not share the disk with that writeback.
    os.sync()

    child = subprocess.Popen(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT)

    # Pass a stop request on to the binary; the wait below then returns
    # once it has ended.
    def stop(_signum, _frame):
        child.terminate()

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    rc = child.wait()
    return rc if rc >= 0 else 128 - rc


if __name__ == "__main__":
    sys.exit(main())
