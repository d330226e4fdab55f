#!/usr/bin/env python3
"""Build the serving benchmark from this checkout's sources, then run it.

    python3 servebench/run.py --workload chat|long_doc|offline_w8a8 \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to .bench_build/servebench
(configured once, rebuilt incrementally); its output goes to stderr so the
benchmark's last stdout line stays its JSON result. A failed build exits
non-zero without printing a result. All arguments are passed to the
benchmark binary, which replaces this process.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")


def run(cmd):
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run(cmd) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run(["cmake", "--build", BUILD, "--target", "servebench",
                "-j", jobs]) == 0


def main():
    if not build():
        print("servebench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "servebench")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
