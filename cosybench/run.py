#!/usr/bin/env python3
"""Builds the cosybench driver from the checkout's sources and runs it.

    python3 cosybench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build lives in .bench_build/cosybench
(configured until a configure succeeds, then rebuilt incrementally on every
call); build output
goes to stderr so the driver's last stdout line stays its JSON result.
Exits non-zero without a result when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cosybench")
BINARY = os.path.join(BUILD, "cosybench")


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-G", "Unix Makefiles",
             "-DCMAKE_BUILD_TYPE=Release", "-DKOJAK_CCACHE=OFF"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "cosybench", "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BINARY


def main():
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"cosybench: build failed: {error}", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
