#!/usr/bin/env python3
"""Build and run the AGENP benchmark from the root of a checkout.

    python3 perfbench/run.py --workload hot|cold|adapt --seed N \
        --seconds S --trace 0|1 [--tiny]

Builds perfbench/main.exe from source with dune (release profile, into
perfbench/_build, build output on stderr) and runs it with the same
arguments in this process's working directory. The executable's standard
output is passed through unchanged; its last line is the JSON result.
Exits non-zero, printing no result, when the checkout or the toolchain is
missing or the build fails.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.abspath(os.path.join("perfbench", "_build"))
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def dune():
    path = shutil.which("dune")
    if path:
        return [path]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run me from the root of an AGENP checkout",
              file=sys.stderr)
        return 2
    cmd = dune()
    if cmd is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    build = cmd + ["build", "--root", ".", "--profile", "release",
                   "--build-dir", BUILD_DIR, "-j", "2",
                   "./perfbench/main.exe"]
    if subprocess.run(build, stdout=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
