#!/usr/bin/env python3
"""Build the benchmark program, cwspbench.exe, from source and run it.

Run from the repository root:

    python3 cwspbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

It is built with dune into .bench_build/ (dune's shared cache
off, so nothing is written outside the checkout), then run with the
given arguments. Its stdout is passed through; the last line is the
result object. Exits non-zero, without a result, when the build fails,
the program fails, or its last line is not a well-formed result.
"""

import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./cwspbench/cwspbench.exe"
EXE = os.path.join(BUILD_DIR, "default", "cwspbench", "cwspbench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def well_formed(line):
    try:
        res = json.loads(line)
    except ValueError:
        return False
    return (
        isinstance(res, dict)
        and set(res) == RESULT_KEYS
        and isinstance(res["attempted"], int)
        and res["attempted"] >= 1
        and all(
            isinstance(m, dict) and set(m) == {"value", "unit"}
            for m in res["metrics"].values()
        )
    )


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: no dune-project and lib/ here; run from the repository root",
              file=sys.stderr)
        return 2
    dune = dune_command()
    if dune is None:
        print("run.py: dune not found", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            dune + ["build", "--root", ".", "--build-dir", BUILD_DIR, TARGET],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([EXE] + sys.argv[1:], stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines or not well_formed(lines[-1]):
        sys.stderr.write(run.stdout)
        print("run.py: benchmark failed (exit %d)" % run.returncode, file=sys.stderr)
        return run.returncode or 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
