#!/usr/bin/env python3
"""Build and run the benchmark of record.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark is compiled from
source with dune (into the checkout's own _build directory), then run with
the same arguments; its standard output is passed through unchanged, and
its last line is the result object. Any build or run failure exits non-zero
without printing a result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    root = os.getcwd()
    env = dict(os.environ)
    # Keep every build product inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    bench_env = dict(env)
    # Every round starts from a collected heap. Without this, glibc hands
    # the freed pages back to the kernel after each collection and the
    # next round pays to fault them in again: a cost of the harness's
    # forced collection, not of the simulator.
    bench_env["MALLOC_TRIM_THRESHOLD_"] = str(1 << 30)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            cwd=root,
            env=env,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=840,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: build failed: {exc}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        run = subprocess.run(
            [os.path.join(root, EXE)] + sys.argv[1:],
            cwd=root,
            env=bench_env,
            stdout=subprocess.PIPE,
            timeout=170,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 3
    if run.returncode != 0:
        print(f"perfbench: benchmark exited {run.returncode}", file=sys.stderr)
        return run.returncode
    sys.stdout.buffer.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
