#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Run from the root of a checkout:

    python3 jbench/run.py --workload solve --seed 1 --seconds 23 --trace 0
    python3 jbench/run.py selftest

The build is `dune build --profile release` of jbench/jbench.exe and the
repository libraries it links (the dune cache is disabled, so nothing is
written outside the checkout).  Build output goes to stderr; the
benchmark's own standard output is passed through, and its last line is
the result JSON.  Exits non-zero, printing no result, when the build
fails.

The query workload runs pinned to one CPU, its server included.  A
query op is a ~45 us round trip with one request in flight; with client
and server on different CPUs of a virtual machine every request waits
for an idle CPU to be woken, and that wake-up latency, set by the host's
load, swung the workload's throughput by 40% between runs (10% pinned).
See METHODOLOGY.md.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "jbench", "jbench.exe")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "./jbench/jbench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("jbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = sys.argv[1:]
    if "--workload" in args[:-1] and args[args.index("--workload") + 1] == "query":
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    return subprocess.run([EXE] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
