#!/usr/bin/env python3
"""Self-test of the benchmark's inputs.

    python3 perfbench/selftest.py

Builds the driver as run.py does, then checks for every workload that the
same seed gives a byte-identical input list (known answers included) in two
separate processes, and that the seed actually varies the list. It also
checks that serve_mix's never-repeated fresh cells last a whole window of
BENCHMARK.json's run_seconds even if a pass of 1000 requests took only
FASTEST_PASS_S (a few times faster than today's); past that the window
ends early. Exit code 0 when every check holds, 1 otherwise.
"""
import json
import os
import re
import subprocess
import sys

from run import DRIVER, ROOT, WORKLOADS, build

FASTEST_PASS_S = 0.15


def listing(workload, seed):
    return subprocess.run(
        [DRIVER, "--workload", workload, "--seed", str(seed), "--list-inputs"],
        cwd=ROOT, check=True, capture_output=True).stdout


def main():
    build()
    ok = True
    for w in WORKLOADS:
        first = listing(w, 1)
        same = first == listing(w, 1)
        varied = len({first, *(listing(w, s) for s in (2, 3, 4))}) > 1
        print(f"{w:12s} {len(first.splitlines()):5d} inputs  "
              f"same seed identical: {same}  seeds vary it: {varied}")
        ok = ok and same and varied and bool(first)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    m = re.match(rb"# fresh cells for (\d+) passes", listing("serve_mix", 1))
    passes = int(m.group(1)) if m else 0
    covered = passes * FASTEST_PASS_S >= seconds
    print(f"serve_mix fresh cells fill {passes} passes: {seconds} s at "
          f"{FASTEST_PASS_S} s a pass covered: {covered}")
    return 0 if ok and covered else 1


if __name__ == "__main__":
    sys.exit(main())
