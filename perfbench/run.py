#!/usr/bin/env python3
"""Build the benchmark from source and run one workload, or all of them.

    python3 perfbench/run.py --workload wide_issue --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout. The first run configures and builds the
driver and the velev_serve daemon into .bench_build/perfbench (build output
goes to stderr); later runs only re-check the build. Each workload runs in
its own driver process, whose output is passed through unchanged: its last
stdout line is the JSON result. Exit code: the driver's (the largest one
with `all`), or 2 when the build fails, 3 when a driver overruns.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Compiler and daemon scratch files stay inside the checkout too.
TMP = os.path.join(ROOT, ".bench_build", "tmp")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("wide_issue", "rob_scale", "pe_only", "serve_mix")
RUN_LIMIT_S = 170


def build():
    os.makedirs(TMP, exist_ok=True)
    os.environ["TMPDIR"] = TMP
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--parallel", "4",
                    "--target", "perfbench_driver", "velev_serve"],
                   check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_driver(w, args) for w in workloads)


def run_driver(workload, args):
    sys.stdout.flush()
    # Own process group: an overrun kills the driver and the daemon it spawned.
    proc = subprocess.Popen(
        [DRIVER, "--workload", workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {workload} overran its time limit", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
