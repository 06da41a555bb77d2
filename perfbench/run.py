#!/usr/bin/env python3
"""Builds and runs the Privateer benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run configures and builds the
library (from src/) and the measuring program into .bench_build/perfbench;
later runs only rebuild what changed.  The statistics self-check
runs before every measurement.  The measuring program runs in its own
session, so every process it leaves behind is killed before this exits.

The last line of standard output is the result object; nothing is printed
on it when the build or the self-check fails, and the exit code is then 1.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")
WORKDIR = os.path.join(".bench_build", "run")
WORKLOADS = ("cc_cold", "exec_light", "exec_heavy", "daemon_mix")
# The measuring program must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 150


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds; output goes to stderr."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [["cmake", "-S", "perfbench", "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "-j", jobs, "--target",
              "perfbench", "perfbench_selftest"]]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def kill_session(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_session(cmd, timeout):
    """Runs cmd in its own session; returns (returncode, stdout) or None on
    timeout.  Whatever the session still holds afterwards is killed."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_session(proc)
        proc.communicate()
        return None
    kill_session(proc)
    return proc.returncode, out


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    t0 = time.monotonic()
    if not build():
        return 1
    log("build current after %.1f s" % (time.monotonic() - t0))

    selftest = run_session([os.path.join(BUILD, "perfbench_selftest")], 60)
    if selftest is None or selftest[0] != 0:
        sys.stderr.write(selftest[1] if selftest else "selftest timed out\n")
        log("statistics self-check failed")
        return 1

    workdir = os.path.join(WORKDIR, args.workload)
    os.makedirs(os.path.join(ROOT, workdir), exist_ok=True)
    result = run_session(
        [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", repr(args.seconds),
         "--trace", str(args.trace),
         "--workdir", workdir],
        RUN_TIMEOUT_S)
    if result is None:
        log("measuring program timed out")
        return 1
    code, out = result
    lines = out.rstrip("\n").split("\n")
    try:
        res = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        log("measuring program printed no result (exit %d)" % code)
        return 1
    if res.get("correct") and \
            sorted(res["metrics"]) != sorted(declared_metrics(args.trace)):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log("metrics differ from those BENCHMARK.json declares")
        return 1
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
