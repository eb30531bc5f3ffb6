#!/usr/bin/env python3
"""Gate DMSan's runtime cost: the sanitizer rides every posted work
request, so its overhead on a bench smoke must stay under 10% (plus a
small absolute slack so sub-second runs don't gate on timer noise).

The bench reports contain no wall-clock field (simulated time only), so
this script times the subprocess itself, in CPU seconds (user + system,
from getrusage(RUSAGE_CHILDREN) deltas) rather than wall time: a
single-threaded bench's CPU time does not grow when other processes
compete for the host's cores, where its wall time does. It keeps the min
of N runs each way, which discards the remaining noise rather than
averaging it in. The two arms run interleaved (base, DMSan, base, DMSan,
...), so a burst of load lands on both arms rather than on one block of
runs. Every run of both arms is printed, so a red gate shows its spread.

Usage: check_dmsan_overhead.py [bench_binary] [args...]
Defaults to the CI bench_pipeline smoke. Exit 0 = within budget.
"""

import os
import resource
import subprocess
import sys

RUNS = 3
MAX_RELATIVE = 0.10   # DMSan may cost at most 10%...
SLACK_SECONDS = 0.25  # ...plus this much absolute timer-noise slack


def child_cpu_seconds():
    """User + system CPU seconds of all waited-for children so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def time_once(cmd, env):
    """Runs cmd once; returns the CPU seconds it used."""
    t0 = child_cpu_seconds()
    r = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                       stderr=subprocess.STDOUT)
    used = child_cpu_seconds() - t0
    if r.returncode != 0:
        print(f"FAIL: {' '.join(cmd)} exited {r.returncode}", file=sys.stderr)
        sys.exit(1)
    return used


def arm_env(dmsan):
    env = dict(os.environ)
    env["SHERMAN_DMSAN"] = "1" if dmsan else "0"
    return env


def time_arms(cmd, runs=RUNS):
    """Times `runs` pairs of (baseline, DMSan) runs, alternating the arms.
    Returns (baseline times, DMSan times)."""
    base_env, dmsan_env = arm_env(False), arm_env(True)
    base_runs, dmsan_runs = [], []
    for _ in range(runs):
        base_runs.append(time_once(cmd, base_env))
        dmsan_runs.append(time_once(cmd, dmsan_env))
    return base_runs, dmsan_runs


def fmt_runs(times):
    return " ".join(f"{t:.3f}" for t in times)


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cmd = sys.argv[1:] or [
        os.path.join(root, "build", "bench_pipeline"),
        "--quick", "--keys=60000", "--threads=4",
    ]
    base_runs, dmsan_runs = time_arms(cmd)
    base = min(base_runs)
    with_dmsan = min(dmsan_runs)
    budget = base * (1.0 + MAX_RELATIVE) + SLACK_SECONDS
    pct = 100.0 * (with_dmsan - base) / base if base > 0 else 0.0
    print(f"baseline     : {base:.3f} CPU s  "
          f"(min of {RUNS}: {fmt_runs(base_runs)})")
    print(f"with DMSan   : {with_dmsan:.3f} CPU s  ({pct:+.1f}%; "
          f"min of {RUNS}: {fmt_runs(dmsan_runs)})")
    print(f"budget       : {budget:.3f} CPU s  "
          f"(+{int(MAX_RELATIVE * 100)}% and {SLACK_SECONDS}s slack)")
    if with_dmsan > budget:
        print("FAIL: DMSan overhead exceeds budget", file=sys.stderr)
        return 1
    print("OK: DMSan overhead within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
