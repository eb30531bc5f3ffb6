#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark binary (shermanbench) from source
and runs one workload.

    python3 perfbench/run.py --workload skew-write --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. Each run configures and builds
`perfbench/` (the sherman library from `src/` plus `perfbench/src/`) into
`$CARGO_TARGET_DIR/perfbench` (default `.bench_build/perfbench`); only the
first run compiles everything. Build output goes to stderr. The binary's output is
passed through, and its last stdout line is the result JSON: with `--trace 0`
the end-to-end metrics of BENCHMARK.json, with `--trace 1` the per-layer ones
(the traced run also writes `.bench_out/<workload>.spans.json` and
`.bench_out/<workload>.layers.json`).

The exit code is non-zero when the build fails, shermanbench fails or times out,
any output check fails, or the result line does not name exactly the metrics
BENCHMARK.json lists.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("skew-write", "uniform-read-cold", "varlen-mixed")
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(bdir):
    """Configures and builds shermanbench; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release",
              "-DBUILD_TESTING=OFF"],
             ["cmake", "--build", bdir, "--target", "shermanbench",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(bdir, "shermanbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--digest", help="write the simulated outputs here")
    args = ap.parse_args()

    exe = build(build_dir())
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    if args.digest:
        cmd += ["--digest", args.digest]
    # Program tracing and DMSan follow the benchmark's own switches, never
    # the caller's environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SHERMAN_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: shermanbench timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: shermanbench printed no result", file=sys.stderr)
        return 1
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        print("perfbench: metrics differ from BENCHMARK.json: %s" %
              sorted(set(result["metrics"]) ^ want), file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    ok = proc.returncode == 0 and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
