#!/usr/bin/env python3
"""Check that the working tree simulates byte-for-byte like a git revision.

Usage: compare_sim_digest.py REV

Exports REV into a temporary directory (`git archive`), then runs

    python3 perfbench/run.py --workload W --seed N --seconds 10 --trace 0 \
        --digest FILE

for every benchmark workload at seeds 1 and 2, once in that export (built
into its own CARGO_TARGET_DIR) and once in the working tree (built wherever
CARGO_TARGET_DIR points, `.bench_build/` by default). The digest holds the
simulated end-to-end metrics, the simulator's event count and every
metrics-registry counter, so any change to what gets simulated shows up
as a byte difference.

perfbench drives TreeClient directly, so it never reaches the MS-side RPC
executors (route/tree_rpc, ext/rpc_index). The script therefore also builds
bench_hybrid, bench_rdwc and bench_ablation in both trees (CMake, into the
temporary directory), runs them with the CI smoke flags and `--json-out`,
and byte-compares their JSON.

Exits non-zero, printing a diff, on the first run that fails or output
that differs; refactors that claim to leave the simulation untouched run
this against their parent commit. Everything lives under a temporary
directory that is removed on exit.
"""
import argparse
import difflib
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("skew-write", "uniform-read-cold", "varlen-mixed")
SEEDS = (1, 2)
SECONDS = 10
# CMake bench binaries and their CI smoke flags.
BENCHES = (
    ("bench_hybrid", ["--quick", "--keys=60000", "--threads=4", "--shards=32",
                      "--measure-ms=3", "--no-epoch-log"]),
    ("bench_rdwc", ["--quick", "--keys=60000", "--threads=4",
                    "--measure-ms=3"]),
    ("bench_ablation", ["--quick"]),
)


def run_digest(tree, target_dir, workload, seed, digest):
    """Runs one perfbench workload in `tree`; returns True on success."""
    env = dict(os.environ)
    if target_dir is not None:
        env["CARGO_TARGET_DIR"] = target_dir
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0", "--digest", digest]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"FAIL: perfbench run failed in {tree} ({workload}, seed "
              f"{seed})", file=sys.stderr)
        return False
    return True


def build_benches(tree, build_dir):
    """Builds the BENCHES binaries of `tree` into `build_dir`."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", tree, "-B", build_dir, "-DBUILD_TESTING=OFF"],
             ["cmake", "--build", build_dir, "-j", jobs, "--target"] +
             [name for name, _ in BENCHES]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"FAIL: bench build failed for {tree}", file=sys.stderr)
            return False
    return True


def run_bench(build_dir, name, flags, json_out):
    """Runs one bench binary; returns True on success."""
    cmd = [os.path.join(build_dir, name)] + flags + [f"--json-out={json_out}"]
    proc = subprocess.run(cmd, cwd=os.path.dirname(json_out),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"FAIL: {name} failed in {build_dir}", file=sys.stderr)
        return False
    return True


def same(label, want, got, rev):
    """Prints ok, or DIFF with a unified diff; returns whether they match."""
    with open(want) as f:
        a = f.readlines()
    with open(got) as f:
        b = f.readlines()
    if a == b:
        print(f"ok    {label}")
        return True
    print(f"DIFF  {label}")
    sys.stdout.writelines(difflib.unified_diff(
        a, b, fromfile=f"{rev}/{label}", tofile=f"worktree/{label}"))
    return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="git revision to compare against")
    args = ap.parse_args()

    tmp = tempfile.mkdtemp(prefix="sim_digest_")
    rev_tree = os.path.join(tmp, "rev")
    try:
        os.makedirs(rev_tree)
        archive = subprocess.run(["git", "-C", ROOT, "archive", args.rev],
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL)
        if archive.returncode != 0 or subprocess.run(
                ["tar", "-x", "-C", rev_tree],
                input=archive.stdout).returncode != 0:
            print(f"FAIL: cannot export {args.rev}", file=sys.stderr)
            return 1
        failures = 0
        for workload in WORKLOADS:
            for seed in SEEDS:
                name = f"{workload}.seed{seed}.digest"
                want = os.path.join(tmp, "rev." + name)
                got = os.path.join(tmp, "work." + name)
                if not (run_digest(rev_tree, os.path.join(tmp, "target"),
                                   workload, seed, want) and
                        run_digest(ROOT, None, workload, seed, got)):
                    return 1
                failures += not same(name, want, got, args.rev)
        for tree, side in ((rev_tree, "rev"), (ROOT, "work")):
            build_dir = os.path.join(tmp, side + "-build")
            if not build_benches(tree, build_dir):
                return 1
            for bench, flags in BENCHES:
                if not run_bench(build_dir, bench, flags,
                                 os.path.join(tmp, f"{side}.{bench}.json")):
                    return 1
        for bench, _ in BENCHES:
            failures += not same(f"{bench}.json",
                                 os.path.join(tmp, f"rev.{bench}.json"),
                                 os.path.join(tmp, f"work.{bench}.json"),
                                 args.rev)
        if failures:
            print(f"FAIL: {failures} output(s) differ from {args.rev}")
            return 1
        print(f"PASS: simulation identical to {args.rev}")
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
