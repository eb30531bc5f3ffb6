#!/usr/bin/env python3
"""Check that the working tree simulates byte-for-byte like a git revision.

Usage: compare_sim_digest.py REV

Checks REV out into a temporary `git worktree`, then runs

    python3 perfbench/run.py --workload W --seed N --seconds 10 --trace 0 \
        --digest FILE

for every benchmark workload at seeds 1 and 2, once in that worktree (built into
its own CARGO_TARGET_DIR) and once in the working tree (built wherever
CARGO_TARGET_DIR points, `.bench_build/` by default). The digest holds the
simulated end-to-end metrics, the simulator's event count and every
metrics-registry counter, so any change to what gets simulated shows up
as a byte difference. Exits non-zero, printing a diff, on the first run
that fails or digest that differs; refactors that claim to leave the
simulation untouched run this against their parent commit.

The worktree and its build live under a temporary directory that is
removed on exit.
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


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="git revision to compare against")
    args = ap.parse_args()

    tmp = tempfile.mkdtemp(prefix="sim_digest_")
    worktree = os.path.join(tmp, "rev")
    added = subprocess.run(
        ["git", "-C", ROOT, "worktree", "add", "--detach", worktree, args.rev],
        stdout=subprocess.DEVNULL).returncode == 0
    try:
        if not added:
            print(f"FAIL: cannot check out {args.rev}", file=sys.stderr)
            return 1
        failures = 0
        for workload in WORKLOADS:
            for seed in SEEDS:
                name = f"{workload}.seed{seed}.digest"
                want = os.path.join(tmp, "rev." + name)
                got = os.path.join(tmp, "work." + name)
                if not (run_digest(worktree, os.path.join(tmp, "target"),
                                   workload, seed, want) and
                        run_digest(ROOT, None, workload, seed, got)):
                    return 1
                with open(want) as f:
                    a = f.readlines()
                with open(got) as f:
                    b = f.readlines()
                if a == b:
                    print(f"ok    {workload} seed {seed}")
                    continue
                failures += 1
                print(f"DIFF  {workload} seed {seed}")
                sys.stdout.writelines(difflib.unified_diff(
                    a, b, fromfile=f"{args.rev}/{name}",
                    tofile=f"worktree/{name}"))
        if failures:
            print(f"FAIL: {failures} digest(s) differ from {args.rev}")
            return 1
        print(f"PASS: simulation identical to {args.rev}")
        return 0
    finally:
        if added:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                            worktree], stdout=subprocess.DEVNULL)
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
