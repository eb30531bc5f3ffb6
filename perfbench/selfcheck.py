#!/usr/bin/env python3
"""Self-checks of the repository benchmark. Run from the root of a checkout.

    python3 perfbench/selfcheck.py determinism [--workload W] [--seed N] [--other-seed M]
    python3 perfbench/selfcheck.py spread [--workload W ...] [--runs N] [--first-seed N]

determinism: runs each workload twice at one seed and requires byte-identical
simulated outputs (the end-to-end simulated metrics, the traffic served and
every window counter of the metrics registry, as written by --digest). A third
run at another seed must keep every simulated end-to-end metric within its
BENCHMARK.json bound of the first seed's value.

spread: runs each workload once per seed and prints, for every end-to-end
metric, the median, the quartiles and the quartile spread as a share of the
median (Python's statistics.quantiles(values, n=4)), next to a third of the
metric's bound, which is the spread the benchmark aims to stay under.

Exit code 1 when a check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("skew-write", "uniform-read-cold", "varlen-mixed")
SIMULATED = ("throughput_mops", "get_mean_us", "get_p999_us", "put_mean_us",
             "put_p99_us")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, digest=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    if digest:
        cmd += ["--digest", digest]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("run failed: %s" % " ".join(cmd))
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def determinism(args, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w in args.workload or WORKLOADS:
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            digests = [os.path.join(tmp, "a"), os.path.join(tmp, "b")]
            first = run(w, args.seed, spec["run_seconds"], digests[0])
            run(w, args.seed, spec["run_seconds"], digests[1])
            with open(digests[0], "rb") as a, open(digests[1], "rb") as b:
                same = a.read() == b.read()
        print("%s seed %d twice: simulated outputs %s" %
              (w, args.seed, "byte-identical" if same else "DIFFER"))
        ok &= same
        other = run(w, args.other_seed, spec["run_seconds"])
        for name in SIMULATED:
            drift = abs(other[name] / first[name] - 1)
            within = drift <= bounds[name]
            print("  seed %d vs %d %-16s %10.4f vs %10.4f  drift %.4f "
                  "(bound %.2f) %s" % (args.other_seed, args.seed, name,
                                       other[name], first[name], drift,
                                       bounds[name],
                                       "ok" if within else "OUT OF BOUND"))
            ok &= within
    return ok


def spread(args, spec):
    ok = True
    for w in args.workload or WORKLOADS:
        runs = [run(w, args.first_seed + i, spec["run_seconds"])
                for i in range(args.runs)]
        print("%s: %d seeds from %d" % (w, args.runs, args.first_seed))
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            target = m["bound"] / 3
            steady = m["name"] == "setup_s" or share < target
            ok &= steady
            print("  %-16s median %12.4f  q1 %12.4f  q3 %12.4f  spread %.4f "
                  "(< %.4f) %s" % (m["name"], med, q1, q3, share, target,
                                   "ok" if steady else "TOO WIDE"))
            if args.verbose:
                print("    " + " ".join("%.4f" % v for v in values))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="check", required=True)
    d = sub.add_parser("determinism")
    d.add_argument("--workload", action="append", choices=WORKLOADS)
    d.add_argument("--seed", type=int, default=1)
    d.add_argument("--other-seed", type=int, default=2)
    s = sub.add_parser("spread")
    s.add_argument("--workload", action="append", choices=WORKLOADS)
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--first-seed", type=int, default=1)
    s.add_argument("--verbose", action="store_true",
                   help="also print every run's value")
    args = ap.parse_args()
    spec = load_spec()
    ok = determinism(args, spec) if args.check == "determinism" else \
        spread(args, spec)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
