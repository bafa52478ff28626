#!/usr/bin/env python3
"""Steadiness self-check of the repo benchmark.

Usage:
  python3 perfbench/steady.py [--runs N] [--workloads a,b,...]
                              [--seconds S] [--first-seed K]

Runs perfbench/run.py --trace 0 as two interleaved sets of the same
build: for each seed K..K+N-1 one run of set A and one of set B, the
order alternating from seed to seed. For every workload and end-to-end
metric of BENCHMARK.json it prints each set's median and quartiles, the
spread (quartile distance over the median) and two verdicts:

  spread  the spread of each set is within the metric's bound (setup_s
          is exempt, as in the acceptance rule);
  agree   neither set's median is worse than the other's by more than
          the bound, in the metric's "better" direction.

Exits 0 when every verdict holds, 1 otherwise. Run lengths default to
BENCHMARK.json's run_seconds, the length every benchmark run uses.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        sys.exit("steady: %s seed %d failed (exit %d)"
                 % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("steady: %s seed %d reported failures" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(a, b, better):
    """Relative amount by which median b is worse than median a."""
    if a == 0:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=0)
    opts = parser.parse_args()
    if opts.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two)")

    ok = True
    raw = {}
    for workload in opts.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(opts.runs):
            seed = opts.first_seed + i
            for name in ("AB" if i % 2 == 0 else "BA"):
                sets[name].append(one_run(workload, seed, opts.seconds))
                print("  %s set %s seed %d done" % (workload, name, seed),
                      file=sys.stderr)
        raw[workload] = sets
        print("%s: %d runs per set, %d s each"
              % (workload, opts.runs, opts.seconds))
        print("  %-18s %3s %14s %14s %14s %7s %6s  %s"
              % ("metric", "set", "median", "q1", "q3", "spread", "bound",
                 "verdict"))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = {}
            for set_name, runs in sets.items():
                values = [r[name] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else 0.0
                medians[set_name] = med
                if name == "setup_s":
                    verdict = "exempt"
                else:
                    verdict = "ok" if spread <= bound else "WIDE"
                    ok = ok and spread <= bound
                print("  %-18s %3s %14.6g %14.6g %14.6g %6.1f%% %5.0f%%  %s"
                      % (name, set_name, med, q1, q3, 100 * spread,
                         100 * bound, verdict))
            drift = max(worse_by(medians["A"], medians["B"],
                                 metric["better"]),
                        worse_by(medians["B"], medians["A"],
                                 metric["better"]))
            agree = drift <= bound
            ok = ok and agree
            print("  %-18s %3s medians differ by %.1f%%: %s"
                  % (name, "A/B", 100 * drift,
                     "agree" if agree else "DISAGREE"))
    path = os.path.join(ROOT, ".bench_build", "results", "steady.json")
    with open(path, "w") as f:
        json.dump(raw, f, indent=1)
    print("steady: " + ("every metric agrees within its bound" if ok else
                        "some metric is outside its bound") +
          "; every run's values are in " + os.path.relpath(path, ROOT))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
