#!/usr/bin/env python3
"""Repo benchmark: Fig. 13 cold and stack-pressure sweeps.

Usage:
  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                           [--trace 0|1] [--drop-tapes]

Builds perfbench/driver.cpp against ../src (first run only; later runs
rebuild only what changed), then repeats one workload for --seconds
seconds of host time, each repetition in a fresh driver process, and
prints the medians. With --trace 0 the result holds the end-to-end
metrics of untraced repetitions. With --trace 1 it holds the per-layer
metrics of a traced repetition (untraced and traced repetitions are
interleaved; the traced one with the median total time is reported and
its Chrome trace kept). --drop-tapes deletes the primed tapes of a warm
workload before timing it, which must fail. The driver's probe line
names the workloads, their cell counts and the thread count.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Everything else the run produces
(build tree, caches, per-run result files, traces) stays under
.bench_build/ at the root of the checkout. See perfbench/README.md.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
RESULTS = os.path.join(WORK, "results")
GOLDEN = os.path.join(ROOT, "bench", "golden", "BENCH_fig13.json")

MIN_REPS = 3
REP_TIMEOUT_S = 60
EXIT_NOT_WARM = 3


def die(message):
    print("perfbench: error: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no simulator sources at %s/src; run from a full checkout"
            % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(WORK, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = min(4, os.cpu_count() or 1)
    steps.append(["cmake", "--build", BUILD, "-j", str(jobs)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed (log: %s)" % log_path)


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_units(kind):
    """{name: unit} of one metric list of BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in benchmark_json()[kind]}


def driver(args):
    """Run the driver; return (exit code, its last stdout line as JSON)."""
    try:
        proc = subprocess.run([DRIVER] + args, capture_output=True,
                              text=True, timeout=REP_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return -1, None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else None
    except ValueError:
        out = None
    return proc.returncode, out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


class Run:
    def __init__(self, opts, workload):
        self.opts = opts
        self.cells = workload["cells"]
        self.warm = workload["warm"]
        self.scratch = os.path.join(WORK, "runs",
                                    "%s-%d" % (opts.workload, os.getpid()))
        self.reps = []      # successful untraced repetitions
        self.traced = []    # successful traced repetitions (with trace path)
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.serial = 0
        self.primed = None  # warm workloads: the primed cache directory

    def fresh_dir(self, name):
        path = os.path.join(self.scratch, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def common(self):
        return ["--workload", self.opts.workload, "--seed",
                str(self.opts.seed)]

    def prime(self):
        """Untimed run that writes the snapshots, tapes and reference."""
        self.primed = self.fresh_dir("primed")
        self.reference = os.path.join(self.primed, "prime.jsonl")
        code, out = driver(["prime"] + self.common() +
                           ["--dir", self.primed, "--record",
                            self.reference, "--golden", GOLDEN])
        if code != 0 or out is None:
            die("priming run failed (exit %s)" % code)
        if out["failed_cells"]:
            die("priming run failed its checks: %s" % out["failures"])
        if self.opts.drop_tapes:
            for tape in glob.glob(os.path.join(self.primed, "wkld",
                                               "*.tape")):
                os.remove(tape)

    def rep(self, traced):
        self.serial += 1
        name = "rep%d" % self.serial
        if self.warm:
            cache = self.primed
            args = ["--reference", self.reference]
        else:
            cache = self.fresh_dir(name)
            args = []
        record = os.path.join(self.scratch, name + ".jsonl")
        args += ["--dir", cache, "--record", record, "--golden", GOLDEN]
        trace = None
        if traced:
            trace = os.path.join(self.scratch, name + ".trace.json")
            args += ["--trace", trace]
        code, out = driver(["rep"] + self.common() + args)
        if code == EXIT_NOT_WARM:
            die("%s is not warm; no result (see the message above)"
                % self.opts.workload)
        if cache != self.primed:
            shutil.rmtree(cache, ignore_errors=True)
        if code != 0 or out is None:
            # A crashed repetition: every cell of it counts as failed.
            self.attempted += self.cells
            self.failed += self.cells
            self.notes.append("%s exited with %s" % (name, code))
            return
        self.attempted += out["cells"]
        self.failed += out["failed_cells"]
        self.notes.extend(out["failures"])
        out["sim_cycles_per_s"] = out["sim_cycles"] / out["sweep_s"]
        if traced:
            out["trace_path"] = trace
            self.traced.append(out)
        else:
            self.reps.append(out)

    def measure(self):
        if self.warm:
            self.prime()
        start = time.monotonic()
        traced = False
        while True:
            elapsed = time.monotonic() - start
            if self.opts.trace:
                done = elapsed >= self.opts.seconds and self.traced and \
                    self.reps
            else:
                done = elapsed >= self.opts.seconds and \
                    len(self.reps) >= MIN_REPS
            if done:
                break
            if elapsed > self.opts.seconds + 60:
                break  # failing repetitions: stop and report
            self.rep(traced)
            if self.opts.trace:
                traced = not traced

    def consistent(self):
        """Simulated counts must repeat exactly in every repetition."""
        # An untraced repetition's layers are all counts; a traced one
        # adds its times.
        keys = list(self.reps[0]["layers"])

        def counts(r):
            return (r["sim_cycles"], r["paper_gap_pp"],
                    [r["layers"][k] for k in keys])

        if any(counts(r) != counts(self.reps[0])
               for r in self.reps + self.traced):
            self.notes.append("simulated counts differ between repetitions")
            return False
        return True

    def end_to_end(self):
        metrics, summary = {}, {}
        for name, unit in metric_units("end_to_end").items():
            values = [r[name] for r in self.reps]
            q1, med, q3 = quartiles(values)
            metrics[name] = {"value": med, "unit": unit}
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "n": len(values), "values": values}
        return metrics, summary

    def per_layer(self):
        ranked = sorted(self.traced, key=lambda r: r["total_s"])
        chosen = ranked[(len(ranked) - 1) // 2]
        untraced = statistics.median(r["total_s"] for r in self.reps)
        traced = statistics.median(r["total_s"] for r in self.traced)
        layers = dict(chosen["layers"])
        layers["paper_gap_pp"] = chosen["paper_gap_pp"]
        layers["bench.tracing_overhead_s"] = traced - untraced
        acct = chosen["accounting"]
        if acct["idle_s"] < -0.01 * acct["capacity_s"]:
            self.notes.append("span self times exceed thread capacity")
            self.failed += 1
        units = metric_units("per_layer")
        missing = [k for k in units if k not in layers]
        if missing:
            die("per-layer metrics not measured: %s" % missing)
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in units.items()}
        trace_out = os.path.join(
            RESULTS, "%s-seed%d.trace.json" % (self.opts.workload,
                                               self.opts.seed))
        shutil.copyfile(chosen["trace_path"], trace_out)
        return metrics, {"chosen_total_s": chosen["total_s"],
                         "accounting": acct, "trace": trace_out}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=benchmark_json()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--drop-tapes", action="store_true")
    opts = parser.parse_args()
    if opts.seed < 0:
        die("--seed must be non-negative")

    build()
    os.makedirs(RESULTS, exist_ok=True)
    code, probe_before = driver(["probe"])
    if code != 0 or probe_before is None:
        die("CPU probe failed")
    workloads = probe_before["workloads"]
    if opts.workload not in workloads:
        die("unknown workload %r; the driver has %s"
            % (opts.workload, ", ".join(sorted(workloads))))
    if opts.drop_tapes and not workloads[opts.workload]["warm"]:
        die("--drop-tapes needs a warm workload")
    run = Run(opts, workloads[opts.workload])
    try:
        run.measure()
        if not run.reps or (opts.trace and not run.traced):
            die("no repetition completed: %s" % run.notes[:4])
        if opts.trace:
            metrics, detail = run.per_layer()
        else:
            metrics, detail = run.end_to_end()
    finally:
        shutil.rmtree(run.scratch, ignore_errors=True)
    _, probe_after = driver(["probe"])
    correct = run.consistent() and run.failed == 0
    provenance = {
        "git": probe_before["git"],
        "compiler": probe_before["compiler"],
        "build_type": probe_before["build_type"],
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "threads": probe_before["threads"],
        "seed": opts.seed,
        "workload": opts.workload,
        "seconds": opts.seconds,
        "env": run.reps[0]["env"],
        "cpu_probe_s": {"before": probe_before["probe_s"],
                        "after": probe_after["probe_s"]
                        if probe_after else None},
    }
    report = {"provenance": provenance, "detail": detail,
              "notes": run.notes, "repetitions": run.reps,
              "traced_repetitions": run.traced}
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json" %
                        (opts.workload, opts.seed, opts.trace))
    with open(path, "w") as f:
        json.dump(report, f, indent=1)

    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print("repetitions: %d untraced, %d traced; details in %s"
          % (len(run.reps), len(run.traced), os.path.relpath(path, ROOT)))
    for note in run.notes[:8]:
        print("failure: " + note)
    for name in sorted(metrics):
        print("  %-40s %16.6g %s" % (name, metrics[name]["value"],
                                      metrics[name]["unit"]))
    print("  %-40s %16.6g pp (exact at this seed)"
          % ("paper_gap_pp", run.reps[0]["paper_gap_pp"]))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
