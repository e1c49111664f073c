#!/usr/bin/env python3
"""Runs one benchmark run of one workload and prints its result as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call builds the simulator libraries and the benchmark from source
(CMake, Release) into .bench_build/perfbench; later calls rebuild only what
changed. A run then:

  * runs the benchmark's self-tests (perfbench_selftest);
  * starts the benchmark once to measure for --seconds;
  * with --trace 0, also starts it SETUP_SAMPLES times with --setup-only,
    half before and half after the measured run: each start is timed from
    process start to its `perfbench: setup-done` line and then reports the
    host slowdown it calibrated right after set-up (perfbench/calibrate.h).
    setup_s is the median start divided by the median of those slowdowns;
  * with --trace 1, makes one traced run and reports the per-layer metrics,
    writing its spans to .bench_build/perfbench/trace-<workload>-<seed>.json;
  * prints the benchmark's figures, then one JSON line: correct, attempted,
    failed and the metrics BENCHMARK.json names for the mode.

Exits non-zero without a result line when the build or a run fails.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "Release"
SETUP_SAMPLES = 16
SETUP_TIMEOUT_S = 60
RUN_MARGIN_S = 120
READY_LINE = "perfbench: setup-done"
SLOWDOWN_PREFIX = "perfbench: setup-slowdown "


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; returns the binary dir."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not any(os.path.exists(os.path.join(BUILD_DIR, f)) for f in ("build.ninja", "Makefile")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path)
    return BUILD_DIR


def run_selftest(bin_dir):
    result = subprocess.run([os.path.join(bin_dir, "perfbench_selftest")],
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                            timeout=60)
    sys.stdout.write(result.stdout)
    return result.returncode == 0


def start(command):
    """Starts the benchmark; returns (process, seconds until its setup-done line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    while True:
        line = proc.stdout.readline()
        if not line:
            finish(proc, 1)
            fail("benchmark exited during set-up: " + " ".join(command))
        if line.rstrip("\n") == READY_LINE:
            return proc, time.perf_counter() - t0


def setup_sample(command):
    """One --setup-only start: (seconds to its setup-done line, host slowdown after it)."""
    proc, seconds = start(command + ["--setup-only"])
    try:
        out, _ = proc.communicate(timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("set-up-only run timed out")
    slowdown = [float(line[len(SLOWDOWN_PREFIX):]) for line in out.splitlines()
                if line.startswith(SLOWDOWN_PREFIX)]
    if proc.returncode != 0 or len(slowdown) != 1 or not slowdown[0] > 0:
        fail("set-up-only run failed")
    return seconds, slowdown[0]


def finish(proc, timeout):
    """Waits for `proc`, killing it when it overruns."""
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None


def load_benchmark_json():
    """BENCHMARK.json, checked against the per-layer catalog in metrics.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        catalog = {m["name"] for m in json.load(f)["per_layer"]}
    declared = {m["name"] for m in bench["per_layer"]}
    if catalog != declared:
        fail("per-layer metrics differ between BENCHMARK.json and perfbench/metrics.json: "
             + ", ".join(sorted(catalog ^ declared)))
    return bench


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = load_benchmark_json()
    bin_dir = build()
    selftest_ok = run_selftest(bin_dir)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (one of %s)" % (args.workload, ", ".join(names)))

    command = [os.path.join(bin_dir, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
    trace_path = os.path.join(BUILD_DIR, "trace-%s-%d.json" % (args.workload, args.seed))
    if args.trace:
        command += ["--trace-out", trace_path]

    # Half the set-up samples before the measured run and half after it, so
    # they see the machine at two moments.
    setup = []

    def sample_setups(count):
        for _ in range(0 if args.trace else count):
            setup.append(setup_sample(command))

    sample_setups(SETUP_SAMPLES // 2)
    proc, _ = start(command)
    try:
        out, _ = proc.communicate(timeout=args.seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("benchmark run timed out")
    sample_setups(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    setup_s = [seconds for seconds, _ in setup]
    setup_slowdown = [slowdown for _, slowdown in setup]
    lines = out.splitlines(keepends=True)
    if proc.returncode != 0 or not lines:
        fail("benchmark run failed (exit %s)" % proc.returncode)
    sys.stdout.write("".join(lines[:-1]))
    raw = json.loads(lines[-1])

    if args.trace:
        declared = bench["per_layer"]
        measured = raw["layer"]
        unknown = sorted(set(measured) - {m["name"] for m in declared})
        if unknown:
            fail("metrics missing from BENCHMARK.json per_layer: " + ", ".join(unknown))
        metrics = {}
        for m in declared:
            # A layer the workload never enters reads 0.
            entry = measured.get(m["name"], {"value": 0.0, "unit": m["unit"]})
            if entry["unit"] != m["unit"]:
                fail("unit of %s is %s, BENCHMARK.json says %s"
                     % (m["name"], entry["unit"], m["unit"]))
            metrics[m["name"]] = {"value": entry["value"], "unit": m["unit"]}
    else:
        values = {
            "setup_s": statistics.median(setup_s) / statistics.median(setup_slowdown),
            "ops_per_host_s": raw["ops_per_host_s"],
            "host_peak_rss_mb": raw["host_peak_rss_mb"],
            "virt_ops_per_s": raw["virt_ops_per_s"],
        }
        metrics = {}
        for m in bench["end_to_end"]:
            if m["name"] not in values:
                fail("no measurement for end-to-end metric " + m["name"])
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("  setup_s = %.6f s (median of %d starts / median host slowdown %.4f "
              "after set-up; starts: %s)"
              % (values["setup_s"], len(setup_s), statistics.median(setup_slowdown),
                 " ".join("%.4f" % s for s in setup_s)))

    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            m["value"] = 0.0
    correct = bool(raw["checks_ok"]) and selftest_ok and finite and raw["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
