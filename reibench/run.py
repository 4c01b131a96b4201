#!/usr/bin/env python3
"""End-to-end REI benchmark.

Builds the driver (reibench/driver.cpp plus the program sources under
src/) with CMake, runs one workload, and prints one JSON result object
as the last line of standard output:

    python3 reibench/run.py --workload classroom --seed 1 --seconds 10 --trace 0

With --trace 0 the metrics are the end-to-end ones (request latency
p50/p90 and throughput over every request of the run, and the cold-start
set-up time); with --trace 1 they are the per-layer ones. The build goes
to $CARGO_TARGET_DIR/reibench (default .bench_build/reibench), relative
to the repository root. Build logs go to standard error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("classroom", "service-mix")
# The driver warms up for a few seconds, measures for --seconds and then
# finishes its last round; anything beyond this is a hang.
RUN_GRACE_SECONDS = 60
# Cold starts per run; their median is the reported set-up time.
SETUP_REPS = 31
SETUP_TIMEOUT_SECONDS = 20


def fail(message):
    print(f"reibench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "Session.h")):
        fail("program sources (src/) not found next to the benchmark")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "reibench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--parallel", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "reibench_driver")


def cold_start(driver, workload, seed):
    """Seconds from spawning a driver to its first answer."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [driver, "--workload", workload, "--seed", str(seed), "--setup", "1"],
        stdout=subprocess.PIPE, text=True)
    # A hung driver is killed, which ends the read below.
    watchdog = threading.Timer(SETUP_TIMEOUT_SECONDS, proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.communicate()
    watchdog.cancel()
    code = proc.returncode
    if code != 0 or line.strip() != "ready":
        fail(f"set-up run failed with code {code}")
    return elapsed


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw, setup):
    latency = raw["latency_s"]
    if len(latency) < 2:
        fail("fewer than two requests completed")
    return {
        "latency_p50_ms": metric(statistics.median(latency) * 1e3, "ms"),
        "latency_p90_ms": metric(
            statistics.quantiles(latency, n=10)[-1] * 1e3, "ms"),
        "throughput_rps": metric(len(latency) / raw["elapsed_s"], "1/s"),
        "setup_s": metric(statistics.median(setup), "s"),
    }


def median(values):
    return statistics.median(values) if values else 0.0


def per_layer(raw):
    t = raw["trace"]
    candidates = sum(t["candidates"])
    sweep = sum(t["sweep_s"])
    return {
        "parse_ms": metric(median(t["parse_s"]) * 1e3, "ms"),
        "stage_ms": metric(median(t["stage_s"]) * 1e3, "ms"),
        "sweep_ms": metric(median(t["sweep_s"]) * 1e3, "ms"),
        "overhead_ms": metric(median(t["overhead_s"]) * 1e3, "ms"),
        "small_level_ms": metric(median(t["small_level_s"]) * 1e3, "ms"),
        "top_level_share": metric(median(t["top_level_share"]), "ratio"),
        "levels_per_search": metric(
            statistics.fmean(t["levels"]) if t["levels"] else 0.0, "count"),
        "candidates_per_search": metric(
            candidates / len(t["candidates"]) if t["candidates"] else 0.0,
            "count"),
        "sweep_mcand_per_s": metric(
            candidates / sweep / 1e6 if sweep > 0 else 0.0, "M/s"),
        "unique_ratio": metric(
            sum(t["unique"]) / candidates if candidates else 0.0, "ratio"),
        "cache_hit_ratio": metric(
            t["cache_hits"] / t["requests"] if t["requests"] else 0.0,
            "ratio"),
        "resumed_sessions": metric(t["resumed"], "count"),
        "delta_grafts": metric(t["grafts"], "count"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    driver = build()
    setup = []
    if not args.trace:
        setup = [cold_start(driver, args.workload, args.seed + k)
                 for k in range(SETUP_REPS)]
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_GRACE_SECONDS)
    except subprocess.TimeoutExpired:
        fail("driver did not finish in time")
    if proc.returncode != 0:
        fail(f"driver exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed no result")
    raw = json.loads(lines[-1])
    for error in raw["errors"]:
        print(f"reibench: {error}", file=sys.stderr)

    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": per_layer(raw) if args.trace else end_to_end(raw, setup),
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
