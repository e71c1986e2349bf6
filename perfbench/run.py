#!/usr/bin/env python3
"""Builds and runs the leakage-noc benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

The first form builds the `perfbench` package (release profile, offline)
into $CARGO_TARGET_DIR, default `.bench_build`, runs one workload and
relays its output; the last line is the JSON result. The second form runs
every workload at a tiny length and checks the benchmark itself. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Workloads that run on all CPUs; every other one is pinned to one.
MULTI_CPU = {"noc_saturated_sharded"}


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def pin_to_one_cpu():
    """Restricts the calling process to one allowed CPU (the highest)."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run(binary, args, pin):
    """Runs the binary; returns (exit code, stdout lines). Waits for it to end.

    With `pin`, the binary runs on one CPU, so the program sees one core
    and every parallel map inside it runs serially.
    """
    cmd = [binary, *args, "--expected", os.path.join(HERE, "expected.tsv"),
           "--trace-out", os.path.join(target_dir(), "perfbench-traces")]
    # One rayon thread: `characterize` runs serially on every workload, the
    # sharded one too (its simulator threads are not rayon's), as the
    # reference kernel that scales its time does.
    env = dict(os.environ, RAYON_NUM_THREADS="1")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                              env=env, preexec_fn=pin_to_one_cpu if pin else None)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3, []
    return done.returncode, done.stdout.splitlines()


def result_of(lines):
    """The JSON result on the last line, or None when it is missing."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def self_check(binary):
    """Runs each workload tiny, traced and untraced, and checks the output.

    Every metric BENCHMARK.json names must be present with its unit, every
    operation must pass its checks, and a deliberately wrong expected value
    must be reported as a failed operation.
    """
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    wants = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, lines = run(binary, ["--workload", w, "--seed", "7", "--seconds", "0",
                                       "--trace", str(trace), "--tiny"], w not in MULTI_CPU)
            res = result_of(lines)
            if code != 0 or res is None:
                problems.append(f"{w} trace={trace}: exit {code}, no result")
                continue
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{w} trace={trace}: operations failed: {lines[-1]}")
            for m in wants[trace]:
                got = res["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"] \
                        or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{w} trace={trace}: metric {m['name']} missing or malformed")
            extra = set(res["metrics"]) - {m["name"] for m in wants[trace]}
            if extra:
                problems.append(f"{w} trace={trace}: unlisted metrics {sorted(extra)}")
        wrong = "paper_err_pp=-1" if w == "table1_paper" else "avg_latency_cy=-1"
        code, lines = run(binary, ["--workload", w, "--seed", "7", "--seconds", "0",
                                   "--trace", "0", "--tiny", "--expect", wrong],
                          w not in MULTI_CPU)
        res = result_of(lines)
        if res is None or res["correct"] or res["failed"] < 1:
            problems.append(f"{w}: wrong expected value {wrong} was not reported as a failure")
        print(f"self-check {w}: done", file=sys.stderr)
    for p in problems:
        print(f"self-check FAILED: {p}", file=sys.stderr)
    print("self-check " + ("passed" if not problems else "failed"), file=sys.stderr)
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=2005)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-check", action="store_true")
    a = ap.parse_args()
    if not a.self_check and not a.workload:
        ap.error("--workload is required")
    binary = build()
    if binary is None:
        return 2
    if a.self_check:
        return self_check(binary)
    code, lines = run(binary, ["--workload", a.workload, "--seed", str(a.seed),
                               "--seconds", str(a.seconds), "--trace", a.trace],
                      a.workload not in MULTI_CPU)
    for line in lines:
        print(line)
    if code != 0 or result_of(lines) is None:
        print(f"perfbench: workload exited {code} without a result", file=sys.stderr)
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
