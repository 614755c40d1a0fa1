#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/NOTES.md).

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload <stream_day|batch_day|serve_live>
                           --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest

Builds the program and the benchmark runner from source into
.bench_build/perfbench (the first run builds; later runs reuse it), runs one
workload, and prints the runner's JSON result object as the last line of
standard output. The result holds exactly the metrics BENCHMARK.json lists
for the mode (end_to_end untraced, per_layer traced), in its units: a
per-layer metric of a layer the workload bypasses reads 0, and the runner's
other metrics are printed on a line before the result. Traced runs
(--trace 1) also validate the Chrome trace they write with
tools/check_trace.py. Exits non-zero when the build fails, a correctness
check fails, an end-to-end metric is missing or not positive, a unit
differs from the manifest's, or the trace is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "run")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("stream_day", "batch_day", "serve_live")


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the runner; build output goes to stderr."""
    source = os.path.join(ROOT, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD_DIR, "-j", jobs]]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", source, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return True


def conform(result, trace):
    """Holds the runner's metrics to the manifest's list for the mode.

    Returns the list of problems; an empty list means `result` now holds
    exactly the listed metrics.
    """
    with open(MANIFEST) as f:
        listed = json.load(f)["per_layer" if trace else "end_to_end"]
    measured = result.get("metrics", {})
    metrics, problems = {}, []
    for entry in listed:
        name, unit = entry["name"], entry["unit"]
        got = measured.pop(name, None)
        if got is None:
            if trace:
                got = {"value": 0, "unit": unit}  # a layer this workload bypasses
            else:
                problems.append(f"end-to-end metric {name} not measured")
                continue
        if got["unit"] != unit:
            problems.append(f"{name} measured in {got['unit']}, listed in {unit}")
        if not trace and not got["value"] > 0:
            problems.append(f"end-to-end metric {name} is {got['value']}")
        metrics[name] = got
    if measured:
        print("run.py: also measured: " + json.dumps(measured), flush=True)
    result["metrics"] = metrics
    return problems


def run_workload(args):
    binary = os.path.join(BUILD_DIR, "perfbench")
    os.makedirs(WORK_DIR, exist_ok=True)
    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", WORK_DIR,
    ]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    if not lines:
        log(f"perfbench printed nothing (exit {proc.returncode})")
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        log(f"last line is not a JSON result (exit {proc.returncode})")
        return proc.returncode or 1

    code = proc.returncode
    problems = conform(result, args.trace == 1)
    for problem in problems:
        log(problem)
    if problems:
        result["correct"] = False
        code = code or 1
    if args.trace == 1 and code == 0:
        trace = os.path.join(WORK_DIR, f"{args.workload}-trace.json")
        checker = os.path.join(ROOT, "tools", "check_trace.py")
        check = subprocess.run(
            [sys.executable, checker, trace], stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        print(check.stdout.strip(), flush=True)
        if check.returncode != 0:
            result["correct"] = False
            code = 1
    print(json.dumps(result), flush=True)
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own self-tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not build():
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")]).returncode
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
