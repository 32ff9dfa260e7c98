#!/usr/bin/env python3
"""Builds bench_vdx from this checkout and runs benchmark workloads.

    python3 vdxbench/run.py --workload <name|all> [--seed 2017] [--seconds 20]
                            [--trace 0|1] [--trace-out spans.jsonl] [--smoke]

On first use the binary is built with CMake into $CARGO_TARGET_DIR (default:
.bench_build at the repository root); later runs only rebuild what changed.
Each workload runs in its own process, so peak RSS is per workload. The
result object bench_vdx prints last must name exactly the metrics that
BENCHMARK.json lists for the mode (end_to_end untraced, per_layer traced);
otherwise the run fails without printing a result. The exit code is 0 only
when every check of every workload held.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = [
    "stream-6h",
    "stream-1h-dense",
    "serve-steady",
    "serve-overload-4x",
    "shard-churn",
]
# One workload run must end well inside 180 s.
RUN_TIMEOUT_S = 170


def build():
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    configured = any(
        os.path.exists(os.path.join(build_dir, name))
        for name in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "bench_vdx", "--parallel", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "bench_vdx")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec_file:
        spec = json.load(spec_file)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_problem(line, expected):
    """Why `line` is not a valid result object for `expected`, or None."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "the last line is not a JSON object"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "the result object has keys %s" % sorted(result)
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        wrong = sorted(n for n in set(printed) & set(expected) if printed[n] != expected[n])
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, units %s" % (
            missing, extra, wrong)
    return None


def run_workload(binary, workload, args, expected):
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # A fixed address-space layout removes one source of run-to-run spread.
    setarch = shutil.which("setarch")
    if setarch:
        command = [setarch, os.uname().machine, "--addr-no-randomize"] + command
    if args.trace_out:
        command += ["--trace-out", args.trace_out]
    if args.smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("run.py: %s exceeded %d s" % (workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    problem = result_problem(lines[-1], expected) if lines else "no output"
    if problem:
        print("run.py: %s: %s" % (workload, problem), file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default="")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", default="",
                        help="use this bench_vdx instead of building one")
    args = parser.parse_args()
    if args.trace_out:
        args.trace = 1

    expected = expected_metrics(args.trace)
    try:
        binary = args.binary or build()
    except subprocess.CalledProcessError as error:
        print("run.py: build failed: %s" % error, file=sys.stderr)
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        status = max(status, run_workload(binary, workload, args, expected))
    return status


if __name__ == "__main__":
    sys.exit(main())
