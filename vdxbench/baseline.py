#!/usr/bin/env python3
"""Records one point of the bench trajectory: results/BENCH_baseline.json.

    python3 vdxbench/baseline.py [--seeds 2017,2017,7] [--reps 3] [--seconds 20]

Each seed in --seeds is one set of runs: every workload --reps times
untraced and once traced, through run.py. The file keeps every run's
result object and output digest, the per-set medians, and the build
context (git rev, compiler, build type, nproc).
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (same directory)


def invoke(workload, seed, trace, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    digest = ""
    for line in lines:
        match = re.search(r'"output_digest":"([0-9a-f]+)"', line)
        if match:
            digest = match.group(1)
    return {"exit": proc.returncode, "output_digest": digest,
            "result": json.loads(lines[-1]) if proc.returncode == 0 else None}


def build_context():
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt"), encoding="utf-8") as lines:
        for line in lines:
            key, _, value = line.strip().partition("=")
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                             text=True, check=False).stdout.splitlines()[0]
    rev = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty",
                          "--abbrev=12"], stdout=subprocess.PIPE, text=True,
                         check=False).stdout.strip()
    return {"git_rev": rev or "unknown", "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
            "nproc": os.cpu_count(), "machine": platform.machine()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="2017,2017,7")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", default=os.path.join(HERE, "results", "BENCH_baseline.json"))
    args = parser.parse_args()

    run.build()
    sets = []
    for seed in (int(s) for s in args.seeds.split(",")):
        workloads = {}
        for workload in run.WORKLOADS:
            untraced = [invoke(workload, seed, 0, args.seconds) for _ in range(args.reps)]
            traced = invoke(workload, seed, 1, args.seconds)
            ok = [r["result"] for r in untraced if r["result"]]
            medians = {name: statistics.median(r["metrics"][name]["value"] for r in ok)
                       for name in (ok[0]["metrics"] if ok else {})}
            workloads[workload] = {"median": medians, "untraced": untraced, "traced": traced}
            print("seed %d %-18s %s" % (seed, workload,
                                       " ".join("%s=%.4g" % kv for kv in medians.items())),
                  file=sys.stderr, flush=True)
        sets.append({"seed": seed, "reps": args.reps, "seconds": args.seconds,
                     "workloads": workloads})
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump({"context": build_context(), "sets": sets}, out, indent=1)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
