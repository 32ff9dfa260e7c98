#!/usr/bin/env python3
"""Same-machine A/B of two revisions on the vdxbench workloads.

    python3 tools/bench_ab.py [--base HEAD~1] [--head HEAD]
                              [--workload NAME]... [--pairs 10] [--seconds 20]
                              [--seed 2017] [--claim WORKLOAD:METRIC]
                              [--workdir .bench_ab]

Each revision is exported with `git archive` into its own tree under
--workdir (a clean checkout of the committed files, like a detached
worktree, but with nothing registered in .git), and each tree's own
`vdxbench/run.py` builds and runs its own `bench_vdx`. CMake reads
CXXFLAGS and LDFLAGS from the environment when it configures, so each
set of those flags gets its own build directory, and the report header
names them. Runs are
interleaved per workload in A,B,B,A order, so a drift in machine speed
hits both sides alike. For every end-to-end metric of BENCHMARK.json the
tool prints each side's median and quartiles, the change of the medians
signed so that positive is worse, that change over the metric's bound
(above 1 breaches it), the fraction of pairs the head won, and each
side's share of failed operations.

--claim names one metric the head claims to improve. Its workload gets at
least 10 pairs, and the claim holds when the head wins at least 9 of 10
pairs and the medians differ by more than the base side's interquartile
range.

Exit status: 0 when every run passed its checks, every `output_digest`
matched across runs and sides, no metric breached its bound, the head
failed no larger share of operations and the claim (if any) held; 1
otherwise.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLAIM_MIN_PAIRS = 10
CLAIM_WIN_FRACTION = 0.9
BUILD_FLAG_VARS = ("CXXFLAGS", "LDFLAGS")


def build_flags():
    """The compiler and linker flags CMake takes from the environment."""
    return {name: os.environ.get(name, "") for name in BUILD_FLAG_VARS}


def build_dir_name():
    """`build` for default flags, else `build-<hash of the flags>`."""
    flags = build_flags()
    if not any(flags.values()):
        return "build"
    key = json.dumps(flags, sort_keys=True).encode()
    return "build-" + hashlib.sha256(key).hexdigest()[:12]


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def export(rev, workdir):
    """Exports `rev` once into workdir/<sha>/src and returns that path."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    tree = os.path.join(workdir, sha[:12], "src")
    if not os.path.isdir(tree):
        partial = tree + ".partial"  # renamed into place only once complete
        shutil.rmtree(partial, ignore_errors=True)
        os.makedirs(partial)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", partial], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit("bench_ab: git archive %s failed" % rev)
        os.rename(partial, tree)
    return sha, tree


class Side:
    def __init__(self, label, rev, workdir):
        self.label = label
        self.sha, self.tree = export(rev, workdir)
        self.build_dir = os.path.join(os.path.dirname(self.tree), build_dir_name())
        self.binary = os.path.join(self.build_dir, "bench_vdx")

    def run(self, workload, args, smoke=False):
        """One run.py invocation; returns (exit code, result object, digest)."""
        command = [sys.executable, os.path.join(self.tree, "vdxbench", "run.py"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds)]
        if smoke:
            command.append("--smoke")  # first run: build, then a quick check
        else:
            command += ["--binary", self.binary]
        env = dict(os.environ, CARGO_TARGET_DIR=self.build_dir)
        proc = subprocess.run(command, cwd=self.tree, env=env, text=True,
                              stdout=subprocess.PIPE, check=False)
        lines = proc.stdout.splitlines()
        digest = None
        for line in lines:
            if line.startswith("BENCH_JSON ") and "output_digest" in line:
                digest = json.loads(line[len("BENCH_JSON "):])["output_digest"]
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        return proc.returncode, result, digest


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(workload, pairs, spec, claim, failures):
    """Prints one workload's table; appends reasons to fail to `failures`."""
    print("\n%s: %d pairs" % (workload, len(pairs)))
    header = ("metric", "better", "base med [q1, q3]", "head med [q1, q3]",
              "worse by", "/bound", "head wins")
    rows = [header]
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [p[0]["metrics"][name]["value"] for p in pairs]
        head = [p[1]["metrics"][name]["value"] for p in pairs]
        bq1, bmed, bq3 = quartiles(base)
        hq1, hmed, hq3 = quartiles(head)
        change = (hmed - bmed) / bmed if bmed else 0.0
        worse = change if lower else -change
        over = worse / metric["bound"]
        wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        rows.append((name, metric["better"],
                     "%.4g [%.4g, %.4g]" % (bmed, bq1, bq3),
                     "%.4g [%.4g, %.4g]" % (hmed, hq1, hq3),
                     "%+.1f%%" % (100 * worse), "%+.2f" % over,
                     "%d/%d" % (wins, len(pairs))))
        if over > 1.0:
            failures.append("%s %s is %.1f%% worse, over its %.0f%% bound" % (
                workload, name, 100 * worse, 100 * metric["bound"]))
        if claim == (workload, name):
            fraction = wins / len(pairs)
            clear = abs(hmed - bmed) > (bq3 - bq1)
            better = hmed < bmed if lower else hmed > bmed
            held = better and fraction >= CLAIM_WIN_FRACTION and clear
            print("claim %s %s: head wins %d/%d, |median change| %.4g vs base IQR "
                  "%.4g -> %s" % (workload, name, wins, len(pairs), abs(hmed - bmed),
                                  bq3 - bq1, "holds" if held else "FAILS"))
            if not held:
                failures.append("claim %s:%s does not hold" % claim)
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        print("  " + "  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    failed = [sum(p[side]["failed"] for p in pairs) /
              max(1, sum(p[side]["attempted"] for p in pairs)) for side in (0, 1)]
    print("  failed share: base %.4g, head %.4g" % tuple(failed))
    if failed[1] > failed[0]:
        failures.append("%s fails a larger share of operations" % workload)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--head", default="HEAD")
    parser.add_argument("--workload", action="append", default=[],
                        help="repeatable; default: every BENCHMARK.json workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--claim", default="", help="WORKLOAD:METRIC")
    parser.add_argument("--workdir", default=os.path.join(ROOT, ".bench_ab"))
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    workdir = os.path.abspath(args.workdir)
    base = Side("base", args.base, workdir)
    head = Side("head", args.head, workdir)
    with open(os.path.join(head.tree, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    if claim and (len(claim) != 2 or claim[0] not in workloads or
                  claim[1] not in {m["name"] for m in spec["end_to_end"]}):
        parser.error("--claim must name a run workload and an end-to-end metric")
    print("base %s  head %s  %s" % (
        base.sha[:12], head.sha[:12],
        "  ".join("%s=%r" % item for item in build_flags().items())), flush=True)

    failures = []
    for side in (base, head):  # build both before any timed run
        code, _, _ = side.run(workloads[0], args, smoke=True)
        if code != 0:
            sys.exit("bench_ab: %s (%s) failed to build or pass its smoke run" % (
                side.label, side.sha[:12]))

    for workload in workloads:
        count = args.pairs
        if claim and claim[0] == workload:
            count = max(count, CLAIM_MIN_PAIRS)
        digests = set()
        pairs = []
        for i in range(count):
            order = (base, head) if i % 2 == 0 else (head, base)
            got = {}
            for side in order:
                code, result, digest = side.run(workload, args)
                if code != 0 or result is None or not result.get("correct"):
                    failures.append("%s run %d of %s failed its checks" % (
                        side.label, i, workload))
                    continue
                digests.add(digest)
                got[side.label] = result
            if len(got) == 2:
                pairs.append((got["base"], got["head"]))
            print("  %s pair %d/%d done" % (workload, i + 1, count), flush=True)
        if len(digests) > 1:
            failures.append("%s output_digest differs: %s" % (
                workload, ", ".join(sorted(str(d) for d in digests))))
        if pairs:
            compare(workload, pairs, spec, claim, failures)
            print("  output_digest %s" % ", ".join(sorted(str(d) for d in digests)))

    for failure in failures:
        print("bench_ab: " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
