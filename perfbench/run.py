#!/usr/bin/env python3
"""Build the benchmark from the checked-out sources and run one workload.

    python3 perfbench/run.py --workload dashboard|feed|durable|all \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest     # unit checks of the stats code

Run from anywhere inside a checkout. The first call configures and builds
into .bench_build/ (or $CARGO_TARGET_DIR, taken relative to the checkout
root); later calls rebuild incrementally. The report goes to stdout; its
last line is one JSON object {"correct", "attempted", "failed",
"metrics"}. The exit code is non-zero when the build fails, when a
correctness check fails, or when the run does not finish in time.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dashboard", "feed", "durable")
# A run (set-up, a timed phase, checks, recovery; twice plus probes when
# traced) takes seconds + ~10 s; this bounds a hung child.
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "olap"))):
        log("perfbench: the repository sources are not next to perfbench/")
        sys.exit(2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for step in steps:
        # Build output goes to stderr so stdout stays the report.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: " + " ".join(step))
            sys.exit(2)
    return os.path.join(out, target)


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "unknown"
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_one(binary, workload, seed, seconds, trace, sha):
    """Runs one workload, echoing its report; returns (code, last JSON)."""
    out = build_dir()
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(out, "perfbench-work-%d" % os.getpid()),
           "--trace-dir", os.path.join(out, "perfbench-traces"),
           "--git-sha", sha]
    # RPS_THREADS=1: the process-wide pool, if anything touches it, gets
    # no workers; every engine here runs on the benchmark's own pool.
    # MALLOC_ARENA_MAX=1: with glibc's default arena per thread, which
    # arena a freed shard clone lands in decides the resident set and
    # the cost of the next large allocation; that moved rss_mb by up to
    # 40% and recover_s by 30% between identical runs. One arena makes
    # both repeat.
    env = dict(os.environ, RPS_THREADS="1", MALLOC_ARENA_MAX="1")
    try:
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                               timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish in %d s" % (workload, RUN_TIMEOUT_S))
        return 1, None
    lines = child.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return child.returncode, (lines, result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the statistics unit checks")
    args = parser.parse_args()

    if args.selftest:
        return subprocess.run([build("perfbench_stats_test")]).returncode
    if not args.workload:
        parser.error("--workload is required")
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")

    binary = build("perfbench")
    sha = git_sha()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads:
        code, output = run_one(binary, workload, args.seed, args.seconds,
                               args.trace, sha)
        if output is None or output[1] is None:
            log("perfbench: %s produced no result" % workload)
            return 1
        lines, result = output
        print("\n".join(lines[:-1]) if len(workloads) > 1 else
              "\n".join(lines), flush=True)
        status = status or code
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    if len(workloads) > 1:
        print(json.dumps(combined), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
