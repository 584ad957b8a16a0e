#!/usr/bin/env python3
"""Steadiness report: run workloads N times on N seeds, compare spreads.

    python3 perfbench/steady.py --workload feed --runs 5
    python3 perfbench/steady.py --workload dashboard feed durable --runs 10 \
        --sets 2 --out /tmp/steady.json

For every end-to-end metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)), the spread IQR/median, and the
metric's bound from BENCHMARK.json. A spread above the bound is flagged
OVER, above a third of the bound WARN. With --sets 2 the same seeds run
again and every metric whose second median is worse than the first by
more than its bound is flagged DRIFT. The metrics the report prints but
BENCHMARK.json does not bound (REPORT_ONLY) get the same spread line,
without a status. Exits 1 when anything is OVER or DRIFT.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Printed by every workload as "<workload> <name> <value> <unit> ...".
REPORT_ONLY = ("op_p99_us", "recover_s")


def load_contract():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        contract = json.load(f)
    return contract, {m["name"]: m for m in contract["end_to_end"]}


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = child.stdout.strip().splitlines()
    if child.returncode or not lines:
        sys.exit("run failed: %s (exit %d)" % (" ".join(cmd), child.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("incorrect result: %s" % " ".join(cmd))
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 4 and fields[0] == workload and \
                fields[1] in REPORT_ONLY:
            values[fields[1]] = float(fields[2])
    return values


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def worse_by(first, second, better):
    """Relative amount by which `second` is worse than `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main():
    contract, metrics = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--out", help="write every run's metrics here (JSON)")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    flagged = False
    raw = {}
    for workload in args.workload:
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                runs.append(run(workload, args.seed_base + i, args.seconds))
                print("%s set %d run %d/%d done" % (workload, s + 1, i + 1,
                                                    args.runs),
                      file=sys.stderr, flush=True)
            sets.append(runs)
        raw[workload] = sets
        print("\n%s: %d runs x %d set(s), %g s each" %
              (workload, args.runs, args.sets, args.seconds))
        print("%-16s %14s %14s %14s %8s %6s  %s" %
              ("metric", "median", "q1", "q3", "iqr/med", "bound", "status"))
        for name, spec in metrics.items():
            values = [r[name] for r in sets[0]]
            median, q1, q3, spread = summarize(values)
            bound = spec["bound"]
            status = "ok"
            if spread > bound:
                status, flagged = "OVER", True
            elif spread > bound / 3:
                status = "WARN"
            if args.sets == 2:
                second = statistics.median([r[name] for r in sets[1]])
                drift = worse_by(median, second, spec["better"])
                status += " drift=%+.3f" % drift
                if drift > bound:
                    status, flagged = status + " DRIFT", True
            print("%-16s %14.6g %14.6g %14.6g %8.4f %6.3f  %s" %
                  (name, median, q1, q3, spread, bound, status))
        for name in REPORT_ONLY:
            values = [r[name] for r in sets[0] if name in r]
            if len(values) >= 2:
                median, q1, q3, spread = summarize(values)
                print("%-16s %14.6g %14.6g %14.6g %8.4f %6s  report only" %
                      (name, median, q1, q3, spread, "-"))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
