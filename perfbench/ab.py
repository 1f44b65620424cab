#!/usr/bin/env python3
"""Same-host A/B of two source checkouts on the perfbench workloads.

    python3 perfbench/ab.py --parent ../ipqs-parent --change . \\
        [--workload adhoc_panel ...] [--pairs 10] [--seconds 38] [--seed 1]

Each checkout builds its own harness through its perfbench/run.py. The two
sides run in alternation: pair i uses seed --seed + i on both sides, and the
parent runs first on odd pairs, the change first on even ones. For every
metric x workload the script prints each side's median and quartiles, the
change's wins (ties count for neither), the parent's own spread, and a
verdict against the metric's bound from the change's BENCHMARK.json:

  gain        the change won >= 9/10 of the pairs and the medians differ by
              more than the parent's quartile spread;
  regression  the change's median is worse than the parent's by more than
              the bound;
  unresolved  the parent's spread is wider than the bound and not every
              change run beats every parent run;
  same        none of the above.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_side(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: run failed for {workload} seed {seed}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: incorrect answers, {workload} "
                           f"seed {seed}: {result['failed']} failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound, wins, pairs):
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = p3 - p1
    worse = cm - pm if better == "lower" else pm - cm
    if wins * 10 >= 9 * pairs and -worse > spread:
        return "gain"
    if pm != 0 and worse > bound * abs(pm):
        return "regression"
    better_all = (max(change) < min(parent) if better == "lower"
                  else min(change) > max(parent))
    if pm != 0 and spread > bound * abs(pm) and not better_all:
        return "unresolved"
    return "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    parent = os.path.abspath(args.parent)
    change = os.path.abspath(args.change)
    with open(os.path.join(change, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]

    for workload in workloads:
        values = {"parent": [], "change": []}
        for i in range(1, args.pairs + 1):
            order = [("parent", parent), ("change", change)]
            if i % 2 == 0:
                order.reverse()
            for side, checkout in order:
                values[side].append(
                    run_side(checkout, workload, args.seed + i, seconds))
            print(f"# {workload}: pair {i}/{args.pairs} done", file=sys.stderr)
        print(f"\n{workload} ({args.pairs} pairs, {seconds:g} s per run)")
        print(f"{'metric':16s} {'parent q1/med/q3':>36s} "
              f"{'change q1/med/q3':>36s} {'wins':>6s}  verdict")
        for name, m in metrics.items():
            pv = [v[name] for v in values["parent"]]
            cv = [v[name] for v in values["change"]]
            wins = sum((c < p) if m["better"] == "lower" else (c > p)
                       for p, c in zip(pv, cv))
            pq = quartiles(pv)
            cq = quartiles(cv)
            print(f"{name:16s} {pq[0]:12.5g}{pq[1]:12.5g}{pq[2]:12.5g} "
                  f"{cq[0]:12.5g}{cq[1]:12.5g}{cq[2]:12.5g} "
                  f"{wins:3d}/{args.pairs:<2d}  "
                  f"{verdict(pv, cv, m['better'], m['bound'], wins, args.pairs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
