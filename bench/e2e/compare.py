#!/usr/bin/env python3
"""Compare ppdbench results of a parent commit and a change.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds one file per run, named WORKLOAD-SEED.txt, whose
last line is the JSON object ppdbench prints. Runs of the two sides are
paired by workload and seed.

For every workload and metric the table shows each side's median and
quartiles and one verdict, using the bounds in BENCHMARK.json:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither side) and the medians differ by more than the
              parent's own spread (its interquartile distance)
  regressed   the change's median is worse than the parent's by more
              than the metric's bound
  unresolved  neither, and the parent's spread is wider than the bound
              (unless every change run beats every parent run)
  unchanged   otherwise

Per-layer metrics have no bound; they get the improved rule only.
Exit status 1 when any end-to-end metric regressed.
"""

import argparse
import collections
import json
import pathlib
import statistics
import sys


def load(directory):
    runs = collections.defaultdict(dict)  # workload -> seed -> metrics
    for path in sorted(pathlib.Path(directory).glob("*.txt")):
        workload, _, seed = path.stem.rpartition("-")
        if not workload:
            continue
        lines = path.read_text().strip().splitlines()
        if not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            continue
        if not result.get("correct", False):
            print(f"warning: {path} reports wrong answers", file=sys.stderr)
        runs[workload][seed] = {k: v["value"] for k, v in result["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, pairs, better, bound):
    sign = 1 if better == "higher" else -1
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(cmed - pmed) > p3 - p1:
        return "improved"
    if bound is None:
        return "-"
    if pmed and sign * (cmed - pmed) / abs(pmed) < -bound:
        return "regressed"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if pmed and (p3 - p1) / abs(pmed) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()

    spec = json.loads(pathlib.Path(args.benchmark).read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    parent, change = load(args.parent), load(args.change)
    regressed = False
    header = f"{'workload':16} {'metric':30} {'parent q1/med/q3':>32} {'change q1/med/q3':>32}  verdict"
    print(header)
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        for name in sorted(declared):
            pv = [m[name] for m in parent[workload].values() if name in m]
            cv = [m[name] for m in change[workload].values() if name in m]
            if not pv or not cv:
                continue
            pairs = [
                (parent[workload][s][name], change[workload][s][name])
                for s in seeds
                if name in parent[workload][s] and name in change[workload][s]
            ]
            v = verdict(pv, cv, pairs, declared[name]["better"], bounds.get(name))
            regressed |= v == "regressed"
            fmt = lambda xs: "/".join(f"{x:.4g}" for x in quartiles(xs))
            print(f"{workload:16} {name:30} {fmt(pv):>32} {fmt(cv):>32}  {v}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
