"""Summarise or compare benchmark results files.

    python3 bench/compare.py RUNS_DIR              # spread of one side
    python3 bench/compare.py PARENT_DIR CHANGE_DIR # parent against change

A directory holds the ``*.json`` results files that ``bench/run.py`` writes
to ``.bench_out/``.  One side: one row per workload and metric with the
median, the quartiles and the spread (quartile distance over median).  Two
sides: runs are paired by workload and seed, and each row gives both
sides' median and quartiles, the pairs the change won and a verdict:

- ``improved``: the change wins at least 9/10 of the pairs and its median
  beats the parent's by more than the parent's quartile distance;
- ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound (per-layer metrics, which have no bound: the
  mirror of ``improved``);
- ``unresolved``: the parent's spread is wider than the bound and not
  every change run beats every parent run, or a per-layer metric that is
  neither improved nor regressed;
- ``no worse`` otherwise, and ``same`` where both sides read identically.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory):
    """{(workload, metric): {seed: value}} from every results file."""
    table = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            run = json.load(handle)
        if not isinstance(run, dict) or "metrics" not in run:
            continue
        for metric, entry in run["metrics"].items():
            table.setdefault((run["workload"], metric), {})[run["seed"]] = entry["value"]
    return table


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        bench = json.load(handle)
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(parent, change, better, bound):
    """Verdict on one workload and metric; ``parent`` and ``change`` map
    seed -> value."""
    seeds = sorted(set(parent) & set(change))
    sign = -1 if better == "lower" else 1
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    losses = sum(1 for s in seeds if sign * (change[s] - parent[s]) < 0)
    p, c = list(parent.values()), list(change.values())
    if sorted(p) == sorted(c):
        return wins, len(seeds), "same"
    p1, pm, p3 = quartiles(p)
    cm = statistics.median(c)
    gap = sign * (cm - pm)
    if seeds and wins >= 0.9 * len(seeds) and gap > p3 - p1:
        return wins, len(seeds), "improved"
    if bound is None:
        if seeds and losses >= 0.9 * len(seeds) and -gap > p3 - p1:
            return wins, len(seeds), "regressed"
        return wins, len(seeds), "unresolved"
    all_better = all(sign * (x - y) > 0 for x in c for y in p)
    if spread(p) > bound and not all_better:
        return wins, len(seeds), "unresolved"
    if -gap > bound * abs(pm):
        return wins, len(seeds), "regressed"
    return wins, len(seeds), "no worse"


def fmt(x):
    return f"{x:.4g}"


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    sides = [load_runs(d) for d in argv]
    keys = sorted(set().union(*sides))
    if len(sides) == 1:
        print(f"{'workload':15} {'metric':44} {'n':>3} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>7} {'bound':>6}")
        for key in keys:
            values = list(sides[0][key].values())
            q1, q2, q3 = quartiles(values)
            bound = spec.get(key[1], {}).get("bound")
            print(f"{key[0]:15} {key[1]:44} {len(values):3} {fmt(q2):>10} {fmt(q1):>10} "
                  f"{fmt(q3):>10} {spread(values):7.3f} {'' if bound is None else bound:>6}")
        return 0
    print(f"{'workload':15} {'metric':44} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'won':>6}  verdict")
    for key in keys:
        parent, change = sides[0].get(key), sides[1].get(key)
        if not parent or not change:
            continue
        m = spec.get(key[1], {})
        wins, pairs, word = verdict(parent, change, m.get("better", "lower"), m.get("bound"))
        cells = []
        for side in (parent, change):
            q1, q2, q3 = quartiles(list(side.values()))
            cells.append(f"{fmt(q2)} [{fmt(q1)}, {fmt(q3)}]")
        print(f"{key[0]:15} {key[1]:44} {cells[0]:>32} {cells[1]:>32} "
              f"{f'{wins}/{pairs}':>6}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
