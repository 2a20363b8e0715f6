"""The benchmark's own test: one seed gives the same inputs, results and
deterministic counters on every run.

    python3 bench/selftest.py [--seed N] [WORKLOAD ...]

For each workload it makes two traced runs and one short untraced run of
the same seed, then checks that

- both traced runs agree on the input digest, the result digest and every
  counter that counts work (calls, computed counters, certificate kinds,
  ``found`` counts, bytes), and
- the untraced run's digests over the same first batches equal the traced
  runs' digests.

Times are not compared.  Exits 1 on the first disagreement.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lot-decide", "lot-sweep", "diagram-search", "cli-corpus")
# per-layer metrics that are not counts of work: they may differ run to run
TIMED = ("_s", ".self_share", ".overhead_fraction")


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    line = next(x for x in proc.stdout.splitlines() if "results in " in x)
    path = os.path.join(ROOT, line.split("results in ", 1)[1].strip())
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def counters(record):
    return {k: v["value"] for k, v in record["metrics"].items()
            if not (k.endswith(TIMED) or ".busy_s." in k)}


def check(workload, seed):
    first, second, untraced = run(workload, seed, 1), run(workload, seed, 1), run(workload, seed, 0)
    problems = []
    for key in ("input_digest", "result_digest"):
        values = {first["details"][key], second["details"][key], untraced["details"][key]}
        if len(values) != 1:
            problems.append(f"{key} differs between runs: {sorted(values)}")
    a, b = counters(first), counters(second)
    for name in sorted(a):
        if a[name] != b[name]:
            problems.append(f"counter {name}: {a[name]} != {b[name]}")
    for record in (first, second, untraced):
        if record["failed"]:
            problems.append(f"failed operations: {record['failures'][:3]}")
    return problems, len(a)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    failed = False
    for workload in args.workloads:
        problems, n = check(workload, args.seed)
        print(f"{workload}: {'ok' if not problems else 'FAILED'} ({n} counters compared)")
        for problem in problems:
            print(f"  {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
