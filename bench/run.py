"""drtool's benchmark runner: one workload, one seed, one process.

    python3 bench/run.py --workload lot-decide --seed 1 --seconds 22 --trace 0

A closed loop with one sequential caller: each input goes through the
whole user path before the next one starts.  Inputs come from the
benchmark's own generators, seeded by ``--seed``; batch ``i`` of a seed is
always the same text.  With ``--trace 0`` the loop runs for ``--seconds``
and reports the end-to-end metrics, its times scaled to a fixed host
speed by probes taken between operations (`HostClock`).  With
``--trace 1`` the first batches run once untraced and once traced, and the
per-layer metrics come from the traced pass.  Every run writes a results file under ``.bench_out/`` and
prints its metrics as one JSON object on the last line of stdout.

See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPS = 5
STARTUP_REPS = 3

# Host-speed probe.  The benchmark runs on shared hosts whose speed drifts
# by 20-40% from second to second and minute to minute, CPU time included.
# A short fixed stretch of pure-Python work (`probe`) runs between
# operations, at most every PROBE_EVERY_S, and every time reported as an
# end-to-end metric is scaled by PROBE_NOMINAL_S over the mean of the probe
# just before it and the probe just after it.  So the metrics read as times
# on a host where the probe takes PROBE_NOMINAL_S, about its time on a
# quiet x86 core with CPython 3.11.  drtool's code never runs inside the
# probe, so a change to drtool moves the scaled times as it moves the wall
# times.
PROBE_LOOPS = 4000
PROBE_NOMINAL_S = 0.0011
PROBE_EVERY_S = 0.025
PROBE_BURST = 5

END_TO_END = {
    "setup_s": "s",
    "throughput_inputs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def percentile(values, p):
    """Linear interpolation between closest ranks of sorted ``values``."""
    ordered = sorted(values)
    k = (len(ordered) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def probe():
    """Seconds taken by a fixed stretch of pure-Python work: integer
    arithmetic, tuples and a small dict, as in drtool's inner loops."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(PROBE_LOOPS):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + i
        acc ^= i * i
    return time.perf_counter() - start


class HostClock:
    """Probes taken between operations, and the host-speed scale they give
    to a time measured near them."""

    def __init__(self):
        self.at = []
        self.took = []
        self.last = -1.0

    def tick(self, force=False):
        now = time.perf_counter()
        if force or now - self.last >= PROBE_EVERY_S:
            took = probe()
            self.at.append(now + took / 2)
            self.took.append(took)
            self.last = time.perf_counter()

    def burst(self):
        for _ in range(PROBE_BURST):
            self.tick(force=True)

    def scale(self, start, end, k=1):
        """PROBE_NOMINAL_S over the mean of the medians of the ``k`` probes
        before ``start`` and the ``k`` probes after ``end``."""
        i = bisect.bisect(self.at, start)
        j = bisect.bisect(self.at, end)
        before = statistics.median(self.took[max(0, i - k):i])
        after = statistics.median(self.took[j:j + k])
        return 2 * PROBE_NOMINAL_S / (before + after)


def sha256_lines(lines, h=None):
    h = h or hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def source_digest():
    pkg = os.path.join(SRC, "drtool")
    return sha256_lines(
        f"{name}\n{open(os.path.join(pkg, name), encoding='utf-8').read()}"
        for name in sorted(os.listdir(pkg)) if name.endswith(".py")
    )


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


class Runner:
    def __init__(self, workload, seed):
        self.w = workload
        self.seed = seed
        self.drtool = None
        self.attempted = 0
        self.failures = []
        self.clock = HostClock()

    def batch_rng(self, index):
        return random.Random(f"{self.w.name}/{self.seed}/{index}")

    def timed_setup(self):
        """One set-up between two bursts of probes; returns its wall seconds
        and its seconds scaled to the probe's nominal speed."""
        self.clock.burst()
        start = time.perf_counter()
        wall = self.setup()
        self.clock.burst()
        return wall, wall * self.clock.scale(start, start + wall, PROBE_BURST)

    def setup(self):
        """Import drtool afresh, generate the digest-prefix batches and parse
        them; returns the seconds it took."""
        start = time.perf_counter()
        for name in [m for m in sys.modules if m == "drtool" or m.startswith("drtool.")]:
            del sys.modules[name]
        self.drtool = importlib.import_module("drtool")
        if self.w.name == "cli-corpus":
            importlib.import_module("drtool.cli")
        if hasattr(self.w, "reset"):
            self.w.reset()
        self.prefix = [self.w.batch(self.batch_rng(i)) for i in range(self.w.prefix_batches)]
        for items in self.prefix:
            for item in items:
                self.w.prepare(self.drtool, item)
        return time.perf_counter() - start

    def warm_up(self):
        """One untimed batch from its own stream, then a clean count."""
        self.run_batch(self.w.batch(self.batch_rng("warmup")))
        self.attempted = 0
        self.failures.clear()

    def run_batch(self, items, recorder=None, starts=None):
        """Run one batch; returns (op latencies, result records, results
        kept for the checks made after the loop).  Probes the host between
        operations, outside the timed spans, and appends each operation's
        start time to ``starts``."""
        state = self.w.new_state()
        latencies, results = [], []
        if hasattr(self.w, "stage"):
            items = self.w.stage(items)
        for item in items:
            if recorder is None:
                self.clock.tick()
            else:
                recorder.input_id = self.attempted
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = self.w.run(self.drtool, item, state)
            except Exception as exc:  # a raised error is a failed operation, not a crash
                result = self.fail(exc)
            latencies.append(time.perf_counter() - start)
            results.append(result)
            if starts is not None:
                starts.append(start)
        records = [r.line if isinstance(r, Failed) else self.w.record(r) for r in results]
        deferred = hasattr(self.w, "check")
        kept = [r for r in results if not isinstance(r, Failed)] if deferred else []
        return latencies, records, kept

    def fail(self, exc):
        self.failures.append(f"{type(exc).__name__}: {exc}"[:300])
        return Failed(f"failed:{type(exc).__name__}")

    def check_deferred(self, results):
        """Checks made after the timed loop (the CLI's JSON against analyze)."""
        for result in results:
            try:
                self.w.check(self.drtool, *result)
            except Exception as exc:  # a check that raises is a failed check
                self.fail(exc)


class Failed:
    def __init__(self, line):
        self.line = line


def measure(runner, seconds):
    """The untraced closed loop: batches in order until ``seconds`` passed
    and the digest prefix is done.  Latencies are scaled to the probe's
    nominal speed after the loop; the wall figures are kept in the results
    file."""
    w = runner.w
    runner.warm_up()
    latencies, starts, results = [], [], []
    digests = {k: hashlib.sha256() for k in ("input_digest", "input_digest_all",
                                              "result_digest", "result_digest_all")}
    start = time.perf_counter()
    index = 0
    while index < w.prefix_batches or time.perf_counter() - start < seconds:
        in_prefix = index < w.prefix_batches
        items = runner.prefix[index] if in_prefix else w.batch(runner.batch_rng(index))
        lat, records, kept = runner.run_batch(items, starts=starts)
        inputs = [w.describe(item) for item in items]
        for kind, lines in (("input", inputs), ("result", records)):
            sha256_lines(lines, digests[f"{kind}_digest_all"])
            if in_prefix:
                sha256_lines(lines, digests[f"{kind}_digest"])
        latencies.extend(lat)
        results.extend(kept)
        index += 1
    runner.clock.burst()
    loop_s = time.perf_counter() - start
    runner.check_deferred(results)
    scaled = [x * runner.clock.scale(t, t + x) for x, t in zip(latencies, starts)]

    def figures(lat):
        tail = percentile(lat, w.tail_percentile)
        return {
            "throughput_inputs_per_s": len(lat) / sum(lat),
            "latency_p50_ms": 1000 * statistics.median(lat),
            "latency_tail_ms": 1000 * tail,
            "tail_samples_beyond": sum(1 for x in lat if x > tail),
        }

    probes = runner.clock.took
    return {
        "batches": index,
        "loop_s": loop_s,
        "n": len(latencies),
        "tail_percentile": w.tail_percentile,
        **figures(scaled),
        "wall": figures(latencies),
        "probes": {"n": len(probes), "nominal_ms": 1000 * PROBE_NOMINAL_S,
                   "quartiles_ms": [1000 * q for q in statistics.quantiles(probes, n=4)]},
        **{k: h.hexdigest() for k, h in digests.items()},
    }


def cli_startup_s(runner, workdir):
    """Median wall time of ``python -m drtool corpus`` on an empty directory."""
    empty = os.path.join(workdir, "empty")
    os.makedirs(empty, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(STARTUP_REPS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "drtool", "corpus", empty, "--json"],
                              env=env, capture_output=True, timeout=170)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            runner.fail(RuntimeError(f"empty corpus exit code {proc.returncode}"))
    return statistics.median(times)


def traced(runner, workdir, spans_path):
    """Untraced then traced pass over the digest-prefix batches."""
    w = runner.w
    if hasattr(w, "in_process"):
        w.in_process = True
    runner.warm_up()

    def one_pass(recorder=None):
        lat, rec, res = [], [], []
        for items in runner.prefix:
            a, b, c = runner.run_batch(items, recorder)
            lat.extend(a)
            rec.extend(b)
            res.extend(c)
        return sum(lat), rec, res

    untraced_s, untraced_records, _ = one_pass()
    recorder = tracer.Tracer()
    recorder.install()
    try:
        traced_s, records, results = one_pass(recorder)
    finally:
        recorder.uninstall()
    runner.check_deferred(results)
    if records != untraced_records:
        runner.fail(RuntimeError("traced and untraced passes gave different results"))
    metrics = recorder.layer_metrics(traced_s, len(records))
    metrics["cli.startup_s"] = cli_startup_s(runner, workdir)
    metrics["trace.overhead_fraction"] = traced_s / untraced_s - 1
    recorder.write_spans(spans_path)
    inputs = [w.describe(item) for items in runner.prefix for item in items]
    statement, holds = w.prediction(metrics, traced_s)
    return metrics, {
        "prediction": statement,
        "prediction_holds": holds,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": sum(1 for s in recorder.spans if s is not None),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "input_digest": sha256_lines(inputs),
        "result_digest": sha256_lines(records),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "drtool", "__init__.py")):
        print(f"error: no drtool sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        by_name = {
            "lot-decide": workloads.LotDecide,
            "lot-sweep": workloads.LotSweep,
            "diagram-search": workloads.DiagramSearch,
            "cli-corpus": lambda: workloads.CliCorpus(workdir, SRC),
        }
        if args.workload not in by_name:
            print(f"error: unknown workload {args.workload!r}; one of {sorted(by_name)}",
                  file=sys.stderr)
            return 2
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg(),
        }
        # one core for the benchmark and its child processes, so that the
        # probes and the operations they scale run on the same core
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        runner = Runner(by_name[args.workload](), args.seed)
        setups = [runner.timed_setup() for _ in range(SETUP_REPS if args.trace == 0 else 1)]
        if not runner.drtool.__file__.startswith(SRC + os.sep):
            print(f"error: imported drtool from {runner.drtool.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        if args.trace == 0:
            details = measure(runner, args.seconds)
            details["setup_runs_s"] = [scaled for _, scaled in setups]
            details["setup_runs_wall_s"] = [wall for wall, _ in setups]
            who = resource.RUSAGE_CHILDREN if args.workload == "cli-corpus" else resource.RUSAGE_SELF
            values = {
                "setup_s": statistics.median(scaled for _, scaled in setups),
                "throughput_inputs_per_s": details["throughput_inputs_per_s"],
                "latency_p50_ms": details["latency_p50_ms"],
                "latency_tail_ms": details["latency_tail_ms"],
                "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
            }
            units = END_TO_END
        else:
            values, details = traced(runner, workdir, os.path.join(OUT, stem + ".spans.jsonl.gz"))
            units = {name: tracer.unit_of(name) for name in values}
        record.update({
            "loadavg_end": os.getloadavg(),
            "attempted": runner.attempted,
            "failed": len(runner.failures),
            "failed_fraction": len(runner.failures) / runner.attempted,
            "failures": runner.failures[:20],
            "details": details,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        })
        results_path = os.path.join(OUT, stem + ".json")
        with open(results_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
        if args.trace == 1:
            print(f"predicted dominant layer: {details['prediction']}: "
                  f"{'holds' if details['prediction_holds'] else 'does not hold'}")
        else:
            print(f"{args.workload}: {details['n']} ops in {details['batches']} batches, "
                  f"tail = p{details['tail_percentile']} with "
                  f"{details['tail_samples_beyond']} samples beyond")
        print(f"failed {len(runner.failures)} of {runner.attempted}; results in "
              f"{os.path.relpath(results_path, ROOT)}")
        print(json.dumps({
            "correct": not runner.failures,
            "attempted": runner.attempted,
            "failed": len(runner.failures),
            "metrics": record["metrics"],
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
