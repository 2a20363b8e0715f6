"""In-process tracing of drtool's layers, from the benchmark's side only.

`Tracer.install` replaces drtool's public module-level functions in place
with wrappers that record a span per call: name, start, end, parent span
and input id.  Nothing in the package changes on disk, and `uninstall`
puts every original back.

A generic public function is wrapped where *another* module imported it,
so only calls that cross a layer boundary are recorded (``link_graph``
calling ``head_node`` inside ``complexes`` stays unwrapped and cheap).  The
functions that carry a named counter are also wrapped in their own module,
so calls from inside their layer are counted too.

Spans are kept in memory and written out once, after the traced pass.
"""

from __future__ import annotations

import gzip
import inspect
import json
import math
import sys
import threading
import time

LAYERS = ("parsing", "complexes", "curvature", "certificates", "lots", "diagrams",
          "reports", "cli")

# function -> short counter name, for the functions the per-layer metrics name
NAMED = {
    "lots.canonical_lot_key": "lots.canonical_key",
    "lots.enumerate_sub_lots": "lots.enumerate_sub_lots",
    "lots.bi_forest_orientation": "lots.bi_forest",
    "lots.decide_locally_indicable": "lots.decide",
    "lots.verify_li_tree": "lots.verify_li_tree",
    "lots.quotient": "lots.quotient",
    "lots.lot_complex": "lots.lot_complex",
    "complexes.link_graph": "complexes.link_graph",
    "curvature.find_zero_one_structure": "curvature.zero_one_search",
    "curvature.coloring_test": "curvature.coloring_test",
    "certificates.compute_pieces": "certificates.compute_pieces",
    "certificates.check_dr2_c4t4": "certificates.check_dr2_c4t4",
    "certificates.check_dr2_zero_one": "certificates.check_dr2_zero_one",
    "certificates.verify_dr2_certificate": "certificates.verify_dr2_certificate",
    "diagrams.search_reduced_diagram": "diagrams.search",
    "reports.analyze_text": "reports.analyze_text",
    "reports.canonical_json": "reports.canonical_json",
    "cli.main": "cli.main",
}

KINDS = ("SINGLE_VERTEX", "HUCK_ROSE_BASE", "AMALGAM", "QUOTIENT_STEP", "UNKNOWN")
FACES = (4, 5)

# every per-layer metric, in the order BENCHMARK.json lists them
PER_LAYER = (
    [f"lots.canonical_key.{k}" for k in ("calls", "busy_s", "perms_tried")]
    + [f"lots.enumerate_sub_lots.{k}" for k in ("calls", "busy_s", "subsets_tried", "found")]
    + [f"lots.bi_forest.{k}" for k in ("calls", "busy_s", "signs_tried", "hit_ratio")]
    + ["lots.decide.busy_s", "lots.verify_li_tree.busy_s", "lots.quotient.calls",
       "lots.lot_complex.calls"]
    + [f"lots.decide.kind.{k}" for k in KINDS]
    + [f"complexes.link_graph.{k}" for k in ("calls", "calls_per_input", "busy_s")]
    + ["curvature.zero_one_search.calls", "curvature.zero_one_search.busy_s",
       "curvature.zero_one_search.found", "curvature.coloring_test.busy_s"]
    + ["certificates.compute_pieces.busy_s", "certificates.check_dr2_c4t4.calls",
       "certificates.check_dr2_c4t4.ok", "certificates.check_dr2_zero_one.busy_s",
       "certificates.verify_dr2_certificate.busy_s"]
    + ["diagrams.search.calls", "diagrams.search.busy_s", "diagrams.search.found"]
    + [f"diagrams.search.busy_s.faces-{k}" for k in FACES]
    + ["parsing.busy_s", "reports.analyze_text.busy_s", "reports.canonical_json.busy_s",
       "reports.canonical_json.bytes", "cli.startup_s"]
    + [f"{layer}.{k}" for layer in LAYERS for k in ("self_s", "self_share")]
    + ["trace.overhead_fraction"]
)


def unit_of(metric):
    if metric.endswith(("_s", ".busy_s")) or ".busy_s." in metric:
        return "s"
    if metric.endswith(("_share", "_fraction", "hit_ratio", "calls_per_input")):
        return "ratio"
    if metric.endswith(".bytes"):
        return "bytes"
    return "count"


def _signs_tried(args, result):
    """Sign vectors the bi-forest search tried: lexicographic rank of the
    returned orientation (``+`` before ``-``) plus one, or 2^n on failure."""
    generators = list(args[0].vertices)
    if result is None:
        return 2 ** len(generators)
    rank = 0
    for g in generators:
        rank = 2 * rank + (1 if result.epsilon[g] < 0 else 0)
    return rank + 1


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, input_id, thread)
        self.counters = {}
        self.input_id = None
        self._local = threading.local()
        self._main_stack = []
        self._local.stack = self._main_stack
        self._patched = []  # (module, attribute, original)
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, key, amount=1):
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name, fn):
        tracer = self
        counter = NAMED.get(name)

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif stack is not tracer._main_stack and tracer._main_stack:
                parent = tracer._main_stack[-1]  # a worker thread's root span
            else:
                parent = None
            with tracer._lock:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[span_id] = (span_id, name, start, end, parent,
                                         tracer.input_id, threading.get_ident())
            if counter is not None:
                tracer._observe(counter, args, kwargs, result, end - start)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _observe(self, counter, args, kwargs, result, duration):
        """Counters computed from arguments and returned values."""
        if counter == "lots.canonical_key":
            self._count("lots.canonical_key.perms_tried", math.factorial(len(args[0].vertices)))
        elif counter == "lots.enumerate_sub_lots":
            self._count("lots.enumerate_sub_lots.subsets_tried", 2 ** len(args[0].edges) - 1)
            self._count("lots.enumerate_sub_lots.found", len(result))
        elif counter == "lots.bi_forest":
            self._count("lots.bi_forest.signs_tried", _signs_tried(args, result))
            self._count("lots.bi_forest.hits", result is not None)
        elif counter == "lots.decide":
            self._count(f"lots.decide.kind.{result.kind}")
        elif counter == "curvature.zero_one_search":
            self._count("curvature.zero_one_search.found", result is not None)
        elif counter == "certificates.check_dr2_c4t4":
            self._count("certificates.check_dr2_c4t4.ok", bool(result.ok))
        elif counter == "diagrams.search":
            faces = args[1] if len(args) > 1 else kwargs["max_faces"]
            self._count(f"diagrams.search.busy_s.faces-{faces}", duration)
            self._count("diagrams.search.found", result is not None)
        elif counter == "reports.canonical_json":
            self._count("reports.canonical_json.bytes", len(result.encode("utf-8")))

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every public function of the layer modules, in place."""
        import importlib

        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"drtool.{layer}")
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    originals[value] = (name, self._wrap(name, value))
        for module in [m for k, m in sys.modules.items()
                       if k == "drtool" or k.startswith("drtool.")]:
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value) or value not in originals:
                    continue
                name, wrapper = originals[value]
                own = module.__name__ == value.__module__
                if own and name not in NAMED:
                    continue
                setattr(module, attr, wrapper)
                self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                if span is None:
                    continue
                sid, name, start, end, parent, input_id, thread = span
                out.write(json.dumps([sid, name, round(start, 7), round(end, 7), parent,
                                      input_id, thread]) + "\n")

    def layer_metrics(self, wall_s, inputs):
        """Per-layer metrics from the recorded spans and counters.

        ``busy_s`` of a function sums the spans of that function that do not
        lie inside another span of the same function; a layer's ``self_s``
        sums each of its spans' duration minus the part of it covered by its
        child spans.
        """
        spans = [s for s in self.spans if s is not None]
        by_id = {s[0]: s for s in spans}
        children = {}
        for s in spans:
            if s[4] is not None:
                children.setdefault(s[4], []).append((s[2], s[3]))

        def nested_in_same(span):
            parent = span[4]
            while parent is not None:
                p = by_id[parent]
                if p[1] == span[1]:
                    return True
                parent = p[4]
            return False

        values = dict(self.counters)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        parsing_busy = 0.0
        for s in spans:
            sid, name, start, end, parent, _, _ = s
            layer = name.split(".", 1)[0]
            key = NAMED.get(name)
            if key is not None:
                values[f"{key}.calls"] = values.get(f"{key}.calls", 0) + 1
                if not nested_in_same(s):
                    values[f"{key}.busy_s"] = values.get(f"{key}.busy_s", 0.0) + (end - start)
            if layer == "parsing" and (parent is None or not by_id[parent][1].startswith("parsing.")):
                parsing_busy += end - start
            covered = 0.0
            last = start
            for a, b in sorted(children.get(sid, ())):
                a, b = max(a, last), min(b, end)
                if b > a:
                    covered += b - a
                    last = b
            layer_self[layer] += (end - start) - covered
        signs = values.get("lots.bi_forest.signs_tried", 0)
        values["lots.bi_forest.hit_ratio"] = values.get("lots.bi_forest.hits", 0) / signs if signs else 0.0
        values["complexes.link_graph.calls_per_input"] = (
            values.get("complexes.link_graph.calls", 0) / inputs)
        values["parsing.busy_s"] = parsing_busy
        for layer in LAYERS:
            values[f"{layer}.self_s"] = layer_self[layer]
            values[f"{layer}.self_share"] = layer_self[layer] / wall_s
        return {name: values.get(name, 0) for name in PER_LAYER}
