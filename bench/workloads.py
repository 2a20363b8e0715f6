"""The four benchmark workloads.

Each workload turns a seeded ``random.Random`` into one *batch* of inputs,
and takes one input through drtool's whole user path in ``run``, which
also applies the correctness gate: a gate that does not hold raises
`GateFailure`.  ``record`` reduces a result to a line for the result digest,
outside the timed region.

Calls go through the ``drtool`` package namespace, so the tracer sees each
one as a call from the benchmark into a layer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import generate as gen


class GateFailure(Exception):
    """An output that the correctness gate rejected."""


def _digest(data):
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _check_li_tree(drtool, tree):
    ok, problems = drtool.verify_li_tree(tree)
    if not ok:
        raise GateFailure(f"verify_li_tree rejected a {tree.kind} tree: {problems[:2]}")
    stack = [tree]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        data = node.evidence.get("dr2_certificate")
        if data is None:
            continue
        ok, problems = drtool.verify_dr2_certificate(drtool.Dr2Certificate.from_jsonable(data))
        if not ok:
            raise GateFailure(f"embedded DR(2) certificate rejected: {problems[:2]}")


def _top_layer(m):
    layers = [k[: -len(".self_s")] for k in m if k.endswith(".self_s")]
    return max(layers, key=lambda layer: m[f"{layer}.self_s"])


def _tree_record(tree):
    return f"{tree.kind}:{tree.conclusion.get('locally_indicable')}:{_digest(tree.to_jsonable())}"


class LotDecide:
    """Certify one big LOT: parse, decide, verify the certificate tree."""

    name = "lot-decide"
    # the LOT sizes of a batch.  Each size class has a long right tail (its
    # p90 about twice its median), so the seed-to-seed spread of a run
    # falls with its number of operations; two each of the cheap 10 and 11
    # vertices give about 300 a run.  The p90 falls inside the 13-vertex
    # class, the top sixth of a batch, where the 12-vertex tail reaches
    # less than with two 12s.
    sizes = (10, 10, 11, 11, 12, 13)
    prefix_batches = 6
    tail_percentile = 90

    def batch(self, rng):
        out = []
        for n in self.sizes:
            out.append(gen.lot_text(rng, n, gen.random_reduced_injective_lot(rng, n)))
        return out

    def prepare(self, drtool, text):
        drtool.parse_lot(text)

    def new_state(self):
        return None

    def run(self, drtool, text, state):
        tree = drtool.decide_locally_indicable(drtool.parse_lot(text))
        _check_li_tree(drtool, tree)
        return tree

    def describe(self, text):
        return text

    def record(self, tree):
        return _tree_record(tree)

    def prediction(self, m, traced_s):
        share = (m["lots.enumerate_sub_lots.busy_s"] + m["lots.bi_forest.busy_s"]) / traced_s
        return (f"lots dominates through sub-LOT enumeration and bi-forest signs "
                f"({share:.0%} of traced time)", _top_layer(m) == "lots" and share > 0.5)


class LotSweep:
    """The small-LOT sweep: the stream of reduced injective LOT candidates
    with at most 6 vertices, deduplicated by the isomorphism key, with
    decide + verify on each new class.

    A batch is a seed-picked slice of the stream: one window of
    ``window`` consecutive candidates in each of ``strata`` equal parts of
    the stream, together with every later copy of a class first met in a
    window.  Since the stream keeps each class's copies after its first, a
    batch with its own table of classes seen makes exactly the key calls
    and the decisions that the whole sweep makes on those classes.  The
    candidates keep their stream order and each is written once under fresh
    random names and line orders.  The key must call new exactly the
    candidates that the stream's own class count calls first."""

    name = "lot-sweep"
    strata = 16
    window = 8
    prefix_batches = 6
    tail_percentile = 99

    def __init__(self):
        self.stream = None

    def reset(self):
        """Enumerate the stream afresh, as part of each set-up."""
        self.stream = gen.SweepStream()

    def batch(self, rng):
        stream = self.stream
        part = len(stream) // self.strata
        firsts, members = set(), set()
        for s in range(self.strata):
            start = s * part + rng.randrange(part - self.window + 1)
            for i in range(start, start + self.window):
                orbit = stream.orbit(i)
                if orbit[0] == i:
                    firsts.add(i)
                    members.update(orbit)
        out = []
        for i in sorted(members):
            edges = stream.candidates[i]
            out.append((gen.lot_text(rng, len(edges) + 1, edges), i in firsts))
        return out

    def prepare(self, drtool, item):
        drtool.parse_lot(item[0])

    def new_state(self):
        return set()

    def run(self, drtool, item, seen):
        text, first = item
        lot = drtool.parse_lot(text)
        key = drtool.lots.canonical_lot_key(lot)
        if (key not in seen) != first:
            raise GateFailure(f"the key calls a {'new' if first else 'seen'} class "
                              f"{'seen' if first else 'new'}")
        if not first:
            return None
        seen.add(key)
        tree = drtool.decide_locally_indicable(lot)
        _check_li_tree(drtool, tree)
        return tree

    def describe(self, item):
        return f"# first {item[1]}\n{item[0]}"

    def record(self, tree):
        return "seen" if tree is None else "new:" + _tree_record(tree)

    def prediction(self, m, traced_s):
        share = m["lots.canonical_key.busy_s"] / traced_s
        return (f"lots dominates through the isomorphism key ({share:.0%} of traced time)",
                _top_layer(m) == "lots" and share > 0.5)


class DiagramSearch:
    """Bounded search for a reduced spherical diagram over one-relator
    presentations whose relator uses every generator once with each sign,
    plus presentations known to have one (a repeated relator, a proper
    power), which the search must find."""

    name = "diagram-search"
    # (generators, max faces, count) of the surface-like presentations in a
    # batch, cheapest first: 3 generators at 4 faces take about 15 ms,
    # 4 at 4 faces 80-150 ms and 3 at 5 faces about 160 ms.  With the
    # positives (under 3 ms) they fill 25%, 25-75%, 75-87.5% and 87.5-100%
    # of a batch, so the median falls inside the first class and the p95
    # inside the last.  4 generators at 5 faces (2-6 s each) is left out.
    surface = ((3, 4, 8), (4, 4, 2), (3, 5, 2))
    positives = 4
    prefix_batches = 6
    tail_percentile = 95

    def batch(self, rng):
        out = []
        for k, faces, count in self.surface:
            for _ in range(count):
                gens = gen.generator_names(rng, k)
                out.append((gen.presentation_text(gens, [gen.surface_like_word(rng, gens)]),
                            faces, False))
        for i in range(self.positives):
            k = 3 + i % 2
            gens = gen.generator_names(rng, k)
            if i < self.positives // 2:
                word = gen.surface_like_word(rng, gens)
                relators = [word, word]
            else:
                # a longer root or a cube makes the one-face gluing take seconds
                relators = [gen.random_word(rng, gens, k) * 2]
            out.append((gen.presentation_text(gens, relators), 5, True))
        rng.shuffle(out)
        return out

    def prepare(self, drtool, item):
        drtool.parse_presentation(item[0])

    def new_state(self):
        return None

    def run(self, drtool, item, state):
        text, faces, must_find = item
        X = drtool.parse_presentation(text)
        found = drtool.search_reduced_diagram(X, faces)
        if found is None:
            if must_find:
                raise GateFailure("no reduced diagram found where one is known to exist")
            return None
        S, f = found
        if not drtool.check_diagram(S, f, X).reduced:
            raise GateFailure("search returned a diagram that check_diagram calls unreduced")
        return S.to_jsonable(), f.to_jsonable()

    def describe(self, item):
        text, faces, must_find = item
        return f"# faces {faces} known {must_find}\n{text}"

    def record(self, found):
        return "none" if found is None else f"{len(found[0]['faces'])}:{_digest(found)}"

    def prediction(self, m, traced_s):
        share = m["diagrams.self_s"] / traced_s
        return f"diagrams dominates ({share:.0%} of traced time)", _top_layer(m) == "diagrams"


class CliCorpus:
    """``python -m drtool corpus DIR --json`` as a child process, one
    directory at a time.  Each directory has the mix of kinds of the
    11-file fixture corpus: 6 presentations and 5 LOTs.  The JSON is
    checked after the timed loop: against in-process ``analyze`` results on
    the same files, for errors and diagnostics, and by verifying every
    certificate it embeds."""

    name = "cli-corpus"
    dirs_per_batch = 6
    # (generators, relators) of the 6 presentations of every directory.
    # A fixed recipe keeps directories alike in cost: drawn at random,
    # 4 generators with 3 relators (18-24 corners) came up in every other
    # directory and took up to 0.35 s, most of the spread between seeds, so
    # that kind is left out.
    recipe = ((2, 1), (2, 3), (3, 1), (3, 3), (4, 1), (4, 2))
    # directory d of a batch holds one LOT of each of these sizes but 6 + d
    lot_sizes = (6, 7, 8, 9, 10, 11)
    # about 0.5 s an operation: the prefix alone gives the p70 ten samples
    prefix_batches = 6
    tail_percentile = 70
    in_process = False  # the traced pass runs the CLI in this process

    def __init__(self, workdir, src):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=src)
        self.count = 0

    def _presentation(self, rng, k, count):
        gens = gen.generator_names(rng, k)
        relators = []
        while len(relators) < count:
            if rng.random() < 0.4:
                word = gen.surface_like_word(rng, gens)
            else:
                word = gen.random_word(rng, gens, rng.randint(k, 10))
            if sum(map(len, relators)) + len(word) <= 24:
                relators.append(word)  # corners, so the zero/one search stays under its cap
        return gen.presentation_text(gens, relators)

    def batch(self, rng):
        """The batch's directories, as sorted (file name, text) pairs; `stage`
        writes them out."""
        out = []
        for d in range(self.dirs_per_batch):
            files = {f"p{i}.pres": self._presentation(rng, k, count)
                     for i, (k, count) in enumerate(self.recipe)}
            sizes = [n for n in self.lot_sizes if n != self.lot_sizes[d % len(self.lot_sizes)]]
            for i, n in enumerate(sizes):
                files[f"l{i}.lot"] = gen.lot_text(rng, n, gen.random_reduced_injective_lot(rng, n))
            out.append(tuple(sorted(files.items())))
        return out

    def stage(self, items):
        """Write each directory of a batch to a fresh path, before the batch
        is timed.  File creation is disk work whose speed the host-speed
        probe does not follow, so it stays out of set-up and operations."""
        paths = []
        for files in items:
            path = os.path.join(self.workdir, f"corpus{self.count:05d}")
            self.count += 1
            os.makedirs(path)
            for name, text in files:
                with open(os.path.join(path, name), "w", encoding="utf-8") as handle:
                    handle.write(text)
            paths.append(path)
        return paths

    def prepare(self, drtool, files):
        for name, text in files:
            if name.endswith(".lot"):
                drtool.parse_lot(text)
            else:
                drtool.parse_presentation(text)

    def describe(self, files):
        return "".join(f"# {name}\n{text}" for name, text in files)

    def new_state(self):
        return None

    def run(self, drtool, path, state):
        if self.in_process:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = drtool.cli.main(["corpus", path, "--json"])
            stdout, stderr = out.getvalue(), ""
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "drtool", "corpus", path, "--json"],
                env=self.env, capture_output=True, text=True, timeout=170,
            )
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        if code != 0:
            raise GateFailure(f"exit code {code}: {stderr.strip()[-200:]}")
        return path, stdout

    def check(self, drtool, path, stdout):
        """The CLI's JSON must equal the in-process ``analyze`` reports, hold
        no error or diagnostic, and carry only certificates that verify."""
        rows = []
        for name in sorted(os.listdir(path)):
            try:
                rows.append((name, drtool.reports.analyze(os.path.join(path, name))))
            except drtool.errors.DrtoolError as exc:
                rows.append((name, {"error": f"{type(exc).__name__}: {exc}"}))
        expected = {"summary": drtool.reports.summarize_corpus(rows), "reports": dict(rows)}
        data = json.loads(stdout)
        where = os.path.basename(path)
        if data != json.loads(json.dumps(expected)):
            raise GateFailure(f"corpus JSON for {where} differs from analyze")
        if data["summary"]["parse_errors"]:
            raise GateFailure(f"{where}: {data['summary']['parse_errors']} parse errors")
        for name, report in data["reports"].items():
            if "error" in report:
                raise GateFailure(f"{where}/{name}: {report['error']}")
            if report["diagnostics"]:
                raise GateFailure(f"{where}/{name}: {report['diagnostics'][:2]}")
            for attempt in report["certificates"]["dr2"]:
                if not attempt["ok"]:
                    continue
                cert = drtool.Dr2Certificate.from_jsonable(attempt["certificate"])
                ok, problems = drtool.verify_dr2_certificate(cert)
                if not ok:
                    raise GateFailure(f"{where}/{name}: {attempt['method']} certificate "
                                      f"rejected: {problems[:2]}")
            tree = report["certificates"]["local_indicability"]
            if tree is not None:
                _check_li_tree(drtool, drtool.LiCertificateTree.from_jsonable(tree))

    def record(self, result):
        return hashlib.sha256(result[1].encode("utf-8")).hexdigest()[:16]

    def prediction(self, m, traced_s):
        # each child process pays start-up; the in-process corpus threads
        # overlap, so shares are taken of the summed layer self times
        startup = m["cli.startup_s"] * self.dirs_per_batch * self.prefix_batches
        layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
        share = (startup + m["certificates.self_s"] + m["curvature.self_s"]) / (startup + layers)
        return (f"cli start-up plus certificates and curvature dominate "
                f"({share:.0%} of start-up + layer self time)", share > 0.5)
