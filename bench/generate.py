"""Seeded input generators for the benchmark workloads.

Only the standard library is used, never drtool itself: a later change to
drtool must not be able to change its own benchmark inputs.  Every
generator returns input *text* in drtool's file formats, so the program
under test only ever sees generated input.
"""

from __future__ import annotations

import heapq
import itertools


# ---------------------------------------------------------------------------
# labeled oriented trees


def _random_tree(rng, n):
    """Edges (a, b) of a uniform random labelled tree on range(n) (Pruefer)."""
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    a, b = (u for u in range(n) if degree[u] == 1)
    edges.append((a, b))
    return edges


def random_reduced_injective_lot(rng, n):
    """Edges (source, target, label) of a random LOT on range(n) that is
    injective, compressed and boundary reduced.

    Injective labels on n - 1 edges leave one vertex unused as a label; it
    must not be a leaf (boundary reduced), and no edge may carry one of its
    own endpoints as its label (compressed).  Injectivity makes every LOT
    interior reduced, so the result is a reduced injective LOT.
    """
    if n == 1:
        return []
    if n == 2:
        raise ValueError("both vertices of a 2-vertex tree are leaves")
    while True:
        tree = _random_tree(rng, n)
        degree = [0] * n
        for a, b in tree:
            degree[a] += 1
            degree[b] += 1
        inner = [v for v in range(n) if degree[v] > 1]
        unused = rng.choice(inner)
        labels = [v for v in range(n) if v != unused]
        for _ in range(200):
            rng.shuffle(labels)
            if all(lab not in pair for lab, pair in zip(labels, tree)):
                break
        else:
            continue
        edges = []
        for (a, b), lab in zip(tree, labels):
            if rng.random() < 0.5:
                a, b = b, a
            edges.append((a, b, lab))
        return edges


def _pruefer_trees(n):
    """Every labelled tree on range(n), in the order of its Pruefer sequence
    (``itertools.product`` order), decoded with the smallest leaf first."""
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        heap = [v for v in range(n) if degree[v] == 1]
        heapq.heapify(heap)
        edges = []
        for v in seq:
            edges.append((heapq.heappop(heap), v))
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(heap, v)
        edges.append((heapq.heappop(heap), heapq.heappop(heap)))
        yield edges


def _free_tree_code(n, edges):
    """An isomorphism invariant of a free tree: the least AHU code over its
    centres."""
    adjacent = [[] for _ in range(n)]
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    layer = [v for v in range(n) if len(adjacent[v]) <= 1]
    degree = [len(adjacent[v]) for v in range(n)]
    left = n
    while left > 2:
        left -= len(layer)
        following = []
        for v in layer:
            for u in adjacent[v]:
                degree[u] -= 1
                if degree[u] == 1:
                    following.append(u)
        layer = following

    def code(v, parent):
        return "(" + "".join(sorted(code(u, v) for u in adjacent[v] if u != parent)) + ")"

    return min(code(c, None) for c in layer)


def tree_shapes(n):
    """One labelled tree per isomorphism class of free trees on n vertices:
    the first of its class in Pruefer order."""
    seen, shapes = set(), []
    for edges in _pruefer_trees(n):
        key = _free_tree_code(n, edges)
        if key not in seen:
            seen.add(key)
            shapes.append(edges)
    return shapes


def _labellings(n, ends, used, out, prefix):
    """Injective labels for ``ends`` in lexicographic order, no edge carrying
    one of its own endpoints."""
    if len(prefix) == len(ends):
        out.append(tuple(prefix))
        return
    a, b = ends[len(prefix)]
    for lab in range(n):
        if lab != a and lab != b and not used[lab]:
            used[lab] = True
            prefix.append(lab)
            _labellings(n, ends, used, out, prefix)
            prefix.pop()
            used[lab] = False


class SweepStream:
    """The candidate stream of the small-LOT sweep, in order: for each size
    from 3 vertices up, each tree shape, each orientation of its edges and
    each injective labelling in lexicographic order, the LOTs that are
    compressed and boundary reduced.  Injectivity makes a LOT interior
    reduced, so every candidate is a reduced injective LOT.

    ``candidates[i]`` is a tuple of edges (source, target, label) on
    range(n).  Isomorphic candidates recur and a sweep keeps the first of
    each class.  Two candidates are isomorphic exactly when they lie on the
    same shape and an automorphism of that shape maps one onto the other, so
    ``orbit`` finds a candidate's class without any LOT isomorphism test.
    """

    def __init__(self, max_vertices=6):
        self.candidates, self.shape_of, self.automorphisms = [], [], []
        for n in range(3, max_vertices + 1):
            for shape in tree_shapes(n):
                sid = len(self.automorphisms)
                edge_set = {frozenset(e) for e in shape}
                self.automorphisms.append([
                    p for p in itertools.permutations(range(n))
                    if {frozenset((p[a], p[b])) for a, b in shape} == edge_set
                ])
                leaves = {v for v in range(n) if sum(v in e for e in shape) == 1}
                for orientation in itertools.product((0, 1), repeat=n - 1):
                    ends = [(a, b) if o == 0 else (b, a) for (a, b), o in zip(shape, orientation)]
                    labellings = []
                    _labellings(n, ends, [False] * n, labellings, [])
                    for labels in labellings:
                        if leaves.issubset(labels):
                            self.candidates.append(tuple(
                                (a, b, lab) for (a, b), lab in zip(ends, labels)))
                            self.shape_of.append(sid)
        self.index = {tuple(sorted(c)): i for i, c in enumerate(self.candidates)}

    def __len__(self):
        return len(self.candidates)

    def orbit(self, i):
        """Stream indices of every candidate isomorphic to candidate i."""
        edges = self.candidates[i]
        return sorted({
            self.index[tuple(sorted((p[a], p[b], p[lab]) for a, b, lab in edges))]
            for p in self.automorphisms[self.shape_of[i]]
        })


def lot_text(rng, n, edges):
    """LOT file text with fresh random vertex names and edge ids, and the
    vertex and edge lines in random order."""
    names = [f"x{k}" for k in rng.sample(range(10 * n + 10), n)]
    vertex_order = list(range(n))
    rng.shuffle(vertex_order)
    edge_ids = [f"e{k}" for k in rng.sample(range(10 * n + 10), len(edges))]
    edge_order = list(range(len(edges)))
    rng.shuffle(edge_order)
    lines = ["lot", "vertex " + " ".join(names[v] for v in vertex_order)]
    for i in edge_order:
        s, t, lab = edges[i]
        lines.append(f"edge {edge_ids[i]} {names[s]} {names[t]} {names[lab]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# presentations


def _cyclically_reduced(word):
    return all(
        not (word[i][0] == word[i - 1][0] and word[i][1] != word[i - 1][1])
        for i in range(len(word))
    )


def _letter(letter):
    g, sign = letter
    return g if sign > 0 else g + "-"


def surface_like_word(rng, gens):
    """A cyclically reduced word in which each generator occurs once with
    each sign."""
    letters = [(g, s) for g in gens for s in (1, -1)]
    while True:
        rng.shuffle(letters)
        if _cyclically_reduced(letters):
            return list(letters)


def random_word(rng, gens, length):
    """A cyclically reduced word of the given length using every generator."""
    while True:
        word = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(length)]
        if _cyclically_reduced(word) and {g for g, _ in word} == set(gens):
            return word


def presentation_text(gens, relators):
    lines = ["presentation", "gens " + " ".join(gens)]
    for word in relators:
        lines.append("rel " + " ".join(_letter(x) for x in word))
    return "\n".join(lines) + "\n"


def generator_names(rng, k):
    return [f"g{v}" for v in sorted(rng.sample(range(100), k))]
