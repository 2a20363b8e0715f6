"""Angle structures, exact curvature, Gauss-Bonnet, weight test, coloring test.

All arithmetic is exact rational.  Curvature of a vertex is
``2 - chi(link) - sum of corner angles at the vertex``; curvature of a 2-cell
is ``sum of its corner angles - (boundary length - 2)``.  The identity
``2 chi(X) = sum over vertices + sum over cells`` holds unconditionally and is
re-checked on every report as an implementation self-test.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction

from . import caps
from .complexes import LinkGraph, TwoComplex, euler_characteristic
from .errors import (
    CapExceeded,
    ComplexError,
    InvariantViolation,
    MissingWeight,
    UnsupportedWeights,
)
from .unionfind import UnionFind

LOOP_CONVENTION = (
    "a corner traversal is never its own reverse; "
    "a loop corner traversed once is a reduced cycle of length 1"
)


def _coerce_weight(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise ComplexError(f"cannot interpret weight {value!r} as an exact rational")


class AngleAssignment:
    """Map from corners (keyed by ``(cell, position)``) to exact rational angles."""

    def __init__(self, weights):
        table = {}
        for key, value in dict(weights).items():
            cell, position = key
            table[(str(cell), int(position))] = _coerce_weight(value)
        self._table = table

    @classmethod
    def uniform(cls, X: TwoComplex, value):
        value = _coerce_weight(value)
        table = {}
        for cell in X.cells:
            for i in range(len(cell.word)):
                table[(cell.id, i)] = value
        return cls(table)

    def weight(self, corner):
        key = corner.key if hasattr(corner, "key") else tuple(corner)
        try:
            return self._table[key]
        except KeyError:
            raise MissingWeight(f"no angle for corner {key}") from None

    def get(self, key, default=None):
        return self._table.get(key, default)

    def items(self):
        return sorted(self._table.items())

    def keys(self):
        return set(self._table)

    def __len__(self):
        return len(self._table)

    def __add__(self, other):
        if self.keys() != other.keys():
            raise MissingWeight("assignments have different corner domains")
        return AngleAssignment({k: v + other._table[k] for k, v in self._table.items()})

    def validate_total(self, X: TwoComplex):
        """Domain must be exactly the corner set of X."""
        need = set()
        for cell in X.cells:
            for i in range(len(cell.word)):
                need.add((cell.id, i))
        missing = need - self.keys()
        if missing:
            raise MissingWeight(f"no angle for corner {sorted(missing)[0]}")
        extra = self.keys() - need
        if extra:
            raise ComplexError(f"angle assigned to unknown corner {sorted(extra)[0]}")

    def validate_nonnegative(self):
        for key, value in self.items():
            if value < 0:
                raise UnsupportedWeights(f"negative weight {value} at corner {key}")

    def to_jsonable(self):
        return [
            {"cell": cell, "position": pos, "weight": str(value)}
            for (cell, pos), value in self.items()
        ]

    @classmethod
    def from_jsonable(cls, data):
        return cls({(row["cell"], row["position"]): Fraction(row["weight"]) for row in data})


class ZeroOneAssignment(AngleAssignment):
    def __init__(self, weights):
        super().__init__(weights)
        for key, value in self.items():
            if value not in (0, 1):
                raise ComplexError(f"angle at corner {key} is {value}, not 0 or 1")


@dataclass(frozen=True)
class TestVerdict:
    passed: bool
    witness: dict | None = None
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.passed and self.witness is not None:
            raise InvariantViolation("passing verdict with a witness")
        if not self.passed and self.witness is None:
            raise InvariantViolation("failing verdict without a witness")

    def to_jsonable(self):
        out = {"pass": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.notes:
            out["notes"] = dict(self.notes)
        return out


@dataclass(frozen=True)
class CurvatureReport:
    vertex_curvatures: dict
    cell_curvatures: dict
    total: Fraction
    euler: int

    @property
    def positive_vertices(self):
        return [v for v, k in sorted(self.vertex_curvatures.items()) if k > 0]

    def to_jsonable(self):
        return {
            "vertex_curvatures": {v: str(k) for v, k in sorted(self.vertex_curvatures.items())},
            "cell_curvatures": {c: str(k) for c, k in sorted(self.cell_curvatures.items())},
            "total": str(self.total),
            "euler_characteristic": self.euler,
        }


def vertex_curvature(X: TwoComplex, omega: AngleAssignment, v):
    G = X.links[v]
    total = sum((omega.weight(c) for c in G.corners), Fraction(0))
    return 2 - G.euler_characteristic() - total


def cell_curvature(X: TwoComplex, omega: AngleAssignment, cell_id):
    cell = X.cell_map().get(cell_id)
    if cell is None:
        raise ComplexError(f"unknown cell {cell_id!r}")
    L = len(cell.word)
    total = Fraction(0)
    for i in range(L):
        w = omega.get((cell.id, i))
        if w is None:
            raise MissingWeight(f"no angle for corner {(cell.id, i)}")
        total += w
    return total - (L - 2)


def check_gauss_bonnet(X: TwoComplex, omega: AngleAssignment) -> CurvatureReport:
    """Exact curvature report; raises InvariantViolation if the identity fails."""
    omega.validate_total(X)
    vertex_k = {v: vertex_curvature(X, omega, v) for v in X.vertices}
    cell_k = {c.id: cell_curvature(X, omega, c.id) for c in X.cells}
    total = sum(vertex_k.values(), Fraction(0)) + sum(cell_k.values(), Fraction(0))
    chi = euler_characteristic(X)
    if total != 2 * chi:
        raise InvariantViolation(
            f"Gauss-Bonnet failed: total curvature {total} != 2*chi = {2 * chi}"
        )
    return CurvatureReport(vertex_k, cell_k, total, chi)


def _weight_of_step(omega, step):
    return omega.weight(step.corner)


def min_reduced_cycle(G: LinkGraph, omega) -> tuple | None:
    """Minimum-weight reduced cycle as ``(weight, steps)``, or None if no
    reduced cycle exists.

    States of the search are directed corner traversals; transitions join
    traversals sharing a link node, excluding immediate reversal.  Reduced
    cycles are exactly the closed non-backtracking walks, and with
    non-negative weights a Dijkstra run from every start state finds the
    minimum closure.  Requires ``omega >= 0`` on every corner of G.
    """
    steps = G.steps()
    if not steps:
        return None
    for step in steps:
        if _weight_of_step(omega, step) < 0:
            raise UnsupportedWeights(
                f"negative weight at corner {step.corner.key}; "
                "cycle minimisation needs non-negative angles"
            )
    by_start = {}
    for step in steps:
        by_start.setdefault(step.start, []).append(step)

    best = None  # (weight, steps)
    for start in steps:
        w0 = _weight_of_step(omega, start)
        if best is not None and w0 >= best[0]:
            continue
        # Dijkstra over traversal states, beginning after `start` is walked.
        dist = {start: w0}
        parent = {start: None}
        counter = 0
        heap = [(w0, counter, start)]
        done = set()
        forbidden_last = start.reversed_step()
        while heap:
            d, _, state = heapq.heappop(heap)
            if state in done:
                continue
            done.add(state)
            if best is not None and d >= best[0]:
                break
            if state.end == start.start and state != forbidden_last:
                chain = []
                cur = state
                while cur is not None:
                    chain.append(cur)
                    cur = parent[cur]
                chain.reverse()
                best = (d, chain)
                break  # first valid closure popped is this start's minimum
            for nxt in by_start.get(state.end, ()):
                if nxt == state.reversed_step():
                    continue
                nd = d + _weight_of_step(omega, nxt)
                if nxt not in dist or nd < dist[nxt]:
                    dist[nxt] = nd
                    parent[nxt] = state
                    counter += 1
                    heapq.heappush(heap, (nd, counter, nxt))
    return best


def min_reduced_cycle_weight(G: LinkGraph, omega):
    """Minimum of the weight over all reduced cycles in G, or None for a
    multigraph without reduced cycles (a simple forest)."""
    found = min_reduced_cycle(G, omega)
    return None if found is None else found[0]


def reduced_girth(G: LinkGraph):
    """Length of the shortest reduced cycle, or None."""
    ones = AngleAssignment({c.key: 1 for c in G.corners})
    found = min_reduced_cycle(G, ones)
    if found is None:
        return None
    return int(found[0])


def min_reduced_path(G: LinkGraph, omega, source, target) -> tuple | None:
    """Minimum weight over reduced paths from ``source`` to ``target`` as
    ``(weight, node_path, steps)``, or None if no path connects them.

    With non-negative weights the minimum over reduced paths equals the
    minimum over all walks (reducing a backtrack never raises the weight),
    so a node Dijkstra suffices; ties break deterministically by discovery
    order, and the returned path is simple, hence reduced.
    """
    if source not in G.nodes or target not in G.nodes:
        raise ComplexError(f"node not in link of {G.base!r}")
    for c in G.corners:
        if omega.weight(c) < 0:
            raise UnsupportedWeights(f"negative weight at corner {c.key}")
    adj = G.adjacency()
    dist = {source: Fraction(0)}
    parent = {source: None}
    counter = 0
    heap = [(Fraction(0), counter, source)]
    done = set()
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        if node == target:
            nodes = []
            steps = []
            cur = node
            while cur is not None:
                nodes.append(cur)
                prev = parent[cur]
                if prev is not None:
                    steps.append(prev[1])
                    cur = prev[0]
                else:
                    cur = None
            nodes.reverse()
            steps.reverse()
            return d, nodes, steps
        for step in adj[node]:
            nd = d + omega.weight(step.corner)
            if step.end not in dist or nd < dist[step.end]:
                dist[step.end] = nd
                parent[step.end] = (node, step)
                counter += 1
                heapq.heappush(heap, (nd, counter, step.end))
    return None


def _cycle_witness(vertex, found):
    weight, steps = found
    return {
        "kind": "cycle",
        "vertex": vertex,
        "weight": str(weight),
        "corners": [list(s.corner.key) for s in steps],
        "nodes": [str(s.start) for s in steps],
    }


def weight_test(X: TwoComplex, omega: AngleAssignment) -> TestVerdict:
    """Pass iff every cell has curvature <= 0 and every vertex link has no
    reduced cycle of weight below 2."""
    omega.validate_total(X)
    omega.validate_nonnegative()
    notes = {"loop_convention": LOOP_CONVENTION}
    for cell in X.cells:
        k = cell_curvature(X, omega, cell.id)
        if k > 0:
            return TestVerdict(
                False,
                {"kind": "cell", "cell": cell.id, "curvature": str(k)},
                notes,
            )
    for v in X.vertices:
        found = min_reduced_cycle(X.links[v], omega)
        if found is not None and found[0] < 2:
            return TestVerdict(False, _cycle_witness(v, found), notes)
    return TestVerdict(True, None, notes)


def lk0_components(X: TwoComplex, v, omega01: ZeroOneAssignment):
    """Connected components of the angle-0 subgraph of the link at v.

    Every node is retained, so isolated nodes appear as singleton components.
    Components are returned sorted by their smallest node.
    """
    uf, _ = _zero_forest(X.links[v], omega01)
    return uf.components()


def _zero_forest(G, omega01):
    """Union-find of the angle-0 subgraph of G, and its first cycle: the first
    0-corner closing one plus the tree path it closes, or None."""
    adj = {}  # node -> list of (neighbor, corner) over the forest's corners
    uf = UnionFind(G.nodes)
    cycle = None
    for c in G.corners:
        if omega01.weight(c) != 0:
            continue
        a, b = c.nodes
        if uf.union(a, b):
            adj.setdefault(a, []).append((b, c))
            adj.setdefault(b, []).append((a, c))
        elif cycle is None:
            path = _forest_path(adj, a, b)
            cycle = {
                "cycle_nodes": [str(n) for n, _ in path] + [str(b)],
                "cycle_corners": [list(cor.key) for _, cor in path] + [list(c.key)],
            }
    return uf, cycle


def _forest_path(adj, a, b):
    """Path from a to b in a forest given as an adjacency map; [] if a == b."""
    if a == b:
        return []
    prev = {a: None}
    queue = [a]
    while queue:
        node = queue.pop(0)
        for nxt, corner in adj.get(node, ()):
            if nxt not in prev:
                prev[nxt] = (node, corner)
                queue.append(nxt)
    path = []
    cur = b
    while prev.get(cur) is not None:
        node, corner = prev[cur]
        path.append((node, corner))
        cur = node
    path.reverse()
    return path


def coloring_test(X: TwoComplex, omega01: ZeroOneAssignment) -> TestVerdict:
    """Three conditions: non-positive cell curvature, angle-0 subgraph a forest
    at every vertex, and no angle-1 corner with both ends in one component of it."""
    return coloring_forests(X, omega01)[0]


def coloring_forests(X: TwoComplex, omega01: ZeroOneAssignment):
    """The coloring test's verdict, and when it passes the angle-0 union-find
    of every vertex link (vertex -> UnionFind); None when it fails."""
    omega01.validate_total(X)
    for cell in X.cells:
        k = cell_curvature(X, omega01, cell.id)
        if k > 0:
            return TestVerdict(
                False, {"condition": 1, "cell": cell.id, "curvature": str(k)}
            ), None
    forests = {}
    for v in X.vertices:
        forests[v], cycle = _zero_forest(X.links[v], omega01)
        if cycle is not None:
            return TestVerdict(False, {"condition": 2, "vertex": v, **cycle}), None
    for v, uf in forests.items():
        G = X.links[v]
        for c in G.corners:
            if omega01.weight(c) == 1 and uf.together(c.nodes[0], c.nodes[1]):
                members = [m for m in G.nodes if uf.together(m, c.nodes[0])]
                return TestVerdict(
                    False,
                    {
                        "condition": 3,
                        "vertex": v,
                        "corner": list(c.key),
                        "component": [str(m) for m in sorted(members)],
                    },
                ), None
    return TestVerdict(True, None), forests


def find_zero_one_structure(X: TwoComplex, cap=None):
    """Exhaustive search for a zero/one structure passing the coloring test.

    Backtracks over corners, pruning choices that break the forest condition,
    the per-cell curvature budget, or the component condition.  Refuses
    complexes with more than ``cap`` corners (default: the zero/one search
    cap); LOT complexes should use the dedicated bi-forest search instead.
    """
    if cap is None:
        cap = caps.search_cap(caps.ZERO_ONE_CAP)
    links = X.links
    corners = [(v, c) for v in X.vertices for c in links[v].corners]
    if len(corners) > cap:
        raise CapExceeded(
            f"{len(corners)} corners exceeds the zero/one search cap {cap}; "
            "for LOT complexes use the bi-forest search"
        )
    budget = {cell.id: len(cell.word) - 2 for cell in X.cells}
    if any(b < 0 for b in budget.values()):
        return None  # a monogon's curvature is positive under any zero/one angles
    assignment = {}
    ones_used = {cell.id: 0 for cell in X.cells}

    def zero_forest(v):
        # the search only ever assigns 0 when it keeps the subgraph a forest
        uf = UnionFind(links[v].nodes)
        for c in links[v].corners:
            if assignment.get(c.key) == 0:
                uf.union(c.nodes[0], c.nodes[1])
        return uf

    def condition3_final():
        for v, G in links.items():
            uf = zero_forest(v)
            for c in G.corners:
                if assignment[c.key] == 1 and uf.together(c.nodes[0], c.nodes[1]):
                    return False
        return True

    def solve(index):
        if index == len(corners):
            return condition3_final()
        v, corner = corners[index]
        a, b = corner.nodes
        uf = zero_forest(v)
        if a != b and not uf.together(a, b):
            assignment[corner.key] = 0
            if solve(index + 1):
                return True
            del assignment[corner.key]
        if ones_used[corner.cell] + 1 <= budget[corner.cell] and not uf.together(a, b):
            # an angle-1 corner whose ends are already joined in the 0-subgraph
            # can never satisfy the component condition
            assignment[corner.key] = 1
            ones_used[corner.cell] += 1
            if solve(index + 1):
                return True
            ones_used[corner.cell] -= 1
            del assignment[corner.key]
        return False

    if solve(0):
        return ZeroOneAssignment(dict(assignment))
    return None
