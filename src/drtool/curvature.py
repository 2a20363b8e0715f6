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
from .complexes import LinkGraph, TwoComplex, coerce_integer, euler_characteristic
from .errors import (
    ComplexError,
    InvariantViolation,
    MissingWeight,
    UnsupportedWeights,
)
from .unionfind import UnionFind, first_acyclic_choices

LOOP_CONVENTION = (
    "a corner traversal is never its own reverse; "
    "a loop corner traversed once is a reduced cycle of length 1"
)


def _rational(value):
    """``Fraction(value)``, with a zero denominator reported as an input error."""
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ComplexError(f"weight {value!r} has a zero denominator") from None


def _coerce_weight(value):
    """An exact rational: an int when it is a whole number, else a Fraction.

    A string of ASCII digits, with at most one leading ``-``, is read by
    ``int``; any other string is parsed as by ``Fraction``."""
    if isinstance(value, str):
        digits = value[1:] if value.startswith("-") else value
        if digits.isascii() and digits.isdigit():
            return int(value)
        value = _rational(value)
    # a JSON true or false is an int to Python, never a weight
    elif not isinstance(value, (Fraction, int)) or isinstance(value, bool):
        raise ComplexError(f"cannot interpret weight {value!r} as an exact rational")
    return value.numerator if value.denominator == 1 else value


def _exact_weight(value):
    """``value`` read by ``_coerce_weight``; text that is not a rational is an
    input error, as any other value it refuses."""
    try:
        return _coerce_weight(value)
    except ValueError:
        raise ComplexError(f"cannot interpret weight {value!r} as an exact rational") from None


class AngleAssignment:
    """Map from corners (keyed by ``(cell, position)``) to exact rational angles."""

    def __init__(self, weights):
        table = {}
        read = {}  # weight text -> its weight, each text read once
        for (cell, position), value in dict(weights).items():
            if type(position) is not int:  # a bool is an int to Python, never a position
                position = coerce_integer(position, "corner position")
            if type(value) is str:
                if value not in read:
                    read[value] = _exact_weight(value)
                value = read[value]
            elif type(value) is not int:
                value = _exact_weight(value)
            table[(str(cell), position)] = value
        self._table = table

    @classmethod
    def _of_table(cls, table):
        """The assignment over ``table``, taken as it is: a table the library
        builds itself, keyed by corner keys, its angles ints or Fractions of
        denominator above 1, as the constructor leaves them."""
        assignment = cls.__new__(cls)
        assignment._table = table
        return assignment

    @classmethod
    def uniform(cls, X: TwoComplex, value):
        table = dict.fromkeys(X.corners, _exact_weight(value))
        # a subclass checks its own angle rule in its constructor
        return cls._of_table(table) if cls is AngleAssignment else cls(table)

    def weight(self, corner):
        key = corner.key if hasattr(corner, "key") else tuple(corner)
        try:
            return self._table[key]
        except KeyError:
            raise MissingWeight(f"no angle for corner {key}") from None

    def angles(self, keys):
        """The angles at the corner keys ``keys``, as a list; each key must
        have one, as ``validate_total`` ensures for a complex's corners."""
        return list(map(self._table.__getitem__, keys))

    def get(self, key, default=None):
        return self._table.get(key, default)

    def items(self):
        return sorted(self._table.items())

    def _least_key(self, bad):
        """The least corner key whose angle is ``bad``, or None."""
        return min((k for k, v in self._table.items() if bad(v)), default=None)

    def validate_total(self, X: TwoComplex):
        """Domain must be exactly the corner set of X."""
        need, have = X.corners.keys(), self._table.keys()
        if have != need:
            missing = need - have
            if missing:
                raise MissingWeight(f"no angle for corner {min(missing)}")
            raise ComplexError(f"angle assigned to unknown corner {min(have - need)}")

    def validate_nonnegative(self):
        key = self._least_key(lambda v: v < 0)
        if key is not None:
            raise UnsupportedWeights(f"negative weight {self._table[key]} at corner {key}")

    def to_jsonable(self):
        return [
            {"cell": cell, "position": pos, "weight": str(value)}
            for (cell, pos), value in self.items()
        ]

    @classmethod
    def from_jsonable(cls, data):
        return cls({(row["cell"], row["position"]): row["weight"] for row in data})


class ZeroOneAssignment(AngleAssignment):
    def __init__(self, weights):
        super().__init__(weights)
        if not {0, 1}.issuperset(self._table.values()):
            key = self._least_key(lambda v: v not in (0, 1))
            raise ComplexError(f"angle at corner {key} is {self._table[key]}, not 0 or 1")


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
    total: int | Fraction
    euler: int

    def to_jsonable(self):
        return {
            "vertex_curvatures": {v: str(k) for v, k in sorted(self.vertex_curvatures.items())},
            "cell_curvatures": {c: str(k) for c, k in sorted(self.cell_curvatures.items())},
            "total": str(self.total),
            "euler_characteristic": self.euler,
        }


def vertex_curvature(X: TwoComplex, omega: AngleAssignment, v):
    G = X.links[v]
    total = sum(omega.weight(c) for c in G.corners)
    return 2 - G.euler_characteristic() - total


def _cell_curvature(cell, omega):
    L = len(cell.word)
    return sum(omega.weight((cell.id, i)) for i in range(L)) - (L - 2)


def check_gauss_bonnet(X: TwoComplex, omega: AngleAssignment) -> CurvatureReport:
    """Exact curvature report; raises InvariantViolation if the identity fails."""
    omega.validate_total(X)
    vertex_k = {v: vertex_curvature(X, omega, v) for v in X.vertices}
    cell_k = {c.id: _cell_curvature(c, omega) for c in X.cells}
    total = sum(vertex_k.values()) + sum(cell_k.values())
    chi = euler_characteristic(X)
    if total != 2 * chi:
        raise InvariantViolation(
            f"Gauss-Bonnet failed: total curvature {total} != 2*chi = {2 * chi}"
        )
    return CurvatureReport(vertex_k, cell_k, total, chi)


def _corner_weights(G: LinkGraph, omega):
    """Corner of G -> its weight under omega; the walk searches need each >= 0."""
    weights = {}
    for c in G.corners:
        weights[c] = omega.weight(c)
        if weights[c] < 0:
            raise UnsupportedWeights(f"negative weight at corner {c.key}")
    return weights


def _least_walk(graph, start, weight, goals, bound=None):
    """Least-weight walk from ``start`` to a state in ``goals`` as
    ``(weight, labels)``, or None if none is reached below ``bound``.

    ``graph`` maps a state to its ``(label, next state, step weight)``
    triples, every step weight non-negative, and ``weight`` is the weight
    already spent at ``start``.  Dijkstra: the first goal popped is a least
    one, ties break by discovery order, and the search stops once the weight
    reaches ``bound``.
    """
    dist = {start: weight}
    parent = {start: None}
    counter = 0
    heap = [(weight, counter, start)]
    while heap:
        d, _, state = heapq.heappop(heap)
        if d > dist[state]:
            continue  # a stale entry: the state was popped at a lower weight
        if bound is not None and d >= bound:
            return None
        if state in goals:
            labels = []
            while parent[state] is not None:
                state, label = parent[state]
                labels.append(label)
            labels.reverse()
            return d, labels
        for label, nxt, w in graph.get(state, ()):
            nd = d + w
            if nxt not in dist or nd < dist[nxt]:
                dist[nxt] = nd
                parent[nxt] = (state, label)
                counter += 1
                heapq.heappush(heap, (nd, counter, nxt))
    return None


def min_reduced_cycle(G: LinkGraph, omega) -> tuple | None:
    """Minimum-weight reduced cycle as ``(weight, steps)``, or None if no
    reduced cycle exists.

    States of the search are directed corner traversals; transitions join
    traversals sharing a link node, excluding immediate reversal.  Reduced
    cycles are exactly the closed non-backtracking walks, and with
    non-negative weights a least walk from every start state finds the
    minimum closure.  Requires ``omega >= 0`` on every corner of G.
    """
    weights = _corner_weights(G, omega)
    steps = G.steps()
    by_start, by_end = {}, {}
    for step in steps:
        by_start.setdefault(step.start, []).append(step)
        by_end.setdefault(step.end, []).append(step)
    successors = {
        step: [(nxt, nxt, weights[nxt.corner]) for nxt in by_start[step.end]
               if nxt != step.reversed_step()]
        for step in steps
    }
    best = None  # (weight, steps)
    for start in steps:
        # a closure is a step back into start's node that does not undo start
        goals = set(by_end[start.start]) - {start.reversed_step()}
        found = _least_walk(successors, start, weights[start.corner], goals,
                            None if best is None else best[0])
        if found is not None:
            best = (found[0], [start, *found[1]])
    return best


def _shortest_reduced_cycle(G: LinkGraph):
    """The shortest reduced cycle as ``(length, steps)``, or None."""
    found = min_reduced_cycle(G, AngleAssignment._of_table({c.key: 1 for c in G.corners}))
    return None if found is None else (int(found[0]), found[1])


def min_reduced_path(G: LinkGraph, omega, source, target) -> tuple | None:
    """Minimum weight over reduced paths from ``source`` to ``target`` as
    ``(weight, node_path, steps)``, or None if no path connects them.

    With non-negative weights the minimum over reduced paths equals the
    minimum over all walks (reducing a backtrack never raises the weight),
    so a least walk over the nodes suffices; ties break deterministically by
    discovery order, and the returned path is simple, hence reduced.
    """
    if source not in G.nodes or target not in G.nodes:
        raise ComplexError(f"node not in link of {G.base!r}")
    weights = _corner_weights(G, omega)
    adjacency = {
        node: [(step, step.end, weights[step.corner]) for step in out]
        for node, out in G.adjacency().items()
    }
    found = _least_walk(adjacency, source, 0, {target})
    if found is None:
        return None
    weight, steps = found
    return weight, [source, *(step.end for step in steps)], steps


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
        k = _cell_curvature(cell, omega)
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


def _zero_forest(G, angles):
    """The angle-0 subgraph of G under ``angles`` (corner k of G has angle
    ``angles[k]``), over its node positions: each position's component
    number, components numbered by their least position, and its first
    cycle: the first 0-corner closing one plus the tree path it closes, or
    None.  A list union-find, whose roots are each component's least
    position."""
    parent = list(range(len(G.nodes)))
    first = None
    for k, ((a, b), angle) in enumerate(zip(G.ends, angles)):
        if angle == 0:
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b
            elif first is None:
                first = k
    for p, q in enumerate(parent):  # q <= p, so parent[q] is q's root by now
        parent[p] = parent[q]
    number = {}  # root -> its component number; a root precedes its members
    component = [number.setdefault(root, len(number)) for root in parent]
    if first is None:
        return component, None
    # every 0-corner before the first cycle joined two trees of the forest
    adj = {}  # position -> ((position, corner), neighbour, 0) over those corners
    for k, (a, b) in enumerate(G.ends[:first]):
        if angles[k] == 0:
            adj.setdefault(a, []).append(((a, k), b, 0))
            adj.setdefault(b, []).append(((b, k), a, 0))
    a, b = G.ends[first]
    _, path = _least_walk(adj, a, 0, {b})
    return component, {
        "cycle_nodes": [str(G.nodes[n]) for n, _ in path] + [str(G.nodes[b])],
        "cycle_corners": [list(G.keys[k]) for _, k in path] + [list(G.keys[first])],
    }


def coloring_test(X: TwoComplex, omega01: ZeroOneAssignment) -> TestVerdict:
    """Three conditions: non-positive cell curvature, angle-0 subgraph a forest
    at every vertex, and no angle-1 corner with both ends in one component of it."""
    return coloring_forests(X, omega01)[0]


def coloring_forests(X: TwoComplex, omega01: ZeroOneAssignment):
    """The coloring test's verdict, and when it passes the component numbering
    of the angle-0 subgraph of every vertex link, as ``_zero_forest`` gives it
    (vertex -> list over node positions); None when it fails."""
    omega01.validate_total(X)
    angles = {}  # vertex -> the angles of its link's corners, in link order
    ones = dict.fromkeys([cell.id for cell in X.cells], 0)  # the angles 1 of each cell
    for v, G in X.links.items():
        angles[v] = omega01.angles(G.keys)
        for (cell, _), angle in zip(G.keys, angles[v]):
            ones[cell] += angle
    for cell in X.cells:
        k = ones[cell.id] - (len(cell.word) - 2)
        if k > 0:
            return TestVerdict(
                False, {"condition": 1, "cell": cell.id, "curvature": str(k)}
            ), None
    forests = {}
    for v in X.vertices:
        forests[v], cycle = _zero_forest(X.links[v], angles[v])
        if cycle is not None:
            return TestVerdict(False, {"condition": 2, "vertex": v, **cycle}), None
    for v, component in forests.items():
        G = X.links[v]
        for (a, b), key, angle in zip(G.ends, G.keys, angles[v]):
            if angle == 1 and component[a] == component[b]:
                return TestVerdict(
                    False,
                    {
                        "condition": 3,
                        "vertex": v,
                        "corner": list(key),
                        "component": [str(n) for n, c in zip(G.nodes, component)
                                      if c == component[a]],
                    },
                ), None
    return TestVerdict(True, None), forests


def find_zero_one_structure(X: TwoComplex):
    """Exhaustive search for a zero/one structure passing the coloring test.

    One ``first_acyclic_choices`` level per corner, angle 0 before 1, pruning
    choices that break the forest condition or the per-cell curvature budget;
    the component condition judges each full choice.  The angle-0 forest of
    each vertex link is one union-find: an angle-0 choice unions its ends.
    Refuses complexes with more than the zero/one search cap of corners; LOT
    complexes should use the dedicated bi-forest search instead.
    """
    corners = list(X.corners.values())
    caps.refuse_above(len(corners), "corners", "zero/one", caps.ZERO_ONE_CAP)
    room = {cell.id: len(cell.word) - 2 for cell in X.cells}  # angles 1 a cell may still take
    if any(r < 0 for r in room.values()):
        return None  # a monogon's curvature is positive under any zero/one angles
    forests = {v: UnionFind(X.links[v].nodes) for v in X.vertices}
    # an angle-0 pair depends on every level up to its own: the budgets leave
    # values out, so the search stays chronological
    zero_pairs = [(*c.nodes, (2 << index) - 1) for index, (_, c) in enumerate(corners)]

    def options(index, chosen):
        v, corner = corners[index]
        uf = forests[v]
        if uf.together(*corner.nodes):
            # angle 0 would close a cycle (a loop corner closes one alone), and
            # angle 1 can never satisfy the component condition
            return
        yield 0, uf, (zero_pairs[index],)
        if room[corner.cell] > 0:
            room[corner.cell] -= 1
            try:
                yield 1, uf, ()
            finally:
                room[corner.cell] += 1

    angles = first_acyclic_choices(len(corners), options, lambda chosen: all(
        angle == 0 or not forests[v].together(*c.nodes) for (v, c), angle in zip(corners, chosen)))
    return None if angles is None else ZeroOneAssignment._of_table(
        {c.key: angle for (_, c), angle in zip(corners, angles)})
