"""Labeled oriented trees: presentation complexes, reductions, sub-LOTs,
quotients, the bi-forest angle structure, and the recursive local
indicability decision procedure.

A LOT on vertex set V with edges e = (source, target, label) presents the
group <V | source(e) label(e) = label(e) target(e)>.  Its presentation
complex has one vertex, one edge per LOT vertex, and one square per LOT
edge.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from . import caps
from .certificates import (
    METHOD_ZERO_ONE,
    dr2_routes,
    field_disagreements,
    require_format,
    rerun_dr2,
)
from .complexes import Letter, TwoComplex, _json_list, build_complex, check_name
from .curvature import ZeroOneAssignment
from .errors import (
    _WRONG_SHAPE,
    AmbiguousCollapseVertex,
    CertificateRefused,
    ComplexError,
    DrtoolError,
    InvariantViolation,
    NotATree,
    NotInjective,
    NotSubLot,
)
from .unionfind import UnionFind, first_acyclic_choices

BASE_VERTEX = "*"
LI_FORMAT = "li-certificate/1"

KIND_SINGLE_VERTEX = "SINGLE_VERTEX"
KIND_HUCK_ROSE_BASE = "HUCK_ROSE_BASE"
KIND_AMALGAM = "AMALGAM"
KIND_QUOTIENT_STEP = "QUOTIENT_STEP"
KIND_UNKNOWN = "UNKNOWN"

AMALGAM_AXIOM = "amalgam_of_locally_indicable_groups_over_infinite_cyclic"
# the UNKNOWN whose evidence records a collapse, which verify-cert re-derives
NO_QUOTIENT_CERTIFICATE = "no_dr2_certificate_for_quotient"
BI_FOREST_SEARCH_FAILED = "bi_forest_search_failed"
BASE_TRIGGER = {"trigger": "no_proper_sub_lot"}  # why a node takes the base case


class LotEdge(NamedTuple):
    id: str
    source: str
    target: str
    label: str


@dataclass(frozen=True)
class Lot:
    vertices: tuple
    edges: tuple

    @property
    def labels(self):
        return [e.label for e in self.edges]

    @cached_property
    def is_injective(self):
        return len(set(self.labels)) == len(self.labels)

    @cached_property
    def is_tree(self):
        """n - 1 edges, none of which closes a cycle."""
        if len(self.edges) != len(self.vertices) - 1:
            return False
        root = {v: v for v in self.vertices}
        for _, a, b, _ in self.edges:
            while root[a] != a:
                a = root[a]
            while root[b] != b:
                b = root[b]
            if a == b:
                return False
            root[a] = b
        return True

    @cached_property
    def complex(self) -> TwoComplex:
        """The presentation complex, built once per LOT."""
        return lot_complex(self)

    @cached_property
    def bi_forest(self):
        """``bi_forest_orientation`` of the LOT, searched once per LOT."""
        return bi_forest_orientation(self)


def build_lot(vertices, edges) -> Lot:
    """The Lot on ``vertices`` and the ``(id, source, target, label)`` edges,
    each name checked."""
    vertex_set = sorted(str(v) for v in vertices)
    for v in vertex_set:
        check_name("vertex", v)
    known = set(vertex_set)
    if len(known) != len(vertex_set):
        raise ComplexError("duplicate vertex id")
    edge_list = []
    for item in edges:
        e = LotEdge(str(item[0]), str(item[1]), str(item[2]), str(item[3]))
        check_name("edge", e.id)
        for v in (e.source, e.target, e.label):
            if v not in known:
                raise ComplexError(f"unknown vertex {v!r} in edge {e.id!r}")
        edge_list.append(e)
    ids = [e.id for e in edge_list]
    if len(set(ids)) != len(ids):
        raise ComplexError("duplicate edge id")
    return Lot(tuple(vertex_set), tuple(edge_list))


def lot_to_jsonable(lot: Lot):
    return {
        "vertices": list(lot.vertices),
        "edges": [[e.id, e.source, e.target, e.label] for e in lot.edges],
    }


def lot_from_jsonable(data) -> Lot:
    return build_lot(_json_list(data["vertices"], "vertices"),
                     [_json_list(e, "an edge", 4) for e in _json_list(data["edges"], "edges")])


def canonical_lot_key(lot: Lot):
    """Isomorphism invariant ``(n, edge_table)``: a canonical labelling by
    individualisation-refinement (McKay & Piperno, "Practical graph
    isomorphism II", 2014), over the LOT as a ternary relation on its
    vertices.

    Vertex colours are refined to an equitable partition; the search then
    individualises each vertex of the first non-singleton cell in turn and
    refines again.  Each discrete leaf is a bijection onto range(n), and the
    key is the least sorted edge table (source, target, label) over the
    leaves, so equal keys mean isomorphic LOTs.  Two leaves with equal
    tables give an automorphism: the search returns to the node where
    their paths part, and skips the children of a node that lie in the
    orbit of an explored child.
    """
    index = {v: i for i, v in enumerate(lot.vertices)}
    n = len(index)
    triples = [(index[e.source], index[e.target], index[e.label]) for e in lot.edges]
    incidences = [[] for _ in range(n)]
    for s, t, lab in triples:
        incidences[s].append((0, t, lab))
        incidences[t].append((1, s, lab))
        incidences[lab].append((2, s, t))

    def refine(colours):
        """Split cells by (role, colour, colour) signatures until the count
        of colours is stable or n; colours become ranks of sorted
        signatures, so cells keep their order and split in place."""
        count = len(set(colours))
        while True:
            signatures = [
                (colours[v], sorted([(role, colours[a], colours[b]) for role, a, b in inc]))
                for v, inc in enumerate(incidences)
            ]
            colours = [0] * n
            distinct, previous = 0, None
            for v in sorted(range(n), key=signatures.__getitem__):
                if signatures[v] != previous:
                    distinct += 1
                    previous = signatures[v]
                colours[v] = distinct - 1
            if distinct in (count, n):
                return colours
            count = distinct

    best = {}
    automorphisms = []

    def explore(colours, path):
        """Search below the node reached by individualising ``path``; return
        the depth to unwind to when a leaf proves the current child of that
        node equivalent to an explored one, else None."""
        depth = len(path)
        if len(set(colours)) == n:
            table = tuple(sorted((colours[s], colours[t], colours[lab]) for s, t, lab in triples))
            if not best or table < best["table"]:
                best.update(table=table, colours=colours, path=path)
                return None
            if table > best["table"]:
                return None
            # the automorphism taking the best leaf to this one maps the
            # best path onto this path, so it fixes their common prefix
            vertex_at = [0] * n
            for v, c in enumerate(colours):
                vertex_at[c] = v
            automorphisms.append([vertex_at[c] for c in best["colours"]])
            common = 0
            while path[common] == best["path"][common]:
                common += 1
            return common
        target = min(c for c, size in Counter(colours).items() if size > 1)
        cell = [v for v in range(n) if colours[v] == target]
        orbits = UnionFind(cell)
        absorbed = 0
        explored = []
        for w in cell:
            for gamma in automorphisms[absorbed:]:
                if all(gamma[v] == v for v in path):
                    for v in cell:
                        orbits.union(v, gamma[v])
            absorbed = len(automorphisms)
            if any(orbits.together(w, x) for x in explored):
                continue
            explored.append(w)
            # w takes the lowest colour of its cell
            individualised = [2 * c + (v != w) for v, c in enumerate(colours)]
            unwind = explore(refine(individualised), path + [w])
            if unwind is not None and unwind < depth:
                return unwind
        return None

    explore(refine([0] * n), [])
    return (n, best["table"])


def lots_isomorphic(a: Lot, b: Lot) -> bool:
    return canonical_lot_key(a) == canonical_lot_key(b)


def lot_complex(lot: Lot) -> TwoComplex:
    """One vertex, one edge per LOT vertex, one square per LOT edge with
    boundary word source label target- label-."""
    cells = []
    for e in lot.edges:
        word = (
            Letter(e.source, 1),
            Letter(e.label, 1),
            Letter(e.target, -1),
            Letter(e.label, -1),
        )
        cells.append((e.id, word))
    return build_complex(
        edges=[(v, BASE_VERTEX, BASE_VERTEX) for v in lot.vertices],
        cells=cells,
        vertices=[BASE_VERTEX],
    )


@dataclass(frozen=True)
class LotProperties:
    boundary_reduced: bool
    interior_reduced: bool
    compressed: bool
    injective: bool
    witnesses: dict = field(default_factory=dict)

    @property
    def reduced(self):
        return self.boundary_reduced and self.interior_reduced and self.compressed

    def to_jsonable(self):
        return {
            "boundary_reduced": self.boundary_reduced,
            "interior_reduced": self.interior_reduced,
            "compressed": self.compressed,
            "injective": self.injective,
            "reduced": self.reduced,
            "witnesses": self.witnesses,
        }


def check_properties(lot: Lot) -> LotProperties:
    witnesses = {}

    bad_boundary = list(_boundary_vertices(lot))
    if bad_boundary:
        witnesses["boundary"] = bad_boundary

    interior = [
        {"vertex": v, "side": side, "label": e.label, "edges": [first.id, e.id]}
        for v, side, first, e in _interior_pairs(lot)
    ]
    if interior:
        witnesses["interior"] = interior

    uncompressed = [e.id for e in _uncompressed_edges(lot)]
    if uncompressed:
        witnesses["compressed"] = uncompressed

    collisions = {}
    for e in lot.edges:
        collisions.setdefault(e.label, []).append(e.id)
    non_injective = {lab: ids for lab, ids in collisions.items() if len(ids) > 1}
    if non_injective:
        witnesses["injective"] = non_injective

    return LotProperties(
        boundary_reduced=not bad_boundary,
        interior_reduced=not interior,
        compressed=not uncompressed,
        injective=not non_injective,
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# reduction moves


def _rename_vertex(lot: Lot, old, new) -> Lot:
    def sub(v):
        return new if v == old else v

    vertices = tuple(sorted(set(sub(v) for v in lot.vertices)))
    edges = tuple(LotEdge(e.id, sub(e.source), sub(e.target), sub(e.label)) for e in lot.edges)
    return Lot(vertices, edges)


def _drop_edge(lot: Lot, eid, drop_vertex=None) -> Lot:
    edges = tuple(e for e in lot.edges if e.id != eid)
    vertices = lot.vertices
    if drop_vertex is not None:
        vertices = tuple(v for v in vertices if v != drop_vertex)
    return Lot(vertices, edges)


# Each reduction rule lists the places it applies, in a fixed order:
# check_properties reports all of them, the reduction takes the first.


def _uncompressed_edges(lot: Lot):
    """Edges labeled by one of their own ends; compression contracts them."""
    return (e for e in lot.edges if e.label == e.source or e.label == e.target)


def _interior_pairs(lot: Lot):
    """(vertex, side, first edge, later edge) for each edge that meets a
    vertex on the same side as an earlier edge with the same label; an
    interior reduction folds the later edge onto the first."""
    for v in lot.vertices:
        for side in ("source", "target"):
            seen = {}
            for e in lot.edges:
                if getattr(e, side) == v:
                    if e.label in seen:
                        yield v, side, seen[e.label], e
                    else:
                        seen[e.label] = e


def _boundary_vertices(lot: Lot):
    """Leaves that label no edge; a boundary reduction deletes them."""
    degree = Counter(v for e in lot.edges for v in (e.source, e.target))
    labels = set(lot.labels)
    return (v for v in lot.vertices if degree[v] == 1 and v not in labels)


def _find_compression(lot: Lot):
    e = next(_uncompressed_edges(lot), None)
    if e is None:
        return None
    merged, into = (e.target, e.source) if e.label == e.source else (e.source, e.target)
    return {"move": "compression", "edge": e.id, "merged": merged, "into": into}


def _find_interior(lot: Lot):
    hit = next(_interior_pairs(lot), None)
    if hit is None:
        return None
    _, side, first, e = hit
    other = "target" if side == "source" else "source"
    return {
        "move": "interior",
        "kept_edge": first.id,
        "removed_edge": e.id,
        "merged": getattr(e, other),
        "into": getattr(first, other),
        "side": side,
    }


def _find_boundary(lot: Lot):
    v = next(_boundary_vertices(lot), None)
    if v is None:
        return None
    e = next(e for e in lot.edges if v in (e.source, e.target))
    return {"move": "boundary", "edge": e.id, "vertex": v}


def apply_move(lot: Lot, move) -> Lot:
    kind = move["move"]
    if kind in ("compression", "interior"):
        lot = _drop_edge(lot, move["edge" if kind == "compression" else "removed_edge"])
        if move["merged"] != move["into"]:
            lot = _rename_vertex(lot, move["merged"], move["into"])
        return lot
    if kind == "boundary":
        return _drop_edge(lot, move["edge"], drop_vertex=move["vertex"])
    raise ComplexError(f"unknown reduction move {kind!r}")


def reduce_lot_with_log(lot: Lot):
    """Reduce to a fixed point, applying compressions, then interior
    reductions, then boundary reductions, and repeating.  The move order is
    fixed so reductions are reproducible; each move is logged."""
    if not lot.is_tree:
        raise NotATree("reduction is only defined for LOTs here")
    log = []
    while True:
        move = _find_compression(lot) or _find_interior(lot) or _find_boundary(lot)
        if move is None:
            break
        lot = apply_move(lot, move)
        log.append(move)
    return lot, tuple(log)


def reduce_lot(lot: Lot) -> Lot:
    return reduce_lot_with_log(lot)[0]


def replay_reduction(lot: Lot, log) -> Lot:
    for move in log:
        lot = apply_move(lot, move)
    return lot


# ---------------------------------------------------------------------------
# sub-LOTs and quotients


def _spanned_lot(edges) -> Lot:
    """The LOT on ``edges`` and the vertices they span."""
    return Lot(tuple(sorted({v for e in edges for v in (e.source, e.target)})), tuple(edges))


def enumerate_sub_lots(lot: Lot):
    """All sub-LOTs as (sub_lot, is_proper) pairs.

    A sub-LOT is a subtree with a nonempty edge set whose edge labels lie
    among its own vertices.  Listed from the whole tree down through the
    ``_DropTable``, at most m component splits per sub-LOT listed.
    """
    if not lot.is_tree:
        raise NotATree("sub-LOT enumeration requires a tree")
    table = _DropTable(lot)
    found = dict.fromkeys([table.whole] if lot.edges else [])
    pending = list(found)
    for mask in pending:  # grows as sub-LOTs are found
        for part in table.below(mask):
            if part not in found:
                found[part] = None
                pending.append(part)
    out = [(_spanned_lot(table.edges_of(mask)), mask != table.whole) for mask in found]
    out.sort(key=lambda pair: (len(pair[0].edges), pair[0].vertices,
                               tuple(e.id for e in pair[0].edges)))
    return out


class _DropTable:
    """The sub-LOTs of a tree ``lot`` on edge bitmasks, edge i of ``lot.edges``
    as bit i.

    An edge survives in a sub-forest only while every edge on the tree path
    from its source to its label survives, so ``reach[i]`` is the set of
    edges that fall when edge i is dropped: edge i, and closed under that
    rule.  A sub-LOT's label paths stay inside it, so the largest sub-LOTs
    of a sub-LOT S less edge i are the components of ``S & ~reach[i]``."""

    def __init__(self, lot: Lot):
        self.edges = lot.edges
        m = len(lot.edges)
        self.whole = (1 << m) - 1
        touching = {v: 0 for v in lot.vertices}  # vertex -> its edges
        neighbours = {v: [] for v in lot.vertices}
        for i, e in enumerate(lot.edges):
            touching[e.source] |= 1 << i
            touching[e.target] |= 1 << i
            neighbours[e.source].append((e.target, i))
            neighbours[e.target].append((e.source, i))
        self.adjacent = [touching[e.source] | touching[e.target] for e in lot.edges]
        # up[v]: the edges from v to the first vertex; a tree path is the
        # symmetric difference of its ends' paths up
        up = {lot.vertices[0]: 0}
        stack = [lot.vertices[0]]
        while stack:
            v = stack.pop()
            for w, i in neighbours[v]:
                if w not in up:
                    up[w] = up[v] | 1 << i
                    stack.append(w)
        reach = [1 << i for i in range(m)]
        for i, e in enumerate(lot.edges):
            # a label off the tree is in no sub-forest with the edge
            path = up[e.source] ^ up[e.label] if e.label in up else self.whole
            for j in _bits(path):
                reach[j] |= 1 << i
        for k in range(m):  # transitive closure, Warshall's order
            bit, through = 1 << k, reach[k]
            reach = [r | through if r & bit else r for r in reach]
        self.reach = reach

    def edges_of(self, mask):
        """The edges of ``mask`` in LOT order."""
        return tuple(self.edges[i] for i in _bits(mask))

    def below(self, mask):
        """The largest sub-LOTs in the sub-LOT ``mask`` less one edge, over each
        edge, as the keys of a dict in the order found; a proper sub-LOT
        avoids an edge, so lies in one."""
        found = {}
        for i in _bits(mask):
            found.update(dict.fromkeys(_edge_components(mask & ~self.reach[i], self.adjacent)))
        return found


def _bits(mask):
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _edge_components(mask, adjacent):
    """The connected components of the edges in ``mask``, as masks ordered by
    their lowest edge; ``adjacent[i]`` holds the edges that share an end with
    edge i."""
    parts = []
    while mask:
        part = todo = mask & -mask
        while todo:
            low = todo & -todo
            todo ^= low
            new = adjacent[low.bit_length() - 1] & mask & ~part
            part |= new
            todo |= new
        parts.append(part)
        mask &= ~part
    return parts


def maximal_proper_sub_lot(lot: Lot):
    """A maximal proper sub-LOT, ties broken by the smallest vertex tuple;
    None when there is no proper sub-LOT.

    The maximal ones among the ``_DropTable`` sub-LOTs below the whole tree;
    edges in LOT order, as in ``enumerate_sub_lots``.
    """
    if not lot.is_tree:
        raise NotATree("sub-LOT search requires a tree")
    table = _DropTable(lot)
    found = table.below(table.whole)
    maximal = [_spanned_lot(table.edges_of(mask)) for mask in found
               if not any(mask & other == mask != other for other in found)]
    return min(maximal, key=lambda sub: sub.vertices, default=None)


def boundary_reducible_sub_lots(lot: Lot):
    """Sub-LOTs that are not boundary reduced (the stronger base-case check)."""
    return [sub for sub, _ in enumerate_sub_lots(lot)
            if next(_boundary_vertices(sub), None) is not None]


def collapse_vertex(sub: Lot):
    """The vertex of a sub-LOT that does not occur as one of its edge labels."""
    unused = [v for v in sub.vertices if v not in set(sub.labels)]
    if len(unused) != 1:
        raise AmbiguousCollapseVertex(
            f"sub-LOT has {len(unused)} non-label vertices, need exactly 1"
        )
    return unused[0]


def _validate_sub_lot(lot: Lot, sub: Lot):
    own = {e.id: e for e in lot.edges}
    if not sub.edges:
        raise NotSubLot("a sub-LOT needs a nonempty edge set")
    for e in sub.edges:
        if own.get(e.id) != e:
            raise NotSubLot(f"edge {e.id!r} is not an edge of the ambient LOT")
    spanned = {v for e in sub.edges for v in (e.source, e.target)}
    if set(sub.vertices) != spanned:
        raise NotSubLot("sub-LOT vertex set must be spanned by its edges")
    if not sub.is_tree:
        raise NotSubLot("sub-LOT must be a tree")
    if any(e.label not in spanned for e in sub.edges):
        raise NotSubLot("sub-LOT labels must lie among its vertices")


def quotient(lot: Lot, sub: Lot):
    """Collapse a sub-LOT to its non-label vertex y; returns (quotient, y).

    The ambient LOT must be injective, which forces edges outside the
    sub-LOT to keep their labels after the collapse.
    """
    if not lot.is_injective:
        raise NotInjective("quotients are taken of injective LOTs")
    _validate_sub_lot(lot, sub)
    y = collapse_vertex(sub)
    inside = set(sub.vertices)
    sub_ids = {e.id for e in sub.edges}

    def collapse(v):
        return y if v in inside else v

    edges = []
    for e in lot.edges:
        if e.id in sub_ids:
            continue
        if e.label in inside and e.label != y:
            raise InvariantViolation(
                f"outside edge {e.id!r} labeled by a collapsed vertex {e.label!r}"
            )
        edges.append(LotEdge(e.id, collapse(e.source), collapse(e.target), collapse(e.label)))
    vertices = tuple(sorted(set(v for v in lot.vertices if v not in inside) | {y}))
    out = Lot(vertices, tuple(edges))
    if not out.is_tree:
        raise InvariantViolation("quotient of a LOT by a sub-LOT must be a tree")
    return out, y


# ---------------------------------------------------------------------------
# bi-forest structure


@dataclass(frozen=True)
class BiForestStructure:
    epsilon: dict  # generator -> +1 / -1
    lambda1_nodes: tuple
    lambda2_nodes: tuple
    lambda1_corners: tuple  # corner keys
    lambda2_corners: tuple
    assignment: ZeroOneAssignment
    # each link node position's component number in the two forests,
    # numbered by least position; the ZERO_ONE certificate is written from it
    components: list = field(default=None, compare=False, repr=False)

    def to_jsonable(self, zero_one=None):
        """The JSON; ``zero_one`` is its angles' rows, when written already."""
        return {
            "epsilon": {g: ("+" if s > 0 else "-") for g, s in sorted(self.epsilon.items())},
            "lambda1_nodes": [str(n) for n in self.lambda1_nodes],
            "lambda2_nodes": [str(n) for n in self.lambda2_nodes],
            "lambda1_corners": [list(k) for k in self.lambda1_corners],
            "lambda2_corners": [list(k) for k in self.lambda2_corners],
            "zero_one": self.assignment.to_jsonable() if zero_one is None else zero_one,
        }


def _bi_forest_of(link, epsilon):
    """The bi-forest structure of the signs ``epsilon`` (generator -> +1 or -1)
    on the LOT link ``link``, or None at the first angle-0 corner that closes
    a cycle; the one writer of a ``BiForestStructure``.

    A node (x, end) lies in side 1 when epsilon[x] == end and in side 2
    otherwise.  A corner with both ends in one side gets angle 0, any other
    corner angle 1.  Angle-0 corners never join the two sides, so one
    union-find over all of them is a forest exactly when both sides are."""
    side = [epsilon[n.edge] * n.end for n in link.nodes]
    uf = UnionFind(range(len(link.nodes)))
    zeros = {1: [], -1: []}
    table = {}
    for key, (a, b) in zip(link.keys, link.ends):
        if side[a] != side[b]:
            table[key] = 1
        elif uf.union(a, b):
            table[key] = 0
            zeros[side[a]].append(key)
        else:
            return None
    return BiForestStructure(
        epsilon=dict(epsilon),
        lambda1_nodes=tuple(n for n, s in zip(link.nodes, side) if s > 0),
        lambda2_nodes=tuple(n for n, s in zip(link.nodes, side) if s < 0),
        lambda1_corners=tuple(zeros[1]),
        lambda2_corners=tuple(zeros[-1]),
        assignment=ZeroOneAssignment._of_table(table),
        components=uf.numbering(range(len(link.nodes))),
    )


def _bi_forest(link, generators, signs):
    """First bi-forest structure with epsilon[generators[i]] from ``signs[i]``,
    or None: ``first_acyclic_choices`` finds the signs, and ``_bi_forest_of``
    writes their structure."""
    position = {g: i for i, g in enumerate(generators)}
    generator = [position[n.edge] for n in link.nodes]  # of each node position
    ready = [[] for _ in generators]  # corners by the later of their generators
    for a, b in link.ends:
        i, j = generator[a], generator[b]
        if i > j:
            i, j = j, i
        # angle 0 when the sign of node a's generator times a's end equals
        # that of b, which the signs of the corner's two generators decide
        ready[j].append((i, link.nodes[a].end * link.nodes[b].end, (a, b, 1 << i | 1 << j)))
    uf = UnionFind(range(len(link.nodes)))

    def options(level, chosen):
        for sign in signs[level]:
            yield sign, uf, (pair for i, parity, pair in ready[level]
                             if chosen[i] * parity == sign)

    found = first_acyclic_choices(len(generators), options, lambda chosen: True)
    return None if found is None else _bi_forest_of(link, dict(zip(generators, found)))


def bi_forest_orientation(lot: Lot):
    """First orientation choice (lexicographic over sorted generators, ``+``
    before ``-``) whose two spanned link subgraphs are both forests, or None.
    ``Lot.bi_forest`` keeps it, so ``analyze`` and the decision share it.

    Found by ``_bi_forest``, which prunes each sign prefix whose angle-0 corners
    close a cycle and backjumps to the latest generator such a cycle depends on;
    -epsilon has epsilon's angle-0 corners, so the first sign is ``+``.
    """
    generators = list(lot.vertices)
    caps.refuse_above(len(generators), "generators", "bi-forest", caps.BI_FOREST_CAP)
    # as check_properties decides it: an injective LOT has no interior pair
    if not (lot.is_injective and next(_uncompressed_edges(lot), None) is None
            and next(_boundary_vertices(lot), None) is None):
        warnings.warn("bi-forest search on a LOT that is not reduced injective", stacklevel=2)
    link = lot.complex.links[BASE_VERTEX]
    return _bi_forest(link, generators, [(1,)] + [(1, -1)] * (len(generators) - 1))


# ---------------------------------------------------------------------------
# the decision procedure


@dataclass(frozen=True)
class LiCertificateTree:
    kind: str
    lot: Lot
    evidence: dict
    children: tuple = ()
    conclusion: dict = field(default_factory=dict)

    @property
    def certified(self):
        return self.conclusion.get("locally_indicable") == "certified"

    def to_jsonable(self):
        return {
            "format": LI_FORMAT,
            "kind": self.kind,
            "lot": lot_to_jsonable(self.lot),
            "evidence": self.evidence,
            "children": [child.to_jsonable() for child in self.children],
            "conclusion": dict(self.conclusion),
        }

    @classmethod
    def from_jsonable(cls, data):
        require_format(data, LI_FORMAT)
        return cls(
            kind=data["kind"],
            lot=lot_from_jsonable(data["lot"]),
            evidence=data["evidence"],
            children=tuple(cls.from_jsonable(c) for c in _json_list(data["children"], "children")),
            conclusion=data["conclusion"],
        )


def _node(kind, lot, evidence, children=()):
    """A certificate node: certified exactly when every child is, and never
    when it is UNKNOWN."""
    certified = kind != KIND_UNKNOWN and all(child.certified for child in children)
    return LiCertificateTree(kind, lot, evidence, tuple(children),
                             {"locally_indicable": "certified" if certified else "unknown"})


def _unknown(lot, reason, evidence, children=()):
    return _node(KIND_UNKNOWN, lot, {"reason": reason, **evidence}, children)


def _dr2_certificate(lot: Lot):
    """The first DR(2) certificate of the LOT complex along ``dr2_routes``,
    or None; the zero/one route writes the certificate of the angles of the
    LOT's bi-forest from its components when it has one.  Its two disjoint
    forests guarantee the coloring test and the per-edge component
    condition, so a failure of that route is an invariant violation.  A later
    route runs only when every earlier one fails."""
    angles = components = None
    structure = lot.bi_forest
    if structure is not None:
        angles, components = structure.assignment, structure.components
    for method, check, args in dr2_routes(lot.complex, angles=angles, components=components):
        outcome = check(*args)
        if outcome.ok:
            return outcome.certificate
        if method == METHOD_ZERO_ONE:
            raise InvariantViolation(
                f"bi-forest structure failed the zero/one criterion: {outcome.witness}"
            )
    return None


# The evidence of each node kind is laid out by one builder, from the choice
# the node records; ``_decide`` writes it and ``_rebuild`` checks against it.
def _single_vertex_evidence(lot: Lot):
    return {"vertex": lot.vertices[0], "group": "Z"}


def _base_evidence(structure, zero_one, certificate):
    """HUCK_ROSE_BASE evidence for the bi-forest ``structure``, ``zero_one``
    the JSON rows of its angles, and the JSON ``certificate`` of DR(2) for the
    LOT complex."""
    return {**BASE_TRIGGER, **structure.to_jsonable(zero_one), "dr2_certificate": certificate}


def _collapse_evidence(lot: Lot, sub: Lot):
    """The evidence of collapsing the sub-LOT ``sub`` of ``lot``, less any DR(2)
    certificate, and the quotient."""
    quotient_lot, y = quotient(lot, sub)
    return {"sub_lot": lot_to_jsonable(sub), "quotient": lot_to_jsonable(quotient_lot),
            "collapsed_vertex": y}, quotient_lot


def _amalgam_evidence(lot: Lot, sub: Lot):
    """AMALGAM evidence for splitting ``lot`` along its sub-LOT ``sub``, and
    the outside part: a sub-LOT that meets ``sub`` in the single attachment
    vertex, isomorphic to the quotient (rename the attachment vertex to y).
    A sub-LOT that gives no such split is an invariant violation."""
    _validate_sub_lot(lot, sub)
    inside = set(sub.vertices)
    sub_ids = {e.id for e in sub.edges}
    outside = [e for e in lot.edges if e.id not in sub_ids]
    incidences = [v for e in outside for v in (e.source, e.target) if v in inside]
    if len(incidences) != 1:
        raise InvariantViolation(
            "amalgam split expects exactly one edge incidence on the sub-LOT, "
            f"found {len(incidences)}"
        )
    part2 = _spanned_lot(outside)
    try:
        _validate_sub_lot(lot, part2)
    except NotSubLot as exc:
        raise InvariantViolation(f"outside part is not a sub-LOT: {exc}") from exc
    evidence = {
        "part1": lot_to_jsonable(sub),
        "part2": lot_to_jsonable(part2),
        "intersection_vertex": incidences[0],
        "collapsed_vertex": collapse_vertex(sub),
        "axiom": AMALGAM_AXIOM,
    }
    return evidence, part2


def _decide(lot: Lot) -> LiCertificateTree:
    # lot is reduced and injective here
    if len(lot.vertices) == 1:
        return _node(KIND_SINGLE_VERTEX, lot, _single_vertex_evidence(lot))

    sub = maximal_proper_sub_lot(lot)
    if sub is None:
        if lot.bi_forest is None:
            return _unknown(lot, BI_FOREST_SEARCH_FAILED, BASE_TRIGGER)
        certificate = _dr2_certificate(lot).to_jsonable()
        # its ZERO_ONE angles are the structure's: the rows, each copied, are zero_one
        rows = [dict(row) for row in certificate["hypotheses"]["angles"]]
        return _node(KIND_HUCK_ROSE_BASE, lot, _base_evidence(lot.bi_forest, rows, certificate))

    evidence, quotient_lot = _collapse_evidence(lot, sub)
    qprops = check_properties(quotient_lot)
    if not (qprops.injective and qprops.compressed and qprops.interior_reduced):
        raise InvariantViolation(
            "quotient by a maximal proper sub-LOT must be injective, compressed, "
            f"and interior reduced; witnesses: {qprops.witnesses}"
        )

    if not qprops.boundary_reduced:
        evidence, part2 = _amalgam_evidence(lot, sub)
        children = (_decide(reduce_lot(sub)), _decide(reduce_lot(part2)))
        return _node(KIND_AMALGAM, lot, evidence, children)

    dr2_cert = _dr2_certificate(quotient_lot)
    child = _decide(reduce_lot(sub))
    if dr2_cert is None:
        return _unknown(lot, NO_QUOTIENT_CERTIFICATE, evidence, (child,))
    evidence["dr2_certificate"] = dr2_cert.to_jsonable()
    return _node(KIND_QUOTIENT_STEP, lot, evidence, (child,))


def decide_locally_indicable(lot: Lot) -> LiCertificateTree:
    """Recursive decision procedure emitting a certificate tree.

    Base cases: a single vertex (infinite cyclic group), or no proper
    sub-LOT handled by the bi-forest structure.  Otherwise collapse a
    maximal proper sub-LOT; a non boundary-reduced quotient yields an
    amalgam split, a reduced one a quotient step needing a DR(2)
    certificate for the quotient complex.  Unmet hypotheses end in UNKNOWN,
    never in a negative claim.
    """
    if not lot.is_injective:
        raise NotInjective("the decision procedure requires an injective LOT")
    if not lot.is_tree:
        raise NotATree("the decision procedure requires a LOT")
    return _decide(reduce_lot(lot))


# ---------------------------------------------------------------------------
# certificate tree verification


def _verify_node(tree: LiCertificateTree, problems, path):
    """Report each field of the node that disagrees with the node ``_rebuild``
    makes from its recorded choice: evidence, children's LOTs, conclusion."""
    where = "/".join(path) or "root"
    try:
        rebuilt, child_lots = _rebuild(tree)
        if tuple(child.lot for child in tree.children) != child_lots:
            problems.append(f"{where}: child LOTs disagree with recomputation")
        for recorded, fresh in ((tree.evidence, rebuilt.evidence),
                                (tree.conclusion, rebuilt.conclusion)):
            problems += (f"{where}: {message}"
                         for message in field_disagreements(recorded, fresh))
    except CertificateRefused as exc:
        problems.append(f"{where}: {exc}")
    except (DrtoolError, *_WRONG_SHAPE) as exc:
        problems.append(f"{where}: evidence does not re-check: {type(exc).__name__}: {exc}")

    for i, child in enumerate(tree.children):
        _verify_node(child, problems, path + [f"{str(tree.kind).lower()}[{i}]"])


def _rebuild(tree: LiCertificateTree):
    """The node ``_decide`` writes for the kind and recorded choice of ``tree``
    over its recorded children, and the LOTs those children must have; a
    choice that builds no such node raises CertificateRefused.  Only the
    maximal sub-LOT trigger searches again: ``_bi_forest_of`` writes the
    bi-forest of the recorded signs, and ``rerun_dr2`` rebuilds an embedded
    DR(2) certificate on the complex it must be about."""
    lot, evidence = tree.lot, tree.evidence
    if not lot.is_tree:
        raise CertificateRefused("node LOT is not a tree")
    reason = evidence["reason"] if tree.kind == KIND_UNKNOWN else None
    if tree.kind == KIND_SINGLE_VERTEX:
        if len(lot.vertices) != 1:
            raise CertificateRefused("SINGLE_VERTEX node on a LOT that is not a single vertex")
        return _node(tree.kind, lot, _single_vertex_evidence(lot), tree.children), ()
    if tree.kind == KIND_HUCK_ROSE_BASE or reason == BI_FOREST_SEARCH_FAILED:
        if maximal_proper_sub_lot(lot) is not None:
            raise CertificateRefused(f"{tree.kind} trigger violated: a proper sub-LOT exists")
        if reason is not None:
            return _unknown(lot, reason, BASE_TRIGGER, tree.children), ()
        signs = [evidence["epsilon"][g] for g in lot.vertices]
        if len(evidence["epsilon"]) != len(signs) or any(s not in ("+", "-") for s in signs):
            raise ValueError("recorded orientation must map exactly the LOT's vertices to + or -")
        structure = _bi_forest_of(lot.complex.links[BASE_VERTEX],
                                  {g: 1 if s == "+" else -1 for g, s in zip(lot.vertices, signs)})
        if structure is None:
            raise CertificateRefused("recorded orientation does not give two forests")
        recorded = evidence["dr2_certificate"]
        fresh = rerun_dr2(lot.complex, recorded["method"], recorded["hypotheses"]).to_jsonable()
        rebuilt = _base_evidence(structure, structure.assignment.to_jsonable(), fresh)
        return _node(tree.kind, lot, rebuilt, tree.children), ()
    if tree.kind == KIND_AMALGAM:
        sub = lot_from_jsonable(evidence["part1"])
        try:
            rebuilt, part2 = _amalgam_evidence(lot, sub)
        except InvariantViolation as exc:  # of a forged part1, not of this code
            raise CertificateRefused(f"recorded part1 gives no amalgam split: {exc}") from exc
        return (_node(tree.kind, lot, rebuilt, tree.children),
                (reduce_lot(sub), reduce_lot(part2)))
    if tree.kind == KIND_QUOTIENT_STEP or reason == NO_QUOTIENT_CERTIFICATE:
        sub = lot_from_jsonable(evidence["sub_lot"])
        rebuilt, qlot = _collapse_evidence(lot, sub)
        if reason is not None:
            return _unknown(lot, reason, rebuilt, tree.children), (reduce_lot(sub),)
        recorded = evidence["dr2_certificate"]
        fresh = rerun_dr2(qlot.complex, recorded["method"], recorded["hypotheses"])
        rebuilt["dr2_certificate"] = fresh.to_jsonable()
        return _node(tree.kind, lot, rebuilt, tree.children), (reduce_lot(sub),)
    raise CertificateRefused(f"unknown node kind {tree.kind!r}" if reason is None
                             else f"unknown UNKNOWN reason {reason!r}")


def verify_li_tree(tree: LiCertificateTree):
    """Re-check every node of a certificate tree; returns (ok, problems).

    Evidence that is missing, of the wrong type or that the re-derivation
    refuses (a forged sub-LOT, say) is a problem at its node's path."""
    problems = []
    _verify_node(tree, problems, [])
    return (not problems), problems
