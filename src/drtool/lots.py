"""Labeled oriented trees: presentation complexes, reductions, sub-LOTs,
quotients, the bi-forest angle structure, and the recursive local
indicability decision procedure.

A LOT on vertex set V with edges e = (source, target, label) presents the
group <V | source(e) label(e) = label(e) target(e)>.  Its presentation
complex has one vertex, one edge per LOT vertex, and one square per LOT
edge.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from . import caps
from .certificates import (
    Dr2Certificate,
    check_dr2_c4t4,
    check_dr2_zero_one,
    verify_dr2_certificate,
)
from .complexes import Letter, TwoComplex, build_complex
from .curvature import ZeroOneAssignment
from .errors import (
    AmbiguousCollapseVertex,
    ComplexError,
    GeneratorCountExceedsSearchCap,
    InvariantViolation,
    NotATree,
    NotInjective,
    NotSubLot,
)
from .unionfind import UnionFind

BASE_VERTEX = "*"

KIND_SINGLE_VERTEX = "SINGLE_VERTEX"
KIND_HUCK_ROSE_BASE = "HUCK_ROSE_BASE"
KIND_AMALGAM = "AMALGAM"
KIND_QUOTIENT_STEP = "QUOTIENT_STEP"
KIND_UNKNOWN = "UNKNOWN"

AMALGAM_AXIOM = "amalgam_of_locally_indicable_groups_over_infinite_cyclic"


class LotEdge(NamedTuple):
    id: str
    source: str
    target: str
    label: str


@dataclass(frozen=True)
class Lot:
    vertices: tuple
    edges: tuple

    def degree(self, v):
        return sum(1 for e in self.edges if e.source == v) + sum(
            1 for e in self.edges if e.target == v
        )

    @property
    def labels(self):
        return [e.label for e in self.edges]

    @property
    def is_injective(self):
        return len(set(self.labels)) == len(self.labels)

    @property
    def is_tree(self):
        if len(self.edges) != len(self.vertices) - 1:
            return False
        uf = UnionFind(self.vertices)
        for e in self.edges:
            uf.union(e.source, e.target)
        return uf.count == 1

    @cached_property
    def complex(self) -> TwoComplex:
        """The presentation complex, built once per LOT."""
        return lot_complex(self)


def build_lot(vertices, edges) -> Lot:
    vertex_set = sorted(str(v) for v in vertices)
    if len(set(vertex_set)) != len(vertex_set):
        raise ComplexError("duplicate vertex id")
    edge_list = []
    for item in edges:
        e = LotEdge(str(item[0]), str(item[1]), str(item[2]), str(item[3]))
        for v in (e.source, e.target, e.label):
            if v not in vertex_set:
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
    return build_lot(data["vertices"], [tuple(e) for e in data["edges"]])


def canonical_lot_key(lot: Lot):
    """Isomorphism invariant: the least edge table over all vertex bijections.

    Exhaustive over permutations, intended for the small LOTs handled here.
    """
    n = len(lot.vertices)
    best = None
    for perm in itertools.permutations(range(n)):
        relabel = {v: perm[i] for i, v in enumerate(lot.vertices)}
        table = tuple(sorted((relabel[e.source], relabel[e.target], relabel[e.label]) for e in lot.edges))
        if best is None or table < best:
            best = table
    return (n, best)


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
    label_set = set(lot.labels)

    bad_boundary = [
        v for v in lot.vertices if lot.degree(v) == 1 and v not in label_set
    ]
    if bad_boundary:
        witnesses["boundary"] = bad_boundary

    interior = []
    for v in lot.vertices:
        for side in ("source", "target"):
            seen = {}
            for e in lot.edges:
                if getattr(e, side) == v:
                    if e.label in seen:
                        interior.append(
                            {"vertex": v, "side": side, "label": e.label,
                             "edges": [seen[e.label], e.id]}
                        )
                    else:
                        seen[e.label] = e.id
    if interior:
        witnesses["interior"] = interior

    uncompressed = [e.id for e in lot.edges if e.label in (e.source, e.target)]
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


def _find_compression(lot: Lot):
    for e in lot.edges:
        if e.label == e.source:
            return {"move": "compression", "edge": e.id, "merged": e.target, "into": e.source}
        if e.label == e.target:
            return {"move": "compression", "edge": e.id, "merged": e.source, "into": e.target}
    return None


def _find_interior(lot: Lot):
    for v in lot.vertices:
        for side, other in (("source", "target"), ("target", "source")):
            seen = {}
            for e in lot.edges:
                if getattr(e, side) == v:
                    if e.label in seen:
                        first = seen[e.label]
                        return {
                            "move": "interior",
                            "kept_edge": first.id,
                            "removed_edge": e.id,
                            "merged": getattr(e, other),
                            "into": getattr(first, other),
                            "side": side,
                        }
                    seen[e.label] = e
    return None


def _find_boundary(lot: Lot):
    label_set = set(lot.labels)
    for v in lot.vertices:
        if lot.degree(v) == 1 and v not in label_set:
            e = next(e for e in lot.edges if v in (e.source, e.target))
            return {"move": "boundary", "edge": e.id, "vertex": v}
    return None


def apply_move(lot: Lot, move) -> Lot:
    kind = move["move"]
    if kind == "compression":
        lot = _drop_edge(lot, move["edge"])
        if move["merged"] != move["into"]:
            lot = _rename_vertex(lot, move["merged"], move["into"])
        return lot
    if kind == "interior":
        lot = _drop_edge(lot, move["removed_edge"])
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
        move = _find_compression(lot)
        if move is None:
            move = _find_interior(lot)
        if move is None:
            move = _find_boundary(lot)
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


def enumerate_sub_lots(lot: Lot):
    """All sub-LOTs as (sub_lot, is_proper) pairs.

    A sub-LOT is a subtree with a nonempty edge set whose edge labels lie
    among its own vertices.  Exhaustive over edge subsets.
    """
    if not lot.is_tree:
        raise NotATree("sub-LOT enumeration requires a tree")
    out = []
    m = len(lot.edges)
    for mask in range(1, 1 << m):
        chosen = [lot.edges[i] for i in range(m) if mask >> i & 1]
        spanned = sorted({v for e in chosen for v in (e.source, e.target)})
        # edges of a tree never close a cycle, so they span one subtree
        # exactly when they number one fewer than their vertices
        if len(chosen) != len(spanned) - 1:
            continue
        if any(e.label not in spanned for e in chosen):
            continue
        sub = Lot(tuple(spanned), tuple(chosen))
        out.append((sub, len(chosen) != m))
    out.sort(key=lambda pair: (len(pair[0].edges), pair[0].vertices,
                               tuple(e.id for e in pair[0].edges)))
    return out


def maximal_proper_sub_lot(lot: Lot):
    """A maximal proper sub-LOT, ties broken by the smallest vertex tuple;
    None when there is no proper sub-LOT."""
    proper = [(sub, frozenset(e.id for e in sub.edges))
              for sub, is_proper in enumerate_sub_lots(lot) if is_proper]
    return min(
        (sub for sub, ids in proper if not any(ids < other for _, other in proper)),
        key=lambda sub: sub.vertices,
        default=None,
    )


def boundary_reducible_sub_lots(lot: Lot):
    """Sub-LOTs that are not boundary reduced (the stronger base-case check)."""
    out = []
    for sub, _ in enumerate_sub_lots(lot):
        if not check_properties(sub).boundary_reduced:
            out.append(sub)
    return out


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

    def to_jsonable(self):
        return {
            "epsilon": {g: ("+" if s > 0 else "-") for g, s in sorted(self.epsilon.items())},
            "lambda1_nodes": [str(n) for n in self.lambda1_nodes],
            "lambda2_nodes": [str(n) for n in self.lambda2_nodes],
            "lambda1_corners": [list(k) for k in self.lambda1_corners],
            "lambda2_corners": [list(k) for k in self.lambda2_corners],
            "zero_one": self.assignment.to_jsonable(),
        }


def _bi_forest(link, epsilon):
    """The bi-forest structure of the orientation choice ``epsilon`` on the
    link, or None when one of its two sides is not a forest.

    A node (x, end) lies in side 1 when epsilon[x] == end and in side 2
    otherwise.  A corner with both ends in one side gets angle 0, any other
    corner angle 1.  Angle-0 corners never join the two sides, so one
    union-find over all of them is a forest exactly when both sides are."""
    side = {n: epsilon[n.edge] * n.end for n in link.nodes}
    uf = UnionFind(link.nodes)
    zeros = {1: [], -1: []}
    table = {}
    for c in link.corners:
        a, b = c.nodes
        if side[a] != side[b]:
            table[c.key] = 1
        elif uf.union(a, b):
            table[c.key] = 0
            zeros[side[a]].append(c.key)
        else:
            return None
    return BiForestStructure(
        epsilon=epsilon,
        lambda1_nodes=tuple(n for n in link.nodes if side[n] > 0),
        lambda2_nodes=tuple(n for n in link.nodes if side[n] < 0),
        lambda1_corners=tuple(zeros[1]),
        lambda2_corners=tuple(zeros[-1]),
        assignment=ZeroOneAssignment(table),
    )


def bi_forest_orientation(lot: Lot, cap=None):
    """First orientation choice (lexicographic over sorted generators, ``+``
    before ``-``) whose two spanned link subgraphs are both forests, or None.

    Exhaustive over the 2^n sign choices with union-find forest checks.
    """
    if cap is None:
        cap = caps.search_cap(caps.BI_FOREST_CAP)
    props = check_properties(lot)
    if not (props.reduced and props.injective):
        warnings.warn("bi-forest search on a LOT that is not reduced injective", stacklevel=2)
    generators = list(lot.vertices)
    if len(generators) > cap:
        raise GeneratorCountExceedsSearchCap(
            f"{len(generators)} generators exceeds the bi-forest search cap {cap}"
        )
    link = lot.complex.links[BASE_VERTEX]
    for signs in itertools.product((1, -1), repeat=len(generators)):
        structure = _bi_forest(link, dict(zip(generators, signs)))
        if structure is not None:
            return structure
    return None


def _zero_one_certificate(lot: Lot, structure: BiForestStructure) -> Dr2Certificate:
    """ZERO_ONE certificate of the structure's zero/one angles on the LOT
    complex.  The two disjoint forests guarantee the coloring test and the
    per-edge component condition, so a failure is an invariant violation."""
    outcome = check_dr2_zero_one(lot.complex, structure.assignment)
    if not outcome.ok:
        raise InvariantViolation(
            f"bi-forest structure failed the zero/one criterion: {outcome.witness}"
        )
    return outcome.certificate


def zero_one_from_biforest(lot: Lot, structure: BiForestStructure) -> ZeroOneAssignment:
    """Induced zero/one structure, checked to pass the zero/one criterion."""
    _zero_one_certificate(lot, structure)
    return structure.assignment


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
            "format": "li-certificate/1",
            "kind": self.kind,
            "lot": lot_to_jsonable(self.lot),
            "evidence": self.evidence,
            "children": [child.to_jsonable() for child in self.children],
            "conclusion": dict(self.conclusion),
        }

    @classmethod
    def from_jsonable(cls, data):
        return cls(
            kind=data["kind"],
            lot=lot_from_jsonable(data["lot"]),
            evidence=data["evidence"],
            children=tuple(cls.from_jsonable(c) for c in data["children"]),
            conclusion=data["conclusion"],
        )


def _unknown(lot, reason, extra=None, children=()):
    evidence = {"reason": reason}
    if extra:
        evidence.update(extra)
    return LiCertificateTree(
        kind=KIND_UNKNOWN,
        lot=lot,
        evidence=evidence,
        children=tuple(children),
        conclusion={"locally_indicable": "unknown"},
    )


def _seek_dr2_for_quotient(quotient_lot: Lot):
    """DR(2) certificate for a quotient complex, or None: zero/one route via
    the bi-forest search first, the C(4)-T(4) route second."""
    structure = bi_forest_orientation(quotient_lot)
    if structure is not None:
        return _zero_one_certificate(quotient_lot, structure)
    return check_dr2_c4t4(quotient_lot.complex).certificate


def _amalgam_split(lot: Lot, sub: Lot):
    """Split into the collapsed part and the literal outside subtree.

    The outside part meets the sub-LOT in the single attachment vertex and
    is isomorphic to the quotient (rename the attachment vertex to y).
    """
    inside = set(sub.vertices)
    sub_ids = {e.id for e in sub.edges}
    outside = [e for e in lot.edges if e.id not in sub_ids]
    incidences = [
        (e, v) for e in outside for v in (e.source, e.target) if v in inside
    ]
    if len(incidences) != 1:
        raise InvariantViolation(
            "amalgam split expects exactly one edge incidence on the sub-LOT, "
            f"found {len(incidences)}"
        )
    attach = incidences[0][1]
    spanned = tuple(sorted({v for e in outside for v in (e.source, e.target)}))
    part2 = Lot(spanned, tuple(outside))
    try:
        _validate_sub_lot(lot, part2)
    except NotSubLot as exc:
        raise InvariantViolation(f"outside part is not a sub-LOT: {exc}") from exc
    return sub, part2, attach


def _decide(lot: Lot) -> LiCertificateTree:
    # lot is reduced and injective here
    if len(lot.vertices) == 1:
        return LiCertificateTree(
            kind=KIND_SINGLE_VERTEX,
            lot=lot,
            evidence={"vertex": lot.vertices[0], "group": "Z"},
            conclusion={"locally_indicable": "certified"},
        )

    sub = maximal_proper_sub_lot(lot)
    if sub is None:
        structure = bi_forest_orientation(lot)
        if structure is None:
            return _unknown(lot, "bi_forest_search_failed",
                            {"trigger": "no_proper_sub_lot"})
        evidence = {"trigger": "no_proper_sub_lot"}
        evidence.update(structure.to_jsonable())
        evidence["dr2_certificate"] = _zero_one_certificate(lot, structure).to_jsonable()
        return LiCertificateTree(
            kind=KIND_HUCK_ROSE_BASE,
            lot=lot,
            evidence=evidence,
            conclusion={"locally_indicable": "certified"},
        )

    quotient_lot, y = quotient(lot, sub)
    qprops = check_properties(quotient_lot)
    if not (qprops.injective and qprops.compressed and qprops.interior_reduced):
        raise InvariantViolation(
            "quotient by a maximal proper sub-LOT must be injective, compressed, "
            f"and interior reduced; witnesses: {qprops.witnesses}"
        )

    if not qprops.boundary_reduced:
        part1, part2, x = _amalgam_split(lot, sub)
        child1 = _decide(reduce_lot(part1))
        child2 = _decide(reduce_lot(part2))
        certified = child1.certified and child2.certified
        return LiCertificateTree(
            kind=KIND_AMALGAM,
            lot=lot,
            evidence={
                "part1": lot_to_jsonable(part1),
                "part2": lot_to_jsonable(part2),
                "intersection_vertex": x,
                "collapsed_vertex": y,
                "axiom": AMALGAM_AXIOM,
            },
            children=(child1, child2),
            conclusion={"locally_indicable": "certified" if certified else "unknown"},
        )

    dr2_cert = _seek_dr2_for_quotient(quotient_lot)
    child = _decide(reduce_lot(sub))
    if dr2_cert is None:
        return _unknown(
            lot,
            "no_dr2_certificate_for_quotient",
            {"sub_lot": lot_to_jsonable(sub), "quotient": lot_to_jsonable(quotient_lot),
             "collapsed_vertex": y},
            children=(child,),
        )
    certified = child.certified
    return LiCertificateTree(
        kind=KIND_QUOTIENT_STEP,
        lot=lot,
        evidence={
            "sub_lot": lot_to_jsonable(sub),
            "quotient": lot_to_jsonable(quotient_lot),
            "collapsed_vertex": y,
            "dr2_certificate": dr2_cert.to_jsonable(),
        },
        children=(child,),
        conclusion={"locally_indicable": "certified" if certified else "unknown"},
    )


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
    lot = tree.lot
    where = "/".join(path) or "root"

    def problem(msg):
        problems.append(f"{where}: {msg}")

    child_certified = all(c.certified for c in tree.children)

    if tree.kind == KIND_SINGLE_VERTEX:
        if len(lot.vertices) != 1 or lot.edges:
            problem("SINGLE_VERTEX node on a LOT that is not a single vertex")
        if not tree.certified:
            problem("single vertex concludes local indicability")
    elif tree.kind == KIND_HUCK_ROSE_BASE:
        if any(is_proper for _, is_proper in enumerate_sub_lots(lot)):
            problem("HUCK_ROSE_BASE trigger violated: a proper sub-LOT exists")
        epsilon = {g: (1 if s == "+" else -1) for g, s in tree.evidence["epsilon"].items()}
        K = lot.complex
        structure = _bi_forest(K.links[BASE_VERTEX], epsilon)
        if structure is None:
            problem("recorded orientation does not give two forests")
        elif structure.assignment.to_jsonable() != tree.evidence["zero_one"]:
            problem("recorded zero/one structure disagrees with the orientation")
        cert = Dr2Certificate.from_jsonable(tree.evidence["dr2_certificate"])
        ok, cert_problems = verify_dr2_certificate(cert)
        if not ok:
            problem(f"embedded DR(2) certificate fails: {cert_problems}")
        if cert.complex != K:
            problem("embedded DR(2) certificate is about a different complex")
        if tree.certified != True:  # noqa: E712 - explicit tri-state check
            problem("verified base node must conclude certified")
    elif tree.kind == KIND_QUOTIENT_STEP:
        sub = lot_from_jsonable(tree.evidence["sub_lot"])
        try:
            _validate_sub_lot(lot, sub)
        except NotSubLot as exc:
            problem(f"recorded sub-LOT invalid: {exc}")
            sub = None
        if sub is not None:
            qlot, y = quotient(lot, sub)
            if lot_to_jsonable(qlot) != tree.evidence["quotient"]:
                problem("recorded quotient disagrees with recomputation")
            if y != tree.evidence["collapsed_vertex"]:
                problem("recorded collapse vertex disagrees with recomputation")
            cert = Dr2Certificate.from_jsonable(tree.evidence["dr2_certificate"])
            ok, cert_problems = verify_dr2_certificate(cert)
            if not ok:
                problem(f"embedded DR(2) certificate fails: {cert_problems}")
            if cert.complex != qlot.complex:
                problem("DR(2) certificate is not about the quotient complex")
            if len(tree.children) != 1:
                problem("quotient step needs exactly one child")
            elif tree.children[0].lot != reduce_lot(sub):
                problem("child is not the reduced sub-LOT")
        if tree.certified and not child_certified:
            problem("certified conclusion without certified child")
    elif tree.kind == KIND_AMALGAM:
        part1 = lot_from_jsonable(tree.evidence["part1"])
        part2 = lot_from_jsonable(tree.evidence["part2"])
        for part in (part1, part2):
            try:
                _validate_sub_lot(lot, part)
            except NotSubLot as exc:
                problem(f"amalgam part invalid: {exc}")
        ids1 = {e.id for e in part1.edges}
        ids2 = {e.id for e in part2.edges}
        if ids1 & ids2 or ids1 | ids2 != {e.id for e in lot.edges}:
            problem("amalgam parts do not partition the edge set")
        meet = set(part1.vertices) & set(part2.vertices)
        if meet != {tree.evidence["intersection_vertex"]}:
            problem(f"parts meet in {sorted(meet)}, not the recorded vertex")
        if len(tree.children) != 2:
            problem("amalgam needs two children")
        else:
            if tree.children[0].lot != reduce_lot(part1):
                problem("first child is not the reduced first part")
            if tree.children[1].lot != reduce_lot(part2):
                problem("second child is not the reduced second part")
        if tree.certified and not child_certified:
            problem("certified conclusion without certified children")
    elif tree.kind == KIND_UNKNOWN:
        if tree.certified:
            problem("UNKNOWN node cannot conclude certified")
    else:
        problem(f"unknown node kind {tree.kind!r}")

    for i, child in enumerate(tree.children):
        _verify_node(child, problems, path + [f"{tree.kind.lower()}[{i}]"])


def verify_li_tree(tree: LiCertificateTree):
    """Re-check every node of a certificate tree; returns (ok, problems)."""
    problems = []
    _verify_node(tree, problems, [])
    return (not problems), problems
