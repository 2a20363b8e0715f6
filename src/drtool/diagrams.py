"""Spherical diagrams: validation, folding detection, and bounded search.

A sphere complex is a list of polygonal faces with boundary words over
sphere edges, each edge occurring exactly twice with opposite signs.  A
diagram map sends faces to cells of a target complex, aligned by a
rotation and an orientation, and sphere edges to edges of the target.

A diagram is reduced when the induced edge path around every sphere
vertex maps to a reduced path in the target link; equivalently no sphere
edge is a folding edge, i.e. its two sides map to the same cell at the
same boundary position with opposite orientations.  Both criteria are
computed and cross-checked.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import NamedTuple

from .caps import face_bound
from .complexes import (
    Cell,
    CornerStep,
    Letter,
    TwoComplex,
    build_complex,
    coerce_integer,
    word_inverse,
)
from .curvature import AngleAssignment, CurvatureReport, TestVerdict, check_gauss_bonnet
from .errors import IllFormedMap, InvariantViolation
from .unionfind import UnionFind


@dataclass(frozen=True)
class SphereComplex:
    faces: tuple  # Cell(id, word) with words over sphere edge letters

    def face_map(self):
        return {f.id: f for f in self.faces}

    def occurrences(self):
        """sphere edge id -> list of (face_id, position, sign)."""
        occ = {}
        for face in self.faces:
            for p, letter in enumerate(face.word):
                occ.setdefault(letter.edge, []).append((face.id, p, letter.sign))
        return occ

    def to_jsonable(self):
        return {"faces": {f.id: [str(l) for l in f.word] for f in self.faces}}


def _natural_key(face_id):
    """Each run of ASCII digits read as a number (``f2`` before ``f10``), then the id."""
    parts = re.split("([0-9]+)", face_id)
    return [int(p) if i % 2 else p for i, p in enumerate(parts)], face_id


def sphere_from_jsonable(data) -> SphereComplex:
    from .complexes import coerce_word

    items = sorted(data["faces"].items(), key=lambda item: _natural_key(str(item[0])))
    return SphereComplex(tuple(Cell(str(fid), coerce_word(word)) for fid, word in items))


@dataclass(frozen=True)
class DiagramMap:
    labels: dict  # sphere edge id -> target edge id
    cellmap: dict  # face id -> (cell id, rotation, orientation)

    def to_jsonable(self):
        return {
            "labels": dict(sorted(self.labels.items())),
            "cellmap": {
                f: {"cell": c, "rotation": r, "orientation": o}
                for f, (c, r, o) in sorted(self.cellmap.items())
            },
        }


def diagram_map_from_jsonable(data) -> DiagramMap:
    """A rotation or orientation that is a float or a boolean is refused,
    as a corner position is."""
    labels = {str(k): str(v) for k, v in data["labels"].items()}
    cellmap = {
        str(f): (str(row["cell"]), coerce_integer(row["rotation"], "rotation"),
                 coerce_integer(row["orientation"], "orientation"))
        for f, row in data["cellmap"].items()
    }
    return DiagramMap(labels, cellmap)


@dataclass(frozen=True)
class FoldingReport:
    folding: tuple  # (sphere edge id, target edge label) pairs
    reduced: bool
    distinct_edge_labels: int
    distinct_folding_labels: int
    nonreduced_vertices: tuple = ()

    def to_jsonable(self):
        return {
            "folding_edges": [list(pair) for pair in self.folding],
            "reduced": self.reduced,
            "distinct_edge_labels": self.distinct_edge_labels,
            "distinct_folding_labels": self.distinct_folding_labels,
            "nonreduced_vertices": [list(v) for v in self.nonreduced_vertices],
        }


# ---------------------------------------------------------------------------
# sphere structure


def _paired_occurrences(S: SphereComplex):
    """Edge id -> ((face, pos) of + occurrence, (face, pos) of - occurrence);
    None when the pairing is violated (witness produced by validate_sphere)."""
    pairs = {}
    for edge, occ in S.occurrences().items():
        if len(occ) != 2:
            return None, {"reason": "pairing", "edge": edge, "count": len(occ)}
        signs = sorted(o[2] for o in occ)
        if signs != [-1, 1]:
            return None, {"reason": "pairing", "edge": edge, "detail": "signs not opposite"}
        plus = next((f, p) for f, p, s in occ if s > 0)
        minus = next((f, p) for f, p, s in occ if s < 0)
        pairs[edge] = (plus, minus)
    return pairs, None


def _slot_orbits(S: SphereComplex, pairs):
    """Orbits of corner slots under the rotation around sphere vertices.

    The slot after corner (f, p) is the corner of the partner of side
    (f, p + 1); orbits are the sphere vertices, listed in order of their
    smallest slot.
    """
    partner = {}
    for plus, minus in pairs.values():
        partner[plus] = minus
        partner[minus] = plus
    lengths = {f.id: len(f.word) for f in S.faces}
    slots = [(f.id, p) for f in S.faces for p in range(len(f.word))]
    nxt = {}
    for fid, p in slots:
        side = (fid, (p + 1) % lengths[fid])
        nxt[(fid, p)] = partner[side]
    orbits = []
    seen = set()
    for slot in slots:
        if slot in seen:
            continue
        orbit = []
        cur = slot
        while cur not in seen:
            seen.add(cur)
            orbit.append(cur)
            cur = nxt[cur]
        orbits.append(orbit)
    return orbits


def _check_sphere(S: SphereComplex):
    """validate_sphere's verdict, and when it passes the side pairs
    (edge -> (plus, minus)) and the vertex orbits; both None when it fails."""
    if not S.faces:
        return TestVerdict(False, {"reason": "empty"}), None, None
    ids = [f.id for f in S.faces]
    if len(set(ids)) != len(ids):
        return TestVerdict(False, {"reason": "duplicate_face_id"}), None, None
    pairs, witness = _paired_occurrences(S)
    if witness is not None:
        return TestVerdict(False, witness), None, None
    uf = UnionFind(f.id for f in S.faces)
    for plus, minus in pairs.values():
        uf.union(plus[0], minus[0])
    if uf.count != 1:
        return TestVerdict(False, {"reason": "disconnected", "components": uf.count}), None, None
    orbits = _slot_orbits(S, pairs)
    V = len(orbits)
    E = len(pairs)
    F = len(S.faces)
    chi = V - E + F
    if chi != 2:
        witness = {"reason": "euler", "chi": chi, "V": V, "E": E, "F": F}
        return TestVerdict(False, witness), None, None
    return TestVerdict(True, None, notes={"V": V, "E": E, "F": F}), pairs, orbits


def validate_sphere(S: SphereComplex) -> TestVerdict:
    """Pass iff edges pair up with opposite signs, the gluing is connected,
    and the Euler characteristic is 2."""
    return _check_sphere(S)[0]


def sphere_to_complex(S: SphereComplex) -> TwoComplex:
    """The glued sphere as a 2-complex, with vertices named by slot orbits."""
    pairs, witness = _paired_occurrences(S)
    if witness is not None:
        raise IllFormedMap(f"sphere is not glued coherently: {witness}")
    return _sphere_complex(S, pairs, _slot_orbits(S, pairs))


def _sphere_complex(S: SphereComplex, pairs, orbits) -> TwoComplex:
    """sphere_to_complex from the side pairs and vertex orbits of S."""
    slot_class = {}
    for i, orbit in enumerate(orbits):
        for slot in orbit:
            slot_class[slot] = f"v{i}"
    lengths = {f.id: len(f.word) for f in S.faces}
    edges = []
    for edge in sorted(pairs):
        (f, p), _ = pairs[edge]
        tail = slot_class[(f, (p - 1) % lengths[f])]
        head = slot_class[(f, p)]
        edges.append((edge, tail, head))
    return build_complex(
        edges=edges,
        cells=[(f.id, f.word) for f in S.faces],
        vertices=sorted({f"v{i}" for i in range(len(orbits))}),
    )


# ---------------------------------------------------------------------------
# diagram maps


def _side_position(m, rotation, orientation, p):
    """Cell position of face side p, for a face mapped to a cell of boundary
    length m: a positive face reads the cell word forwards from ``rotation``,
    a negative one reads it backwards, inverting each letter."""
    q = (rotation + p) % m
    return q if orientation > 0 else m - 1 - q


def _corner_position(m, rotation, orientation, p):
    """Cell corner of face corner p, the corner between sides p and p + 1.
    A negative face crosses it backwards, from side p + 1 to side p, so the
    cell corner sits after side p + 1's position."""
    return _side_position(m, rotation, orientation, p if orientation > 0 else p + 1)


def check_diagram(S: SphereComplex, f: DiagramMap, X: TwoComplex) -> FoldingReport:
    """Verify the map and report folding edges and link-path reducedness.

    A sphere edge folds when its two sides map to the same cell at the same
    boundary position with opposite orientations; matching positions rather
    than cells alone keeps the criterion correct for periodic relators.
    """
    return _check_diagram(S, f, X)[0]


def _check_diagram(S: SphereComplex, f: DiagramMap, X: TwoComplex):
    """check_diagram's report, with the side pairs and vertex orbits of S."""
    sphere_check, pairs, orbits = _check_sphere(S)
    if not sphere_check.passed:
        raise IllFormedMap(f"sphere validation failed: {sphere_check.witness}")
    cmap = X.cell_map()
    emap = X.edge_map()
    faces = S.face_map()
    if set(f.cellmap) != set(faces):
        raise IllFormedMap("cell map does not cover exactly the sphere faces")
    if set(f.labels) != set(pairs):
        raise IllFormedMap("label map does not cover exactly the sphere edges")

    for fid, face in faces.items():
        cell_id, rotation, orientation = f.cellmap[fid]
        if cell_id not in cmap:
            raise IllFormedMap(f"face {fid!r} maps to unknown cell {cell_id!r}")
        word = cmap[cell_id].word
        m = len(word)
        if m != len(face.word):
            raise IllFormedMap(
                f"face {fid!r} has {len(face.word)} sides but cell {cell_id!r} "
                f"has boundary length {m}"
            )
        if orientation not in (1, -1):
            raise IllFormedMap(f"face {fid!r} has orientation {orientation}, need +1 or -1")
        for p, letter in enumerate(face.word):
            target_edge = f.labels.get(letter.edge)
            if target_edge not in emap:
                raise IllFormedMap(f"sphere edge {letter.edge!r} labeled by unknown edge")
            cell_letter = word[_side_position(m, rotation, orientation, p)]
            expected = Letter(cell_letter.edge, cell_letter.sign * orientation)
            got = Letter(target_edge, letter.sign)
            if got != expected:
                raise IllFormedMap(
                    f"boundary word mismatch at face {fid!r} position {p}: "
                    f"labeled {got}, cell expects {expected}"
                )

    def cell_position(position, fid, p):
        cell_id, rotation, orientation = f.cellmap[fid]
        return cell_id, position(len(cmap[cell_id].word), rotation, orientation, p)

    # each sphere vertex maps to one vertex of X, and its corners walk the
    # link there: a negative face crosses its image corner backwards
    nonreduced = []
    for orbit_index, orbit in enumerate(orbits):
        images = set()
        steps = []
        for fid, p in orbit:
            v, corner = X.corners[cell_position(_corner_position, fid, p)]
            images.add(v)
            steps.append(CornerStep(corner, f.cellmap[fid][2] < 0))
        if len(images) != 1:
            raise IllFormedMap(
                f"sphere vertex v{orbit_index} has inconsistent images {sorted(images)}"
            )
        # cyclic backtrack check; a step never equals its own reverse, so a
        # single-corner orbit is reduced
        k = len(steps)
        for i in range(k):
            if steps[(i + 1) % k] == steps[i].reversed_step():
                nonreduced.append((f"v{orbit_index}", i))
                break

    folding = []
    for edge in sorted(pairs):
        (f1, p1), (f2, p2) = pairs[edge]
        if cell_position(_side_position, f1, p1) == cell_position(_side_position, f2, p2):
            if f.cellmap[f1][2] == f.cellmap[f2][2]:
                raise InvariantViolation(
                    "folding edge with equal orientations; alignment bookkeeping broken"
                )
            folding.append((edge, f.labels[edge]))

    reduced = not nonreduced
    if reduced != (not folding):
        raise InvariantViolation(
            "link reducedness and folding-edge detection disagree: "
            f"nonreduced={nonreduced}, folding={folding}"
        )
    labels = sorted(set(f.labels.values()))
    folding_labels = sorted(set(label for _, label in folding))
    return FoldingReport(
        folding=tuple(folding),
        reduced=reduced,
        distinct_edge_labels=len(labels),
        distinct_folding_labels=len(folding_labels),
        nonreduced_vertices=tuple(nonreduced),
    ), pairs, orbits


def drk_witness_check(report: FoldingReport, k) -> TestVerdict:
    """Single-diagram consistency check of a DR(k) claim: a diagram carrying
    k distinct labels must carry k distinct folding labels."""
    if report.distinct_edge_labels < k:
        return TestVerdict(True, None, notes={"vacuous": True})
    if report.distinct_folding_labels >= k:
        return TestVerdict(True, None)
    return TestVerdict(
        False,
        {
            "reason": "too_few_folding_labels",
            "edge_labels": report.distinct_edge_labels,
            "folding_labels": report.distinct_folding_labels,
            "k": k,
        },
    )


def diagram_gauss_bonnet(S: SphereComplex, f: DiagramMap, X: TwoComplex,
                         omega: AngleAssignment) -> CurvatureReport:
    """Pull the angles back along the diagram map and report curvature on the
    sphere; the total is exactly 4 = 2 chi(sphere)."""
    _, pairs, orbits = _check_diagram(S, f, X)
    omega.validate_total(X)
    cmap = X.cell_map()
    table = {}
    for face in S.faces:
        cell_id, rotation, orientation = f.cellmap[face.id]
        m = len(cmap[cell_id].word)
        for p in range(m):
            q = _corner_position(m, rotation, orientation, p)
            table[(face.id, p)] = omega.weight((cell_id, q))
    report = check_gauss_bonnet(_sphere_complex(S, pairs, orbits), AngleAssignment(table))
    if report.total != 4:
        raise InvariantViolation(f"pulled-back curvature totals {report.total}, not 4")
    return report


# ---------------------------------------------------------------------------
# bounded exhaustive search


class _FaceType(NamedTuple):
    cell: str
    orientation: int
    sides: tuple  # letters read along the face with rotation 0
    rows: tuple  # per side: (letter number, (cell, cell position at rotation 0), isomorph key)
    net: tuple  # per edge of X: the face's positive letters less its negative ones


def enumerate_diagrams(X: TwoComplex, max_faces, require_reduced=False,
                       prune_isomorphs=True):
    """Yield (SphereComplex, DiagramMap) for sphere gluings of at most
    ``max_faces`` cell copies (None: the cap; see ``face_bound``).

    Faces are copies of cells with an orientation; rotations are absorbed
    into the side pairing, so every spherical diagram appears up to
    isomorphism.  Sides glue only to sides carrying the inverse letter,
    which makes each sphere edge occur once with each sign.  With
    ``require_reduced`` the search rejects folding pairs outright; with
    ``prune_isomorphs`` mirror images and copies of interchangeable faces
    are skipped.
    """
    max_faces = face_bound(max_faces)
    # letter number 2k is edge k read forwards and 2k + 1 backwards, so the
    # inverse of letter n is n ^ 1
    number = {e.id: 2 * k for k, e in enumerate(X.edges)}
    types = []
    for cell in X.cells:
        for o in (1, -1):
            sides = cell.word if o > 0 else word_inverse(cell.word)
            m = len(sides)
            rows = tuple((number[l.edge] + (l.sign < 0), (cell.id, _side_position(m, 0, o, p)),
                          (cell.id, o, p)) for p, l in enumerate(sides))
            net = tuple(sum(l.sign for l in sides if l.edge == e.id) for e in X.edges)
            types.append(_FaceType(cell.id, o, sides, rows, net))
    for n in range(1, max_faces + 1):
        for multiset in itertools.combinations_with_replacement(range(len(types)), n):
            chosen = [types[t] for t in multiset]
            if prune_isomorphs and chosen[0].orientation < 0:
                continue
            if any(map(sum, zip(*(t.net for t in chosen)))):
                continue
            yield from _glue_faces(chosen, require_reduced, prune_isomorphs)


def _glue_faces(chosen, require_reduced, prune_isomorphs):
    """Every pairing of the sides of ``chosen`` that glues them into a sphere.

    Sides are numbered face by face, and side s also names slot s, the
    corner that follows it. Sides are glued in order: the first free side
    is paired with each later free side that ``may_glue`` to it.
    """
    rows = []  # the rows of every face's type, face by face
    face_of = []  # the face of each side
    # Round a sphere vertex, slot s is followed by the partner of after[s],
    # the side that follows corner s. Part way, each open orbit is a path of
    # slots (see _join_paths); at the root the path from side s ends at
    # after[s]. A vertex still to close is a cycle of open paths, and a
    # cycle of one path glues the path's end to its start, so if `alone` of
    # the open paths may glue so, at most alone + (open paths - alone) // 2
    # vertices are still to close.
    after = []
    for i, t in enumerate(chosen):
        s = len(rows)
        rows += t.rows
        face_of += [i] * len(t.rows)
        after += range(s + 1, len(rows))
        after.append(s)
    total = len(rows)
    target_V = 2 - len(chosen) + total // 2
    if target_V < 1:
        return
    letter, position, key = zip(*rows)  # the columns of the rows
    by_letter = {}  # the sides carrying each letter number, ascending
    for s, n in enumerate(letter):
        by_letter.setdefault(n, []).append(s)

    def may_glue(a, b):
        """The glue rule: sides a and b carry inverse letters and, when folds
        are refused, sit at different cell positions. An isomorph key fixes
        the cell position, so refusing a fold before the key is seen skips
        no pairing."""
        return letter[a] ^ letter[b] == 1 and not (require_reduced and position[a] == position[b])

    pend = after[:]
    pstart = [0] * total
    for s, e in enumerate(after):
        pstart[e] = s
    partner = [None] * total
    glued = [0] * len(chosen)  # glued sides of each face

    def connected():
        """Whether the complete pairing reaches every side from side 0, each
        side leading to the next side of its face and to its partner."""
        reached, stack = {0}, [0]
        while stack:
            s = stack.pop()
            for t in (after[s], partner[s]):
                if t not in reached:
                    reached.add(t)
                    stack.append(t)
        return len(reached) == total

    def glue(free, pairs_left, closed, alone):
        if not pairs_left:
            if connected():
                yield _assemble(chosen, partner)
            return
        while partner[free] is not None:
            free += 1
        face = face_of[free]
        open_paths = 2 * (pairs_left - 1)  # once this pair is glued
        seen_types = set()
        # every side before the first free side is glued, so the free sides
        # of the inverse letter all come later, in ascending order
        for other in by_letter.get(letter[free] ^ 1, ()):
            if partner[other] is not None or not may_glue(free, other):
                continue
            other_face = face_of[other]
            if prune_isomorphs and not glued[other_face]:
                if key[other] in seen_types:
                    continue
                seen_types.add(key[other])
            start_free, start_other = pstart[free], pstart[other]
            end_free, end_other = pend[free], pend[other]
            closes, change = _join_paths(pend, pstart, may_glue, free, other)
            now, left = closed + closes, alone + change
            if now <= target_V <= now + (open_paths + left) // 2:
                partner[free], partner[other] = other, free
                glued[face] += 1
                glued[other_face] += 1
                yield from glue(free + 1, pairs_left - 1, now, left)
                glued[face] -= 1
                glued[other_face] -= 1
                partner[free] = partner[other] = None
            pend[start_free], pend[start_other] = free, other  # as before the pair
            pstart[end_free], pstart[end_other] = free, other

    yield from glue(0, total // 2, 0, sum(map(may_glue, range(total), after)))


def _join_paths(pend, pstart, may_glue, u, v):
    """Glue unglued sides u and v in the tables of open vertex orbits.

    Part way through a gluing, each open orbit is a path of slots from the
    slot of an unglued side, its start, to a slot whose next side is
    unglued, its end: ``pend[s]`` is the end of the path that starts at s,
    and ``pstart[e]`` the start of the path that ends at e. The pair joins
    the path that ends at u to the path that starts at v, then the path
    that ends at v to the path that starts at u; a path joined to itself
    closes a vertex. Updates the tables and returns the number of vertices
    closed (0, 1 or 2) and the change in the number of open paths whose
    end may glue to their start, ``may_glue(a, b)`` being the glue rule.
    """
    closes = change = 0
    for end, start in ((u, v), (v, u)):
        head, tail = pstart[end], pend[start]
        if head == start:
            closes += 1
            change -= may_glue(start, end)
        else:
            change += may_glue(head, tail) - may_glue(head, end) - may_glue(start, tail)
            pend[head], pstart[tail] = tail, head
    return closes, change


def _assemble(chosen, partner):
    """The SphereComplex and DiagramMap of a complete side pairing."""
    edge = [None] * len(partner)
    labels = {}
    faces = []
    s = 0
    for i, t in enumerate(chosen):
        word = []
        for letter in t.sides:
            if edge[s] is None:
                edge[s] = edge[partner[s]] = f"s{len(labels)}"
                labels[edge[s]] = letter.edge
            word.append(Letter(edge[s], letter.sign))
            s += 1
        faces.append(Cell(f"f{i}", tuple(word)))
    cellmap = {f"f{i}": (t.cell, 0, t.orientation) for i, t in enumerate(chosen)}
    return SphereComplex(tuple(faces)), DiagramMap(labels, cellmap)


def search_reduced_diagram(X: TwoComplex, max_faces=None):
    """First reduced spherical diagram over X with at most ``max_faces``
    faces (default: the cap), or None.  A bounded falsification oracle for DR.
    The bound is checked as ``face_bound`` checks it."""
    for S, f in enumerate_diagrams(X, max_faces, require_reduced=True):
        report = check_diagram(S, f, X)
        if report.reduced:
            return S, f
        raise InvariantViolation(
            "search produced a diagram with a folding edge despite pruning"
        )
    return None
