"""Random generators and independent oracles shared by the test modules.

The oracles deliberately avoid the library's own algorithms: cycle
minimisation is re-done by depth-first enumeration, piece counts by
enumerating every decomposition, short cycles by direct walks, the LOT
isomorphism key by trying every vertex bijection, the sub-LOT prune's
components by a fresh union-find each round instead of a traversal, and
the gluing search's connectivity by a face union-find at every node.  The
zero/one and bi-forest references backtrack by hand instead of through
``unionfind.first_acyclic_choices``, so they reach past the 2^n scans.  The
coloring test and the zero/one criterion are re-done over link nodes, one
``AngleAssignment.weight`` per corner, instead of the link numbering.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

from bench.generate import tree_shapes  # bench/generate.py imports only the standard library
from drtool import Lot, TwoComplex, build_complex, build_lot
from drtool.complexes import Corner, Letter, LinkNode, word_inverse
from drtool.diagrams import _assemble, _side_position
from drtool.unionfind import UnionFind


# ---------------------------------------------------------------------------
# names

# characters that a name must not end in or hold, beside plain ones
WIDE_NAME_ALPHABET = "ab*-#\u00e9\u5b57 \t\x85\u2028"


def readable_name(name):
    """The name rule of ``complexes.check_name``, restated one character at
    a time: nonempty, no whitespace, no ``#``, no trailing ``-``."""
    return (bool(name) and not any(c.isspace() or c == "#" for c in name)
            and not name.endswith("-"))


# ---------------------------------------------------------------------------
# random complexes and assignments


def random_one_vertex_complex(rng, max_edges=4, max_cells=6, max_len=6, min_cells=0):
    n_edges = rng.randint(1, max_edges)
    names = [chr(ord("a") + i) for i in range(n_edges)]
    n_cells = rng.randint(min_cells, max_cells)
    cells = []
    for k in range(n_cells):
        length = rng.randint(1, max_len)
        word = tuple(
            Letter(rng.choice(names), rng.choice((1, -1))) for _ in range(length)
        )
        cells.append((f"r{k + 1}", word))
    return build_complex(
        edges=[(g, "*", "*") for g in names], cells=cells, vertices=["*"]
    )


def random_multi_vertex_complex(rng, n_vertices=3, max_cells=4, max_len=8):
    vertices = [f"v{i}" for i in range(n_vertices)]
    edges = []
    for i in range(rng.randint(n_vertices, n_vertices + 3)):
        edges.append((f"g{i}", rng.choice(vertices), rng.choice(vertices)))
    by_vertex = {}
    for eid, s, t in edges:
        by_vertex.setdefault(s, []).append((eid, 1, t))
        by_vertex.setdefault(t, []).append((eid, -1, s))
    cells = []
    for k in range(rng.randint(0, max_cells)):
        start = rng.choice(vertices)
        word, here = [], start
        for _ in range(max_len):
            options = by_vertex.get(here)
            if not options:
                break
            eid, sign, there = rng.choice(options)
            word.append(Letter(eid, sign))
            here = there
            if here == start and rng.random() < 0.5:
                break
        if not word or here != start:
            continue
        cells.append((f"r{k + 1}", tuple(word)))
    return build_complex(edges=edges, cells=cells, vertices=vertices)


def random_complex(rng, **kwargs):
    if rng.random() < 0.3:
        X = random_multi_vertex_complex(rng)
        if X.cells:
            return X
    return random_one_vertex_complex(rng, **kwargs)


def random_surface_word_complex(rng, n_generators):
    """One-vertex complex with one relator that holds each of ``n_generators``
    generators once with each sign, in random order: a surface-like word,
    about a third of which have a zero/one structure."""
    names = [chr(ord("a") + i) for i in range(n_generators)]
    word = [Letter(g, sign) for g in names for sign in (1, -1)]
    rng.shuffle(word)
    return build_complex(
        edges=[(g, "*", "*") for g in names], cells=[("r1", tuple(word))], vertices=["*"]
    )


def random_rationals(rng, X, denominator_max=12, allow_negative=False):
    from drtool import AngleAssignment

    low = -24 if allow_negative else 1
    table = {}
    for cell in X.cells:
        for i in range(len(cell.word)):
            table[(cell.id, i)] = Fraction(
                rng.randint(low, 24), rng.randint(1, denominator_max)
            )
    return AngleAssignment(table)


def random_zero_one(rng, X):
    from drtool import ZeroOneAssignment

    table = {}
    for cell in X.cells:
        for i in range(len(cell.word)):
            table[(cell.id, i)] = rng.choice((0, 1))
    return ZeroOneAssignment(table)


def random_link(rng, max_corners=12):
    """A random link: the link of the unique vertex of a random one-vertex
    complex whose boundary lengths sum to at most ``max_corners``."""
    from drtool import link_graph

    while True:
        n_edges = rng.randint(2, 4)
        names = [chr(ord("a") + i) for i in range(n_edges)]
        cells = []
        budget = rng.randint(1, max_corners)
        k = 0
        while budget > 0:
            length = rng.randint(1, min(4, budget))
            budget -= length
            k += 1
            word = tuple(
                Letter(rng.choice(names), rng.choice((1, -1))) for _ in range(length)
            )
            cells.append((f"r{k}", word))
        X = build_complex(
            edges=[(g, "*", "*") for g in names], cells=cells, vertices=["*"]
        )
        G = link_graph(X, "*")
        if G.corners:
            return G


# ---------------------------------------------------------------------------
# oracle: minimum-weight reduced cycle by exhaustive enumeration


def oracle_min_reduced_cycle_weight(G, omega):
    """Minimum over reduced cycles by depth-first search over closed
    non-backtracking walks that never repeat a directed traversal.

    Any reduced cycle that revisits a traversal splits into shorter reduced
    cycles of no larger weight, so the restriction is exhaustive for the
    minimum; traversal-simplicity also bounds the length by 2 * #corners.
    """
    steps = G.steps()
    by_start = {}
    for step in steps:
        by_start.setdefault(step.start, []).append(step)
    best = [None]

    def weight(step):
        return omega.weight(step.corner)

    def extend(first, last, used, total):
        if best[0] is not None and total >= best[0]:
            return
        if last.end == first.start and first != last.reversed_step():
            best[0] = total if best[0] is None else min(best[0], total)
        for nxt in by_start.get(last.end, ()):
            if nxt == last.reversed_step() or nxt in used:
                continue
            used.add(nxt)
            extend(first, nxt, used, total + weight(nxt))
            used.discard(nxt)

    for s0 in steps:
        extend(s0, s0, {s0}, weight(s0))
    return best[0]


def oracle_reduced_cycles_up_to(G, max_len=3):
    """All reduced cycles of length at most ``max_len`` as step tuples."""
    steps = G.steps()
    by_start = {}
    for step in steps:
        by_start.setdefault(step.start, []).append(step)
    found = []

    def extend(path):
        last = path[-1]
        if last.end == path[0].start and path[0] != last.reversed_step():
            found.append(tuple(path))
        if len(path) == max_len:
            return
        for nxt in by_start.get(last.end, ()):
            if nxt == last.reversed_step():
                continue
            path.append(nxt)
            extend(path)
            path.pop()

    for s0 in steps:
        extend([s0])
    return found


# ---------------------------------------------------------------------------
# oracle: minimum-weight path by enumerating simple paths


def oracle_min_reduced_path(G, omega, source, target):
    """Minimum weight over the simple paths from ``source`` to ``target`` (the
    empty path, weight 0, when they are equal) by depth-first enumeration;
    None if no path joins them.

    With non-negative weights, cutting a walk's closed detours down to a
    simple path never adds weight, so this is the minimum over reduced paths.
    """
    by_start = {}
    for step in G.steps():
        by_start.setdefault(step.start, []).append(step)
    best = [None]

    def extend(node, visited, total):
        if node == target:
            best[0] = total if best[0] is None else min(best[0], total)
            return
        for step in by_start.get(node, ()):
            if step.end not in visited:
                visited.add(step.end)
                extend(step.end, visited, total + omega.weight(step.corner))
                visited.discard(step.end)

    extend(source, {source}, Fraction(0))
    return best[0]


# ---------------------------------------------------------------------------
# reference: a reduced walk in a link, checked step by step


def is_reduced_walk(steps, G, cyclic=False):
    """True iff every step traverses a corner of G, each step starts where the
    one before ends, and no step immediately reverses the one before; with
    ``cyclic`` the last and first steps count as consecutive too.  A single
    loop step is a reduced cycle, since a step never equals its own reverse."""
    steps = list(steps)
    pairs = list(zip(steps, steps[1:]))
    if cyclic and steps:
        pairs.append((steps[-1], steps[0]))
    return (all(step.corner in G.corners for step in steps)
            and all(a.end == b.start and b != a.reversed_step() for a, b in pairs))


# ---------------------------------------------------------------------------
# oracle: related cyclic neighbours, by trying every pair of positions


def cell_corners(X, v):
    """The corners of the link of X at ``v`` read straight off the cells, in
    cell then position order: positions i and i + 1 of a word meet at the
    vertex where letter i arrives, in a corner from that letter's arriving
    end to the departing end of letter i + 1."""
    ends = {e.id: (e.source, e.target) for e in X.edges}
    out = []
    for cell in X.cells:
        word = cell.word
        for i, (u, w) in enumerate(zip(word, word[1:] + word[:1])):
            if ends[u.edge][u.sign > 0] == v:
                out.append(Corner(cell.id, i, (LinkNode(u.edge, u.sign), LinkNode(w.edge, -w.sign))))
    return out


def lot_corners(lot):
    """The link corners of the LOT complex read off the LOT edges, as
    (corner key, (node, node)) pairs: the square ``s l t- l-`` of an edge
    has its corners in that order."""
    corners = []
    for e in lot.edges:
        s, l, t = e.source, e.label, e.target
        ends = [((s, 1), (l, -1)), ((l, 1), (t, 1)), ((t, -1), (l, 1)), ((l, -1), (s, -1))]
        corners += [((e.id, i), pair) for i, pair in enumerate(ends)]
    return corners


def oracle_cyclic_pairs(sequence, related):
    """Every position pair ``(i, j)`` of the cyclic ``sequence``, ``j`` the
    position after ``i`` (the first after the last) and ``i != j``, whose
    items ``related`` relates, in order of ``i``."""
    n = len(sequence)
    return [(i, j) for i in range(n) for j in range(n)
            if i != j and j == (i + 1) % n and related(sequence[i], sequence[j])]


def inverse_letter_texts(a, b):
    """Whether the letter texts ``a`` and ``b``, such as ``x`` and ``x-``,
    name one edge with opposite signs."""
    return {a, b} == {a.rstrip("-"), a.rstrip("-") + "-"}


# ---------------------------------------------------------------------------
# oracle: the zero/one search by scanning every assignment


def oracle_zero_one_structure(X):
    """The first zero/one assignment to pass the coloring test, scanning
    ``itertools.product((0, 1), ...)`` over the corners in search order
    (vertex by vertex, each link's corners in order); None if none passes."""
    from drtool import ZeroOneAssignment, coloring_test, link_graph

    keys = [c.key for v in X.vertices for c in link_graph(X, v).corners]
    for values in itertools.product((0, 1), repeat=len(keys)):
        omega = ZeroOneAssignment(dict(zip(keys, values)))
        if coloring_test(X, omega).passed:
            return omega
    return None


def uf_classes(uf):
    """The partition of a ``UnionFind`` as a tuple of classes, each a sorted
    tuple, ordered by their smallest member; items must be comparable."""
    classes = {}
    for item in uf.parent:
        classes.setdefault(uf.find(item), []).append(item)
    return tuple(sorted(tuple(sorted(members)) for members in classes.values()))


# ---------------------------------------------------------------------------
# oracle: the coloring test and the zero/one criterion over link nodes


def oracle_coloring_forests(X, omega01):
    """``curvature.coloring_forests`` as it was before the link numbering:
    the verdict as JSON, and when it passes the angle-0 union-find of every
    vertex link over its ``LinkNode``s (vertex -> UnionFind), else None.
    Every angle is read through ``AngleAssignment.weight``, corner by
    corner, and the cycle witness comes from a tree adjacency grown at each
    union."""
    from drtool.curvature import TestVerdict, _least_walk

    omega01.validate_total(X)
    for cell in X.cells:
        L = len(cell.word)
        k = sum(omega01.weight((cell.id, i)) for i in range(L)) - (L - 2)
        if k > 0:
            return TestVerdict(
                False, {"condition": 1, "cell": cell.id, "curvature": str(k)}).to_jsonable(), None
    forests = {}
    for v in X.vertices:
        G = X.links[v]
        adj = {}  # node -> ((node, corner), neighbour, 0) over the forest's corners
        uf = UnionFind(G.nodes)
        cycle = None
        for c in G.corners:
            if omega01.weight(c) != 0:
                continue
            a, b = c.nodes
            if uf.union(a, b):
                adj.setdefault(a, []).append(((a, c), b, 0))
                adj.setdefault(b, []).append(((b, c), a, 0))
            elif cycle is None:
                _, path = _least_walk(adj, a, 0, {b})
                cycle = {
                    "cycle_nodes": [str(n) for n, _ in path] + [str(b)],
                    "cycle_corners": [list(cor.key) for _, cor in path] + [list(c.key)],
                }
        if cycle is not None:
            return TestVerdict(False, {"condition": 2, "vertex": v, **cycle}).to_jsonable(), None
        forests[v] = uf
    for v, uf in forests.items():
        G = X.links[v]
        for c in G.corners:
            if omega01.weight(c) == 1 and uf.together(c.nodes[0], c.nodes[1]):
                members = [m for m in G.nodes if uf.together(m, c.nodes[0])]
                return TestVerdict(False, {
                    "condition": 3,
                    "vertex": v,
                    "corner": list(c.key),
                    "component": [str(m) for m in sorted(members)],
                }).to_jsonable(), None
    return TestVerdict(True, None).to_jsonable(), forests


def oracle_dr2_zero_one(X, omega01):
    """``certificates.check_dr2_zero_one``'s outcome as JSON, built on
    ``oracle_coloring_forests`` and its components of link nodes."""
    from drtool.certificates import METHOD_ZERO_ONE, CheckOutcome, Dr2Certificate

    verdict, forests = oracle_coloring_forests(X, omega01)
    if forests is None:
        return CheckOutcome(witness={"reason": "coloring_test", "witness": verdict["witness"]}
                            ).to_jsonable()
    comps = uf_classes(forests[X.vertices[0]])
    comp_index = {node: i for i, comp in enumerate(comps) for node in comp}
    edge_rows = []
    for e in X.edges:
        i_plus, i_minus = comp_index[(e.id, 1)], comp_index[(e.id, -1)]
        if i_plus == i_minus:
            return CheckOutcome(witness={"reason": "components", "edge": e.id,
                                         "component": [str(n) for n in comps[i_plus]]}
                                ).to_jsonable()
        edge_rows.append({"edge": e.id, "plus_component": i_plus, "minus_component": i_minus})
    hypotheses = {
        "angles": omega01.to_jsonable(),
        "components": [[str(n) for n in comp] for comp in comps],
        "edge_components": edge_rows,
    }
    return CheckOutcome(certificate=Dr2Certificate(
        METHOD_ZERO_ONE, X, hypotheses, {"dr2": True, "locally_indicable": True})).to_jsonable()


# ---------------------------------------------------------------------------
# references: the zero/one and bi-forest searches as hand-written backtrackers


def reference_zero_one_structure(X):
    """The zero/one search as its own recursive backtracker, without a cap:
    corners in search order, angle 0 before 1, a corner whose ends are
    already joined takes neither, at most ``len(word) - 2`` angles 1 per
    cell, and the component condition on the finished forests."""
    from drtool import ZeroOneAssignment

    corners = list(X.corners.values())
    budget = {cell.id: len(cell.word) - 2 for cell in X.cells}
    if any(b < 0 for b in budget.values()):
        return None
    assignment = {}
    ones_used = {cell.id: 0 for cell in X.cells}
    forests = {v: UnionFind(X.links[v].nodes) for v in X.vertices}

    def solve(index):
        if index == len(corners):
            return all(assignment[c.key] == 0 or not forests[v].together(*c.nodes)
                       for v, c in corners)
        v, corner = corners[index]
        uf = forests[v]
        if uf.together(*corner.nodes):
            return False
        mark = uf.mark()
        uf.union(*corner.nodes)
        assignment[corner.key] = 0
        if solve(index + 1):
            return True
        uf.rollback(mark)
        if ones_used[corner.cell] < budget[corner.cell]:
            assignment[corner.key] = 1
            ones_used[corner.cell] += 1
            if solve(index + 1):
                return True
            ones_used[corner.cell] -= 1
        del assignment[corner.key]
        return False

    return ZeroOneAssignment(assignment) if solve(0) else None


def reference_bi_forest_signs(link, generators):
    """The first signs (lexicographic over ``generators``, ``+`` before
    ``-``, the first sign ``+`` only) under which the angle-0 corners of the
    link form a forest, or None, by a hand-written backtracker: a corner is
    added once both of its generators have a sign."""
    position = {g: i for i, g in enumerate(generators)}
    ready = [[] for _ in generators]
    for c in link.corners:
        a, b = c.nodes
        i, j = position[a.edge], position[b.edge]
        ready[max(i, j)].append((i, a.end, j, b.end, a, b))
    signs = [1] * len(generators)
    uf = UnionFind(link.nodes)

    def extend(level):
        if level == len(generators):
            return True
        for sign in (1, -1) if level else (1,):
            signs[level] = sign
            mark = uf.mark()
            if all(signs[i] * end_a != signs[j] * end_b or uf.union(a, b)
                   for i, end_a, j, end_b, a, b in ready[level]) and extend(level + 1):
                return True
            uf.rollback(mark)
        return False

    return dict(zip(generators, signs)) if extend(0) else None


# ---------------------------------------------------------------------------
# oracle: the diagram gluing search by listing every side matching


def oracle_sphere_gluings(X, n):
    """Every sphere glued from n faces, by multiset of face types.

    A face type is a cell read forwards (orientation 1) or backwards
    (orientation -1), types ordered cell by cell; a multiset is a sorted
    tuple of type indices. For each multiset, every perfect matching of
    sides that pairs a letter with its inverse is glued and kept when
    ``validate_sphere`` passes. Returns multiset -> list of
    (pairing, SphereComplex, DiagramMap), a pairing being a frozenset of
    frozensets {(face, position), (face, position)}.
    """
    from drtool import validate_sphere

    out = {}
    for multiset, glued in oracle_side_gluings(X, n):
        out[multiset] = [(pairing, S, f) for pairing, S, f in glued
                         if validate_sphere(S).passed]
    return out


def oracle_side_gluings(X, n):
    """For each multiset of n face types, as in ``oracle_sphere_gluings``,
    the list of every (pairing, SphereComplex, DiagramMap) that pairs each
    side with one carrying the inverse letter, whether or not it glues the
    faces into a sphere."""
    from drtool import DiagramMap, SphereComplex
    from drtool.complexes import Cell

    types = []
    for cell in X.cells:
        types.append((cell.id, 1, cell.word))
        types.append((cell.id, -1, word_inverse(cell.word)))
    for multiset in itertools.combinations_with_replacement(range(len(types)), n):
        faces = [types[t] for t in multiset]
        sides = [(i, p) for i, (_, _, word) in enumerate(faces) for p in range(len(word))]
        letter = {(i, p): faces[i][2][p] for i, p in sides}
        glued = []
        for matching in _perfect_matchings(sides, letter):
            edge = {}
            for k, (a, b) in enumerate(matching):
                edge[a] = edge[b] = f"s{k}"
            S = SphereComplex(tuple(
                Cell(f"f{i}", tuple(Letter(edge[(i, p)], letter[(i, p)].sign)
                                    for p in range(len(word))))
                for i, (_, _, word) in enumerate(faces)
            ))
            f = DiagramMap({edge[a]: letter[a].edge for a, _ in matching},
                           {f"f{i}": (cell, 0, o) for i, (cell, o, _) in enumerate(faces)})
            glued.append((frozenset(frozenset(pair) for pair in matching), S, f))
        yield multiset, glued


def _perfect_matchings(sides, letter):
    """Every pairing of ``sides`` in which paired sides carry inverse letters."""
    if not sides:
        yield []
        return
    a, rest = sides[0], sides[1:]
    for k, b in enumerate(rest):
        if letter[b] == letter[a].inverse():
            for matching in _perfect_matchings(rest[:k] + rest[k + 1:], letter):
                yield [(a, b)] + matching


# ---------------------------------------------------------------------------
# oracle: the multisets of face types the gluing search glues


def oracle_balanced_multisets(X, max_faces, prune_isomorphs):
    """The multisets of face types that ``diagrams.enumerate_diagrams`` must
    hand to the gluing, each as a tuple of (cell, orientation), in its order:
    multisets of 1 to ``max_faces`` types (a cell read forwards, then
    backwards, cell by cell), without those whose first face is backwards
    under ``prune_isomorphs``, and only those in which a Counter finds each
    letter as often as its inverse."""
    types = [(cell.id, o, cell.word if o > 0 else word_inverse(cell.word))
             for cell in X.cells for o in (1, -1)]
    out = []
    for n in range(1, max_faces + 1):
        for multiset in itertools.combinations_with_replacement(types, n):
            if prune_isomorphs and multiset[0][1] < 0:
                continue
            balance = Counter(letter for _, _, word in multiset for letter in word)
            if all(balance[l] == balance[l.inverse()] for l in balance):
                out.append(tuple((cell, o) for cell, o, _ in multiset))
    return out


# ---------------------------------------------------------------------------
# oracle: the gluing search with a face union-find at every node


def oracle_glue_faces(chosen, require_reduced, prune_isomorphs):
    """Every pairing of the sides of ``chosen`` that glues them into a sphere,
    the reference for ``diagrams._glue_faces``, which must yield the same
    pairings in the same order. It keeps face connectivity on a second
    rolled-back union-find at every node and scans every later side for the
    inverse letter.

    Sides are numbered face by face, and side s also names slot s, the
    corner that follows it. Sides are glued in order: the first free side
    is paired with each later free side carrying the inverse letter.
    """
    sides = []  # (face, position, letter, (cell, cell position at rotation 0))
    first = []  # first side of each face, then the side count
    for i, t in enumerate(chosen):
        first.append(len(sides))
        m = len(t.sides)
        for p, letter in enumerate(t.sides):
            sides.append((i, p, letter, (t.cell, _side_position(m, 0, t.orientation, p))))
    first.append(len(sides))
    total = len(sides)
    target_V = 2 - len(chosen) + total // 2
    if target_V < 1:
        return
    # the slot before side s: the corner that side s follows
    before = [s - 1 if p else first[i + 1] - 1 for s, (i, p, _, _) in enumerate(sides)]
    partner = [None] * total
    glued = [0] * len(chosen)  # glued sides of each face
    slots = UnionFind(range(total))  # the sphere vertices
    faces = UnionFind(range(len(chosen)))  # the components of the gluing

    def glue(free, pairs_left):
        if not pairs_left:
            if faces.count == 1:
                yield _assemble(chosen, partner)
            return
        while partner[free] is not None:
            free += 1
        face, _, letter, cell_position = sides[free]
        want = letter.inverse()
        positive = letter.sign > 0
        seen_types = set()
        for other in range(free + 1, total):
            if partner[other] is not None:
                continue
            other_face, other_position, other_letter, other_cell_position = sides[other]
            if other_letter != want:
                continue
            if prune_isomorphs and not glued[other_face]:
                t = chosen[other_face]
                key = (t.cell, t.orientation, other_position)
                if key in seen_types:
                    continue
                seen_types.add(key)
            if require_reduced and cell_position == other_cell_position:
                continue
            plus, minus = (free, other) if positive else (other, free)
            slot_mark, face_mark = slots.mark(), faces.mark()
            partner[free], partner[other] = other, free
            glued[face] += 1
            glued[other_face] += 1
            slots.union(plus, before[minus])
            slots.union(before[plus], minus)
            faces.union(face, other_face)
            # a sphere has target_V vertices; each pair still to glue joins
            # at most two classes of slots
            if target_V <= slots.count <= target_V + 2 * (pairs_left - 1):
                yield from glue(free + 1, pairs_left - 1)
            slots.rollback(slot_mark)
            faces.rollback(face_mark)
            partner[free] = partner[other] = None
            glued[face] -= 1
            glued[other_face] -= 1

    yield from glue(0, total // 2)


# ---------------------------------------------------------------------------
# oracle: minimal piece count by decomposition enumeration


def _cyclic_words_of(X):
    words = []
    for cell in X.cells:
        words.append(cell.word)
        words.append(word_inverse(cell.word))
    return words


def _occurrence_count(words, piece, stop_at=2):
    count = 0
    k = len(piece)
    for word in words:
        L = len(word)
        if k > L:
            continue
        doubled = word + word
        for p in range(L):
            if doubled[p : p + k] == piece:
                count += 1
                if count >= stop_at:
                    return count
    return count


def oracle_min_pieces(X, cell_id):
    """Least part count over every rotation and composition of the cyclic
    relator with every part occurring at least twice among the cyclic
    relators and their inverses."""
    words = _cyclic_words_of(X)
    word = X.cell_map()[cell_id].word
    L = len(word)
    best = None
    for r in range(L):
        lin = word[r:] + word[:r]
        for mask in range(1 << (L - 1)):
            cuts = [0] + [i + 1 for i in range(L - 1) if mask >> i & 1] + [L]
            parts = [lin[cuts[i] : cuts[i + 1]] for i in range(len(cuts) - 1)]
            if best is not None and len(parts) >= best:
                continue
            if all(_occurrence_count(words, tuple(p)) >= 2 for p in parts):
                best = len(parts)
    return best


# ---------------------------------------------------------------------------
# oracle: the LOT isomorphism key by trying every vertex bijection


def lot_relabellings(lot: Lot):
    """The sorted edge table (source, target, label) of ``lot`` under every
    bijection of its vertices onto range(n), in ``itertools.permutations``
    order; the first is the table under the order of ``lot.vertices``."""
    index = {v: i for i, v in enumerate(lot.vertices)}
    triples = [(index[e.source], index[e.target], index[e.label]) for e in lot.edges]
    for p in itertools.permutations(range(len(index))):
        yield tuple(sorted([(p[s], p[t], p[l]) for s, t, l in triples]))


def oracle_lot_key(lot: Lot):
    """The least edge table over all n! vertex bijections, as ``(n, table)``."""
    return (len(lot.vertices), min(lot_relabellings(lot)))


# ---------------------------------------------------------------------------
# oracle: the sub-LOT prune with a fresh union-find each round


def oracle_pruned_components(vertices, edges):
    """The largest sub-LOTs among ``edges`` of a tree on ``vertices``, as
    edge lists in the order given: drop every edge whose label lies outside
    its component, with the components from a new union-find each round,
    until nothing is dropped."""
    while True:
        uf = UnionFind(vertices)
        for e in edges:
            uf.union(e.source, e.target)
        kept = [e for e in edges if uf.together(e.label, e.source)]
        if len(kept) == len(edges):
            break
        edges = kept
    components = {}
    for e in edges:
        components.setdefault(uf.find(e.source), []).append(e)
    return list(components.values())


# ---------------------------------------------------------------------------
# exhaustive small LOT enumeration


def random_reduced_injective_lot(rng, n):
    """A random reduced injective LOT on ``n >= 3`` vertices, by rejection:
    a random tree with a random injective labeling, kept once it is
    compressed and boundary reduced (injective LOTs are interior reduced).

    Vertices 0-35 are the letters from ``a`` on; from 36 on, where those
    letters reach whitespace, vertex i is ``v<i>``."""
    names = [chr(ord("a") + i) if i < 36 else f"v{i}" for i in range(n)]
    while True:
        ends = []
        for i in range(1, n):
            other = rng.randrange(i)
            ends.append((i, other) if rng.random() < 0.5 else (other, i))
        labels = rng.sample(range(n), n - 1)
        if any(label in pair for label, pair in zip(labels, ends)):
            continue  # not compressed
        degree = [0] * n
        for u, v in ends:
            degree[u] += 1
            degree[v] += 1
        if any(degree[v] == 1 and v not in labels for v in range(n)):
            continue  # not boundary reduced
        return build_lot(
            names,
            [(f"e{i + 1}", names[s], names[t], names[l])
             for i, ((s, t), l) in enumerate(zip(ends, labels))],
        )


def _compressed_labelings(n, ends, prefix=()):
    """Injective labelings of the edges ``ends`` by range(n) in which no edge
    carries one of its own ends, in lexicographic order."""
    if len(prefix) == len(ends):
        yield prefix
        return
    for label in range(n):
        if label not in prefix and label not in ends[len(prefix)]:
            yield from _compressed_labelings(n, ends, prefix + (label,))


def reduced_injective_lot_candidates(max_vertices=6):
    """Every reduced injective LOT with at most ``max_vertices`` vertices on
    the first letters, isomorphic ones recurring: for each size, each of the
    ``tree_shapes``, each orientation and each injective labeling that is
    compressed and boundary reduced.

    Interior reducedness is automatic for injective labelings, so only the
    compression and boundary conditions are filtered.
    """
    names = "abcdefgh"
    for n in range(1, max_vertices + 1):
        if n == 1:
            yield build_lot([names[0]], [])
            continue
        if n == 2:
            continue  # the single edge cannot be compressed
        for shape in tree_shapes(n):
            degree = [0] * n
            for u, v in shape:
                degree[u] += 1
                degree[v] += 1
            leaves = {v for v in range(n) if degree[v] == 1}
            for orientation in itertools.product((0, 1), repeat=n - 1):
                ends = [
                    (u, v) if o == 0 else (v, u)
                    for (u, v), o in zip(shape, orientation)
                ]
                for labels in _compressed_labelings(n, ends):
                    if not leaves.issubset(labels):
                        continue  # not boundary reduced
                    yield build_lot(
                        [names[i] for i in range(n)],
                        [
                            (f"e{i + 1}", names[s], names[t], names[l])
                            for i, ((s, t), l) in enumerate(zip(ends, labels))
                        ],
                    )


def reduced_injective_lots(max_vertices=6):
    """All reduced injective LOTs with at most ``max_vertices`` vertices,
    one per isomorphism class: the first candidate of each class."""
    from drtool.lots import canonical_lot_key

    out = []
    seen = set()
    for lot in reduced_injective_lot_candidates(max_vertices):
        key = canonical_lot_key(lot)
        if key not in seen:
            seen.add(key)
            out.append(lot)
    return out
