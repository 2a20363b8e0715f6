"""Finite combinatorial 2-complexes, boundary words, and vertex links.

A complex is a set of vertices, a list of oriented edges, and a list of
2-cells attached along cyclic words of signed edges.  The link of a vertex
is the multigraph whose nodes are edge-ends at that vertex and whose edges
are the corners cut out by consecutive boundary letters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .errors import ComplexError, ParseError


class Letter(NamedTuple):
    """A signed edge traversal in a boundary word, written ``a`` or ``a-``."""

    edge: str
    sign: int

    def inverse(self):
        return Letter(self.edge, -self.sign)

    def __str__(self):
        return self.edge if self.sign > 0 else self.edge + "-"


def parse_letter(token):
    token = token.strip()
    if token.endswith("-"):
        name = token[:-1]
        sign = -1
    else:
        name, sign = token, 1
    if not name:
        raise ComplexError(f"empty edge name in letter {token!r}")
    return Letter(name, sign)


def check_name(kind, name, line=None):
    """A name that reads back as itself: nonempty, without whitespace
    (``str.split`` separates tokens), without ``#`` (it starts a comment),
    and not ending in ``-`` (the letter ``x-`` reads back as ``x`` inverted).
    A bad name read from line ``line`` of a text is a ParseError there."""
    if name.split() != [name] or "#" in name or name.endswith("-"):
        message = (f"{kind} name {name!r} must be nonempty, without whitespace or '#', "
                   "and not end in '-'")
        raise ComplexError(message) if line is None else ParseError(message, line=line)


def coerce_word(word):
    """Accept a word given as a string (``"a b a- b-"``) or a sequence of
    letters and letter strings; a tuple of letters is taken as it is."""
    if isinstance(word, str):
        return tuple(parse_letter(tok) for tok in word.split())
    if type(word) is tuple and all(type(item) is Letter for item in word):
        return word
    out = []
    for item in word:
        if isinstance(item, Letter):
            out.append(item)
        elif isinstance(item, str):
            out.append(parse_letter(item))
        else:
            raise ComplexError(f"cannot interpret {item!r} as a letter")
    return tuple(out)


def coerce_integer(value, what):
    """An int read from an int or a string. A float or a boolean, which
    Python's ``int`` would round or count as 0 or 1, or other text is a ``ComplexError``."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ComplexError(f"cannot interpret {what} {value!r} as an integer")


def word_inverse(word):
    return tuple(letter.inverse() for letter in reversed(word))


def rotate_word(word, r):
    r %= len(word)
    return word[r:] + word[:r]


def format_word(word):
    return " ".join(str(letter) for letter in word)


class LinkNode(NamedTuple):
    """An edge-end in a vertex link: ``a+`` is the head end, ``a-`` the tail end."""

    edge: str
    end: int

    def __str__(self):
        return self.edge + ("+" if self.end > 0 else "-")


class Edge(NamedTuple):
    id: str
    source: str
    target: str


class Cell(NamedTuple):
    id: str
    word: tuple


class Corner(NamedTuple):
    """A link edge: the corner of ``cell`` between boundary positions ``position``
    and ``position + 1`` (cyclically).  ``nodes`` is the unordered endpoint pair,
    stored in the orientation induced by the boundary traversal."""

    cell: str
    position: int
    nodes: tuple

    @property
    def key(self):
        return (self.cell, self.position)

    def __str__(self):
        return f"{self.cell}:{self.position}[{self.nodes[0]},{self.nodes[1]}]"


class CornerStep(NamedTuple):
    """A directed traversal of a corner.  A step is never its own reverse,
    so a loop corner traversed once is a reduced cycle of length one."""

    corner: Corner
    reverse: bool = False

    @property
    def start(self):
        return self.corner.nodes[1] if self.reverse else self.corner.nodes[0]

    @property
    def end(self):
        return self.corner.nodes[0] if self.reverse else self.corner.nodes[1]

    def reversed_step(self):
        return CornerStep(self.corner, not self.reverse)


@dataclass(frozen=True)
class TwoComplex:
    vertices: tuple
    edges: tuple
    cells: tuple
    flags: tuple = ()

    def edge_map(self):
        return {e.id: e for e in self.edges}

    def cell_map(self):
        return {c.id: c for c in self.cells}

    @property
    def is_single_vertex(self):
        return len(self.vertices) == 1

    @cached_property
    def links(self):
        """Vertex -> LinkGraph, built once per complex.  Looking up a vertex
        that is not in the complex raises ComplexError."""
        return _Links((v, link_graph(self, v)) for v in self.vertices)

    @cached_property
    def corners(self):
        """Corner key ``(cell, position)`` -> ``(vertex, Corner)``, in vertex
        then link order: the complex's corner set, built once from ``links``."""
        return {k: (v, c) for v, G in self.links.items() for k, c in zip(G.keys, G.corners)}


def build_complex(edges, cells, vertices=None) -> TwoComplex:
    """Validate raw data and build a TwoComplex.

    Boundary words are stored as given.  Non-reduced words (a letter followed
    cyclically by its inverse) are legal but flagged, since several certificate
    hypotheses require reduced attaching words.
    """
    edge_list = []
    for item in edges:
        e = Edge(str(item[0]), str(item[1]), str(item[2]))
        check_name("edge", e.id)
        edge_list.append(e)
    ids = [e.id for e in edge_list]
    if len(set(ids)) != len(ids):
        dup = next(i for i in ids if ids.count(i) > 1)
        raise ComplexError(f"duplicate edge id {dup!r}")

    seen_vertices = []
    for e in edge_list:
        for v in (e.source, e.target):
            if v not in seen_vertices:
                seen_vertices.append(v)
    if vertices is None:
        vertex_set = sorted(seen_vertices)
    else:
        vertex_set = sorted(str(v) for v in vertices)
        missing = [v for v in seen_vertices if v not in vertex_set]
        if missing:
            raise ComplexError(f"edge endpoint {missing[0]!r} not in vertex set")
    if len(set(vertex_set)) != len(vertex_set):
        raise ComplexError("duplicate vertex id")

    ends = {e.id: (e.source, e.target) for e in edge_list}
    cell_list = []
    flags = []
    for item in cells:
        cid = str(item[0])
        word = coerce_word(item[1])
        if not word:
            raise ComplexError(f"empty boundary word at cell {cid!r}")
        path = []  # each letter's (departure, arrival) vertices
        for edge, sign in word:
            if edge not in ends:
                raise ComplexError(f"unknown edge id {edge!r} in cell {cid!r}")
            source, target = ends[edge]
            path.append((source, target) if sign > 0 else (target, source))
        L = len(word)
        for i, (u, w, (_, u_target), (w_source, _)) in enumerate(
                zip(word, word[1:] + word[:1], path, path[1:] + path[:1])):
            if u_target != w_source:
                raise ComplexError(
                    f"non-closed boundary path at cell {cid!r}: "
                    f"letter {u} ends at {u_target!r} but {w} starts at {w_source!r}"
                )
            if w.edge == u.edge and w.sign == -u.sign:
                flags.append(
                    f"non-reduced boundary word at cell {cid} position ({i + 1},{(i + 1) % L + 1})"
                )
        cell_list.append(Cell(cid, word))
    cell_ids = [c.id for c in cell_list]
    if len(set(cell_ids)) != len(cell_ids):
        dup = next(i for i in cell_ids if cell_ids.count(i) > 1)
        raise ComplexError(f"duplicate cell id {dup!r}")

    return TwoComplex(
        vertices=tuple(vertex_set),
        edges=tuple(edge_list),
        cells=tuple(cell_list),
        flags=tuple(flags),
    )


def euler_characteristic(X: TwoComplex) -> int:
    return len(X.vertices) - len(X.edges) + len(X.cells)


@dataclass(frozen=True)
class LinkGraph:
    """The link at ``base``: a multigraph on edge-ends, whose edges are corners.

    Its one numbering, built with the corners by ``link_graph``: node i is
    ``nodes[i]`` and ``index`` maps it back to i, and corner k of ``corners``
    joins the nodes ``ends[k]`` and has the key ``keys[k]``.  The zero/one and
    bi-forest kernels work on these integers."""

    base: str
    nodes: tuple
    corners: tuple
    index: dict = field(compare=False, repr=False)
    ends: tuple = field(compare=False, repr=False)
    keys: tuple = field(compare=False, repr=False)

    def euler_characteristic(self):
        return len(self.nodes) - len(self.corners)

    def steps(self):
        """All directed corner traversals, forward before reverse, in corner order."""
        out = []
        for c in self.corners:
            out.append(CornerStep(c, False))
            out.append(CornerStep(c, True))
        return out

    def adjacency(self):
        adj = {n: [] for n in self.nodes}
        for step in self.steps():
            adj[step.start].append(step)
        return adj


def link_graph(X: TwoComplex, v) -> LinkGraph:
    """Corner convention: consecutive letters (u, w) meeting at v contribute the
    corner joining head(u), where u arrives, and tail(w), where w departs."""
    if v not in X.vertices:
        raise ComplexError(f"vertex {v!r} not in complex")
    nodes = []
    for e in X.edges:
        if e.target == v:
            nodes.append(LinkNode(e.id, 1))
        if e.source == v:
            nodes.append(LinkNode(e.id, -1))
    nodes.sort()
    index = {n: i for i, n in enumerate(nodes)}
    # a letter (edge, sign) arrives at its node (edge, sign), and departs from
    # (edge, -sign): the letter arrives at v when that node is here
    corners, ends, keys = [], [], []
    for cell in X.cells:
        cid, word = cell
        for i, (u, (w_edge, w_sign)) in enumerate(zip(word, word[1:] + word[:1])):
            a = index.get(u)
            if a is not None:
                b = index[w_edge, -w_sign]
                corners.append(Corner(cid, i, (nodes[a], nodes[b])))
                ends.append((a, b))
                keys.append((cid, i))
    return LinkGraph(v, tuple(nodes), tuple(corners), index, tuple(ends), tuple(keys))


class _Links(dict):
    def __missing__(self, v):
        raise ComplexError(f"vertex {v!r} not in complex")


def complex_to_jsonable(X: TwoComplex):
    return {
        "vertices": list(X.vertices),
        "edges": [[e.id, e.source, e.target] for e in X.edges],
        "cells": [[c.id, [str(l) for l in c.word]] for c in X.cells],
    }


def _json_list(value, what, length=None):
    """``value``, which must be a JSON list, of ``length`` items when one is
    given: any other iterable is refused."""
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a list, not {type(value).__name__}")
    if length is not None and len(value) != length:
        raise ValueError(f"{what} must have {length} items, not {len(value)}")
    return value


def complex_from_jsonable(data) -> TwoComplex:
    """The complex ``complex_to_jsonable`` writes. A ``null`` vertex list
    reads as the edges' ends, and a word may be written as a string."""
    vertices = data["vertices"]
    return build_complex(
        edges=[_json_list(e, "an edge", 3) for e in _json_list(data["edges"], "edges")],
        cells=[_json_list(c, "a cell", 2) for c in _json_list(data["cells"], "cells")],
        vertices=None if vertices is None else _json_list(vertices, "vertices"),
    )
