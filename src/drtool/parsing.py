"""Text grammars for presentations and labeled oriented graphs.

Presentation files::

    # comment
    presentation
    gens a b
    rel a b a- b-

LOT files::

    lot
    vertex a b c
    edge e1 a b c

The ``lot`` header demands a tree; ``log`` accepts any labeled oriented
graph.  Serialization emits a canonical form whose re-parse is identical.
"""

from __future__ import annotations

from .complexes import TwoComplex, build_complex, check_name, format_word, parse_letter
from .errors import ComplexError, ParseError
from .lots import Lot, LotEdge


def read_text(path) -> str:
    """The text of the file at ``path``; bytes that are not UTF-8 are a
    ParseError, like any other malformed input."""
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _logical_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_presentation(text) -> TwoComplex:
    """One-vertex complex with an edge per generator and a cell per relator."""
    lines = list(_logical_lines(text))
    if not lines or lines[0][1] != ["presentation"]:
        lineno = lines[0][0] if lines else 1
        raise ParseError("expected 'presentation' header", line=lineno)
    gens = []
    relators = []
    for lineno, tokens in lines[1:]:
        head, rest = tokens[0], tokens[1:]
        if head == "gens":
            for g in rest:
                if g in gens:
                    raise ParseError(f"duplicate generator {g!r}", line=lineno)
                check_name("generator", g, lineno)
                gens.append(g)
        elif head == "rel":
            if not rest:
                raise ParseError("empty relator", line=lineno)
            word = []
            for token in rest:
                try:
                    letter = parse_letter(token)
                except ComplexError as exc:
                    raise ParseError(str(exc), line=lineno) from exc
                if letter.edge not in gens:
                    raise ParseError(f"unknown generator {letter.edge!r}", line=lineno)
                word.append(letter)
            relators.append(tuple(word))
        else:
            raise ParseError(f"unknown directive {head!r}", line=lineno)
    try:
        return build_complex(
            edges=[(g, "*", "*") for g in gens],
            cells=[(f"r{i + 1}", word) for i, word in enumerate(relators)],
            vertices=["*"],
        )
    except ComplexError as exc:
        raise ParseError(str(exc)) from exc


def serialize_presentation(X: TwoComplex) -> str:
    if not X.is_single_vertex:
        raise ComplexError("only one-vertex complexes have a presentation form")
    lines = ["presentation"]
    if X.edges:
        lines.append("gens " + " ".join(e.id for e in X.edges))
    for cell in X.cells:
        lines.append("rel " + format_word(cell.word))
    return "\n".join(lines) + "\n"


def parse_lot(text) -> Lot:
    """Parse a LOT (or LOG) file; the ``lot`` header enforces a tree."""
    lines = list(_logical_lines(text))
    if not lines or lines[0][1] not in (["lot"], ["log"]):
        lineno = lines[0][0] if lines else 1
        raise ParseError("expected 'lot' or 'log' header", line=lineno)
    demand_tree = lines[0][1] == ["lot"]
    vertices = set()
    edges = []
    edge_ids = set()
    for lineno, tokens in lines[1:]:
        head, rest = tokens[0], tokens[1:]
        if head == "vertex":
            for v in rest:
                if v in vertices:
                    raise ParseError(f"duplicate vertex {v!r}", line=lineno)
                check_name("vertex", v, lineno)
                vertices.add(v)
        elif head == "edge":
            if len(rest) != 4:
                raise ParseError("edge needs: name source target label", line=lineno)
            name, source, target, label = rest
            if name in edge_ids:
                raise ParseError(f"duplicate edge {name!r}", line=lineno)
            check_name("edge", name, lineno)
            for v, role in ((source, "source"), (target, "target"), (label, "label")):
                if v not in vertices:
                    raise ParseError(f"unknown {role} vertex {v!r}", line=lineno)
            edge_ids.add(name)
            edges.append(LotEdge(name, source, target, label))
        else:
            raise ParseError(f"unknown directive {head!r}", line=lineno)
    if not vertices:
        raise ParseError("a LOT needs at least one vertex")
    lot = Lot(tuple(sorted(vertices)), tuple(edges))  # each line checked as it was read
    if demand_tree and not lot.is_tree:
        raise ParseError("not a tree: 'lot' header demands a tree, use 'log' otherwise")
    return lot


def serialize_lot(lot: Lot) -> str:
    header = "lot" if lot.is_tree else "log"
    lines = [header, "vertex " + " ".join(lot.vertices)]
    for e in lot.edges:
        lines.append(f"edge {e.id} {e.source} {e.target} {e.label}")
    return "\n".join(lines) + "\n"


def sniff_kind(text) -> str:
    """'lot' or 'presentation', from the first logical line."""
    for _, tokens in _logical_lines(text):
        if tokens == ["presentation"]:
            return "presentation"
        if tokens in (["lot"], ["log"]):
            return "lot"
        break
    raise ParseError("unrecognized input: expected a presentation or lot header", line=1)
