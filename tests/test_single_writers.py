"""drtool writes a link's numbering and a ZERO_ONE certificate's hypotheses
each in one place.  ``complexes.link_graph`` is the only code that calls
``LinkGraph(`` (by its plain or dotted name), so the nodes, their index and
the corners' ends and keys come from the one pass that makes the corners.
``certificates.py`` is the only module that spells ``"edge_components"``,
the key of the ZERO_ONE hypotheses that ``certificates.write_zero_one``
writes, so a second writer of those hypotheses is found.  The check reads
names and string constants only: it does not follow aliases."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "drtool"
LINK_BUILDER = "complexes.py:link_graph"
HYPOTHESES_MODULE = "certificates.py"


def writes(source):
    """(line, enclosing qualified name, what) of each ``LinkGraph(`` call and
    each ``"edge_components"`` string constant in ``source``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            where = ".".join(scope) or "<module>"
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "LinkGraph":
                    found.append((child.lineno, where, "LinkGraph("))
            elif isinstance(child, ast.Constant) and child.value == "edge_components":
                found.append((child.lineno, where, "'edge_components'"))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def writes_elsewhere(package):
    """``file:line scope what`` for each such write in a module of ``package``
    outside its one place, sorted."""
    out = []
    for path in package.glob("*.py"):
        for line, scope, what in writes(path.read_text(encoding="utf-8")):
            allowed = (f"{path.name}:{scope}" == LINK_BUILDER if what == "LinkGraph("
                       else path.name == HYPOTHESES_MODULE)
            if not allowed:
                out.append(f"{path.name}:{line} {scope} {what}")
    return sorted(out)


def test_one_link_builder_and_one_zero_one_writer():
    complexes = (PACKAGE / "complexes.py").read_text(encoding="utf-8")
    assert {(scope, what) for _, scope, what in writes(complexes)} == {
        ("link_graph", "LinkGraph(")}
    certificates = (PACKAGE / "certificates.py").read_text(encoding="utf-8")
    assert {(scope, what) for _, scope, what in writes(certificates)} == {
        ("write_zero_one", "'edge_components'")}
    assert writes_elsewhere(PACKAGE) == []


def test_the_check_finds_a_second_link_builder_and_zero_one_writer(tmp_path):
    (tmp_path / "complexes.py").write_text(
        "class LinkGraph:\n    pass\n\n\n"
        "def link_graph(X, v):\n    return LinkGraph(v)\n\n\n"
        "def quick_link(X, v):\n    return LinkGraph(v)\n", encoding="utf-8")
    (tmp_path / "certificates.py").write_text(
        "def write_zero_one(rows):\n    return {'edge_components': rows}\n", encoding="utf-8")
    (tmp_path / "lots.py").write_text(
        "from . import complexes\n\n"
        "# hypotheses['edge_components'] is written by certificates\n"
        "NOTE = 'edge_components are compared'\n\n\n"
        "def certificate(X, rows):\n"
        "    link = complexes.LinkGraph('*')\n"
        "    return link, {'angles': [], 'edge_components': rows}\n", encoding="utf-8")
    assert writes_elsewhere(tmp_path) == [
        "complexes.py:10 quick_link LinkGraph(",
        "lots.py:8 certificate LinkGraph(",
        "lots.py:9 certificate 'edge_components'"]
