"""drtool writes a complex, a link's numbering, a bi-forest structure and a
ZERO_ONE certificate's hypotheses each in one place.
``complexes.build_complex`` is the only code that calls ``TwoComplex(``, so
every complex is validated and its flags come from its cells.
``complexes.link_graph`` is the only code that calls ``LinkGraph(`` (by its
plain or dotted name), so the nodes, their index and the corners' ends and
keys come from its one pass.  ``lots._bi_forest_of`` is the only code that
calls ``BiForestStructure(``, so the search and the verifier's replay of
recorded signs write the same structure.
``certificates.py`` is the only module that spells ``"edge_components"``,
the key of the ZERO_ONE hypotheses that ``certificates.write_zero_one``
writes, so a second writer of those hypotheses is found.  The check reads
names and string constants only: it does not follow aliases."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "drtool"
BUILDERS = {"TwoComplex(": "complexes.py:build_complex", "LinkGraph(": "complexes.py:link_graph",
            "BiForestStructure(": "lots.py:_bi_forest_of"}
HYPOTHESES_MODULE = "certificates.py"


def writes(source):
    """(line, enclosing qualified name, what) of each ``TwoComplex(``,
    ``LinkGraph(`` and ``BiForestStructure(`` call and each
    ``"edge_components"`` string constant in ``source``."""
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
                if f"{name}(" in BUILDERS:
                    found.append((child.lineno, where, f"{name}("))
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
            allowed = (f"{path.name}:{scope}" == BUILDERS[what] if what in BUILDERS
                       else path.name == HYPOTHESES_MODULE)
            if not allowed:
                out.append(f"{path.name}:{line} {scope} {what}")
    return sorted(out)


def test_one_link_builder_and_one_zero_one_writer():
    complexes = (PACKAGE / "complexes.py").read_text(encoding="utf-8")
    assert {(scope, what) for _, scope, what in writes(complexes)} == {
        ("build_complex", "TwoComplex("), ("link_graph", "LinkGraph(")}
    certificates = (PACKAGE / "certificates.py").read_text(encoding="utf-8")
    assert {(scope, what) for _, scope, what in writes(certificates)} == {
        ("write_zero_one", "'edge_components'")}
    lots = (PACKAGE / "lots.py").read_text(encoding="utf-8")
    assert {(scope, what) for _, scope, what in writes(lots)} == {
        ("_bi_forest_of", "BiForestStructure(")}
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


def test_the_check_finds_a_second_bi_forest_writer(tmp_path):
    (tmp_path / "lots.py").write_text(
        "class BiForestStructure:\n    pass\n\n\n"
        "def _bi_forest_of(link, epsilon):\n    return BiForestStructure(epsilon)\n\n\n"
        "def _bi_forest(link, generators, signs):\n"
        "    # BiForestStructure( of the signs found\n"
        "    return BiForestStructure(dict(zip(generators, signs)))\n", encoding="utf-8")
    (tmp_path / "reports.py").write_text(
        "from . import lots\n\n\n"
        "def section(lot):\n    return lots.BiForestStructure({})\n", encoding="utf-8")
    assert writes_elsewhere(tmp_path) == [
        "lots.py:11 _bi_forest BiForestStructure(",
        "reports.py:5 section BiForestStructure("]


def test_the_check_finds_a_second_complex_builder(tmp_path):
    (tmp_path / "complexes.py").write_text(
        "class TwoComplex:\n    pass\n\n\n"
        "def build_complex(edges, cells):\n    return TwoComplex(edges, cells)\n", encoding="utf-8")
    (tmp_path / "diagrams.py").write_text(
        "from . import complexes\nfrom .complexes import TwoComplex\n\n"
        "# a TwoComplex( built here would skip the validation\n\n\n"
        "def sphere_to_complex(S):\n    return TwoComplex(S.edges, S.faces)\n\n\n"
        "class Quick:\n    def complex(self):\n"
        "        return complexes.TwoComplex((), ())\n", encoding="utf-8")
    assert writes_elsewhere(tmp_path) == [
        "diagrams.py:13 Quick.complex TwoComplex(",
        "diagrams.py:8 sphere_to_complex TwoComplex("]
