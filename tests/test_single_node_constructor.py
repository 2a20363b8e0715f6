"""drtool builds certificate-tree nodes in one place, so the rule for a
node's conclusion is written once.  Outside ``lots._node`` no code in the
package calls ``LiCertificateTree(`` by that name (plain or dotted), and no
method of the class calls ``cls(`` except ``LiCertificateTree.from_jsonable``,
which reads a tree back with the conclusions it was written with.  The check
reads calls by name only: it does not follow aliases of the class or copies
made with ``dataclasses.replace``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "drtool"
ALLOWED = {"lots.py:_node", "lots.py:LiCertificateTree.from_jsonable"}


def node_constructions(source):
    """(line, enclosing qualified name) of each call in ``source`` that
    builds a node: ``LiCertificateTree(...)`` by its plain or dotted name, or
    ``cls(...)`` inside the class."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "LiCertificateTree" or (
                        name == "cls" and scope[:1] == ["LiCertificateTree"]):
                    found.append((child.lineno, ".".join(scope) or "<module>"))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def constructions_outside_node(package):
    """``file:line scope`` for each such call in a module of ``package``
    outside the allowed functions, sorted."""
    return sorted(f"{path.name}:{line} {scope}"
                  for path in package.glob("*.py")
                  for line, scope in node_constructions(path.read_text(encoding="utf-8"))
                  if f"{path.name}:{scope}" not in ALLOWED)


def test_only_node_builds_certificate_nodes():
    lots = (PACKAGE / "lots.py").read_text(encoding="utf-8")
    assert sorted({scope for _, scope in node_constructions(lots)}) == [
        "LiCertificateTree.from_jsonable", "_node"]
    assert constructions_outside_node(PACKAGE) == []


def test_the_check_finds_a_node_built_by_hand(tmp_path):
    (tmp_path / "lots.py").write_text(
        "class LiCertificateTree:\n    @classmethod\n    def from_jsonable(cls, data):\n"
        "        return cls(**data)\n\n"
        "    @classmethod\n    def unknown(cls, lot):\n        return cls('UNKNOWN', lot)\n\n\n"
        "def _node(kind):\n    return LiCertificateTree(kind)\n\n\n"
        "def _decide(lot):\n    return LiCertificateTree('UNKNOWN', lot)\n\n\n"
        "def _other(cls):\n    return cls()\n", encoding="utf-8")
    (tmp_path / "cli.py").write_text(
        "from . import lots\n\nNOTE = 'LiCertificateTree(kind)'\n\n\n"
        "def forge(kind):\n    return lots.LiCertificateTree(kind)\n\n\n"
        "def read(data):\n    return lots.LiCertificateTree.from_jsonable(data)\n",
        encoding="utf-8")
    assert constructions_outside_node(tmp_path) == [
        "cli.py:7 forge", "lots.py:16 _decide", "lots.py:8 LiCertificateTree.unknown"]
