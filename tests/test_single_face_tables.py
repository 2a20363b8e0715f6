"""drtool computes the gluing search's per-side tables in one place: the rows
of each face type (letter number, cell position, isomorph key) are built by
``diagrams.enumerate_diagrams``, once per search, and ``_glue_faces`` only
joins them, once per multiset of face types.  Outside ``enumerate_diagrams``
no code in the package calls ``_FaceType(`` (plain or dotted), and no code
in ``_glue_faces``, its nested functions included, calls
``_side_position(``.  The check reads calls by name only.  The glue rule,
that two letter numbers are inverse (``x ^ y == 1``), is written once in the
module, in ``_glue_faces.may_glue``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "drtool"
# called name -> (functions of diagrams.py, whether its calls must be inside them)
RULES = {"_FaceType": ({"enumerate_diagrams"}, True), "_side_position": ({"_glue_faces"}, False)}


def scoped_nodes(source):
    """(node, enclosing qualified name) for each node of ``source`` other
    than a function or class definition."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, scope + [child.name])
                continue
            yield child, ".".join(scope) or "<module>"
            yield from visit(child, scope)

    return visit(ast.parse(source), [])


def table_calls(source):
    """(line, called name, enclosing qualified name) of each call in
    ``source`` of a name in ``RULES``, plain or dotted."""
    found = []
    for node, scope in scoped_nodes(source):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in RULES:
                found.append((node.lineno, name, scope))
    return found


def misplaced_table_calls(package):
    """``file:line name( scope`` for each call in a module of ``package``
    that ``RULES`` does not allow there, sorted."""
    out = []
    for path in package.glob("*.py"):
        for line, name, scope in table_calls(path.read_text(encoding="utf-8")):
            functions, allowed = RULES[name]
            inside = path.name == "diagrams.py" and scope.split(".")[0] in functions
            if inside != allowed:
                out.append(f"{path.name}:{line} {name}( {scope}")
    return sorted(out)


def test_face_type_rows_are_built_once_per_search():
    diagrams = (PACKAGE / "diagrams.py").read_text(encoding="utf-8")
    assert sorted({(name, scope) for _, name, scope in table_calls(diagrams)
                   if name == "_FaceType"}) == [("_FaceType", "enumerate_diagrams")]
    assert misplaced_table_calls(PACKAGE) == []


def inverse_tests(source):
    """The enclosing qualified name of each ``x ^ y == 1`` in ``source``."""
    return [scope for node, scope in scoped_nodes(source)
            if isinstance(node, ast.Compare) and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.BitXor)
            and [getattr(c, "value", None) for c in node.comparators] == [1]]


def test_the_glue_rule_is_written_once():
    diagrams = (PACKAGE / "diagrams.py").read_text(encoding="utf-8")
    assert inverse_tests(diagrams) == ["_glue_faces.may_glue"]
    assert inverse_tests("def glue(a, b):\n    return a ^ b == 1 or (a ^ 1) == b\n\n\n"
                         "RULE = lambda x, y: x ^ y == 1\n") == ["glue", "<module>"]


def test_the_check_finds_tables_built_elsewhere(tmp_path):
    (tmp_path / "diagrams.py").write_text(
        "def _side_position(m, r, o, p):\n    return p\n\n\n"
        "def enumerate_diagrams(X):\n    rows = [_side_position(4, 0, 1, p) for p in range(4)]\n"
        "    return _FaceType('r', 1, rows)\n\n\n"
        "def _glue_faces(chosen):\n    def glue():\n        return _side_position(4, 0, 1, 0)\n"
        "    return glue\n\n\n"
        "def _other_types(X):\n    return [_FaceType('r', -1, ())]\n", encoding="utf-8")
    (tmp_path / "reports.py").write_text(
        "from . import diagrams\n\nNOTE = '_FaceType(cell)'\n\n\n"
        "def forge():\n    return diagrams._FaceType('r', 1, ())\n", encoding="utf-8")
    assert misplaced_table_calls(tmp_path) == [
        "diagrams.py:12 _side_position( _glue_faces.glue",
        "diagrams.py:17 _FaceType( _other_types",
        "reports.py:7 _FaceType( forge"]
