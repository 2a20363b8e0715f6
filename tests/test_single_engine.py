"""drtool has one backtracking engine: ``unionfind.first_acyclic_choices``
is the only code in the package that marks and rolls back a union-find, so
a search that backtracks by hand beside it is found."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "drtool"


def trail_calls(source):
    """(line, method) of each ``.mark(...)`` or ``.rollback(...)`` call in ``source``."""
    return [(node.lineno, node.func.attr) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("mark", "rollback")]


def trail_calls_outside_engine(package):
    """``file:line .method(`` for each such call in a module of ``package``
    other than ``unionfind.py``, sorted."""
    return sorted(f"{path.name}:{line} .{method}("
                  for path in package.glob("*.py") if path.name != "unionfind.py"
                  for line, method in trail_calls(path.read_text(encoding="utf-8")))


def test_only_the_engine_marks_and_rolls_back():
    engine = (PACKAGE / "unionfind.py").read_text(encoding="utf-8")
    assert sorted(method for _, method in trail_calls(engine)) == ["mark", "rollback"]
    assert trail_calls_outside_engine(PACKAGE) == []


def test_the_check_finds_a_hand_written_backtracker(tmp_path):
    (tmp_path / "unionfind.py").write_text(
        "def engine(uf):\n    mark = uf.mark()\n    uf.rollback(mark)\n", encoding="utf-8")
    (tmp_path / "search.py").write_text(
        "def solve(uf, a, b):\n    mark = uf.mark()\n    if not uf.union(a, b):\n"
        "        uf.rollback(mark)\n", encoding="utf-8")
    (tmp_path / "other.py").write_text(
        "NOTE = 'uf.mark()'\n\n\ndef marked(uf):\n    return uf.mark, uf.rollbacks()\n",
        encoding="utf-8")
    assert trail_calls_outside_engine(tmp_path) == ["search.py:2 .mark(", "search.py:4 .rollback("]
