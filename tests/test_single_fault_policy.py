"""An internal fault has one path out of drtool: ``InvariantViolation`` is not
a ``DrtoolError``, so no handler of input faults catches it, and the only
handlers that catch it are ``cli.main``'s, which exits 2, and the turn of a
forged AMALGAM part1 into a refusal in ``lots._rebuild``.  A handler written
by hand to catch it, or to re-raise it ahead of an ``except DrtoolError``,
is found."""

import ast
from pathlib import Path

from drtool.errors import DrtoolError, InvalidSearchCap, InvariantViolation

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "drtool"
# the names of an except clause that catches an InvariantViolation
CATCHING = {"InvariantViolation", "Exception", "BaseException"}


def catches_a_fault(handler):
    """Whether the except clause ``handler`` catches an InvariantViolation."""
    if handler.type is None:
        return True
    return any((isinstance(node, ast.Name) and node.id in CATCHING)
               or (isinstance(node, ast.Attribute) and node.attr in CATCHING)
               for node in ast.walk(handler.type))


def fault_handlers(source):
    """(line, function) of each except clause in ``source`` that catches an
    InvariantViolation, with the innermost function around it (``<module>``
    outside any)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler) and catches_a_fault(child):
                found.append((child.lineno, function))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(ast.parse(source), "<module>")
    return found


def fault_handlers_in(package):
    """``file:function`` of each such clause in a module of ``package``, with
    its line, sorted."""
    return sorted((f"{path.name}:{function}", line)
                  for path in package.glob("*.py")
                  for line, function in fault_handlers(path.read_text(encoding="utf-8")))


def test_an_internal_fault_is_not_an_input_fault():
    assert not issubclass(InvariantViolation, DrtoolError)
    assert issubclass(InvalidSearchCap, DrtoolError)  # a run-wide input error: exit 1


def test_only_main_and_the_part1_turn_catch_an_internal_fault():
    assert [where for where, _ in fault_handlers_in(PACKAGE)] == ["cli.py:main",
                                                                 "lots.py:_rebuild"]


def test_the_check_finds_a_hand_written_re_raise(tmp_path):
    (tmp_path / "verify.py").write_text(
        "from .errors import DrtoolError, InvariantViolation\n\n\n"
        "def verify(check):\n    try:\n        return check()\n"
        "    except InvariantViolation:\n        raise\n"
        "    except DrtoolError as exc:\n        return str(exc)\n", encoding="utf-8")
    (tmp_path / "broad.py").write_text(
        "from . import errors\n\n\nclass Run:\n    def run(self, step):\n"
        "        def once():\n            try:\n                step()\n"
        "            except (ValueError, errors.InvariantViolation):\n                pass\n"
        "        once()\n\n\ntry:\n    import json\nexcept Exception:\n    json = None\n",
        encoding="utf-8")
    (tmp_path / "other.py").write_text(
        "NOTE = 'except InvariantViolation:'\n\n\ndef read(text):\n    try:\n"
        "        return int(text)\n    except ValueError:\n        return None\n",
        encoding="utf-8")
    assert fault_handlers_in(tmp_path) == [("broad.py:<module>", 16), ("broad.py:once", 9),
                                           ("verify.py:verify", 7)]
