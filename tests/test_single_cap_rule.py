"""drtool has one rule for a search bound: ``caps`` is the only module that
reads a cap (``search_cap``) and the only one that raises ``CapExceeded`` or
``InvalidSearchCap``, or a subclass of either, so a search that compares
against a cap and refuses by hand is found."""

import ast
from pathlib import Path

from drtool import errors

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "drtool"
REFUSALS = {name for name, value in vars(errors).items()
            if isinstance(value, type)
            and issubclass(value, (errors.CapExceeded, errors.InvalidSearchCap))}


def _name(node):
    """The name a Name or Attribute node reads, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def cap_rule_uses(source):
    """(line, what) of each use of ``search_cap`` in ``source``, and of each
    ``raise`` of a cap refusal (a bare re-raise passes one on and is not one)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if _name(node) == "search_cap":
            found.append((node.lineno, "search_cap"))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if _name(raised) in REFUSALS:
                found.append((node.lineno, f"raise {_name(raised)}"))
    return found


def cap_rule_uses_outside_caps(package):
    """``file:line what`` for each such use in a module of ``package`` other
    than ``caps.py``, sorted."""
    return sorted(f"{path.name}:{line} {what}"
                  for path in package.glob("*.py") if path.name != "caps.py"
                  for line, what in cap_rule_uses(path.read_text(encoding="utf-8")))


def test_only_caps_reads_a_cap_and_refuses_a_search():
    rule = (PACKAGE / "caps.py").read_text(encoding="utf-8")
    assert {what for _, what in cap_rule_uses(rule)} == {
        "search_cap", "raise CapExceeded", "raise InvalidSearchCap"}
    assert cap_rule_uses_outside_caps(PACKAGE) == []


def test_the_check_finds_a_hand_written_cap_check(tmp_path):
    (tmp_path / "caps.py").write_text(
        "from .errors import CapExceeded\n\n\ndef search_cap(default):\n    return default\n\n\n"
        "def refuse_above(count, cap):\n    if count > search_cap(cap):\n"
        "        raise CapExceeded(count)\n", encoding="utf-8")
    (tmp_path / "search.py").write_text(
        "from . import caps, errors\nfrom .errors import CapExceeded\n\n\n"
        "def search(items):\n    cap = caps.search_cap(10)\n    if len(items) > cap:\n"
        "        raise CapExceeded(f'{len(items)} items exceeds the cap {cap}')\n"
        "    if cap < 0:\n        raise errors.InvalidSearchCap\n", encoding="utf-8")
    (tmp_path / "other.py").write_text(
        "from .errors import CapExceeded, InvalidSearchCap\n\nNOTE = 'raise CapExceeded'\n\n\n"
        "def run(step):\n    try:\n        return step()\n    except InvalidSearchCap:\n"
        "        raise\n    except CapExceeded as exc:\n        raise ValueError(exc) from exc\n",
        encoding="utf-8")
    assert cap_rule_uses_outside_caps(tmp_path) == [
        "search.py:10 raise InvalidSearchCap", "search.py:6 search_cap",
        "search.py:8 raise CapExceeded"]
