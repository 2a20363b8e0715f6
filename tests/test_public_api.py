"""drtool has no dead public API: every name ``drtool/__init__.py``
re-exports is read by another module of the package or named in the
README, so a name kept only for the tests is found."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def exports(init_source):
    """The names an ``__init__`` module re-exports, ``__version__`` aside."""
    return {alias.asname or alias.name
            for node in ast.parse(init_source).body if isinstance(node, ast.ImportFrom)
            for alias in node.names} - {"__version__"}


def loaded_names(source):
    """Every name the code of ``source`` reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def unused_exports(package, readme):
    """The exports of ``package`` that no other module of it reads and that
    the ``readme`` text does not name in backticks, sorted."""
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            used |= loaded_names(path.read_text(encoding="utf-8"))
    documented = set(re.findall(r"`([^`\n]+)`", readme))
    init = (package / "__init__.py").read_text(encoding="utf-8")
    return sorted(exports(init) - used - documented)


def test_every_export_is_used_or_documented():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unused_exports(ROOT / "src" / "drtool", readme) == []


def test_the_check_finds_an_export_that_only_its_definition_names(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .version import VERSION as __version__\n"
        "from .core import helper, run, spare, told\n", encoding="utf-8")
    (tmp_path / "core.py").write_text(
        "def helper():\n    pass\n\n\ndef run():\n    return helper()\n\n\n"
        "def spare():\n    pass\n\n\ndef told():\n    pass\n", encoding="utf-8")
    (tmp_path / "cli.py").write_text("from . import core\n\ncore.run()\n", encoding="utf-8")
    assert unused_exports(tmp_path, "Call `told` by hand.") == ["spare"]
