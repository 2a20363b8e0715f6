"""drtool is pure standard-library Python: every absolute import in its
source names a standard-library module. Relative imports stay inside the
package."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "drtool").glob("*.py"))


def absolute_imports(path):
    """(line, top-level module) of each absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_absolute_import_is_from_the_standard_library():
    assert len(SOURCES) > 10
    outside = [f"{path.name}:{line} imports {module}"
               for path in SOURCES for line, module in absolute_imports(path)
               if module not in sys.stdlib_module_names]
    assert outside == []


def test_the_check_reads_nested_imports_and_skips_relative_ones(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import os.path\nfrom . import caps\n\ndef f():\n"
                    "    import numpy\n    from hypothesis.strategies import integers\n",
                    encoding="utf-8")
    assert sorted(absolute_imports(path)) == [(1, "os"), (5, "numpy"), (6, "hypothesis")]
    assert "numpy" not in sys.stdlib_module_names
