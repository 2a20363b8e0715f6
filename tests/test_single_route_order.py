"""drtool writes its DR(2) route order once: ``certificates.dr2_routes``
lists the criteria to try, and no module but ``certificates.py`` spells a
method name or calls a DR(2) check, so a module that lists the routes again
by hand is found.  ``analyze``, ``complex dr2`` and the LOT decision all walk
``dr2_routes``.  ``find_zero_one_structure``, which ``reports`` and ``cli``
call, is the search behind the coloring-test report, not a DR(2) route."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "drtool"
METHODS = ("C4T4", "WEIGHTED", "ZERO_ONE")
CHECKS = ("check_dr2_c4t4", "check_dr2_weighted", "check_dr2_zero_one")


def method_literals(source):
    """(line, name) of each string constant in ``source`` that is a DR(2)
    method name; comments and longer strings do not count."""
    return [(node.lineno, node.value) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value in METHODS]


def method_literals_outside_certificates(package):
    """``file:line 'NAME'`` for each such constant in a module of ``package``
    other than ``certificates.py``, sorted."""
    return sorted(f"{path.name}:{line} {name!r}"
                  for path in package.glob("*.py") if path.name != "certificates.py"
                  for line, name in method_literals(path.read_text(encoding="utf-8")))


def check_calls(source):
    """(line, name) of each call in ``source`` of a DR(2) check, by its plain
    or dotted name."""
    return [(node.lineno, name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            for name in [getattr(node.func, "id", None) or getattr(node.func, "attr", None)]
            if name in CHECKS]


def check_calls_outside_certificates(package):
    """``file:line name`` for each such call in a module of ``package`` other
    than ``certificates.py``, sorted."""
    return sorted(f"{path.name}:{line} {name}"
                  for path in package.glob("*.py") if path.name != "certificates.py"
                  for line, name in check_calls(path.read_text(encoding="utf-8")))


def test_only_certificates_names_the_dr2_methods():
    own = (PACKAGE / "certificates.py").read_text(encoding="utf-8")
    assert sorted(name for _, name in method_literals(own)) == list(METHODS)
    assert method_literals_outside_certificates(PACKAGE) == []


def test_the_check_finds_a_route_list_written_by_hand(tmp_path):
    (tmp_path / "certificates.py").write_text('METHOD_C4T4 = "C4T4"\n', encoding="utf-8")
    (tmp_path / "cli.py").write_text(
        '# try "ZERO_ONE" first\nNOTE = "the C4T4 route"\nLABEL = "dr2_weighted"\n\n\n'
        'def attempts(check):\n    return [("C4T4", check())]\n', encoding="utf-8")
    assert method_literals_outside_certificates(tmp_path) == ["cli.py:7 'C4T4'"]


def test_only_certificates_calls_the_dr2_checks():
    own = (PACKAGE / "certificates.py").read_text(encoding="utf-8")
    assert {name for _, name in check_calls(own)} == set(CHECKS)
    assert check_calls_outside_certificates(PACKAGE) == []


def test_the_check_finds_a_dr2_check_called_by_hand(tmp_path):
    (tmp_path / "certificates.py").write_text(
        "def check_dr2_c4t4(X):\n    return X\n\n\n"
        "def dr2_routes(X):\n    yield check_dr2_c4t4, (X,)\n", encoding="utf-8")
    (tmp_path / "lots.py").write_text(
        "from . import certificates\nfrom .certificates import check_dr2_zero_one\n\n"
        "# check_dr2_c4t4(X) is the fallback\nROUTE = check_dr2_zero_one\n\n\n"
        "def seek(X, angles):\n    return (check_dr2_zero_one(X, angles)\n"
        "            or certificates.check_dr2_c4t4(X))\n", encoding="utf-8")
    assert check_calls_outside_certificates(tmp_path) == [
        "lots.py:10 check_dr2_c4t4", "lots.py:9 check_dr2_zero_one"]
