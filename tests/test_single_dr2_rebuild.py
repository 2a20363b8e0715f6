"""drtool checks a DR(2) certificate embedded in an LI certificate tree by the
one rule it checks every field by: ``certificates.rerun_dr2`` writes the
certificate again from its recorded method and choice, and the node's
evidence compares it with the recorded one.  The code of ``lots.py``
therefore never uses ``verify_dr2_certificate`` or ``Dr2Certificate`` (to
call it, build with it or pass it on), so a path that verifies an embedded
certificate on its own and then takes it as recorded is found.  Imports and
text do not count, and aliases made elsewhere are not followed."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "drtool"
NAMES = ("Dr2Certificate", "verify_dr2_certificate")


def certificate_uses(path):
    """``file:line name`` for each use, bare or as an attribute, of one of
    ``NAMES`` in the code of the module at ``path``, sorted."""
    return sorted(f"{path.name}:{node.lineno} {name}"
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  for name in [node.id if isinstance(node, ast.Name)
                               else node.attr if isinstance(node, ast.Attribute) else None]
                  if name in NAMES)


def test_lots_neither_verifies_nor_builds_a_dr2_certificate():
    assert certificate_uses(PACKAGE / "lots.py") == []
    # the names are spelled as verify-cert, which checks a top-level certificate, uses them
    assert {line.split()[1] for line in certificate_uses(PACKAGE / "cli.py")} == set(NAMES)


def test_the_check_finds_a_certificate_verified_then_trusted(tmp_path):
    path = tmp_path / "lots.py"
    path.write_text(
        "from . import certificates\n"
        "from .certificates import Dr2Certificate, rerun_dr2, verify_dr2_certificate\n\n"
        "# verify_dr2_certificate(Dr2Certificate(...)) was the old path\n"
        "NOTE = 'Dr2Certificate('\n\n\n"
        "def embedded(data, K):\n"
        "    ok, _ = verify_dr2_certificate(Dr2Certificate(data['method'], K, {}, {}))\n"
        "    return ok and certificates.Dr2Certificate.from_jsonable(data)\n\n\n"
        "def trusted(data, check=verify_dr2_certificate):\n"
        "    return check(data)\n\n\n"
        "def rebuilt(data, K):\n"
        "    return rerun_dr2(K, data['method'], data['hypotheses'])\n", encoding="utf-8")
    assert certificate_uses(path) == [
        "lots.py:10 Dr2Certificate", "lots.py:13 verify_dr2_certificate",
        "lots.py:9 Dr2Certificate", "lots.py:9 verify_dr2_certificate"]
