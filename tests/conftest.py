import json
from pathlib import Path

import pytest
from hypothesis import settings

from drtool import parse_lot, parse_presentation
from drtool.diagrams import diagram_map_from_jsonable, sphere_from_jsonable

# One profile for every property test: no deadline, examples derived from the
# test itself, and no example database, so runs repeat and leave no files.
settings.register_profile("drtool", deadline=None, derandomize=True, database=None)
settings.load_profile("drtool")

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "corpus"  # the presentations and LOTs the tests read
DIAGRAM_FIXTURES = [  # in FIXTURES / "diagrams"
    "m2_reduced.json",
    "m2_folded.json",
    "torus_pillow.json",
    "torus_pillow_rot.json",
    "trefoil_pillow.json",
]
# a LOG that is not a tree: its three edges close a cycle
NOT_A_TREE = "log\nvertex a b c\nedge e1 a b c\nedge e2 b c a\nedge e3 c a b\n"


def fixture_text(name):
    return (CORPUS / name).read_text(encoding="utf-8")


def load_diagram(name):
    data = json.loads((FIXTURES / "diagrams" / name).read_text())
    S = sphere_from_jsonable(data)
    dmap = diagram_map_from_jsonable(data)
    X = parse_presentation((FIXTURES / data["complex"]).read_text())
    return S, dmap, X


DELETE = object()  # an edit that deletes a JSON node, for ``edited``


def edited(data, path, value):
    """A copy of ``data`` with the node at ``path`` set to ``value``, or
    deleted when ``value`` is ``DELETE``; nodes off the path are shared."""
    head, *rest = path
    copy = dict(data) if isinstance(data, dict) else list(data)
    if rest:
        copy[head] = edited(data[head], rest, value)
    elif value is DELETE:
        del copy[head]
    else:
        copy[head] = value
    return copy


@pytest.fixture(autouse=True)
def no_search_cap_override(monkeypatch):
    """Run every test under the built-in search caps, whatever the shell exports."""
    monkeypatch.delenv("DRTOOL_SEARCH_CAP", raising=False)


# Each call parses the fixture's corpus file again: no two callers share an object.


def make_torus():
    return parse_presentation(fixture_text("torus.pres"))


def make_m2():
    return parse_presentation(fixture_text("m2.pres"))


def make_trefoil():
    return parse_lot(fixture_text("trefoil.lot"))


def make_w5():
    return parse_lot(fixture_text("w5.lot"))


def make_chain6():
    return parse_lot(fixture_text("chain6.lot"))


@pytest.fixture
def torus():
    return make_torus()


@pytest.fixture
def m2():
    return make_m2()


@pytest.fixture
def trefoil():
    return make_trefoil()


@pytest.fixture
def w5():
    return make_w5()


@pytest.fixture
def chain6():
    return make_chain6()
