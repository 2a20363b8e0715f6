import json
from pathlib import Path

import pytest
from hypothesis import settings

from drtool import build_complex, build_lot, parse_presentation
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


def fixture_text(name):
    return (CORPUS / name).read_text(encoding="utf-8")


def load_diagram(name):
    data = json.loads((FIXTURES / "diagrams" / name).read_text())
    S = sphere_from_jsonable(data)
    dmap = diagram_map_from_jsonable(data)
    X = parse_presentation((FIXTURES / data["complex"]).read_text())
    return S, dmap, X


@pytest.fixture(autouse=True)
def no_search_cap_override(monkeypatch):
    """Run every test under the built-in search caps, whatever the shell exports."""
    monkeypatch.delenv("DRTOOL_SEARCH_CAP", raising=False)


def make_torus():
    return build_complex(
        edges=[("a", "*", "*"), ("b", "*", "*")],
        cells=[("r1", "a b a- b-")],
        vertices=["*"],
    )


def make_m2():
    return build_complex(
        edges=[("a", "*", "*")], cells=[("r1", "a"), ("r2", "a")], vertices=["*"]
    )


def make_trefoil():
    return build_lot("abc", [("e1", "a", "b", "c"), ("e2", "b", "c", "a")])


def make_w5():
    return build_lot(
        "abcde",
        [
            ("e1", "a", "b", "c"),
            ("e2", "b", "c", "a"),
            ("e3", "c", "d", "e"),
            ("e4", "d", "e", "b"),
        ],
    )


def make_chain6():
    return build_lot(
        "abcdef",
        [
            ("e1", "a", "b", "c"),
            ("e2", "b", "c", "a"),
            ("e3", "c", "d", "e"),
            ("e4", "d", "e", "f"),
            ("e5", "e", "f", "d"),
        ],
    )


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
