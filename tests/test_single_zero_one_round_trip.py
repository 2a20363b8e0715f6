"""drtool certifies a LOT on its links' integer tables.  Deciding each
fixture LOT, then ``verify_li_tree`` and ``verify_dr2_certificate`` on each
embedded certificate, read back from JSON, leave every link built on the way
without its ``corners``, the ``Corner`` view that only the walk-based checks
read.  ``lots._rebuild`` writes a base node's bi-forest from its recorded
signs with ``_bi_forest_of`` and never runs the search engine
``first_acyclic_choices``: a replay is a check, not a search."""

import pytest

from drtool import (
    complexes,
    decide_locally_indicable,
    lots,
    parse_lot,
    verify_dr2_certificate,
    verify_li_tree,
)
from drtool.certificates import Dr2Certificate
from drtool.curvature import AngleAssignment

from conftest import CORPUS, FIXTURES


def decidable(path):
    lot = parse_lot(path.read_text())
    return lot.is_injective and lot.is_tree


LOTS = [path for path in [*sorted(CORPUS.glob("*.lot")), *sorted((FIXTURES / "lots").glob("*.lot"))]
        if decidable(path)]


def round_trip(monkeypatch, text):
    """Decide the LOT ``text`` and verify its certificate tree and each embedded
    DR(2) certificate as read back from JSON; returns the number of links built
    that hold their ``corners``, and the engine runs made inside ``_rebuild``."""
    links, rebuilding, searches = [], [], []
    link_graph, engine, rebuild = complexes.link_graph, lots.first_acyclic_choices, lots._rebuild

    def recorded_link(X, v):
        links.append(link_graph(X, v))
        return links[-1]

    def watched_engine(*args):
        searches.extend(rebuilding[-1:])
        return engine(*args)

    def watched_rebuild(tree):
        rebuilding.append(tree.kind)
        try:
            return rebuild(tree)
        finally:
            rebuilding.pop()

    monkeypatch.setattr(complexes, "link_graph", recorded_link)
    monkeypatch.setattr(lots, "first_acyclic_choices", watched_engine)
    monkeypatch.setattr(lots, "_rebuild", watched_rebuild)
    tree = lots.LiCertificateTree.from_jsonable(
        decide_locally_indicable(parse_lot(text)).to_jsonable())
    assert verify_li_tree(tree) == (True, [])
    stack = [tree]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        if "dr2_certificate" in node.evidence:
            certificate = Dr2Certificate.from_jsonable(node.evidence["dr2_certificate"])
            assert verify_dr2_certificate(certificate) == (True, [])
    return sum("corners" in vars(G) for G in links), searches


@pytest.mark.parametrize("path", LOTS, ids=lambda path: path.name)
def test_the_round_trip_builds_no_corner_and_replays_without_a_search(monkeypatch, path):
    assert round_trip(monkeypatch, path.read_text()) == (0, [])


def test_the_check_finds_corners_built_and_a_replay_that_searches(monkeypatch):
    # the earlier domain check, over the Corner table, on the links of the
    # verified tree's LOT complex and of the certificate's complex, and a
    # rebuild that searches the bi-forest again beside its trigger search
    text = (CORPUS / "trefoil.lot").read_text()
    validate_total, trigger = AngleAssignment.validate_total, lots.maximal_proper_sub_lot
    monkeypatch.setattr(AngleAssignment, "validate_total",
                        lambda self, X: X.corners and validate_total(self, X))
    monkeypatch.setattr(lots, "maximal_proper_sub_lot",
                        lambda lot: lots.bi_forest_orientation(lot) and trigger(lot))
    built, searches = round_trip(monkeypatch, text)
    assert built == 2 and searches == [lots.KIND_HUCK_ROSE_BASE]
