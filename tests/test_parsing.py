import random

import pytest

from drtool import (
    build_complex,
    build_lot,
    parse_lot,
    parse_presentation,
    serialize_lot,
    serialize_presentation,
)
from drtool import complexes, lots, parsing
from drtool.errors import ComplexError, ParseError
from drtool.parsing import sniff_kind

from conftest import fixture_text, make_trefoil
from genutil import random_reduced_injective_lot


class TestPresentationGrammar:
    def test_torus_fixture(self):
        X = parse_presentation(fixture_text("torus.pres"))
        assert X == build_complex(
            edges=[("a", "*", "*"), ("b", "*", "*")],
            cells=[("r1", "a b a- b-")],
            vertices=["*"],
        )

    def test_non_reduced_relator_flagged(self):
        X = parse_presentation(fixture_text("dh.pres"))
        assert any("non-reduced" in flag for flag in X.flags)

    def test_empty_relator(self):
        with pytest.raises(ParseError, match="empty relator"):
            parse_presentation("presentation\ngens a\nrel\n")

    def test_unknown_generator_with_line(self):
        with pytest.raises(ParseError, match=r"unknown generator 'z' \(line 3\)"):
            parse_presentation("presentation\ngens a\nrel a z\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_presentation("gens a\n")

    def test_comments_ignored(self):
        X = parse_presentation("# hi\npresentation\n# mid\ngens a  # trailing\nrel a a\n")
        assert [e.id for e in X.edges] == ["a"]


class TestLotGrammar:
    def test_trefoil_fixture(self):
        lot = parse_lot(fixture_text("trefoil.lot"))
        assert lot == build_lot("abc", [("e1", "a", "b", "c"), ("e2", "b", "c", "a")])

    def test_unknown_label_vertex(self):
        text = "lot\nvertex a b\nedge e1 a b z\n"
        with pytest.raises(ParseError, match=r"unknown label vertex 'z' \(line 3\)"):
            parse_lot(text)

    def test_cycle_rejected_under_lot_header(self):
        text = (
            "lot\nvertex a b c\n"
            "edge e1 a b a\nedge e2 b c a\nedge e3 c a b\n"
        )
        with pytest.raises(ParseError, match="not a tree"):
            parse_lot(text)

    def test_log_header_allows_cycles(self):
        text = (
            "log\nvertex a b c\n"
            "edge e1 a b a\nedge e2 b c a\nedge e3 c a b\n"
        )
        lot = parse_lot(text)
        assert not lot.is_tree

    def test_bad_edge_arity(self):
        with pytest.raises(ParseError, match="edge needs"):
            parse_lot("lot\nvertex a b\nedge e1 a b\n")

    @pytest.mark.parametrize("name", ["", "a b", "a\x85", "\u2028", "a#", "#"])
    def test_names_the_grammar_cannot_read_back_are_refused(self, name):
        with pytest.raises(ComplexError, match="must be nonempty, without whitespace or '#'"):
            build_lot([name, "b"], [])
        with pytest.raises(ComplexError, match="must be nonempty, without whitespace or '#'"):
            build_lot(["a", "b", "c"], [(name, "a", "b", "c")])

    def test_each_name_is_checked_once_on_its_line(self, monkeypatch):
        trefoil, checked = make_trefoil(), []

        def counted(kind, name, line=None):
            checked.append((kind, name, line))
            return complexes.check_name(kind, name, line)

        monkeypatch.setattr(parsing, "check_name", counted)
        monkeypatch.setattr(lots, "check_name", counted)
        lot = parse_lot("lot\nvertex a b\nvertex c\nedge e1 a b c\nedge e2 b c a\n")
        assert lot == trefoil
        assert checked == [("vertex", "a", 2), ("vertex", "b", 2), ("vertex", "c", 3),
                           ("edge", "e1", 4), ("edge", "e2", 5)]

    def test_a_bad_name_is_reported_before_a_later_fault(self):
        # the bad vertex is also unknown to the edge on the next line
        with pytest.raises(ParseError, match=r"vertex name 'b-' .* \(line 2\)$"):
            parse_lot("lot\nvertex a b- c\nedge e1 a b c\n")


class TestRoundTrips:
    def test_presentation_round_trip_on_fixtures(self):
        for name in ("torus.pres", "dh.pres", "m2.pres", "genus2.pres",
                     "power4.pres", "ktrefoil.pres"):
            X = parse_presentation(fixture_text(name))
            text = serialize_presentation(X)
            assert parse_presentation(text) == X
            assert serialize_presentation(parse_presentation(text)) == text

    def test_lot_round_trip_on_fixtures(self):
        for name in ("trefoil.lot", "w5.lot", "collapse.lot", "chain6.lot",
                     "noforest.lot"):
            lot = parse_lot(fixture_text(name))
            text = serialize_lot(lot)
            assert parse_lot(text) == lot
            assert serialize_lot(parse_lot(text)) == text

    def test_lot_round_trip_at_forty_vertices(self):
        # past 36 vertices the letter names reach whitespace
        lot = random_reduced_injective_lot(random.Random(1300), 40)
        text = serialize_lot(lot)
        assert parse_lot(text) == lot
        assert serialize_lot(parse_lot(text)) == text

    def test_sniff(self):
        assert sniff_kind(fixture_text("torus.pres")) == "presentation"
        assert sniff_kind(fixture_text("trefoil.lot")) == "lot"
        with pytest.raises(ParseError):
            sniff_kind("whatever\n")
