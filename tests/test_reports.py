import random
from fractions import Fraction

import pytest

from drtool import AngleAssignment, ZeroOneAssignment, export_dot, link_graph
from drtool import reports
from drtool.errors import ComplexError, DrtoolError, InvalidSearchCap, ParseError
from drtool.lots import bi_forest_orientation, lot_complex
from drtool.reports import (
    AnalyzeOptions,
    analyze,
    analyze_text,
    canonical_json,
    input_sha256,
    parse_weight_value,
)

from conftest import CORPUS, make_trefoil


class TestAnalyze:
    def test_trefoil_report(self):
        rep = analyze(CORPUS / "trefoil.lot")
        assert rep["lot"]["properties"]["reduced"] is True
        assert rep["lot"]["properties"]["injective"] is True
        li = rep["certificates"]["local_indicability"]
        assert li["kind"] == "HUCK_ROSE_BASE"
        assert li["conclusion"]["locally_indicable"] == "certified"
        methods = {a["method"]: a["ok"] for a in rep["certificates"]["dr2"]}
        assert methods["ZERO_ONE"] is True

    def test_w5_report_embeds_quotient_certificate(self):
        rep = analyze(CORPUS / "w5.lot")
        li = rep["certificates"]["local_indicability"]
        assert li["kind"] == "QUOTIENT_STEP"
        assert li["evidence"]["dr2_certificate"]["method"] == "ZERO_ONE"

    def test_torus_with_weights(self):
        rep = analyze(CORPUS / "torus.pres", AnalyzeOptions(weights=Fraction(1, 2)))
        assert rep["tests"]["weight_test"]["pass"] is True
        methods = {a["method"]: a for a in rep["certificates"]["dr2"]}
        assert methods["C4T4"]["ok"] is True
        weighted = methods["WEIGHTED"]
        assert weighted["ok"] is False
        assert weighted["witness"]["path_nodes"] == ["a+", "b-", "a-"]
        assert rep["complex"]["gauss_bonnet"]["total"] == "0"

    @pytest.mark.parametrize("name, unparsable", [
        ("trefoil.lot", "lot\nvertex a b\nedge e1 a b z\n"),
        ("torus.pres", "presentation\ngens a\nrel a z\n"),
    ], ids=["lot", "presentation"])
    def test_a_bad_weight_fails_after_parsing_and_before_any_search(
            self, name, unparsable, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched before the weight was read")

        monkeypatch.setattr(reports, "bi_forest_orientation", no_search)
        monkeypatch.setattr(reports, "find_zero_one_structure", no_search)
        with pytest.raises(ComplexError, match="zero denominator"):
            analyze(CORPUS / name, AnalyzeOptions(weights="1/0"))
        with pytest.raises(ParseError):
            analyze_text(unparsable, AnalyzeOptions(weights="1/0"))

    @pytest.mark.parametrize("weight, shown", [("abc", "'abc'"), (0.1, "0.1"), (True, "True")],
                             ids=["text", "float", "bool"])
    def test_a_weight_that_is_not_an_exact_rational_is_an_input_error(self, weight, shown):
        with pytest.raises(ComplexError) as caught:
            analyze(CORPUS / "torus.pres", AnalyzeOptions(weights=weight))
        assert str(caught.value) == f"cannot interpret weight {shown} as an exact rational"

    def test_searched_coloring_structure_reported(self):
        rep = analyze(CORPUS / "torus.pres")
        assert rep["tests"]["coloring_test"]["pass"] is True

    def test_dh_flags_surface(self):
        rep = analyze(CORPUS / "dh.pres")
        assert any("non-reduced" in f for f in rep["complex"]["validation_flags"])

    def test_diagram_search_section(self):
        rep = analyze(CORPUS / "m2.pres", AnalyzeOptions(max_faces=2))
        assert rep["diagram_search"]["reduced_diagram"] is not None

    def test_negative_face_bound_is_an_input_error(self):
        with pytest.raises(InvalidSearchCap):
            analyze(CORPUS / "torus.pres", AnalyzeOptions(max_faces=-3))
        rep = analyze(CORPUS / "torus.pres", AnalyzeOptions(max_faces=0))
        assert rep["diagram_search"] == {"max_faces": 0, "reduced_diagram": None}

    def test_a_bad_face_bound_is_refused_before_the_analysis(self, monkeypatch):
        def reached(*args):
            raise AssertionError("the analysis ran")

        monkeypatch.setattr(reports, "parse_lot", reached)
        monkeypatch.setattr(reports, "decide_locally_indicable", reached)
        with pytest.raises(InvalidSearchCap,
                           match=r"^max_faces must be a non-negative integer, got -1$"):
            analyze(CORPUS / "trefoil.lot", AnalyzeOptions(max_faces=-1))
        monkeypatch.undo()
        # a bound above the cap is the diagram search's diagnostic, after the analysis
        rep = analyze(CORPUS / "trefoil.lot", AnalyzeOptions(max_faces=9))
        assert rep["certificates"]["local_indicability"]["kind"] == "HUCK_ROSE_BASE"
        assert rep["diagnostics"] == [{
            "check": "diagram_search",
            "error": "CapExceeded: 9 faces exceeds the diagram search cap 8"}]

    def test_timestamp_only_on_request(self):
        rep = analyze(CORPUS / "trefoil.lot")
        assert "timestamp" not in rep
        rep = analyze(CORPUS / "trefoil.lot", AnalyzeOptions(timestamp=True))
        assert "timestamp" in rep

    def test_hash_is_of_canonical_form(self):
        rep = analyze(CORPUS / "trefoil.lot")
        assert rep["input"]["sha256"] == input_sha256(rep["input"]["canonical"])

    def test_reports_byte_identical(self):
        paths = sorted(CORPUS.iterdir())
        for path in paths:
            assert canonical_json(analyze(path)) == canonical_json(analyze(path))


class TestWeightParsing:
    def test_plain_rational(self):
        assert parse_weight_value("1/2") == Fraction(1, 2)

    def test_uniform_prefix(self):
        assert parse_weight_value("uniform:3/4") == Fraction(3, 4)

    def test_integer(self):
        assert parse_weight_value("2") == Fraction(2)

    def test_zero_denominator_is_an_input_error(self):
        with pytest.raises(ComplexError, match="zero denominator"):
            parse_weight_value("uniform:1/0")

    def test_a_uniform_value_is_always_a_rational(self):
        # other text that is not a rational raises ValueError: the CLI then
        # reads it as the name of a weights file
        with pytest.raises(ComplexError, match="cannot interpret weight 'abc'"):
            parse_weight_value("uniform:abc")
        with pytest.raises(ValueError):
            parse_weight_value("abc")


class TestExportDot:
    def test_link_with_zero_one_styles(self):
        lot = make_trefoil()
        K = lot_complex(lot)
        w01 = bi_forest_orientation(lot).assignment
        text = export_dot(link_graph(K, K.vertices[0]), w01)
        assert text.startswith("graph")
        assert '"a+"' in text
        assert "style=dashed" in text and "style=bold" in text
        assert "w=0" in text and "w=1" in text

    def test_empty_link_header_only(self):
        from drtool import build_complex

        X = build_complex(edges=[], cells=[], vertices=["v"])
        text = export_dot(link_graph(X, "v"))
        assert text == 'graph "lk(v)" {\n}\n'

    def test_lot_dot(self):
        text = export_dot(make_trefoil())
        assert '"a" -> "b" [label="e1:c"];' in text

    def test_deterministic(self):
        lot = make_trefoil()
        assert export_dot(lot) == export_dot(lot)

    def test_unsupported_object(self):
        with pytest.raises(DrtoolError):
            export_dot(42)
