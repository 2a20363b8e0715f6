import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import drtool
from drtool import (
    build_lot,
    check_dr2_c4t4,
    decide_locally_indicable,
    parse_presentation,
    verify_li_tree,
)
from drtool.cli import main
from drtool.reports import AnalyzeOptions, analyze, canonical_json

from conftest import CORPUS, FIXTURES, NOT_A_TREE, fixture_text, make_trefoil, make_w5


# The directory holding the drtool package this process imported, so the
# child runs the same code whether or not drtool is installed.
DRTOOL_ROOT = str(Path(drtool.__file__).resolve().parent.parent)


def run_cli(*args, env=None):
    """Run ``python -m drtool`` on the imported drtool, with ``env`` overlaid.

    The child inherits this process's environment except for
    ``DRTOOL_SEARCH_CAP``, which it sees only when ``env`` sets it.
    """
    child_env = {k: v for k, v in os.environ.items() if k != "DRTOOL_SEARCH_CAP"}
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [DRTOOL_ROOT, child_env.get("PYTHONPATH")])
    )
    child_env.update(env or {})
    return subprocess.run(
        [sys.executable, "-m", "drtool", *args],
        capture_output=True,
        text=True,
        env=child_env,
    )


def assert_one_error_line(result, start="error: "):
    assert result.returncode == 1
    assert result.stderr.startswith(start)
    assert result.stderr.count("\n") == 1


NOT_UTF8 = b"lot\nvertex a b\xff\n"


def test_lot_check_json(capsys):
    assert main(["lot", "check", str(CORPUS / "trefoil.lot"), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["properties"]["reduced"] is True


def test_lot_decide_emits_verifiable_certificate(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code = main(
        ["lot", "decide", str(CORPUS / "w5.lot"), "--emit-cert", str(cert), "--json"]
    )
    assert code == 0
    capsys.readouterr()
    data = json.loads(cert.read_text())
    assert data["kind"] == "QUOTIENT_STEP"
    assert main(["verify-cert", str(cert), "--json"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["ok"] is True


def test_weighttest_uniform(capsys):
    code = main(
        ["complex", "weighttest", str(CORPUS / "torus.pres"), "--weights", "1/2", "--json"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_coloringtest_search(capsys):
    code = main(["complex", "coloringtest", str(CORPUS / "torus.pres"), "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True
    assert len(out["angles"]) == 4


def test_c4t4(capsys):
    assert main(["complex", "c4t4", str(CORPUS / "genus2.pres"), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_complex_dr2_certificate_round_trip(tmp_path, capsys):
    cert = tmp_path / "dr2.json"
    code = main(
        ["complex", "dr2", str(CORPUS / "torus.pres"), "--weights", "uniform:1/2",
         "--emit-cert", str(cert), "--json"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dr2_certified"] is True
    methods = {a["method"]: a["ok"] for a in out["attempts"]}
    assert methods["C4T4"] is True
    assert methods["WEIGHTED"] is False
    assert main(["verify-cert", str(cert), "--json"]) == 0


@pytest.mark.parametrize("angles, first_ok", [
    ([1, 0, 1, 0], "ZERO_ONE"),  # the torus's zero/one structure
    ([0, 0, 0, 0], "C4T4"),  # all zero: the coloring test fails
])
def test_complex_dr2_and_analyze_try_the_routes_in_one_order(tmp_path, capsys, angles, first_ok):
    angles_file = tmp_path / "angles.json"
    angles_file.write_text(json.dumps(
        [{"cell": "r1", "position": p, "weight": w} for p, w in enumerate(angles)]))
    torus = str(CORPUS / "torus.pres")
    options = ["--angles", str(angles_file), "--weights", "1/2", "--json"]
    dr2_cert, analyze_cert = tmp_path / "dr2.json", tmp_path / "analyze.json"
    assert main(["complex", "dr2", torus, *options, "--emit-cert", str(dr2_cert)]) == 0
    attempts = json.loads(capsys.readouterr().out)["attempts"]
    assert [(a["method"], a["ok"]) for a in attempts] == [
        ("ZERO_ONE", first_ok == "ZERO_ONE"), ("C4T4", True), ("WEIGHTED", False)]
    assert json.loads(dr2_cert.read_text())["method"] == first_ok
    assert main(["verify-cert", str(dr2_cert), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"ok": True, "problems": []}
    assert main(["analyze", torus, *options, "--emit-cert", str(analyze_cert)]) == 0
    assert json.loads(capsys.readouterr().out)["certificates"]["dr2"] == attempts
    assert analyze_cert.read_text() == dr2_cert.read_text()


def test_diagram_verify(capsys):
    code = main(
        ["diagram", "verify", str(FIXTURES / "diagrams" / "torus_pillow.json"),
         "--complex", str(CORPUS / "torus.pres"), "--json"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["reduced"] is False
    assert len(out["folding_edges"]) == 4


def test_diagram_search(capsys):
    code = main(
        ["diagram", "search", str(CORPUS / "m2.pres"), "--max-faces", "2", "--json"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["reduced_diagram"] is not None


def test_diagram_search_prints_the_cap_it_defaults_to(monkeypatch, capsys):
    monkeypatch.setenv("DRTOOL_SEARCH_CAP", "3")
    assert main(["diagram", "search", str(CORPUS / "m2.pres"), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["max_faces"] == 3


def test_analyze_exit_zero_even_with_unknown(capsys):
    assert main(["analyze", str(CORPUS / "noforest.lot"), "--json"]) == 0


def test_parse_error_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.lot"
    bad.write_text("lot\nvertex a\nedge e1 a a z\n")
    assert main(["lot", "check", str(bad)]) == 1


def test_missing_file_exit_one():
    assert main(["lot", "check", "/nonexistent.lot"]) == 1


def test_dot_export(tmp_path):
    dot = tmp_path / "out.dot"
    assert main(["lot", "check", str(CORPUS / "trefoil.lot"), "--dot", str(dot)]) == 0
    text = dot.read_text()
    assert text.startswith("digraph")
    assert '"a" -> "b"' in text


def test_corpus_subprocess():
    result = run_cli("corpus", str(CORPUS), "--json")
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert data["summary"]["files"] == 11
    assert data["summary"]["parse_errors"] == 0
    assert data["summary"]["local_indicability"]["certified"] >= 3


def test_corpus_deterministic():
    a = run_cli("corpus", str(CORPUS), "--json").stdout
    b = run_cli("corpus", str(CORPUS), "--json").stdout
    assert a == b


def test_version():
    result = run_cli("--version")
    assert result.returncode == 0
    assert "drtool" in result.stdout


def test_invariant_violation_exit_two(monkeypatch):
    import drtool.cli as cli
    from drtool.errors import InvariantViolation

    def boom(args):
        raise InvariantViolation("synthetic")

    monkeypatch.setattr(cli, "_cmd_lot_check", boom)
    assert cli.main(["lot", "check", str(CORPUS / "trefoil.lot")]) == 2


@pytest.mark.parametrize("argv", [
    ["analyze", str(CORPUS / "trefoil.lot"), "--json"],
    ["corpus", str(CORPUS), "--json"],
], ids=["analyze", "corpus"])
def test_invariant_violation_in_a_check_exits_two(monkeypatch, capsys, argv):
    # an internal fault is neither a diagnostic nor an error row
    import drtool.reports as reports
    from drtool.errors import InvariantViolation

    def boom(lot):
        raise InvariantViolation("synthetic")

    monkeypatch.setattr(reports, "decide_locally_indicable", boom)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal invariant violation: synthetic\n"


def test_invariant_violation_in_verification_exits_two(monkeypatch, capsys, tmp_path):
    # a fault in the verifier is not a problem with the certificate
    import drtool.lots as lots
    from drtool.errors import InvariantViolation

    tree = decide_locally_indicable(make_w5())
    cert = tmp_path / "w5.json"
    cert.write_text(canonical_json(tree.to_jsonable()), encoding="utf-8")

    def boom(X, method, hypotheses):
        raise InvariantViolation("synthetic")

    monkeypatch.setattr(lots, "rerun_dr2", boom)
    with pytest.raises(InvariantViolation, match="synthetic"):
        verify_li_tree(tree)
    assert main(["verify-cert", str(cert), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal invariant violation: synthetic\n"


def test_search_cap_env_override():
    # 4 faces is under the built-in cap of 8, so only the override refuses it.
    args = ("diagram", "search", str(CORPUS / "m2.pres"), "--max-faces", "4")
    result = run_cli(*args, env={"DRTOOL_SEARCH_CAP": "3"})
    assert result.returncode == 1
    assert "cap" in result.stderr
    assert "search cap 3" in result.stderr
    assert run_cli(*args).returncode == 0


def test_non_integer_search_cap_is_an_input_error():
    args = ("diagram", "search", str(CORPUS / "m2.pres"), "--max-faces", "2")
    result = run_cli(*args, env={"DRTOOL_SEARCH_CAP": "abc"})
    assert_one_error_line(result, "error: DRTOOL_SEARCH_CAP must be an integer")


TORUS = str(CORPUS / "torus.pres")


@pytest.mark.parametrize("args", [
    ("diagram", "search", TORUS, "--max-faces", "abc"),
    ("diagram", "search"),
    ("bogus",),
    ("diagram", "search", TORUS, "--max-faces", "-1"),
    ("analyze", TORUS, "--max-faces", "-1"),
    ("complex", "weighttest", TORUS),
], ids=["max-faces-not-int", "missing-path", "unknown-command",
        "search-negative-max-faces", "analyze-negative-max-faces", "weighttest-without-weights"])
def test_a_usage_error_is_an_input_error(args):
    assert_one_error_line(run_cli(*args))


def test_a_negative_search_cap_is_an_input_error():
    result = run_cli("diagram", "search", TORUS, env={"DRTOOL_SEARCH_CAP": "-5"})
    assert_one_error_line(result, "error: DRTOOL_SEARCH_CAP must not be negative")


def test_zero_faces_and_help_still_exit_zero():
    result = run_cli("diagram", "search", TORUS, "--max-faces", "0", "--json")
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"max_faces": 0, "reduced_diagram": None}
    assert run_cli("--help").returncode == 0


def test_analyze_leaves_out_a_search_that_raised():
    # a search that never ran found nothing, so its section is absent
    result = run_cli("analyze", TORUS, "--max-faces", "9", "--json")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert "diagram_search" not in report
    assert [d["check"] for d in report["diagnostics"]] == ["diagram_search"]

    result = run_cli("analyze", str(CORPUS / "trefoil.lot"), "--json",
                     env={"DRTOOL_SEARCH_CAP": "2"})
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert "bi_forest" not in report["lot"]
    assert [d["check"] for d in report["diagnostics"]] == ["bi_forest", "decide"]


@pytest.mark.parametrize("argv", [["analyze", str(CORPUS / "trefoil.lot")],
                                  ["analyze", str(CORPUS / "torus.pres")],
                                  ["corpus", str(CORPUS)]])
def test_non_integer_search_cap_fails_the_whole_analysis(argv, monkeypatch, capsys):
    # the searches run inside per-check error capture, which must not absorb it
    monkeypatch.setenv("DRTOOL_SEARCH_CAP", "abc")
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: DRTOOL_SEARCH_CAP")


@pytest.mark.parametrize("command", [["analyze"], ["lot", "decide"]])
def test_text_that_is_not_utf8_is_an_input_error(tmp_path, command):
    bad = tmp_path / "bad.lot"
    bad.write_bytes(NOT_UTF8)
    assert_one_error_line(run_cli(*command, str(bad)), "error: not UTF-8 text")


def test_corpus_reports_a_file_that_is_not_utf8_and_goes_on(tmp_path):
    (tmp_path / "bad.lot").write_bytes(NOT_UTF8)
    (tmp_path / "trefoil.lot").write_text(fixture_text("trefoil.lot"), encoding="utf-8")
    result = run_cli("corpus", str(tmp_path), "--json")
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert data["summary"]["files"] == 2
    assert data["summary"]["parse_errors"] == 1
    assert data["reports"]["bad.lot"]["error"].startswith("ParseError: not UTF-8 text")
    assert data["summary"]["local_indicability"]["certified"] == 1


def test_analyze_a_log_that_is_not_a_tree(tmp_path):
    path = tmp_path / "cycle.log"
    path.write_text(NOT_A_TREE, encoding="utf-8")
    result = run_cli("analyze", str(path), "--json")
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    lot = report["lot"]
    assert lot["is_tree"] is False
    assert [lot["reduced_form"], lot["reduction_log"], lot["bi_forest"]] == [None] * 3
    # the LOG's own complex: one square per edge
    assert (report["complex"]["cells"], report["complex"]["edges"]) == (3, 3)
    assert [a["method"] for a in report["certificates"]["dr2"]] == ["C4T4"]
    assert report["certificates"]["local_indicability"] is None


def test_corpus_analyses_a_log_that_is_not_a_tree(tmp_path):
    (tmp_path / "cycle.log").write_text(NOT_A_TREE, encoding="utf-8")
    (tmp_path / "trefoil.lot").write_text(fixture_text("trefoil.lot"), encoding="utf-8")
    result = run_cli("corpus", str(tmp_path), "--json")
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert data["summary"]["parse_errors"] == 0
    assert data["reports"]["cycle.log"]["lot"]["is_tree"] is False
    assert data["summary"]["local_indicability"] == {
        "certified": 1, "unknown": 0, "not_attempted": 1}


def li_certificate_without_lot():
    data = decide_locally_indicable(make_w5()).to_jsonable()
    data["lot"] = None
    return data


def li_certificate_with_a_vertex_name(name, in_sub_lot=False):
    """The w5 LI certificate with its first vertex renamed ``name`` in the
    root LOT, or in the recorded sub-LOT with ``in_sub_lot``."""
    def make_data():
        data = decide_locally_indicable(make_w5()).to_jsonable()
        lot = data["evidence"]["sub_lot"] if in_sub_lot else data["lot"]
        old = lot["vertices"][0]
        lot["vertices"][0] = name
        lot["edges"] = [[name if v == old else v for v in edge] for edge in lot["edges"]]
        return data
    return make_data


def li_certificate_with(make, path, change):
    """The LI certificate of ``make()``, with the field at ``path`` set to
    ``change`` of its value."""
    def make_data():
        data = decide_locally_indicable(make()).to_jsonable()
        *head, last = path
        node = data
        for key in head:
            node = node[key]
        node[last] = change(node[last])
        return data
    return make_data


def c4t4_certificate_with(key, change):
    """The torus C4T4 certificate, with ``key`` of its complex set to
    ``change`` of its value."""
    def make_data():
        data = check_dr2_c4t4(parse_presentation(fixture_text("torus.pres"))).certificate
        data = data.to_jsonable()
        data["complex"][key] = change(data["complex"][key])
        return data
    return make_data


def with_first_item_longer(items):
    """``items`` with one more item on its first item."""
    return [items[0] + ["x"], *items[1:]]


# each case builds its JSON when it runs, under the built-in search caps
@pytest.mark.parametrize("command, make_data", [
    (["verify-cert"], lambda: [1, 2]),
    (["verify-cert"], lambda: {"format": "li-certificate/1"}),
    (["verify-cert"], li_certificate_without_lot),
    (["verify-cert"], li_certificate_with_a_vertex_name("a\x85")),
    # a JSON list is read only from a list, never from a string or an object
    (["verify-cert"], li_certificate_with(make_trefoil, ["children"], lambda old: "")),
    (["verify-cert"], li_certificate_with(make_trefoil, ["children"], lambda old: {})),
    (["verify-cert"], li_certificate_with(lambda: build_lot("a", []), ["lot", "edges"],
                                          lambda old: "")),
    (["verify-cert"], li_certificate_with(make_trefoil, ["lot", "vertices"], "".join)),
    (["verify-cert"], lambda: trefoil_tree_with_a_pair_form_word()["evidence"]["dr2_certificate"]),
    (["diagram", "verify", "--complex", str(CORPUS / "torus.pres")], lambda: {"faces": 1}),
    # a complex's vertices, edges and cells are lists, an edge of 3 items and
    # a cell of 2, and a LOT edge has 4 items
    (["verify-cert"], c4t4_certificate_with("vertices", lambda old: "*")),
    (["verify-cert"], c4t4_certificate_with("edges", lambda old: ["a**", "b**"])),
    (["verify-cert"], c4t4_certificate_with("edges", with_first_item_longer)),
    (["verify-cert"], c4t4_certificate_with("cells", with_first_item_longer)),
    (["verify-cert"], li_certificate_with(make_w5, ["lot", "edges"], with_first_item_longer)),
], ids=["not-an-object", "li-without-kind", "li-lot-null", "li-lot-name-nel",
        "li-children-string", "li-children-object", "li-lot-edges-string",
        "li-lot-vertices-string", "zero-one-pair-form-word", "diagram-faces-int",
        "c4t4-vertices-string", "c4t4-edges-strings", "c4t4-edge-of-four", "c4t4-cell-of-three",
        "li-lot-edge-of-five"])
def test_json_of_the_wrong_shape_is_an_input_error(tmp_path, command, make_data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(make_data()), encoding="utf-8")
    assert_one_error_line(run_cli(*command, str(path)))


def with_first_item_repeated(items):
    """``items`` with its first item once more at the end."""
    return [*items, items[0]]


@pytest.mark.parametrize("make_data, message", [
    (li_certificate_with(make_trefoil, ["lot", "vertices"], with_first_item_repeated),
     "duplicate vertex id"),
    (li_certificate_with(make_trefoil, ["lot", "edges"], with_first_item_repeated),
     "duplicate edge id"),
    (c4t4_certificate_with("cells", with_first_item_repeated), "duplicate cell id 'r1'"),
    (c4t4_certificate_with("vertices", with_first_item_repeated), "duplicate vertex id"),
], ids=["li-lot-vertex", "li-lot-edge", "c4t4-cell", "c4t4-vertex"])
def test_a_repeated_id_in_a_certificate_is_an_input_error(tmp_path, make_data, message):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(make_data()), encoding="utf-8")
    result = run_cli("verify-cert", str(path))
    assert_one_error_line(result)
    assert result.stderr == f"error: {message}\n"


def test_a_lot_without_vertices_is_an_input_error(tmp_path):
    path = tmp_path / "empty.lot"
    path.write_text("lot\n", encoding="utf-8")
    result = run_cli("lot", "check", str(path))
    assert_one_error_line(result)
    assert result.stderr == "error: a LOT needs at least one vertex\n"


@pytest.mark.parametrize("make_data, fmt", [
    (lambda: check_dr2_c4t4(parse_presentation(fixture_text("torus.pres"))).certificate,
     "dr2-certificate/2"),
    (lambda: decide_locally_indicable(make_w5()), "li-certificate/2"),
], ids=["dr2", "li"])
def test_verify_cert_reads_only_the_format_drtool_writes(tmp_path, make_data, fmt):
    data = make_data().to_jsonable()
    data["format"] = fmt
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    result = run_cli("verify-cert", str(path))
    assert_one_error_line(result)
    assert result.stderr == f"error: unknown certificate format '{fmt}'\n"


@pytest.mark.parametrize("command, text, message", [
    (["lot", "decide"], "lot\nvertex a- b c\nedge e1 a- b c\nedge e2 b c a-\n",
     "vertex name 'a-' must be nonempty, without whitespace or '#', and not end in '-' "
     "(line 2)"),
    (["lot", "decide"], "lot\nvertex a b c\nedge e1 a b c\nedge e2- b c a\n",
     "edge name 'e2-' must be nonempty, without whitespace or '#', and not end in '-' "
     "(line 4)"),
    (["complex", "c4t4"], "presentation\ngens a- b\nrel b b\n",
     "generator name 'a-' must be nonempty, without whitespace or '#', and not end in '-' "
     "(line 2)"),
], ids=["lot-decide-vertex", "lot-decide-edge", "c4t4-generator"])
def test_a_name_ending_in_minus_is_an_input_error(tmp_path, command, text, message):
    # the letter a- of such an edge would read back as edge a inverted
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    result = run_cli(*command, str(path))
    assert_one_error_line(result)
    assert result.stderr == f"error: {message}\n"


def quotient_step_without_evidence():
    data = decide_locally_indicable(make_w5()).to_jsonable()
    data["evidence"] = {}
    return data


def base_node_whose_epsilon_lacks_a_generator():
    data = decide_locally_indicable(make_w5()).to_jsonable()
    del data["children"][0]["evidence"]["epsilon"]["a"]
    return data


def base_node_whose_epsilon_has(generator, sign):
    def make_data():
        data = decide_locally_indicable(make_w5()).to_jsonable()
        data["children"][0]["evidence"]["epsilon"][generator] = sign
        return data
    return make_data


def quotient_step_of_a_lot_that_is_not_injective():
    data = decide_locally_indicable(make_w5()).to_jsonable()
    data["lot"]["edges"][3][3] = "a"  # e4 now shares e2's label
    return data


def quotient_step_of_a_lot_that_is_not_a_tree():
    data = decide_locally_indicable(make_w5()).to_jsonable()
    del data["lot"]["edges"][3]  # e4 goes, and e is cut off from the rest
    return data


def trefoil_tree_with_a_pair_form_word():
    """The trefoil's LI certificate, with the first cell word of its
    embedded ZERO_ONE certificate written as ``[edge, sign]`` pairs, a form
    drtool never writes."""
    data = decide_locally_indicable(make_trefoil()).to_jsonable()
    cell = data["evidence"]["dr2_certificate"]["complex"]["cells"][0]
    cell[1] = [[letter.removesuffix("-"), -1 if letter.endswith("-") else 1]
               for letter in cell[1]]
    return data


def trefoil_tree_with_a_zero_denominator_angle():
    data = decide_locally_indicable(make_trefoil()).to_jsonable()
    data["evidence"]["dr2_certificate"]["hypotheses"]["angles"][0]["weight"] = "1/0"
    return data


def zero_one_certificate_with_a_zero_denominator_angle():
    return trefoil_tree_with_a_zero_denominator_angle()["evidence"]["dr2_certificate"]


def c4t4_certificate_without_hypotheses():
    cert = check_dr2_c4t4(parse_presentation(fixture_text("torus.pres"))).certificate
    data = cert.to_jsonable()
    data["hypotheses"] = {}
    return data


def zero_one_certificate_with_first_angle(key, value):
    """The trefoil's ZERO_ONE certificate, with ``key`` of its first angle
    row set to ``value``."""
    def make_data():
        data = decide_locally_indicable(make_trefoil()).to_jsonable()
        cert = data["evidence"]["dr2_certificate"]
        cert["hypotheses"]["angles"][0][key] = value
        return cert
    return make_data


@pytest.mark.parametrize("make_data, problem", [
    (quotient_step_without_evidence,
     "root: evidence does not re-check: KeyError: 'sub_lot'"),
    (base_node_whose_epsilon_lacks_a_generator,
     "quotient_step[0]: evidence does not re-check: KeyError: 'a'"),
    (base_node_whose_epsilon_has("a", "banana"),
     "quotient_step[0]: evidence does not re-check: ValueError: "
     "recorded orientation must map exactly the LOT's vertices to + or -"),
    (base_node_whose_epsilon_has("zz", "+"),
     "quotient_step[0]: evidence does not re-check: ValueError: "
     "recorded orientation must map exactly the LOT's vertices to + or -"),
    (quotient_step_of_a_lot_that_is_not_injective,
     "root: evidence does not re-check: NotInjective: quotients are taken of injective LOTs"),
    (quotient_step_of_a_lot_that_is_not_a_tree, "root: node LOT is not a tree"),
    (li_certificate_with_a_vertex_name("", in_sub_lot=True),
     "root: evidence does not re-check: ComplexError: "
     "vertex name '' must be nonempty, without whitespace or '#', and not end in '-'"),
    (li_certificate_with(make_w5, ["evidence", "sub_lot", "vertices"], "".join),
     "root: evidence does not re-check: TypeError: vertices must be a list, not str"),
    (li_certificate_with(make_w5, ["evidence", "sub_lot", "edges"], with_first_item_longer),
     "root: evidence does not re-check: ValueError: an edge must have 4 items, not 5"),
    (c4t4_certificate_without_hypotheses,
     "hypotheses do not re-check: KeyError: 'piece_counts'"),
    (zero_one_certificate_with_a_zero_denominator_angle,
     "hypotheses do not re-check: ComplexError: weight '1/0' has a zero denominator"),
    (trefoil_tree_with_a_pair_form_word,
     "root: dr2 certificate: recorded value disagrees with recomputation"),
    (trefoil_tree_with_a_zero_denominator_angle,
     "root: evidence does not re-check: ComplexError: weight '1/0' has a zero denominator"),
    (zero_one_certificate_with_first_angle("weight", 1.0),
     "hypotheses do not re-check: ComplexError: cannot interpret weight 1.0 as an exact rational"),
    (zero_one_certificate_with_first_angle("position", 0.7),
     "hypotheses do not re-check: ComplexError: "
     "cannot interpret corner position 0.7 as an integer"),
    (zero_one_certificate_with_first_angle("weight", True),
     "hypotheses do not re-check: ComplexError: cannot interpret weight True as an exact rational"),
    (zero_one_certificate_with_first_angle("position", True),
     "hypotheses do not re-check: ComplexError: "
     "cannot interpret corner position True as an integer"),
    (zero_one_certificate_with_first_angle("position", "x"),
     "hypotheses do not re-check: ComplexError: "
     "cannot interpret corner position 'x' as an integer"),
], ids=["quotient-step-evidence-empty", "base-epsilon-short", "base-epsilon-not-a-sign",
        "base-epsilon-extra-generator", "quotient-step-lot-not-injective",
        "quotient-step-lot-not-a-tree",
        "quotient-step-sub-lot-name-empty", "quotient-step-sub-lot-vertices-string",
        "quotient-step-sub-lot-edge-of-five",
        "c4t4-hypotheses-empty", "zero-one-angle-1-over-0", "li-tree-pair-form-word",
        "li-tree-angle-1-over-0",
        "zero-one-float-angle", "zero-one-float-position", "zero-one-bool-angle",
        "zero-one-bool-position", "zero-one-text-position"])
def test_verify_cert_reports_malformed_evidence_as_a_problem(tmp_path, make_data, problem):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(make_data()), encoding="utf-8")
    result = run_cli("verify-cert", str(path), "--json")
    assert result.returncode == 0
    assert result.stderr == ""
    assert json.loads(result.stdout) == {"ok": False, "problems": [problem]}


ROWS = "ROWS"  # stands for a JSON file of angle rows


@pytest.mark.parametrize("args", [
    ["complex", "weighttest", TORUS, "--weights", "1/0"],
    ["complex", "weighttest", TORUS, "--weights", "uniform:1/0"],
    ["analyze", TORUS, "--weights", "1/0"],
    ["corpus", str(CORPUS), "--weights", "1/0"],
    ["complex", "dr2", TORUS, "--weights", "1/0"],
    ["complex", "weighttest", TORUS, "--weights", ROWS],
    ["analyze", TORUS, "--angles", ROWS],
], ids=["weighttest", "weighttest-uniform", "analyze", "corpus", "dr2", "weights-file",
        "angles-file"])
def test_a_zero_denominator_is_an_input_error(tmp_path, args):
    rows = tmp_path / "rows.json"
    rows.write_text(json.dumps([{"cell": "r1", "position": 0, "weight": "1/0"}]),
                    encoding="utf-8")
    result = run_cli(*[str(rows) if a == ROWS else a for a in args])
    assert_one_error_line(result, "error: weight '1/0' has a zero denominator")


@pytest.mark.parametrize("args", [
    ["complex", "weighttest", TORUS],
    ["complex", "dr2", TORUS],
    ["analyze", TORUS],
    ["corpus", str(CORPUS)],
], ids=["weighttest", "dr2", "analyze", "corpus"])
def test_a_uniform_weight_is_never_read_as_a_file_name(args):
    result = run_cli(*args, "--weights", "uniform:abc")
    assert_one_error_line(result, "error: cannot interpret weight 'abc' as an exact rational")


@pytest.mark.parametrize("row, message", [
    ({"cell": "r1", "position": 0, "weight": 0.1},
     "error: cannot interpret weight 0.1 as an exact rational"),
    ({"cell": "r1", "position": 0.7, "weight": "1/2"},
     "error: cannot interpret corner position 0.7 as an integer"),
    ({"cell": "r1", "position": 0, "weight": "abc"},
     "error: cannot interpret weight 'abc' as an exact rational"),
    ({"cell": "r1", "position": "x", "weight": "1/2"},
     "error: cannot interpret corner position 'x' as an integer"),
], ids=["float-weight", "float-position", "text-weight", "text-position"])
@pytest.mark.parametrize("args", [
    ["complex", "weighttest", TORUS, "--weights", ROWS],
    ["complex", "dr2", TORUS, "--weights", ROWS],
    ["analyze", TORUS, "--weights", ROWS],
    ["corpus", str(CORPUS), "--weights", ROWS],
    ["analyze", TORUS, "--angles", ROWS],
], ids=["weighttest", "dr2", "analyze", "corpus", "angles"])
def test_an_inexact_number_in_a_rows_file_is_an_input_error(tmp_path, args, row, message):
    rows = tmp_path / "rows.json"
    rows.write_text(json.dumps([row]), encoding="utf-8")
    result = run_cli(*[str(rows) if a == ROWS else a for a in args])
    assert_one_error_line(result, message)


@pytest.mark.parametrize("row, message", [
    ({"cell": "r1", "position": 0, "weight": True},
     "error: cannot interpret weight True as an exact rational"),
    ({"cell": "r1", "position": True, "weight": "1/2"},
     "error: cannot interpret corner position True as an integer"),
], ids=["bool-weight", "bool-position"])
def test_a_boolean_in_a_rows_file_is_an_input_error(tmp_path, row, message):
    rows = tmp_path / "rows.json"
    rows.write_text(json.dumps([row]), encoding="utf-8")
    result = run_cli("complex", "weighttest", TORUS, "--weights", str(rows))
    assert_one_error_line(result, message)


@pytest.mark.parametrize("field, value", [
    ("rotation", 0.9), ("rotation", True), ("rotation", "x"),
    ("orientation", 1.5), ("orientation", True), ("orientation", "x"),
], ids=["float-rotation", "bool-rotation", "text-rotation", "float-orientation",
        "bool-orientation", "text-orientation"])
def test_a_float_or_boolean_in_a_diagram_cellmap_is_an_input_error(tmp_path, field, value):
    # a bare int() would read 0.9 as rotation 0 and true as orientation 1,
    # and verify a diagram the file does not describe
    data = json.loads((FIXTURES / "diagrams" / "m2_reduced.json").read_text(encoding="utf-8"))
    data["cellmap"]["f0"][field] = value
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    result = run_cli("diagram", "verify", str(path), "--complex", str(CORPUS / "m2.pres"))
    assert_one_error_line(result, f"error: cannot interpret {field} {value!r} as an integer")


@pytest.mark.parametrize("command", [
    ["verify-cert"],
    ["diagram", "verify", "--complex", TORUS],
    ["complex", "weighttest", TORUS, "--weights"],
    ["complex", "coloringtest", TORUS, "--angles"],
], ids=["verify-cert", "diagram-verify", "weights-file", "angles-file"])
def test_json_nested_too_deeply_is_an_input_error(tmp_path, command):
    path = tmp_path / "deep.json"
    levels = 1500
    path.write_text('{"format": "li-certificate/1", "children": [' * levels + "{}"
                    + "]}" * levels, encoding="utf-8")
    result = run_cli(*command, str(path))
    assert_one_error_line(result, "error: ")
    assert result.stderr.endswith("JSON nested too deeply\n")


def corner_rows(X, weight):
    return [{"cell": cell, "position": position, "weight": weight}
            for cell, position in sorted(X.corners)]


@pytest.mark.parametrize("command, repeated", [
    (("complex", "weighttest", TORUS, "--weights"), {"cell": "r1", "position": 0, "weight": "7"}),
    (("complex", "coloringtest", TORUS, "--angles"), {"cell": "r1", "position": "0", "weight": 0}),
], ids=["weights", "angles"])
def test_a_corner_given_twice_in_a_rows_file_is_an_input_error(tmp_path, command, repeated):
    # read last-wins, the weights would give the corner the angle 7 and fail
    # the weight test, and the angles would pass the coloring test
    X = parse_presentation(fixture_text("torus.pres"))
    rows = tmp_path / "rows.json"
    rows.write_text(json.dumps(corner_rows(X, "1/2" if "--weights" in command else 1)
                               + [repeated]), encoding="utf-8")
    result = run_cli(*command, str(rows))
    assert_one_error_line(result, "error: two angles for corner ('r1', 0)")


def repeated_key_files():
    """Files that give one key of an object twice, the last the value the
    command would accept; by command."""
    torus = parse_presentation(fixture_text("torus.pres"))
    rows = corner_rows(torus, "1/2")
    weights = json.dumps(rows).replace('"position": 0', '"position": 9, "position": 0')
    angles = json.dumps([dict(row, weight=row["position"] % 2) for row in rows])
    angles = angles.replace('"cell": "r1"', '"cell": "x", "cell": "r1"', 1)
    diagram = (FIXTURES / "diagrams" / "m2_reduced.json").read_text(encoding="utf-8")
    cert = canonical_json(check_dr2_c4t4(torus).to_jsonable())
    return {
        ("complex", "weighttest", TORUS, "--weights"): (weights, "position"),
        ("complex", "coloringtest", TORUS, "--angles"): (angles, "cell"),
        ("diagram", "verify", "--complex", str(CORPUS / "m2.pres")): (
            diagram.replace('"orientation": -1', '"orientation": 1, "orientation": -1'),
            "orientation"),
        ("verify-cert",): (cert.replace('"method": "C4T4"', '"method": "X", "method": "C4T4"'),
                           "method"),
    }


@pytest.mark.parametrize("command", list(repeated_key_files()),
                         ids=["weights", "angles", "diagram-verify", "verify-cert"])
def test_a_key_repeated_in_a_json_object_is_an_input_error(tmp_path, command):
    text, key = repeated_key_files()[command]
    path = tmp_path / "repeated.json"
    path.write_text(text, encoding="utf-8")
    result = run_cli(*command, str(path))
    assert_one_error_line(result, f"error: {path}: key {key!r} repeated in a JSON object")


@pytest.mark.parametrize("kind", ["dr2", "li"])
def test_a_certificate_that_repeats_a_corner_does_not_re_check(tmp_path, kind):
    tree = decide_locally_indicable(make_trefoil()).to_jsonable()
    data = tree if kind == "li" else tree["evidence"]["dr2_certificate"]
    angles = tree["evidence"]["dr2_certificate"]["hypotheses"]["angles"]
    angles.append(dict(angles[0]))
    path = tmp_path / "cert.json"
    path.write_text(canonical_json(data), encoding="utf-8")
    result = run_cli("verify-cert", str(path), "--json")
    assert result.returncode == 0, result.stderr
    corner = (angles[0]["cell"], angles[0]["position"])
    where = "root: evidence does" if kind == "li" else "hypotheses do"
    assert json.loads(result.stdout) == {"ok": False, "problems": [
        f"{where} not re-check: ComplexError: two angles for corner {corner}"]}
