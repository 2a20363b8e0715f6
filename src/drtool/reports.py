"""Analysis reports, DOT export, and canonical JSON.

Reports are deterministic: canonical serialization, sorted keys, and no
wall-clock timestamp unless explicitly requested.  The input identity is
the hash of the canonical serialized form, never of the raw file.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
from dataclasses import dataclass

from .caps import face_bound
from .certificates import dr2_routes
from .complexes import euler_characteristic
from .curvature import (
    AngleAssignment,
    ZeroOneAssignment,
    _exact_weight,
    _rational,
    check_gauss_bonnet,
    coloring_test,
    find_zero_one_structure,
    weight_test,
)
from .diagrams import search_reduced_diagram
from .errors import CapExceeded, DrtoolError, InvalidSearchCap
from .lots import (
    Lot,
    bi_forest_orientation,
    check_properties,
    decide_locally_indicable,
    reduce_lot_with_log,
)
from .parsing import (
    parse_lot,
    parse_presentation,
    read_text,
    serialize_lot,
    serialize_presentation,
    sniff_kind,
)
from .version import VERSION


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def input_sha256(canonical_text) -> str:
    return hashlib.sha256(canonical_text.encode("utf-8")).hexdigest()


def parse_weight_value(value):
    """A rational given as ``p/q`` or ``uniform:p/q``.  A ``uniform:`` value
    that is not a rational is an input error; other such text, a ValueError."""
    text = str(value).strip()
    if not text.startswith("uniform:"):
        return _rational(text)
    return _exact_weight(text.split(":", 1)[1])


@dataclass
class AnalyzeOptions:
    weights: object = None  # AngleAssignment, or a rational or its text for a uniform one
    angles: ZeroOneAssignment = None
    max_faces: int = None
    timestamp: bool = False


def _resolve_weights(option, X):
    if option is None:
        return None
    if isinstance(option, AngleAssignment):
        return option
    return AngleAssignment.uniform(X, option)


def _attempt(diagnostics, label, func, *args, failed=None):
    """``func(*args)``, or ``failed`` once the DrtoolError it raised is recorded."""
    try:
        return func(*args)
    except InvalidSearchCap:
        raise  # a run-wide input error, not a failed check
    except DrtoolError as exc:
        diagnostics.append({"check": label, "error": f"{type(exc).__name__}: {exc}"})
        return failed


def diagram_search_section(X, max_faces=None):
    """The diagram search's report: the face bound it ran with (default: the
    cap) and the first reduced diagram it found, or None."""
    max_faces = face_bound(max_faces)
    found = search_reduced_diagram(X, max_faces)
    return {
        "max_faces": max_faces,
        "reduced_diagram": None if found is None else {
            "sphere": found[0].to_jsonable(), "map": found[1].to_jsonable()
        },
    }


def _dr2_attempts(X, weights, angles, components, diagnostics):
    """An attempt for each DR(2) route in its order, ZERO_ONE written from the
    bi-forest's ``components`` when they are given; a check that raises is a
    diagnostic labelled by its method, as ``dr2_zero_one``."""
    attempts = []
    for method, check, args in dr2_routes(X, weights, angles, components):
        outcome = _attempt(diagnostics, f"dr2_{method.lower()}", check, *args)
        if outcome is not None:
            attempts.append({"method": method, **outcome.to_jsonable()})
    return attempts


def _complex_section(X, weights, angles, diagnostics):
    section = {
        "euler_characteristic": euler_characteristic(X),
        "vertices": len(X.vertices),
        "edges": len(X.edges),
        "cells": len(X.cells),
        "validation_flags": list(X.flags),
    }
    tests = {}
    if weights is not None:
        verdict = _attempt(diagnostics, "weight_test", weight_test, X, weights)
        if verdict is not None:
            tests["weight_test"] = verdict.to_jsonable()
        report = _attempt(diagnostics, "gauss_bonnet", check_gauss_bonnet, X, weights)
        if report is not None:
            section["gauss_bonnet"] = report.to_jsonable()
    if angles is not None:
        verdict = _attempt(diagnostics, "coloring_test", coloring_test, X, angles)
        if verdict is not None:
            tests["coloring_test"] = verdict.to_jsonable()
    return section, tests


def analyze_text(text, options: AnalyzeOptions = None, name=None) -> dict:
    options = options or AnalyzeOptions()
    if options.max_faces is not None:
        try:
            face_bound(options.max_faces)  # a bound that is no bound fails the run at once
        except CapExceeded:
            pass  # one above the cap is the diagram search's diagnostic, below
    kind = sniff_kind(text)
    diagnostics = []
    report = {
        "tool": {"name": "drtool", "version": VERSION},
    }
    if options.timestamp:
        report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()

    parsed = parse_lot(text) if kind == "lot" else parse_presentation(text)
    weight = options.weights
    if weight is not None and not isinstance(weight, AngleAssignment):
        weight = _exact_weight(weight)  # a bad weight fails the run before any search
    angles = searched = options.angles
    components = None
    if kind == "lot":
        lot = parsed
        canonical = serialize_lot(lot)
        # reduction, the bi-forest and the decision are defined on trees; a
        # LOG that is not one is analysed on its own complex
        reduced, log = reduce_lot_with_log(lot) if lot.is_tree else (lot, None)
        props = check_properties(lot)
        X = reduced.complex

        lot_section = {
            "properties": props.to_jsonable(),
            "is_tree": lot.is_tree,
            "reduced_form": None if log is None else serialize_lot(reduced),
            "reduction_log": None if log is None else list(log),
            "bi_forest": None,
        }
        if angles is None and lot.is_tree and reduced.is_injective:
            biforest = _attempt(
                diagnostics, "bi_forest", bi_forest_orientation, reduced, failed=False
            )
            if biforest is False:
                del lot_section["bi_forest"]  # the search raised: no claim either way
            elif biforest is not None:
                lot_section["bi_forest"] = biforest.to_jsonable()
                angles = searched = biforest.assignment
                components = biforest.components
        report["lot"] = lot_section
    else:
        lot, X = None, parsed
        canonical = serialize_presentation(X)
        if angles is None:
            # searched structures back the coloring test report only
            searched = _attempt(diagnostics, "zero_one_search", find_zero_one_structure, X)

    weights = _resolve_weights(weight, X)
    section, tests = _complex_section(X, weights, searched, diagnostics)
    attempts = _dr2_attempts(X, weights, angles, components, diagnostics)
    li_tree = None
    if lot is not None and lot.is_tree and lot.is_injective:
        tree = _attempt(diagnostics, "decide", decide_locally_indicable, lot)
        if tree is not None:
            li_tree = tree.to_jsonable()
    report.update(
        {
            "input": {"kind": kind, "name": name, "sha256": input_sha256(canonical),
                      "canonical": canonical},
            "complex": section,
            "tests": tests,
            "certificates": {"dr2": attempts, "local_indicability": li_tree},
        }
    )

    if options.max_faces is not None:
        search = _attempt(
            diagnostics, "diagram_search", diagram_search_section, X, options.max_faces
        )
        if search is not None:
            report["diagram_search"] = search

    report["diagnostics"] = diagnostics
    return report


def analyze(path, options: AnalyzeOptions = None) -> dict:
    return analyze_text(read_text(path), options, name=os.path.basename(path))


# ---------------------------------------------------------------------------
# DOT export


def _dot_quote(name):
    return '"' + str(name).replace('"', r"\"") + '"'


def export_dot(obj, angles=None) -> str:
    """Deterministic DOT for a link graph (undirected, nodes e+/e-) or a LOT
    (directed, edges labeled by their vertex label).  Corner annotations show
    the angle when an assignment is supplied; zero/one angles style the edges."""
    from .complexes import LinkGraph

    if isinstance(obj, LinkGraph):
        lines = [f"graph {_dot_quote('lk(' + str(obj.base) + ')')} {{"]
        for node in obj.nodes:
            lines.append(f"  {_dot_quote(str(node))};")
        for corner in obj.corners:
            attrs = [f"label={_dot_quote(f'{corner.cell}:{corner.position}')}"]
            if angles is not None:
                w = angles.get(corner.key)
                if w is not None:
                    attrs[0] = f"label={_dot_quote(f'{corner.cell}:{corner.position} w={w}')}"
                    if w == 0:
                        attrs.append("style=dashed")
                    elif w == 1:
                        attrs.append("style=bold")
            lines.append(
                f"  {_dot_quote(str(corner.nodes[0]))} -- {_dot_quote(str(corner.nodes[1]))}"
                f" [{', '.join(attrs)}];"
            )
        lines.append("}")
        return "\n".join(lines) + "\n"
    if isinstance(obj, Lot):
        lines = ["digraph lot {"]
        for v in obj.vertices:
            lines.append(f"  {_dot_quote(v)};")
        for e in obj.edges:
            lines.append(
                f"  {_dot_quote(e.source)} -> {_dot_quote(e.target)}"
                f" [label={_dot_quote(f'{e.id}:{e.label}')}];"
            )
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise DrtoolError(f"cannot export {type(obj).__name__} as DOT")


def summarize_corpus(rows):
    """Aggregate per-file reports: counts of certificate kinds and outcomes."""
    summary = {
        "files": len(rows),
        "parse_errors": 0,
        "dr2_methods": {},
        "local_indicability": {"certified": 0, "unknown": 0, "not_attempted": 0},
    }
    for _, report in rows:
        if "error" in report:
            summary["parse_errors"] += 1
            continue
        for attempt in report.get("certificates", {}).get("dr2", []):
            if attempt.get("ok"):
                method = attempt["method"]
                summary["dr2_methods"][method] = summary["dr2_methods"].get(method, 0) + 1
        tree = report.get("certificates", {}).get("local_indicability")
        if tree is None:
            summary["local_indicability"]["not_attempted"] += 1
        elif tree["conclusion"].get("locally_indicable") == "certified":
            summary["local_indicability"]["certified"] += 1
        else:
            summary["local_indicability"]["unknown"] += 1
    return summary
