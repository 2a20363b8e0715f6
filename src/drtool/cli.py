"""The drtool command line.

Exit codes: 0 analysis completed (UNKNOWN results included), 1 input
error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .certificates import (
    DR2_FORMAT,
    Dr2Certificate,
    check_c4t4,
    dr2_routes,
    verify_dr2_certificate,
)
from .curvature import (
    AngleAssignment,
    ZeroOneAssignment,
    coloring_test,
    find_zero_one_structure,
    weight_test,
)
from .diagrams import check_diagram, diagram_map_from_jsonable, sphere_from_jsonable
from .errors import _WRONG_SHAPE, DrtoolError, InvalidSearchCap, InvariantViolation, ParseError
from .lots import (
    LI_FORMAT,
    LiCertificateTree,
    boundary_reducible_sub_lots,
    check_properties,
    decide_locally_indicable,
    verify_li_tree,
)
from .parsing import parse_lot, parse_presentation, read_text
from .reports import (
    AnalyzeOptions,
    _resolve_weights,
    analyze,
    canonical_json,
    diagram_search_section,
    export_dot,
    parse_weight_value,
    summarize_corpus,
)
from .version import VERSION


def _decode(what, build, data):
    """``build(data)`` on JSON read from a file: a value of the wrong shape
    is an input error, reported in one line like any other."""
    try:
        return build(data)
    except _WRONG_SHAPE as exc:
        raise ParseError(f"{what} has the wrong shape: {type(exc).__name__}: {exc}") from None


def _emit(data, json_mode, out=None):
    out = out if out is not None else sys.stdout
    if json_mode:
        out.write(canonical_json(data))
    else:
        out.write(_render_plain(data) + "\n")


def _render_plain(data, indent=0):
    pad = "  " * indent
    if isinstance(data, dict):
        lines = []
        for key in sorted(data):
            value = data[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_render_plain(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
        return "\n".join(lines)
    if isinstance(data, list):
        if not data:
            return f"{pad}[]"
        return "\n".join(
            _render_plain(item, indent) if isinstance(item, (dict, list))
            else f"{pad}- {item}"
            for item in data
        )
    return f"{pad}{data}"


def _read_json(path):
    """The JSON value in the file ``path``; a key repeated in one object, or
    JSON nested too deeply for the parser, is an input error."""
    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ParseError(f"{path}: key {key!r} repeated in a JSON object")
            obj[key] = value
        return obj

    try:
        return json.loads(read_text(path), object_pairs_hook=unique_keys)
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None


def _load_weights(value):
    """``--weights``: the Fraction it gives as ``p/q`` or ``uniform:p/q``,
    else the AngleAssignment in the JSON file it names; a ``uniform:`` value
    never names a file."""
    try:
        return parse_weight_value(value)
    except ValueError:
        return _decode("weights", AngleAssignment.from_jsonable, _read_json(value))


def _load_angles(value):
    return _decode("angles", ZeroOneAssignment.from_jsonable, _read_json(value))


def _write_output(path, text):
    Path(path).write_text(text, encoding="utf-8")


def _cmd_lot_check(args):
    lot = parse_lot(read_text(args.path))
    props = check_properties(lot)
    result = {"properties": props.to_jsonable(), "is_tree": lot.is_tree}
    if args.huck_rose_hypothesis:
        bad = boundary_reducible_sub_lots(lot)
        result["boundary_reducible_sub_lots"] = [
            {"vertices": list(sub.vertices), "edges": [e.id for e in sub.edges]}
            for sub in bad
        ]
    if args.dot:
        _write_output(args.dot, export_dot(lot))
    _emit(result, args.json)
    return 0


def _cmd_lot_decide(args):
    lot = parse_lot(read_text(args.path))
    tree = decide_locally_indicable(lot)
    payload = tree.to_jsonable()
    if args.emit_cert:
        _write_output(args.emit_cert, canonical_json(payload))
    summary = {
        "kind": tree.kind,
        "locally_indicable": tree.conclusion["locally_indicable"],
    }
    _emit(payload if args.json else summary, args.json)
    return 0


def _complex_from_args(args):
    return parse_presentation(read_text(args.path))


def _cmd_complex_weighttest(args):
    X = _complex_from_args(args)
    omega = _resolve_weights(_load_weights(args.weights), X)
    verdict = weight_test(X, omega)
    _maybe_dot(args, X, omega)
    _emit(verdict.to_jsonable(), args.json)
    return 0


def _cmd_complex_coloringtest(args):
    X = _complex_from_args(args)
    if args.angles:
        omega01 = _load_angles(args.angles)
    else:
        omega01 = find_zero_one_structure(X)
        if omega01 is None:
            _emit({"pass": False, "witness": {"reason": "no zero/one structure found"}}, args.json)
            return 0
    verdict = coloring_test(X, omega01)
    out = verdict.to_jsonable()
    out["angles"] = omega01.to_jsonable()
    _maybe_dot(args, X, omega01)
    _emit(out, args.json)
    return 0


def _cmd_complex_c4t4(args):
    X = _complex_from_args(args)
    verdict = check_c4t4(X)
    _maybe_dot(args, X, None)
    _emit(verdict.to_jsonable(), args.json)
    return 0


def _cmd_complex_dr2(args):
    X = _complex_from_args(args)
    angles = _load_angles(args.angles) if args.angles else None
    weights = _resolve_weights(_load_weights(args.weights), X) if args.weights else None
    attempts = [(method, check(*a)) for method, check, a in dr2_routes(X, weights, angles)]
    result = {"attempts": [{"method": m, **o.to_jsonable()} for m, o in attempts]}
    winner = next((o for _, o in attempts if o.ok), None)
    if winner is not None and args.emit_cert:
        _write_output(args.emit_cert, canonical_json(winner.certificate.to_jsonable()))
    result["dr2_certified"] = winner is not None
    _maybe_dot(args, X, None)
    _emit(result, args.json)
    return 0


def _maybe_dot(args, X, angles):
    if getattr(args, "dot", None):
        blocks = [export_dot(X.links[v], angles) for v in X.vertices]
        _write_output(args.dot, "\n".join(blocks))


def _cmd_diagram_verify(args):
    data = _read_json(args.path)
    S = _decode("diagram", sphere_from_jsonable, data)
    dmap = _decode("diagram", diagram_map_from_jsonable, data)
    X = parse_presentation(read_text(args.complex))
    report = check_diagram(S, dmap, X)
    _emit(report.to_jsonable(), args.json)
    return 0


def _cmd_diagram_search(args):
    X = parse_presentation(read_text(args.path))
    _emit(diagram_search_section(X, args.max_faces), args.json)
    return 0


def _options_from_args(args):
    options = AnalyzeOptions()
    if getattr(args, "weights", None):
        options.weights = _load_weights(args.weights)
    if getattr(args, "angles", None):
        options.angles = _load_angles(args.angles)
    if getattr(args, "max_faces", None) is not None:
        options.max_faces = args.max_faces
    if getattr(args, "timestamp", False):
        options.timestamp = True
    return options


def _cmd_analyze(args):
    report = analyze(args.path, _options_from_args(args))
    if args.emit_cert:
        certificates = report["certificates"]
        cert = certificates["local_indicability"]  # the LI tree comes first
        if cert is None:
            cert = next((a["certificate"] for a in certificates["dr2"] if a["ok"]), None)
        if cert is not None:
            _write_output(args.emit_cert, canonical_json(cert))
    _emit(report, args.json)
    return 0


def _cmd_corpus(args):
    paths = sorted(
        p for p in Path(args.directory).iterdir()
        if p.suffix in (".lot", ".log", ".pres") and p.is_file()
    )
    options = _options_from_args(args)

    def run(path):
        try:
            return path.name, analyze(path, options)
        except InvalidSearchCap:
            raise
        except DrtoolError as exc:
            return path.name, {"error": f"{type(exc).__name__}: {exc}"}

    rows = [run(path) for path in paths]
    summary = summarize_corpus(rows)
    payload = {"summary": summary, "reports": {name: rep for name, rep in rows}}
    if args.json:
        _emit(payload, True)
    else:
        lines = [f"{'file':30} dr2 li"]
        for name, rep in rows:
            if "error" in rep:
                lines.append(f"{name:30} error: {rep['error']}")
                continue
            methods = [a["method"] for a in rep["certificates"]["dr2"] if a.get("ok")]
            tree = rep["certificates"]["local_indicability"]
            li = "-" if tree is None else tree["conclusion"]["locally_indicable"]
            lines.append(f"{name:30} {','.join(methods) or '-':12} {li}")
        lines.append("")
        lines.append(_render_plain(summary))
        print("\n".join(lines))
    return 0


def _cmd_verify_cert(args):
    data = _read_json(args.path)
    if not isinstance(data, dict):
        raise ParseError(f"a certificate is a JSON object, not {type(data).__name__}")
    fmt = str(data.get("format", ""))
    if fmt == DR2_FORMAT:
        cert = _decode("DR(2) certificate", Dr2Certificate.from_jsonable, data)
        ok, problems = verify_dr2_certificate(cert)
    elif fmt == LI_FORMAT:
        tree = _decode("LI certificate", LiCertificateTree.from_jsonable, data)
        ok, problems = verify_li_tree(tree)
    else:
        raise ParseError(f"unknown certificate format {fmt!r}")
    _emit({"ok": ok, "problems": problems}, args.json)
    return 0  # verification completing is exit 0 either way


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: exit 1 with one ``error:`` line."""

    def error(self, message):
        raise ParseError(message)


def build_parser():
    parser = _Parser(prog="drtool", description=__doc__)
    parser.add_argument("--version", action="version", version=f"drtool {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dot=True, cert=False):
        p.add_argument("--json", action="store_true", help="emit canonical JSON")
        if dot:
            p.add_argument("--dot", metavar="PATH", help="write a DOT rendering")
        if cert:
            p.add_argument("--emit-cert", metavar="PATH", help="write the certificate as JSON")

    lot = sub.add_parser("lot", help="labeled oriented tree commands").add_subparsers(
        dest="subcommand", required=True
    )
    p = lot.add_parser("check", help="validate and report LOT properties")
    p.add_argument("path")
    p.add_argument(
        "--huck-rose-hypothesis",
        action="store_true",
        help="also list boundary reducible sub-LOTs (the stronger base-case hypothesis)",
    )
    common(p)
    p.set_defaults(func=_cmd_lot_check)
    p = lot.add_parser("decide", help="run the local indicability decision procedure")
    p.add_argument("path")
    common(p, dot=False, cert=True)
    p.set_defaults(func=_cmd_lot_decide)

    cx = sub.add_parser("complex", help="presentation complex commands").add_subparsers(
        dest="subcommand", required=True
    )
    p = cx.add_parser("weighttest", help="run the weight test")
    p.add_argument("path")
    p.add_argument("--weights", required=True, help="p/q, uniform:p/q, or a JSON file")
    common(p)
    p.set_defaults(func=_cmd_complex_weighttest)
    p = cx.add_parser("coloringtest", help="run the coloring test")
    p.add_argument("path")
    p.add_argument("--angles", help="JSON zero/one assignment; searched when omitted")
    common(p)
    p.set_defaults(func=_cmd_complex_coloringtest)
    p = cx.add_parser("c4t4", help="check the C(4)-T(4) small cancellation conditions")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=_cmd_complex_c4t4)
    p = cx.add_parser("dr2", help="attempt DR(2) certificates")
    p.add_argument("path")
    p.add_argument("--weights")
    p.add_argument("--angles")
    common(p, cert=True)
    p.set_defaults(func=_cmd_complex_dr2)

    dg = sub.add_parser("diagram", help="spherical diagram commands").add_subparsers(
        dest="subcommand", required=True
    )
    p = dg.add_parser("verify", help="verify a diagram file against its complex")
    p.add_argument("path")
    p.add_argument("--complex", required=True, help="presentation file")
    common(p, dot=False)
    p.set_defaults(func=_cmd_diagram_verify)
    p = dg.add_parser("search", help="bounded search for a reduced spherical diagram")
    p.add_argument("path")
    p.add_argument("--max-faces", type=int, help="default: the search cap")
    common(p, dot=False)
    p.set_defaults(func=_cmd_diagram_search)

    p = sub.add_parser("analyze", help="full analysis of a LOT or presentation file")
    p.add_argument("path")
    p.add_argument("--weights")
    p.add_argument("--angles")
    p.add_argument("--max-faces", type=int)
    p.add_argument("--timestamp", action="store_true", help="include a wall-clock timestamp")
    common(p, dot=False, cert=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("corpus", help="analyze every .lot/.log/.pres file in a directory")
    p.add_argument("directory")
    p.add_argument("--weights")
    p.add_argument("--angles")
    common(p, dot=False)
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("verify-cert", help="re-check an emitted certificate file")
    p.add_argument("path")
    common(p, dot=False)
    p.set_defaults(func=_cmd_verify_cert)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2
    except (DrtoolError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
