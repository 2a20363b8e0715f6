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
    Dr2Certificate,
    check_c4t4,
    check_dr2_c4t4,
    check_dr2_weighted,
    check_dr2_zero_one,
    verify_dr2_certificate,
)
from .curvature import (
    AngleAssignment,
    ZeroOneAssignment,
    coloring_test,
    find_zero_one_structure,
    weight_test,
)
from .diagrams import (
    check_diagram,
    diagram_map_from_jsonable,
    face_cap,
    search_reduced_diagram,
    sphere_from_jsonable,
)
from .errors import DrtoolError, InvalidSearchCap, InvariantViolation, ParseError
from .lots import (
    LiCertificateTree,
    boundary_reducible_sub_lots,
    check_properties,
    decide_locally_indicable,
    verify_li_tree,
)
from .parsing import parse_lot, parse_presentation
from .reports import (
    AnalyzeOptions,
    analyze,
    canonical_json,
    export_dot,
    parse_weight_value,
    summarize_corpus,
)
from .version import VERSION


def _read(path):
    return Path(path).read_text(encoding="utf-8")


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


def _load_weights(value, X):
    try:
        return AngleAssignment.uniform(X, parse_weight_value(value))
    except ValueError:
        pass
    data = json.loads(_read(value))
    return AngleAssignment.from_jsonable(data)


def _load_angles(value):
    data = json.loads(_read(value))
    return ZeroOneAssignment.from_jsonable(data)


def _write_output(path, text):
    Path(path).write_text(text, encoding="utf-8")


def _cmd_lot_check(args):
    lot = parse_lot(_read(args.path))
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
    lot = parse_lot(_read(args.path))
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
    return parse_presentation(_read(args.path))


def _cmd_complex_weighttest(args):
    X = _complex_from_args(args)
    if not args.weights:
        raise ParseError("weighttest needs --weights")
    omega = _load_weights(args.weights, X)
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
    attempts = []
    if args.angles:
        omega01 = _load_angles(args.angles)
        attempts.append(("ZERO_ONE", check_dr2_zero_one(X, omega01)))
    attempts.append(("C4T4", check_dr2_c4t4(X)))
    if args.weights:
        omega = _load_weights(args.weights, X)
        attempts.append(("WEIGHTED", check_dr2_weighted(X, omega)))
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
    data = json.loads(_read(args.path))
    S = sphere_from_jsonable(data)
    dmap = diagram_map_from_jsonable(data)
    X = parse_presentation(_read(args.complex))
    report = check_diagram(S, dmap, X)
    _emit(report.to_jsonable(), args.json)
    return 0


def _cmd_diagram_search(args):
    X = parse_presentation(_read(args.path))
    found = search_reduced_diagram(X, args.max_faces)
    max_faces = face_cap() if args.max_faces is None else args.max_faces
    if found is None:
        _emit({"reduced_diagram": None, "max_faces": max_faces}, args.json)
    else:
        S, dmap = found
        _emit(
            {"reduced_diagram": {"sphere": S.to_jsonable(), "map": dmap.to_jsonable()},
             "max_faces": max_faces},
            args.json,
        )
    return 0


def _options_from_args(args):
    options = AnalyzeOptions()
    if getattr(args, "weights", None):
        try:
            options.weights = parse_weight_value(args.weights)
        except ValueError:
            options.weights = AngleAssignment.from_jsonable(json.loads(_read(args.weights)))
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
        tree = report.get("certificates", {}).get("local_indicability")
        cert = tree
        if cert is None:
            for attempt in report.get("certificates", {}).get("dr2", []):
                if attempt.get("ok"):
                    cert = attempt["certificate"]
                    break
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
    data = json.loads(_read(args.path))
    fmt = data.get("format", "")
    if fmt.startswith("dr2-certificate"):
        cert = Dr2Certificate.from_jsonable(data)
        ok, problems = verify_dr2_certificate(cert)
    elif fmt.startswith("li-certificate"):
        tree = LiCertificateTree.from_jsonable(data)
        ok, problems = verify_li_tree(tree)
    else:
        raise ParseError(f"unknown certificate format {fmt!r}")
    _emit({"ok": ok, "problems": problems}, args.json)
    return 0  # verification completing is exit 0 either way


def build_parser():
    parser = argparse.ArgumentParser(prog="drtool", description=__doc__)
    parser.add_argument("--version", action="version", version=f"drtool {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dot=True, cert=False, json_flag=True):
        if json_flag:
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
    p.add_argument("--weights", required=False, help="p/q, uniform:p/q, or a JSON file")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2
    except (DrtoolError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
