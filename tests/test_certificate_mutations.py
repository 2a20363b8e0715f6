"""Every single-node edit of a certificate is verified or refused as input,
never an internal invariant violation: ``verify-cert`` exits 0 or 1 on it,
never 2.  The certificates are those ``lot decide`` writes for w5 (a quotient
step), chain6 (an amalgam) and seed1228_12 (an UNKNOWN root whose quotient
has no DR(2) certificate), and those ``complex dr2`` writes for the torus and
genus2 (C(4)-T(4)).  Each node below the top is replaced by each value of
``VALUES``, or deleted."""

import pytest

from drtool import (
    check_dr2_c4t4,
    decide_locally_indicable,
    parse_lot,
    parse_presentation,
    verify_li_tree,
)
from drtool.certificates import Dr2Certificate, verify_dr2_certificate
from drtool.errors import _WRONG_SHAPE, DrtoolError, InvariantViolation
from drtool.lots import LiCertificateTree

from conftest import FIXTURES, fixture_text, make_chain6, make_w5

VALUES = (None, True, 0, -1, 0.5, "", "x", "1/0", [], {})
DELETE = object()


def paths(data, path=()):
    """The path of every node below ``data``, a JSON value."""
    items = (data.items() if isinstance(data, dict)
             else enumerate(data) if isinstance(data, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from paths(value, path + (key,))


def edited(data, path, value):
    """A copy of ``data`` with the node at ``path`` set to ``value``, or
    deleted when ``value`` is DELETE; nodes off the path are shared."""
    head, *rest = path
    copy = dict(data) if isinstance(data, dict) else list(data)
    if rest:
        copy[head] = edited(data[head], rest, value)
    elif value is DELETE:
        del copy[head]
    else:
        copy[head] = value
    return copy


def escapes(data, read, verify):
    """The InvariantViolation, or any exception verification lets out, that
    ``data`` raises on its way through ``verify-cert``; None when it is
    verified or refused as input."""
    try:
        cert = read(data)
    except InvariantViolation as exc:
        return exc
    except (DrtoolError, *_WRONG_SHAPE):
        return None  # refused as input: exit 1
    try:
        verify(cert)
    except Exception as exc:  # noqa: BLE001 - any escape is reported
        return exc
    return None


def li_tree(make):
    return decide_locally_indicable(make()).to_jsonable()


def seed1228_tree():
    """The decided tree of ``seed1228_12``: an UNKNOWN root, reason
    ``no_dr2_certificate_for_quotient``, over a HUCK_ROSE_BASE child."""
    text = (FIXTURES / "lots" / "seed1228_12.lot").read_text(encoding="utf-8")
    return decide_locally_indicable(parse_lot(text)).to_jsonable()


def c4t4_certificate(name):
    return check_dr2_c4t4(parse_presentation(fixture_text(name))).certificate.to_jsonable()


@pytest.mark.parametrize("make_data, read, verify", [
    (lambda: li_tree(make_w5), LiCertificateTree.from_jsonable, verify_li_tree),
    (lambda: li_tree(make_chain6), LiCertificateTree.from_jsonable, verify_li_tree),
    (seed1228_tree, LiCertificateTree.from_jsonable, verify_li_tree),
    (lambda: c4t4_certificate("torus.pres"), Dr2Certificate.from_jsonable,
     verify_dr2_certificate),
    (lambda: c4t4_certificate("genus2.pres"), Dr2Certificate.from_jsonable,
     verify_dr2_certificate),
], ids=["w5", "chain6", "seed1228_12", "torus", "genus2"])
def test_no_single_edit_escapes_verification(make_data, read, verify):
    data = make_data()
    escaped = [(path, value, repr(exc)) for path in paths(data)
               for value in (*VALUES, DELETE)
               for exc in [escapes(edited(data, path, value), read, verify)] if exc]
    assert escaped == []


@pytest.mark.parametrize("top", [("evidence", "sub_lot"), ("evidence", "quotient"),
                                 ("evidence", "collapsed_vertex"), ("children",),
                                 ("children", 0, "lot"), ("lot", "edges")],
                         ids=["sub-lot", "quotient", "collapsed-vertex", "children", "child-lot",
                              "lot-edges"])
def test_an_unknown_quotient_node_rechecks_its_collapse(top):
    """Every edit of the UNKNOWN root of seed1228_12 at or below ``top`` is
    refused or fails verification: the node's recorded collapse (its
    sub-LOT, quotient and collapsed vertex, and one child, the reduced
    sub-LOT) is re-derived as for a quotient step, less the DR(2)
    certificate.  The child's fields but its LOT are left to its own check."""
    data = seed1228_tree()
    assert (data["kind"], data["evidence"]["reason"]) == (
        "UNKNOWN", "no_dr2_certificate_for_quotient")
    below = data
    for key in top:
        below = below[key]
    accepted = []
    for path in [top] + [top + tail for tail in paths(below)]:
        if path[:2] == ("children", 0) and path[2:3] not in ((), ("lot",)):
            continue  # the child's own fields
        for value in (*VALUES, DELETE):
            try:
                cert = LiCertificateTree.from_jsonable(edited(data, path, value))
            except (DrtoolError, *_WRONG_SHAPE):
                continue
            if verify_li_tree(cert)[0]:
                accepted.append((path, value))
    assert accepted == []
