"""Every single-node edit of a certificate is refused as input, fails
verification or is a rewrite on ``SAME_MEANING``, which drtool reads as the
value it replaces; none escapes as an internal invariant violation, so
``verify-cert`` exits 0 or 1 on it, never 2.

The certificates bring every node kind and DR(2) method.  ``lot decide``
writes those of a single vertex, w5 (a quotient step over a base node),
chain6 (an amalgam) and seed1228_12 (an UNKNOWN root whose quotient has no
DR(2) certificate).  ``complex dr2`` writes C(4)-T(4) for the torus and
genus2; the torus has a ZERO_ONE certificate too, and the one-cell complex
``a b`` a WEIGHTED one at weight 0.  Each node below the top is replaced by
each value of ``VALUES``, or deleted."""

import pytest

from drtool import (
    build_lot,
    check_dr2_c4t4,
    check_dr2_weighted,
    check_dr2_zero_one,
    decide_locally_indicable,
    parse_lot,
    parse_presentation,
    verify_li_tree,
)
from drtool.certificates import Dr2Certificate, verify_dr2_certificate
from drtool.complexes import build_complex
from drtool.curvature import AngleAssignment, ZeroOneAssignment
from drtool.errors import _WRONG_SHAPE, DrtoolError
from drtool.lots import LiCertificateTree

from conftest import DELETE, FIXTURES, edited, fixture_text, make_chain6, make_w5

VALUES = (None, True, 0, -1, 1.0, 0.5, "", "x", "1/0", [], {})

# The edits that verify: each rule names a rewrite that drtool reads as the
# value it replaces, as (reason, rule(path, old value, new value)).
SAME_MEANING = [
    ("the value already there",
     lambda path, old, new: type(new) is type(old) and new == old),
    ("true for 1, 0 for false, or 1.0 for 1 where a field is compared with ==, under "
     "which they are equal; only the recorded angles and weights are read, and they "
     "refuse a boolean or a float",
     lambda path, old, new: (type(new) is not type(old) and new == old
                             and not {"angles", "weights"} & set(path))),
    ("a null vertex list for a top-level certificate's complex, which build_complex takes "
     "from the edges; an embedded certificate's complex is compared, not built",
     lambda path, old, new: path == ("complex", "vertices") and new is None),
]


def paths(data, path=()):
    """The path of every node below ``data``, a JSON value."""
    items = (data.items() if isinstance(data, dict)
             else enumerate(data) if isinstance(data, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from paths(value, path + (key,))


def verified(data, read, verify):
    """Whether ``data`` verifies: False when it is refused as input or fails
    verification.  An InvariantViolation, or any exception verification lets
    out, is raised."""
    try:
        cert = read(data)
    except (DrtoolError, *_WRONG_SHAPE):
        return False  # refused as input: exit 1
    return verify(cert)[0]


def value_at(data, path):
    for key in path:
        data = data[key]
    return data


def li_tree(make):
    return decide_locally_indicable(make()).to_jsonable()


def seed1228_tree():
    """The decided tree of ``seed1228_12``: an UNKNOWN root, reason
    ``no_dr2_certificate_for_quotient``, over a HUCK_ROSE_BASE child."""
    text = (FIXTURES / "lots" / "seed1228_12.lot").read_text(encoding="utf-8")
    return decide_locally_indicable(parse_lot(text)).to_jsonable()


def c4t4_certificate(name):
    return check_dr2_c4t4(parse_presentation(fixture_text(name))).certificate.to_jsonable()


def single_vertex_tree():
    return decide_locally_indicable(build_lot("a", [])).to_jsonable()


def torus_zero_one_certificate():
    # angle 1 on the corners {a+,b-} and {a-,b+}, angle 0 on the others
    angles = ZeroOneAssignment({("r1", 0): 1, ("r1", 1): 0, ("r1", 2): 1, ("r1", 3): 0})
    X = parse_presentation(fixture_text("torus.pres"))
    return check_dr2_zero_one(X, angles).certificate.to_jsonable()


def weighted_certificate():
    # the link of the cell "a b" is a forest, so every edge's path bound holds vacuously
    X = build_complex(edges=[("a", "*", "*"), ("b", "*", "*")], cells=[("r1", "a b")],
                      vertices=["*"])
    return check_dr2_weighted(X, AngleAssignment.uniform(X, 0)).certificate.to_jsonable()


LI_TREE = (LiCertificateTree.from_jsonable, verify_li_tree)
DR2 = (Dr2Certificate.from_jsonable, verify_dr2_certificate)


@pytest.mark.parametrize("make_data, read, verify", [
    (single_vertex_tree, *LI_TREE),
    (lambda: li_tree(make_w5), *LI_TREE),
    (lambda: li_tree(make_chain6), *LI_TREE),
    (seed1228_tree, *LI_TREE),
    (lambda: c4t4_certificate("torus.pres"), *DR2),
    (lambda: c4t4_certificate("genus2.pres"), *DR2),
    (torus_zero_one_certificate, *DR2),
    (weighted_certificate, *DR2),
], ids=["single-vertex", "w5", "chain6", "seed1228_12", "torus", "genus2", "torus-zero-one",
        "weighted"])
def test_only_same_meaning_edits_verify(make_data, read, verify):
    data = make_data()
    assert verified(data, read, verify)
    accepted, expected = [], []
    for path in paths(data):
        old = value_at(data, path)
        for new in (*VALUES, DELETE):
            if verified(edited(data, path, new), read, verify):
                accepted.append((path, new))
            if new is not DELETE and any(rule(path, old, new) for _, rule in SAME_MEANING):
                expected.append((path, new))
    assert accepted == expected


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
