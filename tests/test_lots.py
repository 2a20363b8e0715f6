import itertools
import random
import warnings

import pytest

from drtool import (
    ZeroOneAssignment,
    bi_forest_orientation,
    build_lot,
    check_properties,
    coloring_test,
    decide_locally_indicable,
    enumerate_sub_lots,
    euler_characteristic,
    lot_complex,
    lots_isomorphic,
    maximal_proper_sub_lot,
    quotient,
    reduce_lot,
    reduce_lot_with_log,
    replay_reduction,
    verify_li_tree,
    zero_one_from_biforest,
)
from drtool import complexes, lots
from drtool.certificates import CheckOutcome, check_dr2_zero_one
from drtool.complexes import format_word
from drtool.errors import (
    AmbiguousCollapseVertex,
    InvariantViolation,
    NotInjective,
    NotSubLot,
)
from drtool.lots import (
    BASE_VERTEX,
    KIND_AMALGAM,
    KIND_HUCK_ROSE_BASE,
    KIND_QUOTIENT_STEP,
    KIND_SINGLE_VERTEX,
    KIND_UNKNOWN,
    LiCertificateTree,
    _bi_forest,
    boundary_reducible_sub_lots,
    lot_from_jsonable,
    lot_to_jsonable,
)
from drtool.unionfind import UnionFind

from conftest import make_chain6, make_trefoil, make_w5


def edge_ids(lot):
    return [e.id for e in lot.edges]


class TestLotComplex:
    def test_trefoil_relators(self):
        K = lot_complex(make_trefoil())
        words = {c.id: format_word(c.word) for c in K.cells}
        assert words == {"e1": "a c b- c-", "e2": "b a c- a-"}
        assert K.vertices == (BASE_VERTEX,)
        assert euler_characteristic(K) == 0

    def test_single_vertex_lot_is_a_circle(self):
        K = lot_complex(build_lot("a", []))
        assert len(K.edges) == 1
        assert K.cells == ()

    def test_label_equal_to_source(self):
        K = lot_complex(build_lot("ab", [("e1", "a", "b", "a")]))
        assert format_word(K.cells[0].word) == "a a b- a-"


class TestProperties:
    def test_trefoil_fully_reduced(self):
        props = check_properties(make_trefoil())
        assert props.reduced and props.injective
        assert props.witnesses == {}

    def test_single_edge_label_source(self):
        props = check_properties(build_lot("ab", [("e1", "a", "b", "a")]))
        assert not props.compressed
        assert not props.boundary_reduced  # b has valency 1 and is not a label
        assert props.injective

    def test_interior_and_injectivity_witnesses(self):
        lot = build_lot(
            "abcd",
            [("e1", "a", "b", "c"), ("e2", "a", "d", "c"), ("e3", "c", "a", "b")],
        )
        props = check_properties(lot)
        assert not props.interior_reduced
        assert not props.injective
        assert props.witnesses["interior"][0]["vertex"] == "a"


class TestReduction:
    def test_compression_to_single_vertex(self):
        lot = build_lot("ab", [("e1", "a", "b", "a")])
        reduced, log = reduce_lot_with_log(lot)
        assert reduced.vertices == ("a",)
        assert reduced.edges == ()
        assert [m["move"] for m in log] == ["compression"]

    def test_trefoil_is_a_fixed_point(self):
        lot = make_trefoil()
        assert reduce_lot(lot) == lot

    def test_interior_fold(self):
        lot = build_lot(
            "abcd",
            [("e1", "a", "b", "c"), ("e2", "a", "d", "c"), ("e3", "c", "a", "b")],
        )
        reduced = reduce_lot(lot)
        assert sorted(reduced.vertices) == ["a", "b", "c"]
        assert edge_ids(reduced) == ["e1", "e3"]

    def test_replay_matches(self):
        rng = random.Random(3)
        for _ in range(40):
            lot = random_lot(rng)
            reduced, log = reduce_lot_with_log(lot)
            assert replay_reduction(lot, log) == reduced

    def test_reduction_preserves_injectivity_and_shrinks(self):
        rng = random.Random(4)
        for _ in range(60):
            lot = random_lot(rng)
            reduced = reduce_lot(lot)
            assert len(reduced.vertices) <= len(lot.vertices)
            assert check_properties(reduced).reduced
            if lot.is_injective:
                assert reduced.is_injective

    def test_boundary_reduction(self):
        # c is a leaf and not a label: gets removed together with its edge
        lot = build_lot(
            "abc", [("e1", "a", "b", "a"), ("e2", "b", "c", "b")]
        )
        # after compressing e1 (label = source a), then e2 compresses too
        reduced = reduce_lot(lot)
        assert len(reduced.vertices) == 1


def random_lot(rng, max_vertices=6):
    n = rng.randint(1, max_vertices)
    names = [chr(ord("a") + i) for i in range(n)]
    edges = []
    for i in range(1, n):
        other = names[rng.randrange(i)]
        u, v = (names[i], other) if rng.random() < 0.5 else (other, names[i])
        edges.append((f"e{i}", u, v, rng.choice(names)))
    return build_lot(names, edges)


def lot_corners(lot):
    """The link corners of the LOT complex read off the LOT edges, as
    (corner key, (node, node)) pairs: the square ``s l t- l-`` of an edge
    has its corners in that order."""
    corners = []
    for e in lot.edges:
        s, l, t = e.source, e.label, e.target
        ends = [((s, 1), (l, -1)), ((l, 1), (t, 1)), ((t, -1), (l, 1)), ((l, -1), (s, -1))]
        corners += [((e.id, i), pair) for i, pair in enumerate(ends)]
    return corners


def oracle_bi_forest(lot):
    """Brute-force bi-forest search, independent of the library's link code.

    The corners are read off the LOT (``lot_corners``), and each side's
    angle-0 subgraph is checked with its own union-find.  Returns (epsilon,
    side1 nodes, side2 nodes, side1 corners, side2 corners, angle table)
    for the first orientation, or None."""
    corners = lot_corners(lot)
    nodes = sorted((x, end) for x in lot.vertices for end in (1, -1))
    for signs in itertools.product((1, -1), repeat=len(lot.vertices)):
        epsilon = dict(zip(lot.vertices, signs))
        sides = []
        for in_side_1 in (True, False):
            members = [n for n in nodes if (epsilon[n[0]] == n[1]) == in_side_1]
            inside = [(key, (a, b)) for key, (a, b) in corners if a in members and b in members]
            uf = UnionFind(members)
            if not all(a != b and uf.union(a, b) for _, (a, b) in inside):
                break
            sides.append((tuple(members), tuple(key for key, _ in inside)))
        else:
            zeros = set(sides[0][1] + sides[1][1])
            table = {key: 0 if key in zeros else 1 for key, _ in corners}
            return epsilon, sides[0][0], sides[1][0], sides[0][1], sides[1][1], table
    return None


def oracle_sub_lots(lot):
    """Brute-force sub-LOTs as (vertices, edge ids, is_proper) rows in the
    library's order: each edge subset is checked to be one tree with its own
    union-find, and to carry its labels among its vertices."""
    rows = []
    m = len(lot.edges)
    for mask in range(1, 1 << m):
        chosen = [e for i, e in enumerate(lot.edges) if mask >> i & 1]
        spanned = sorted({v for e in chosen for v in (e.source, e.target)})
        uf = UnionFind(spanned)
        if not all(uf.union(e.source, e.target) for e in chosen) or uf.count != 1:
            continue
        if all(e.label in spanned for e in chosen):
            rows.append((tuple(spanned), tuple(e.id for e in chosen), len(chosen) != m))
    rows.sort(key=lambda row: (len(row[1]), row[0], row[1]))
    return rows


def oracle_maximal_proper(rows):
    """The proper row whose edge set lies in no other proper row's, with the
    smallest vertex tuple; None without a proper row."""
    proper = [row for row in rows if row[2]]
    maximal = [
        row for row in proper
        if not any(set(row[1]) < set(other[1]) for other in proper)
    ]
    return min(maximal, key=lambda row: row[0], default=None)


class TestSubLots:
    def test_enumeration_matches_brute_force_oracle(self):
        rng = random.Random(909)
        proper_seen = 0
        for _ in range(100):
            lot = random_lot(rng, max_vertices=8)
            for candidate in (lot, reduce_lot(lot)):
                rows = oracle_sub_lots(candidate)
                subs = enumerate_sub_lots(candidate)
                assert [(s.vertices, tuple(edge_ids(s)), p) for s, p in subs] == rows
                expected = oracle_maximal_proper(rows)
                maximal = maximal_proper_sub_lot(candidate)
                if expected is None:
                    assert maximal is None
                else:
                    proper_seen += 1
                    assert (maximal.vertices, tuple(edge_ids(maximal))) == expected[:2]
        assert proper_seen > 20

    def test_trefoil_has_no_proper_sub_lot(self):
        subs = enumerate_sub_lots(make_trefoil())
        assert [(edge_ids(s), p) for s, p in subs] == [(["e1", "e2"], False)]
        assert maximal_proper_sub_lot(make_trefoil()) is None

    def test_w5_proper_sub_lot(self):
        subs = enumerate_sub_lots(make_w5())
        proper = [s for s, p in subs if p]
        assert [edge_ids(s) for s in proper] == [["e1", "e2"]]
        assert proper[0].vertices == ("a", "b", "c")

    def test_single_vertex_has_none(self):
        assert enumerate_sub_lots(build_lot("a", [])) == []

    def test_chain6_tie_break(self):
        maximal = maximal_proper_sub_lot(make_chain6())
        assert edge_ids(maximal) == ["e1", "e2"]

    def test_boundary_reducible_sub_lots(self):
        assert boundary_reducible_sub_lots(make_trefoil()) == []
        bad = boundary_reducible_sub_lots(make_chain6())
        assert [edge_ids(s) for s in bad] == [["e3", "e4", "e5"]]


class TestQuotient:
    def test_w5_quotient(self):
        w5 = make_w5()
        sub = maximal_proper_sub_lot(w5)
        q, y = quotient(w5, sub)
        assert y == "b"
        assert [(e.id, e.source, e.target, e.label) for e in q.edges] == [
            ("e3", "b", "d", "e"),
            ("e4", "d", "e", "b"),
        ]
        assert lots_isomorphic(q, make_trefoil())

    def test_collapse_everything(self):
        w5 = make_w5()
        q, y = quotient(w5, w5)
        assert q.edges == () and len(q.vertices) == 1
        assert y == q.vertices[0]

    def test_not_a_sub_lot(self):
        w5 = make_w5()
        stranger = build_lot("xy", [("f1", "x", "y", "x")])
        with pytest.raises(NotSubLot):
            quotient(w5, stranger)

    def test_non_injective_rejected(self):
        lot = build_lot("abc", [("e1", "a", "b", "c"), ("e2", "b", "c", "c")])
        with pytest.raises(NotInjective):
            quotient(lot, lot)

    def test_ambiguous_collapse_vertex(self):
        from drtool.lots import collapse_vertex

        # two non-label vertices in a sub-LOG candidate
        lot = build_lot("abc", [("e1", "a", "b", "a"), ("e2", "b", "c", "a")])
        with pytest.raises(AmbiguousCollapseVertex):
            collapse_vertex(lot)

    def test_outside_edges_keep_labels(self):
        w5 = make_w5()
        sub = maximal_proper_sub_lot(w5)
        q, _ = quotient(w5, sub)
        originals = {e.id: e for e in w5.edges}
        for e in q.edges:
            assert e.label == originals[e.id].label


class TestBiForest:
    def test_trefoil_first_epsilon_is_all_plus(self):
        bf = bi_forest_orientation(make_trefoil())
        assert bf.epsilon == {"a": 1, "b": 1, "c": 1}
        assert sorted(map(str, bf.lambda1_nodes)) == ["a+", "b+", "c+"]
        assert sorted(bf.lambda1_corners) == [("e1", 1), ("e2", 1)]
        assert sorted(bf.lambda2_corners) == [("e1", 3), ("e2", 3)]

    def test_quotient_of_w5_matches_trefoil_pattern(self):
        w5 = make_w5()
        q, _ = quotient(w5, maximal_proper_sub_lot(w5))
        bf = bi_forest_orientation(q)
        assert bf is not None
        assert set(bf.epsilon.values()) == {1}

    def test_no_split_for_loop_link(self):
        lot = build_lot("abc", [("e1", "a", "b", "c"), ("e2", "b", "c", "c")])
        with pytest.warns(UserWarning):
            assert bi_forest_orientation(lot) is None

    def test_every_square_gets_two_zero_corners(self):
        rng = random.Random(17)
        for _ in range(20):
            lot = random_lot(rng)
            if not lot.edges:
                continue
            corners = lot_corners(lot)
            link = lot_complex(lot).links[BASE_VERTEX]
            assert [(c.key, c.nodes) for c in link.corners] == corners
            for signs in itertools.product((1, -1), repeat=len(lot.vertices)):
                epsilon = dict(zip(lot.vertices, signs))
                table = {
                    key: int(epsilon[a[0]] * a[1] != epsilon[b[0]] * b[1])
                    for key, (a, b) in corners
                }
                for e in lot.edges:
                    assert sum(1 for i in range(4) if table[(e.id, i)] == 0) == 2
                structure = _bi_forest(link, epsilon)
                if structure is not None:
                    assert dict(structure.assignment.items()) == table

    def test_search_matches_brute_force_oracle(self):
        rng = random.Random(2026)
        found = 0
        for _ in range(150):
            lot = random_lot(rng)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # most random LOTs are not reduced
                bf = bi_forest_orientation(lot)
            expected = oracle_bi_forest(lot)
            if expected is None:
                assert bf is None
                continue
            found += 1
            epsilon, nodes1, nodes2, corners1, corners2, table = expected
            assert bf.epsilon == epsilon
            assert bf.lambda1_nodes == nodes1 and bf.lambda2_nodes == nodes2
            assert bf.lambda1_corners == corners1 and bf.lambda2_corners == corners2
            assert dict(bf.assignment.items()) == table
        assert 0 < found < 150

    def test_zero_one_from_biforest_passes_everything(self):
        lot = make_trefoil()
        bf = bi_forest_orientation(lot)
        w01 = zero_one_from_biforest(lot, bf)
        K = lot_complex(lot)
        assert coloring_test(K, w01).passed
        assert check_dr2_zero_one(K, w01).ok


class TestDecide:
    def test_single_vertex(self):
        tree = decide_locally_indicable(build_lot("a", []))
        assert tree.kind == KIND_SINGLE_VERTEX
        assert tree.certified

    def test_collapse_then_single_vertex(self):
        tree = decide_locally_indicable(build_lot("ab", [("e1", "a", "b", "a")]))
        assert tree.kind == KIND_SINGLE_VERTEX
        assert tree.certified

    def test_trefoil_base_case(self):
        tree = decide_locally_indicable(make_trefoil())
        assert tree.kind == KIND_HUCK_ROSE_BASE
        assert tree.certified
        assert tree.evidence["trigger"] == "no_proper_sub_lot"
        ok, problems = verify_li_tree(tree)
        assert ok, problems

    def test_w5_quotient_step(self):
        tree = decide_locally_indicable(make_w5())
        assert tree.kind == KIND_QUOTIENT_STEP
        assert tree.certified
        q = lot_from_jsonable(tree.evidence["quotient"])
        assert lots_isomorphic(q, make_trefoil())
        cert = tree.evidence["dr2_certificate"]
        assert cert["method"] == "ZERO_ONE"
        assert tree.children[0].kind == KIND_HUCK_ROSE_BASE
        ok, problems = verify_li_tree(tree)
        assert ok, problems

    def test_chain6_amalgam(self):
        tree = decide_locally_indicable(make_chain6())
        assert tree.kind == KIND_AMALGAM
        assert tree.certified
        assert tree.evidence["intersection_vertex"] == "c"
        assert [c.kind for c in tree.children] == [
            KIND_HUCK_ROSE_BASE,
            KIND_HUCK_ROSE_BASE,
        ]
        ok, problems = verify_li_tree(tree)
        assert ok, problems

    def test_non_injective_rejected(self):
        lot = build_lot("abc", [("e1", "a", "b", "c"), ("e2", "b", "c", "c")])
        with pytest.raises(NotInjective):
            decide_locally_indicable(lot)

    @pytest.mark.parametrize("make, links", [(make_trefoil, 1), (make_w5, 2), (make_chain6, 2)])
    def test_one_link_per_lot_node(self, monkeypatch, make, links):
        # a base node needs the complex of its own LOT, a quotient step that
        # of its quotient; each is built, with its link, once
        built = []
        original = complexes.link_graph
        monkeypatch.setattr(complexes, "link_graph",
                            lambda X, v: built.append(X) or original(X, v))
        tree = decide_locally_indicable(make())

        def lot_nodes(node):
            own = {KIND_HUCK_ROSE_BASE: 1, KIND_QUOTIENT_STEP: 1}.get(node.kind, 0)
            return own + sum(lot_nodes(child) for child in node.children)

        assert len(built) == lot_nodes(tree) == links

    def test_quotient_bi_forest_failing_zero_one_is_an_invariant_violation(self, monkeypatch):
        # the first zero/one check of w5 is its quotient's; it must not fall
        # back to C(4)-T(4)
        calls = []

        def fail_first(X, omega01):
            calls.append(X)
            if len(calls) == 1:
                return CheckOutcome(witness={"reason": "forced"})
            return check_dr2_zero_one(X, omega01)

        monkeypatch.setattr(lots, "check_dr2_zero_one", fail_first)
        with pytest.raises(InvariantViolation, match="forced"):
            decide_locally_indicable(make_w5())
        assert len(calls) == 1

    def test_deterministic(self):
        t1 = decide_locally_indicable(make_chain6()).to_jsonable()
        t2 = decide_locally_indicable(make_chain6()).to_jsonable()
        assert t1 == t2

    def test_round_trip_and_tamper_detection(self):
        tree = decide_locally_indicable(make_w5())
        data = tree.to_jsonable()
        again = LiCertificateTree.from_jsonable(data)
        ok, problems = verify_li_tree(again)
        assert ok, problems
        data["evidence"]["collapsed_vertex"] = "e"
        ok, problems = verify_li_tree(LiCertificateTree.from_jsonable(data))
        assert not ok

    def test_verifier_rejects_orientation_without_two_forests(self):
        data = decide_locally_indicable(make_trefoil()).to_jsonable()
        data["evidence"]["epsilon"] = {"a": "+", "b": "+", "c": "-"}
        ok, problems = verify_li_tree(LiCertificateTree.from_jsonable(data))
        assert not ok
        assert problems == ["root: recorded orientation does not give two forests"]

    def test_unknown_never_claims(self):
        # an injective LOT that is reduced but has no bi-forest split would be
        # needed for UNKNOWN; verify at least that UNKNOWN trees refuse the
        # certified flag
        lot = make_trefoil()
        bad = LiCertificateTree(
            kind=KIND_UNKNOWN,
            lot=lot,
            evidence={"reason": "test"},
            conclusion={"locally_indicable": "certified"},
        )
        ok, problems = verify_li_tree(bad)
        assert not ok


class TestJsonable:
    def test_lot_round_trip(self):
        lot = make_w5()
        assert lot_from_jsonable(lot_to_jsonable(lot)) == lot
