import itertools
import json
import random
import time
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    parse_lot,
    quotient,
    reduce_lot,
    reduce_lot_with_log,
    replay_reduction,
    verify_li_tree,
)
from drtool import certificates, complexes, lots
from drtool.certificates import CheckOutcome, check_dr2_zero_one
from drtool.complexes import format_word
from drtool.errors import (
    AmbiguousCollapseVertex,
    CapExceeded,
    ComplexError,
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
    BiForestStructure,
    LiCertificateTree,
    _bi_forest,
    boundary_reducible_sub_lots,
    canonical_lot_key,
    lot_from_jsonable,
    lot_to_jsonable,
)
from drtool.reports import canonical_json
from drtool.unionfind import UnionFind

from conftest import FIXTURES, make_chain6, make_trefoil, make_w5
from genutil import (
    WIDE_NAME_ALPHABET,
    lot_relabellings,
    oracle_lot_key,
    oracle_pruned_components,
    random_reduced_injective_lot,
    readable_name,
    reduced_injective_lot_candidates,
    reference_bi_forest_signs,
    tree_shapes,
)


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

    def test_witnesses_and_moves_follow_vertex_then_side_order(self):
        # a is the source of two edges labeled b and the target of two labeled d
        lot = build_lot(
            "abcde",
            [("e1", "b", "a", "d"), ("e2", "c", "a", "d"),
             ("e3", "a", "d", "b"), ("e4", "a", "e", "b")],
        )
        assert check_properties(lot).witnesses == {
            "boundary": ["c", "e"],
            "interior": [
                {"vertex": "a", "side": "source", "label": "b", "edges": ["e3", "e4"]},
                {"vertex": "a", "side": "target", "label": "d", "edges": ["e1", "e2"]},
            ],
            "injective": {"d": ["e1", "e2"], "b": ["e3", "e4"]},
        }
        _, log = reduce_lot_with_log(lot)
        assert log == (
            {"move": "interior", "kept_edge": "e3", "removed_edge": "e4",
             "merged": "e", "into": "d", "side": "source"},
            {"move": "interior", "kept_edge": "e1", "removed_edge": "e2",
             "merged": "c", "into": "b", "side": "target"},
        )


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


def random_lot(rng, max_vertices=6, min_vertices=1, label_count=None):
    """A random LOT: a random tree, each edge oriented at random and labeled
    by one of the first ``label_count`` vertices (default: any vertex)."""
    n = rng.randint(min_vertices, max_vertices)
    names = [chr(ord("a") + i) for i in range(n)]
    label_names = names[:label_count]
    edges = []
    for i in range(1, n):
        other = names[rng.randrange(i)]
        u, v = (names[i], other) if rng.random() < 0.5 else (other, names[i])
        edges.append((f"e{i}", u, v, rng.choice(label_names)))
    return build_lot(names, edges)


def renamed(lot, rng):
    """``lot`` with fresh vertex names and edge ids, its edges reordered."""
    n, m = len(lot.vertices), len(lot.edges)
    names = dict(zip(lot.vertices, (f"x{i}" for i in rng.sample(range(3 * n), n))))
    ids = [f"f{i}" for i in rng.sample(range(3 * m + 1), m)]
    edges = [(eid, names[e.source], names[e.target], names[e.label])
             for eid, e in zip(ids, lot.edges)]
    rng.shuffle(edges)
    return build_lot(names.values(), edges)


class TestCanonicalKey:
    def test_partitions_the_sweep_candidates_like_the_oracle(self):
        classes = {}
        for lot in reduced_injective_lot_candidates(6):
            classes.setdefault(canonical_lot_key(lot), []).append(lot)
        assert sum(map(len, classes.values())) > 10000
        oracle_keys = set()
        for key, (first, *rest) in classes.items():
            relabellings = set(lot_relabellings(first))
            # the key is a relabelling of each candidate that has it ...
            assert key[1] in relabellings
            assert all(next(lot_relabellings(lot)) in relabellings for lot in rest)
            oracle_keys.add((len(first.vertices), min(relabellings)))
        # ... and no two keys belong to isomorphic candidates
        assert len(oracle_keys) == len(classes) == 3946

    def test_partitions_random_lots_like_the_oracle(self):
        rng = random.Random(907)
        lots_ = []
        for label_count in (None, 3, 2, 1):
            for _ in range(4):
                lot = random_lot(rng, max_vertices=8, min_vertices=7, label_count=label_count)
                lots_ += [lot, renamed(lot, rng)]
        for _ in range(4):
            lot = random_reduced_injective_lot(rng, rng.randint(7, 8))
            lots_ += [lot, renamed(lot, rng)]
        pairs = {(canonical_lot_key(lot), oracle_lot_key(lot)) for lot in lots_}
        assert len({key for key, _ in pairs}) == len(pairs) == len({oracle for _, oracle in pairs})

    @settings(max_examples=200)
    @given(st.integers(1, 9), st.integers(1, 9), st.randoms(use_true_random=False))
    def test_renaming_and_reordering_keep_the_key(self, n, label_count, rng):
        lot = random_lot(rng, max_vertices=n, min_vertices=n, label_count=label_count)
        assert canonical_lot_key(renamed(lot, rng)) == canonical_lot_key(lot)

    def test_a_star_of_twelve_symmetric_leaves_is_fast(self):
        leaves = [f"l{i}" for i in range(12)]
        star = build_lot(["c", *leaves], [(f"e{i}", "c", leaf, "c") for i, leaf in enumerate(leaves)])
        start = time.perf_counter()
        key = canonical_lot_key(star)
        assert time.perf_counter() - start < 0.5
        assert key == (13, tuple((0, i, 0) for i in range(1, 13)))


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


def injective_lots(n):
    """Every injective LOT on the first ``n`` letters whose tree is one of
    the ``tree_shapes(n)``: each orientation and each injective labeling,
    reduced or not."""
    names = [chr(ord("a") + i) for i in range(n)]
    for shape in tree_shapes(n):
        for flips in itertools.product((False, True), repeat=n - 1):
            ends = [(v, u) if flip else (u, v) for (u, v), flip in zip(shape, flips)]
            for labels in itertools.permutations(range(n), n - 1):
                yield build_lot(names, [
                    (f"e{i + 1}", names[s], names[t], names[l])
                    for i, ((s, t), l) in enumerate(zip(ends, labels))
                ])


def sign_scan(lot):
    """The first bi-forest of the 2^n sign vectors in ``itertools.product``
    order, each checked without the search: the sides are read off the
    signs and the angle-0 corners unioned one by one; None when there is
    none."""
    link = lot_complex(lot).links[BASE_VERTEX]
    for signs in itertools.product((1, -1), repeat=len(lot.vertices)):
        epsilon = dict(zip(lot.vertices, signs))
        side = {n: epsilon[n.edge] * n.end for n in link.nodes}
        zeros = [c for c in link.corners if side[c.nodes[0]] == side[c.nodes[1]]]
        uf = UnionFind(link.nodes)
        if all(uf.union(*c.nodes) for c in zeros):
            return BiForestStructure(
                epsilon=epsilon,
                lambda1_nodes=tuple(n for n in link.nodes if side[n] > 0),
                lambda2_nodes=tuple(n for n in link.nodes if side[n] < 0),
                lambda1_corners=tuple(c.key for c in zeros if side[c.nodes[0]] > 0),
                lambda2_corners=tuple(c.key for c in zeros if side[c.nodes[0]] < 0),
                assignment=ZeroOneAssignment(
                    {c.key: 0 if c in zeros else 1 for c in link.corners}),
            )
    return None


def bi_forest_quietly(lot):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # most of these LOTs are not reduced
        return bi_forest_orientation(lot)


def maximal_row(lot):
    """``maximal_proper_sub_lot`` as a (vertices, edge ids) row, or None."""
    sub = maximal_proper_sub_lot(lot)
    return None if sub is None else (sub.vertices, tuple(edge_ids(sub)))


def oracle_maximal_proper(rows):
    """The proper row whose edge set lies in no other proper row's, with the
    smallest vertex tuple; None without a proper row."""
    proper = [row for row in rows if row[2]]
    maximal = [
        row for row in proper
        if not any(set(row[1]) < set(other[1]) for other in proper)
    ]
    return min(maximal, key=lambda row: row[0], default=None)


def pruning_case(rng, n, labels):
    """A random tree on ``n`` vertices and a random subset of its edges.

    ``labels`` is ``injective``, ``repeated`` (two label values) or
    ``absent`` (about half the labels outside the vertices the subset
    spans, where there are such vertices)."""
    names = [chr(ord("a") + i) for i in range(n)]
    ends = []
    for i in range(1, n):
        other = rng.randrange(i)
        ends.append((i, other) if rng.random() < 0.5 else (other, i))
    keep = [rng.random() < 0.75 for _ in ends]
    if labels == "injective":
        chosen = rng.sample(range(n), n - 1)
    elif labels == "repeated":
        chosen = [rng.randrange(2) for _ in ends]
    else:
        spanned = {v for pair, k in zip(ends, keep) if k for v in pair}
        outside = [v for v in range(n) if v not in spanned] or list(range(n))
        chosen = [rng.choice(outside) if rng.random() < 0.5 else rng.randrange(n)
                  for _ in ends]
    lot = build_lot(names, [(f"e{i + 1}", names[s], names[t], names[lab])
                            for i, ((s, t), lab) in enumerate(zip(ends, chosen))])
    return lot, [e for e, k in zip(lot.edges, keep) if k]


class TestSubLots:
    @settings(max_examples=300)
    @given(st.integers(3, 16), st.sampled_from(["injective", "repeated", "absent"]),
           st.randoms(use_true_random=False))
    def test_pruned_components_match_the_union_find_oracle(self, n, labels, rng):
        # the largest sub-LOTs among any edge subset: the components of what
        # is left once every edge that the missing ones reach has fallen
        lot, edges = pruning_case(rng, n, labels)
        table = lots._DropTable(lot)
        kept = sum(1 << lot.edges.index(e) for e in edges)
        fallen = 0
        for i, reach in enumerate(table.reach):
            if not kept >> i & 1:
                fallen |= reach
        got = [list(table.edges_of(part))
               for part in lots._edge_components(kept & ~fallen, table.adjacent)]
        assert got == oracle_pruned_components(lot.vertices, edges)

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

    def test_maximal_matches_enumeration_at_decide_sizes(self):
        rng = random.Random(1113)
        found = 0
        for k in range(30):
            lot = random_reduced_injective_lot(rng, 9 + k % 5)
            expected = oracle_maximal_proper(oracle_sub_lots(lot))
            assert maximal_row(lot) == (expected and expected[:2])
            found += expected is not None
        assert 0 < found < 30

    def test_enumeration_matches_oracle_with_repeated_labels(self):
        rng = random.Random(1217)
        lots_ = [random_lot(rng, max_vertices=13, min_vertices=9, label_count=rng.randint(1, 4))
                 for _ in range(12)]
        # every subtree through the centre is a sub-LOT: 2^11 - 1 of them
        leaves = [f"l{i:02d}" for i in range(11)]
        lots_.append(build_lot(["c", *leaves],
                               [(f"e{i:02d}", "c", leaf, "c") for i, leaf in enumerate(leaves)]))
        for lot in lots_:
            rows = [(s.vertices, tuple(edge_ids(s)), p) for s, p in enumerate_sub_lots(lot)]
            assert rows == oracle_sub_lots(lot)
        assert len(rows) == 2047

    def test_enumeration_prunes_at_most_m_times_per_sub_lot(self, monkeypatch):
        calls = []
        edge_components = lots._edge_components

        def counted(mask, adjacent):
            calls.append(mask)
            return edge_components(mask, adjacent)

        monkeypatch.setattr(lots, "_edge_components", counted)
        lot = random_reduced_injective_lot(random.Random(1300), 40)
        listed = enumerate_sub_lots(lot)
        # 2^39 edge subsets: only work per sub-LOT listed finishes here
        assert len(listed) == 4
        assert 0 < len(calls) <= len(lot.edges) * len(listed)

    def test_every_small_injective_lot(self):
        # the small-LOT sweep runs thousands of 3- and 4-vertex LOTs
        count = 0
        for lot in itertools.chain(injective_lots(3), injective_lots(4)):
            expected = oracle_maximal_proper(oracle_sub_lots(lot))
            assert maximal_row(lot) == (expected and expected[:2])
            bf = bi_forest_quietly(lot)
            expected_bf = oracle_bi_forest(lot)
            assert (bf and bf.epsilon) == (expected_bf and expected_bf[0])
            count += 1
        assert count == 24 + 384

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

    def test_generator_count_over_the_cap_is_refused(self, monkeypatch):
        w5 = make_w5()
        assert check_properties(w5).reduced and w5.is_injective
        monkeypatch.setenv("DRTOOL_SEARCH_CAP", "3")
        with pytest.raises(CapExceeded, match="5 generators .* cap 3"):
            bi_forest_orientation(w5)
        monkeypatch.setenv("DRTOOL_SEARCH_CAP", "5")
        assert bi_forest_orientation(w5) is not None

    def test_the_warning_guard_agrees_with_check_properties(self):
        # random LOTs, reduced or not and injective or not, and reduced
        # injective ones; every mix of the two verdicts comes up
        rng = random.Random(58)
        lots_ = [random_lot(rng, max_vertices=9) for _ in range(300)]
        lots_ += [random_lot(rng, min_vertices=4, max_vertices=9, label_count=k % 3 + 1)
                  for k in range(150)]
        lots_ += [random_reduced_injective_lot(rng, 4 + k % 8) for k in range(50)]
        seen = set()
        for lot in lots_:
            props = check_properties(lot)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                bi_forest_orientation(lot)
            assert bool(caught) == (not (props.reduced and props.injective))
            seen.add((props.reduced, props.injective))
        assert len(seen) == 4

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
                structure = _bi_forest(link, lot.vertices, [(s,) for s in signs])
                if structure is not None:
                    assert dict(structure.assignment.items()) == table

    def test_search_matches_brute_force_oracle(self):
        rng = random.Random(2026)
        found = 0
        for _ in range(150):
            lot = random_lot(rng)
            bf = bi_forest_quietly(lot)
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

    # The reference backtracker takes under 0.1 s a LOT up to 20 vertices
    # (1.5 s at 24), where the 2^n scans of the tests around stop at 12.
    # Past 25 generators the search runs above its built-in cap.
    @settings(max_examples=70)
    @given(st.sampled_from(range(8, 27)), st.integers(0, 2**32 - 1))
    def test_search_matches_reference_backtracker_past_the_scans(self, n, seed):
        lot = random_reduced_injective_lot(random.Random(seed), n)
        link = lot_complex(lot).links[BASE_VERTEX]
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("DRTOOL_SEARCH_CAP", "26")
            bf = bi_forest_orientation(lot)
        assert (bf and bf.epsilon) == reference_bi_forest_signs(link, list(lot.vertices))
        if bf is not None:
            # the verifier's call, one recorded sign a level, gives the same structure
            recorded = _bi_forest(link, lot.vertices, [(s,) for s in bf.epsilon.values()])
            assert recorded.to_jsonable() == bf.to_jsonable()

    def test_search_matches_sign_scan_up_to_12_generators(self):
        rng = random.Random(4242)
        lots_ = [random_reduced_injective_lot(rng, 6 + k % 7) for k in range(35)]
        lots_ += [random_lot(rng, max_vertices=12) for _ in range(10)]
        missing = 0
        for lot in lots_:
            expected = sign_scan(lot)
            bf = bi_forest_quietly(lot)
            if expected is None:
                assert bf is None
                missing += 1
            else:
                assert bf.to_jsonable() == expected.to_jsonable()
        assert 0 < missing < len(lots_)

    def test_zero_one_from_biforest_passes_everything(self):
        lot = make_trefoil()
        w01 = bi_forest_orientation(lot).assignment
        K = lot_complex(lot)
        assert coloring_test(K, w01).passed
        assert check_dr2_zero_one(K, w01).ok

    def test_the_certificate_written_from_the_bi_forest_is_the_checked_one(self):
        # the decision writes each ZERO_ONE certificate from the bi-forest's
        # own components, without the coloring test; check_dr2_zero_one, which
        # verify-cert runs, must write the same one, on reduced injective
        # LOTs and on their quotients that are reduced injective too
        rng = random.Random(4343)
        seen = {"lot": 0, "quotient": 0}
        for k in range(72):
            lot = random_reduced_injective_lot(rng, 6 + k % 9)
            cases = [("lot", lot)]
            for sub, proper in enumerate_sub_lots(lot):
                if proper:
                    quotient_lot, _ = quotient(lot, sub)
                    props = check_properties(quotient_lot)
                    if props.reduced and props.injective:
                        cases.append(("quotient", quotient_lot))
            for kind, each in cases:
                structure = bi_forest_orientation(each)
                if structure is None:
                    continue
                written = lots._dr2_certificate(each, structure).to_jsonable()
                assert written == check_dr2_zero_one(
                    each.complex, structure.assignment).to_jsonable()["certificate"]
                seen[kind] += 1
        assert min(seen.values()) >= 30, seen


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

    @pytest.mark.parametrize("make, kind", [(make_chain6, KIND_AMALGAM),
                                            (make_w5, KIND_QUOTIENT_STEP)])
    def test_an_unknown_child_leaves_its_parent_unknown(self, monkeypatch, make, kind):
        # the first child, on a b c, finds no bi-forest; w5's quotient is a
        # trefoil too, on b d e, and keeps its own
        original = lots.bi_forest_orientation
        monkeypatch.setattr(lots, "bi_forest_orientation",
                            lambda lot: None if lot.vertices == ("a", "b", "c") else original(lot))
        tree = decide_locally_indicable(make())
        monkeypatch.undo()
        assert tree.kind == kind
        assert tree.conclusion == {"locally_indicable": "unknown"}
        first, *rest = tree.children
        assert first.kind == KIND_UNKNOWN
        assert first.evidence["reason"] == "bi_forest_search_failed"
        assert all(child.certified for child in rest)
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
        # the first ZERO_ONE certificate of w5 written is its quotient's; it
        # must not fall back to C(4)-T(4)
        calls = []
        write = certificates.write_zero_one

        def fail_first(X, omega01, component):
            calls.append(X)
            if len(calls) == 1:
                return CheckOutcome(witness={"reason": "forced"})
            return write(X, omega01, component)

        monkeypatch.setattr(certificates, "write_zero_one", fail_first)
        with pytest.raises(InvariantViolation, match="forced"):
            decide_locally_indicable(make_w5())
        assert len(calls) == 1

    def test_a_quotient_without_a_bi_forest_goes_on_to_c4t4(self, monkeypatch):
        # the decision walks dr2_routes: with no bi-forest angles for w5's
        # quotient, C(4)-T(4) is its one route, tried once, and the trefoil
        # fails it; the base child never reaches C(4)-T(4)
        w5 = make_w5()
        quotient_lot, _ = quotient(w5, maximal_proper_sub_lot(w5))
        original_search, original_c4t4 = lots.bi_forest_orientation, certificates.check_dr2_c4t4
        monkeypatch.setattr(lots, "bi_forest_orientation",
                            lambda lot: None if lot == quotient_lot else original_search(lot))
        checked = []
        monkeypatch.setattr(certificates, "check_dr2_c4t4",
                            lambda X: checked.append(X) or original_c4t4(X))
        tree = decide_locally_indicable(w5)
        monkeypatch.undo()
        assert checked == [quotient_lot.complex]
        assert tree.kind == KIND_UNKNOWN
        assert tree.evidence["reason"] == "no_dr2_certificate_for_quotient"
        assert [child.kind for child in tree.children] == [KIND_HUCK_ROSE_BASE]
        ok, problems = verify_li_tree(tree)
        assert ok, problems

    @settings(max_examples=150)
    @given(st.integers(6, 14), st.integers(0, 2**32 - 1))
    def test_every_decided_tree_verifies(self, n, seed):
        tree = decide_locally_indicable(random_reduced_injective_lot(random.Random(seed), n))
        data = json.loads(canonical_json(tree.to_jsonable()))
        ok, problems = verify_li_tree(LiCertificateTree.from_jsonable(data))
        assert ok, problems

    def test_the_fixed_inputs_bring_every_node_kind_and_verify(self):
        # random LOTs bring base and quotient-step nodes; chain6 and the
        # seeded fixtures bring amalgams and an UNKNOWN node too
        def kinds(node):
            return {node.kind}.union(*(kinds(child) for child in node.children))

        seen = set()
        for lot in [make_chain6()] + [parse_lot(path.read_text(encoding="utf-8"))
                                      for path in sorted((FIXTURES / "lots").glob("*.lot"))]:
            tree = decide_locally_indicable(lot)
            ok, problems = verify_li_tree(tree)
            assert ok, problems
            seen |= kinds(tree)
        assert seen == {KIND_HUCK_ROSE_BASE, KIND_QUOTIENT_STEP, KIND_AMALGAM, KIND_UNKNOWN}

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

    @pytest.mark.parametrize("edit", [
        lambda K: K["vertices"].append("v9"),
        lambda K: K.update(vertices=None),
        lambda K: K.update(cells=[[cell, " ".join(word)] for cell, word in K["cells"]]),
    ], ids=["another-complex", "null-vertices", "words-as-strings"])
    @pytest.mark.parametrize("make", [make_trefoil, make_w5, make_chain6])
    def test_an_embedded_certificate_is_compared_with_its_rebuild(self, monkeypatch, make,
                                                                 edit):
        # the certificate is rebuilt on the node's own complex and compared as
        # JSON, so no complex is built from it, and a complex written in any
        # other way, about that complex or another, disagrees
        data = decide_locally_indicable(make()).to_jsonable()
        built = []
        original = complexes.build_complex
        monkeypatch.setattr(complexes, "build_complex",
                            lambda *args, **kw: built.append(args) or original(*args, **kw))
        assert verify_li_tree(LiCertificateTree.from_jsonable(data)) == (True, [])
        where, node = ("root", data) if "dr2_certificate" in data["evidence"] else (
            f"{data['kind'].lower()}[0]", data["children"][0])
        edit(node["evidence"]["dr2_certificate"]["complex"])
        assert verify_li_tree(LiCertificateTree.from_jsonable(data)) == (
            False, [f"{where}: dr2 certificate: recorded value disagrees with recomputation"])
        assert built == []

    def test_a_name_ending_in_minus_is_refused(self):
        # vertex a- would be the complex's edge a-, whose letter a- reads
        # back as edge a inverted
        with pytest.raises(ComplexError, match="vertex name 'a-' .* not end in '-'"):
            build_lot(["a-", "b", "c"], [("e1", "a-", "b", "c"), ("e2", "b", "c", "a-")])
        with pytest.raises(ComplexError, match="edge name 'e1-' .* not end in '-'"):
            build_lot(["a", "b", "c"], [("e1-", "a", "b", "c"), ("e2", "b", "c", "a")])

    def test_verifier_rejects_orientation_without_two_forests(self):
        data = decide_locally_indicable(make_trefoil()).to_jsonable()
        data["evidence"]["epsilon"] = {"a": "+", "b": "+", "c": "-"}
        ok, problems = verify_li_tree(LiCertificateTree.from_jsonable(data))
        assert not ok
        assert problems == ["root: recorded orientation does not give two forests"]

    @pytest.mark.parametrize("make", [make_w5, make_chain6])
    def test_verifier_rejects_base_node_with_a_proper_sub_lot(self, make):
        # a HUCK_ROSE_BASE node forged on a LOT that has a proper sub-LOT
        lot = make()
        evidence = dict(decide_locally_indicable(make_trefoil()).evidence)
        evidence["epsilon"] = {g: "+" for g in lot.vertices}
        structure = bi_forest_orientation(lot)
        if structure is not None:  # w5: evidence right in all but the trigger
            evidence.update(structure.to_jsonable())
            evidence["dr2_certificate"] = lots._dr2_certificate(lot, structure).to_jsonable()
        forged = LiCertificateTree(
            kind=KIND_HUCK_ROSE_BASE,
            lot=lot,
            evidence=evidence,
            conclusion={"locally_indicable": "certified"},
        )
        # a refused choice ends its node: the trigger is its only problem,
        # though chain6's ε gives no two forests either
        assert verify_li_tree(forged) == (
            False, ["root: HUCK_ROSE_BASE trigger violated: a proper sub-LOT exists"])

    @pytest.mark.parametrize("make, path, value, problem", [
        (make_trefoil, ("evidence", "lambda1_corners"), [["e1", 1]],
         "root: lambda1 corners: recorded value disagrees with recomputation"),
        (make_chain6, ("evidence", "axiom"), "amalgam_of_any_groups",
         "root: axiom: recorded value disagrees with recomputation"),
        (lambda: build_lot("a", []), ("evidence", "group"), "Z/2",
         "root: group: recorded value disagrees with recomputation"),
        (make_trefoil, ("evidence", "dr2_certificate", "format"), "dr2-certificate/2",
         "root: dr2 certificate: recorded value disagrees with recomputation"),
        (make_w5, ("conclusion", "locally_indicable"), "unknown",
         "root: locally indicable: recorded value disagrees with recomputation"),
        # an embedded certificate is refused in the words verify_dr2_certificate uses
        (make_w5, ("evidence", "dr2_certificate", "method"), "X",
         "root: unknown certificate method 'X'"),
    ], ids=["base-lambda1-corners", "amalgam-axiom", "single-vertex-group",
            "embedded-format", "certified-written-unknown", "embedded-unknown-method"])
    def test_verifier_rebuilds_each_field_from_the_recorded_choice(self, make, path, value,
                                                                   problem):
        data = decide_locally_indicable(make()).to_jsonable()
        *head, last = path
        node = data
        for key in head:
            node = node[key]
        node[last] = value
        assert verify_li_tree(LiCertificateTree.from_jsonable(data)) == (False, [problem])

    @pytest.mark.parametrize("make, edit, problem", [
        (make_w5, lambda data: data.update(kind="SINGLE_VERTEX"),
         "root: SINGLE_VERTEX node on a LOT that is not a single vertex"),
        # with the sub-LOT on d, e, f as part1 the outside part keeps e3, whose
        # label e lies in part1: the split raises inside and becomes a refusal
        (make_chain6, lambda data: data["evidence"].update(part1={
            "vertices": ["d", "e", "f"], "edges": [["e4", "d", "e", "f"], ["e5", "e", "f", "d"]]}),
         "root: recorded part1 gives no amalgam split: outside part is not a sub-LOT: "
         "sub-LOT labels must lie among its vertices"),
        (make_w5, lambda data: data["evidence"].update(extra=1),
         "root: recorded fields that recomputation does not write: ['extra']"),
    ], ids=["single-vertex-kind-on-w5", "part1-on-the-wrong-side", "extra-evidence-field"])
    def test_verifier_refuses_a_forged_node(self, make, edit, problem):
        data = decide_locally_indicable(make()).to_jsonable()
        edit(data)
        assert verify_li_tree(LiCertificateTree.from_jsonable(data)) == (False, [problem])

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


class TestNames:
    @settings(max_examples=120)
    @given(st.sampled_from([make_trefoil, make_w5, make_chain6]), st.data())
    def test_an_accepted_name_survives_the_certificate_round_trip(self, make, data):
        # rename a certified LOT with distinct names, one of them from a wide
        # alphabet: build_lot refuses it, or its certificate verifies after
        # canonical JSON
        lot = make()
        n, k = len(lot.vertices), len(lot.vertices) + len(lot.edges)
        good = st.text(alphabet="ab*-\u00e9\u5b57", min_size=1, max_size=3).filter(readable_name)
        names = data.draw(st.lists(good, min_size=k, max_size=k, unique=True))
        names[data.draw(st.integers(0, k - 1))] = data.draw(
            st.text(alphabet=WIDE_NAME_ALPHABET, max_size=3))
        assume(len(set(names)) == k)
        vertex = dict(zip(lot.vertices, names[:n]))
        edges = [(eid, vertex[e.source], vertex[e.target], vertex[e.label])
                 for eid, e in zip(names[n:], lot.edges)]
        try:
            lot = build_lot(names[:n], edges)
        except ComplexError:
            assert not all(map(readable_name, names))
            return
        assert all(map(readable_name, names))
        text = canonical_json(decide_locally_indicable(lot).to_jsonable())
        ok, problems = verify_li_tree(LiCertificateTree.from_jsonable(json.loads(text)))
        assert ok, problems


class TestJsonable:
    def test_lot_round_trip(self):
        lot = make_w5()
        assert lot_from_jsonable(lot_to_jsonable(lot)) == lot
