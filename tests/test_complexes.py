import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drtool import (
    CornerStep,
    LinkNode,
    build_complex,
    euler_characteristic,
    link_graph,
)
from drtool.complexes import (
    Letter,
    coerce_word,
    complex_from_jsonable,
    complex_to_jsonable,
    rotate_word,
)
from drtool.errors import ComplexError

from conftest import make_m2, make_torus, make_trefoil
from genutil import (
    WIDE_NAME_ALPHABET,
    is_reduced_walk,
    random_complex,
    random_multi_vertex_complex,
    random_one_vertex_complex,
    readable_name,
)
from drtool.lots import lot_complex


def corner_pairs(G):
    return sorted(tuple(sorted(map(str, c.nodes))) for c in G.corners)


class TestBuildComplex:
    def test_torus_valid_no_flags(self):
        X = make_torus()
        assert X.flags == ()
        assert [e.id for e in X.edges] == ["a", "b"]

    def test_non_reduced_word_flagged(self):
        X = build_complex(edges=[("a", "*", "*")], cells=[("r1", "a a a-")], vertices=["*"])
        assert "non-reduced boundary word at cell r1 position (2,3)" in X.flags
        # the wrap pair a- a is flagged as well
        assert any("(3,1)" in flag for flag in X.flags)

    def test_non_closed_path_rejected(self):
        with pytest.raises(ComplexError, match="non-closed"):
            build_complex(
                edges=[("a", "v", "w"), ("b", "v", "w")],
                cells=[("r1", "a b")],
            )

    def test_duplicate_edge_id(self):
        with pytest.raises(ComplexError, match="duplicate edge"):
            build_complex(edges=[("a", "*", "*"), ("a", "*", "*")], cells=[])

    def test_unknown_edge_in_word(self):
        with pytest.raises(ComplexError, match="unknown edge"):
            build_complex(edges=[("a", "*", "*")], cells=[("r1", "a z")])

    def test_empty_word_rejected(self):
        with pytest.raises(ComplexError, match="empty boundary word"):
            build_complex(edges=[("a", "*", "*")], cells=[("r1", "")])

    @pytest.mark.parametrize("name", ["a-", "-", "", "a b", "a\x85", "a#"])
    def test_edge_id_that_does_not_read_back_as_a_letter_is_refused(self, name):
        with pytest.raises(ComplexError, match="must be nonempty, without whitespace or '#', "
                                               "and not end in '-'"):
            build_complex(edges=[(name, "*", "*")], cells=[], vertices=["*"])

    @pytest.mark.parametrize("item", [["a", 1], ("a", 0.5), ["b", True], 3, None])
    def test_word_item_that_is_not_a_letter_or_a_string_is_refused(self, item):
        with pytest.raises(ComplexError, match="as a letter"):
            coerce_word(["a", item])

    def test_jsonable_round_trip(self):
        X = make_torus()
        assert complex_from_jsonable(complex_to_jsonable(X)) == X

    def test_a_null_vertex_list_and_words_as_strings_read_back(self):
        X = make_torus()
        data = complex_to_jsonable(X)
        data["vertices"] = None
        data["cells"] = [[cell, " ".join(word)] for cell, word in data["cells"]]
        assert complex_from_jsonable(data) == X

    @settings(max_examples=300)
    @given(st.data())
    def test_jsonable_round_trip_of_every_accepted_complex(self, data):
        # names from an alphabet that holds what the letter grammar cannot
        # read back; every edge is a loop, so any word over the loops at one
        # vertex closes up
        names = st.text(alphabet=WIDE_NAME_ALPHABET, max_size=3)
        vertices = data.draw(st.lists(names, min_size=1, max_size=3, unique=True))
        edges = data.draw(st.lists(st.tuples(names, st.sampled_from(vertices)),
                                   max_size=4, unique_by=lambda e: e[0]))
        cells = []
        for cid in data.draw(st.lists(names, max_size=3, unique=True)):
            at = data.draw(st.sampled_from(vertices))
            loops = [e for e, v in edges if v == at]
            if loops:
                letters = st.builds(Letter, st.sampled_from(loops), st.sampled_from((1, -1)))
                cells.append((cid, data.draw(st.lists(letters, min_size=1, max_size=5))))
        try:
            X = build_complex(edges=[(e, v, v) for e, v in edges], cells=cells, vertices=vertices)
        except ComplexError:
            assert not all(readable_name(e) for e, _ in edges)
            return
        assert complex_from_jsonable(complex_to_jsonable(X)) == X


class TestEulerCharacteristic:
    def test_torus(self):
        assert euler_characteristic(make_torus()) == 0

    def test_trefoil_complex(self):
        assert euler_characteristic(lot_complex(make_trefoil())) == 0

    def test_point(self):
        X = build_complex(edges=[], cells=[], vertices=["v"])
        assert euler_characteristic(X) == 1

    def test_m2_is_a_sphere(self):
        assert euler_characteristic(make_m2()) == 2


class TestLinkGraph:
    def test_torus_link_is_a_four_cycle(self):
        G = link_graph(make_torus(), "*")
        assert sorted(map(str, G.nodes)) == ["a+", "a-", "b+", "b-"]
        assert corner_pairs(G) == sorted(
            [("a+", "b-"), ("a+", "b+"), ("a-", "b-"), ("a-", "b+")]
        )
        degrees = {str(n): 0 for n in G.nodes}
        for c in G.corners:
            for n in c.nodes:
                degrees[str(n)] += 1
        assert set(degrees.values()) == {2}

    def test_trefoil_complex_link(self):
        G = link_graph(lot_complex(make_trefoil()), "*")
        assert len(G.nodes) == 6
        assert corner_pairs(G) == sorted(
            [
                ("a+", "c-"),
                ("b+", "c+"),
                ("b-", "c+"),
                ("a-", "c-"),
                ("a-", "b+"),
                ("a+", "c+"),
                ("a+", "c-"),
                ("a-", "b-"),
            ]
        )

    def test_no_cells_gives_isolated_nodes(self):
        X = build_complex(edges=[("a", "v", "v"), ("b", "v", "w")], cells=[])
        G = link_graph(X, "v")
        assert G.corners == ()
        assert sorted(map(str, G.nodes)) == ["a+", "a-", "b-"]

    def test_unknown_vertex(self):
        with pytest.raises(ComplexError):
            link_graph(make_torus(), "nope")

    def test_node_count_sums_to_twice_edges(self):
        rng = random.Random(7)
        for _ in range(25):
            X = random_complex(rng)
            total_nodes = sum(len(link_graph(X, v).nodes) for v in X.vertices)
            assert total_nodes == 2 * len(X.edges)

    def test_corner_count_sums_to_boundary_lengths(self):
        rng = random.Random(8)
        for _ in range(25):
            X = random_complex(rng)
            total_corners = sum(len(link_graph(X, v).corners) for v in X.vertices)
            assert total_corners == sum(len(c.word) for c in X.cells)

    def test_rotation_invariance(self):
        rng = random.Random(9)
        for _ in range(20):
            X = random_complex(rng)
            if not X.cells:
                continue
            rotated = build_complex(
                edges=[(e.id, e.source, e.target) for e in X.edges],
                cells=[
                    (c.id, rotate_word(c.word, rng.randrange(len(c.word))))
                    for c in X.cells
                ],
                vertices=X.vertices,
            )
            for v in X.vertices:
                assert corner_pairs(link_graph(X, v)) == corner_pairs(link_graph(rotated, v))


class TestCornerTable:
    def test_matches_cell_positions_and_link_corners_in_order(self):
        rng = random.Random(12)
        for k in range(40):
            if k % 2:
                X = random_one_vertex_complex(rng)
            else:
                X = random_multi_vertex_complex(rng, n_vertices=rng.randint(2, 4))
            assert set(X.corners) == {(c.id, i) for c in X.cells for i in range(len(c.word))}
            assert list(X.corners.items()) == [
                (c.key, (v, c)) for v in X.vertices for c in link_graph(X, v).corners
            ]

    def test_built_once(self):
        X = make_torus()
        assert X.corners is X.corners


class TestReducedPaths:
    """The reference walk check that the curvature tests apply to witnesses."""

    def test_immediate_backtrack(self):
        G = link_graph(make_torus(), "*")
        step = CornerStep(G.corners[0])
        assert is_reduced_walk([step, step.reversed_step()], G) is False

    def test_torus_four_cycle_is_reduced(self):
        G = link_graph(make_torus(), "*")
        by_start = {}
        for s in G.steps():
            by_start.setdefault(s.start, []).append(s)
        # walk the 4-cycle greedily without backtracking
        path = [G.steps()[0]]
        while len(path) < 4:
            nxt = next(
                s for s in by_start[path[-1].end] if s != path[-1].reversed_step()
            )
            path.append(nxt)
        assert path[-1].end == path[0].start
        assert is_reduced_walk(path, G, cyclic=True) is True

    def test_single_loop_cycle_is_reduced(self):
        X = build_complex(edges=[("a", "*", "*")], cells=[("r1", "a a-")], vertices=["*"])
        G = link_graph(X, "*")
        loop = next(c for c in G.corners if c.nodes[0] == c.nodes[1])
        assert is_reduced_walk([CornerStep(loop)], G, cyclic=True) is True

    def test_not_a_walk(self):
        G = link_graph(make_torus(), "*")
        s0 = CornerStep(G.corners[0])
        bad = next(
            CornerStep(c) for c in G.corners if CornerStep(c).start != s0.end
        )
        assert is_reduced_walk([s0, bad], G) is False

    def test_foreign_corner_rejected(self):
        G = link_graph(make_torus(), "*")
        H = link_graph(make_m2(), "*")
        assert is_reduced_walk([CornerStep(H.corners[0])], G) is False


class TestLinkNodes:
    def test_display(self):
        assert str(LinkNode("a", 1)) == "a+"
        assert str(LinkNode("a", -1)) == "a-"

    def test_letter_display(self):
        assert str(Letter("a", 1)) == "a"
        assert str(Letter("a", -1)) == "a-"
