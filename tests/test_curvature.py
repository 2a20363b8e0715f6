import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drtool import (
    AngleAssignment,
    ZeroOneAssignment,
    build_complex,
    check_gauss_bonnet,
    coloring_test,
    find_zero_one_structure,
    link_graph,
    parse_presentation,
    vertex_curvature,
    weight_test,
)
from drtool import curvature
from drtool.certificates import check_dr2_zero_one
from drtool.complexes import TwoComplex
from drtool.curvature import coloring_forests, min_reduced_cycle, min_reduced_path
from drtool.errors import (
    CapExceeded,
    ComplexError,
    InvariantViolation,
    MissingWeight,
    UnsupportedWeights,
)
from drtool.lots import BASE_VERTEX, bi_forest_orientation, lot_complex
from drtool.unionfind import UnionFind

from conftest import make_m2, make_torus, make_trefoil
from genutil import (
    is_reduced_walk,
    oracle_coloring_forests,
    oracle_dr2_zero_one,
    oracle_min_reduced_cycle_weight,
    oracle_min_reduced_path,
    oracle_zero_one_structure,
    random_complex,
    random_link,
    random_multi_vertex_complex,
    random_one_vertex_complex,
    random_rationals,
    random_reduced_injective_lot,
    random_surface_word_complex,
    random_zero_one,
    reference_zero_one_structure,
    uf_classes,
)


def trefoil_zero_one():
    return bi_forest_orientation(make_trefoil()).assignment


def numbered_classes(nodes, component):
    """The classes of ``nodes`` under a component numbering of their
    positions, class i holding the nodes numbered i, in node order."""
    classes = [[] for _ in set(component)]
    for node, number in zip(nodes, component):
        classes[number].append(node)
    return tuple(map(tuple, classes))


class TestCurvatureValues:
    def test_torus_vertex(self):
        X = make_torus()
        w = AngleAssignment.uniform(X, Fraction(1, 2))
        assert vertex_curvature(X, w, "*") == 0

    def test_degree_k_vertex_no_cells(self):
        X = build_complex(
            edges=[("a", "v", "w"), ("b", "v", "w"), ("c", "v", "v")], cells=[]
        )
        w = AngleAssignment({})
        # v carries ends a-, b-, c+, c-: degree 4
        assert vertex_curvature(X, w, "v") == 2 - 4

    def test_trefoil_complex_vertex(self):
        K = lot_complex(make_trefoil())
        assert vertex_curvature(K, trefoil_zero_one(), BASE_VERTEX) == 0

    def test_torus_cell(self):
        X = make_torus()
        w = AngleAssignment.uniform(X, Fraction(1, 2))
        assert check_gauss_bonnet(X, w).cell_curvatures["r1"] == 0

    def test_lot_square_two_ones(self):
        K = lot_complex(make_trefoil())
        curvatures = check_gauss_bonnet(K, trefoil_zero_one()).cell_curvatures
        for cell in K.cells:
            assert curvatures[cell.id] == 0

    def test_monogon_weight_one(self):
        X = make_m2()
        w = AngleAssignment.uniform(X, 1)
        assert check_gauss_bonnet(X, w).cell_curvatures["r1"] == 2

    def test_missing_weight(self):
        X = make_torus()
        with pytest.raises(MissingWeight):
            vertex_curvature(X, AngleAssignment({("r1", 0): 1}), "*")

    def test_curvature_linear_in_angles(self):
        rng = random.Random(5)
        for _ in range(15):
            X = random_complex(rng)
            if not X.cells:
                continue
            w1 = random_rationals(rng, X, allow_negative=True)
            w2 = random_rationals(rng, X, allow_negative=True)
            w12 = AngleAssignment({k: v + w2.weight(k) for k, v in w1.items()})
            for v in X.vertices:
                G = link_graph(X, v)
                const = 2 - G.euler_characteristic()
                assert vertex_curvature(X, w12, v) == (
                    vertex_curvature(X, w1, v) + vertex_curvature(X, w2, v) - const
                )
            k1, k2, k12 = (check_gauss_bonnet(X, w).cell_curvatures for w in (w1, w2, w12))
            for c in X.cells:
                const = len(c.word) - 2
                assert k12[c.id] == k1[c.id] + k2[c.id] + const


def fraction_rule(value):
    """The weight rule by ``Fraction`` alone: a string parsed by ``Fraction``
    (a zero denominator an input error), a Fraction or a non-bool int as it
    is, anything else refused."""
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ComplexError(f"weight {value!r} has a zero denominator") from None
    if isinstance(value, (Fraction, int)) and not isinstance(value, bool):
        return value
    raise ComplexError(f"cannot interpret weight {value!r} as an exact rational")


def outcome(rule, value):
    """``("value", result)`` or ``(exception class, message)``."""
    try:
        return "value", rule(value)
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return type(exc), str(exc)


WEIGHT_STRINGS = ["0", "-0", "007", "1e0", " 1", "+1", "2/2", "0.5", "1/0", "--1",
                  "\u0661", "9" * 5000]


class TestWeightCoercion:
    @settings(max_examples=400)
    @given(st.one_of(
        st.integers(), st.fractions(), st.sampled_from(WEIGHT_STRINGS),
        st.integers().map(str), st.text(alphabet="-+/.e 0129\u0661\u00b2", max_size=6),
        st.floats(allow_nan=False), st.booleans(), st.none(),
    ))
    def test_whole_numbers_are_ints_and_refusals_keep_their_text(self, value):
        got = outcome(curvature._coerce_weight, value)
        expected = outcome(fraction_rule, value)
        assert got == expected
        if got[0] == "value":
            assert type(got[1]) is (int if Fraction(got[1]).denominator == 1 else Fraction)

    def test_listed_strings(self):
        assert [curvature._coerce_weight(s) for s in WEIGHT_STRINGS[:8]] == (
            [0, 0, 7, 1, 1, 1, 1, Fraction(1, 2)]
        )
        assert curvature._coerce_weight("\u0661") == 1
        with pytest.raises(ComplexError, match=r"^weight '1/0' has a zero denominator$"):
            curvature._coerce_weight("1/0")
        with pytest.raises(ValueError, match=r"^Invalid literal for Fraction: '--1'$"):
            curvature._coerce_weight("--1")
        with pytest.raises(ValueError, match="integer string conversion"):
            curvature._coerce_weight("9" * 5000)

    def test_half_weights_print_as_fractions(self):
        X = parse_presentation("presentation\ngens a\nrel a a a\n")
        half = check_gauss_bonnet(X, AngleAssignment.uniform(X, "1/2")).to_jsonable()
        assert half["cell_curvatures"] == {"r1": "1/2"}
        assert half["vertex_curvatures"] == {"*": "3/2"}
        assert half["total"] == "2"
        whole = check_gauss_bonnet(X, AngleAssignment.uniform(X, "1"))
        assert type(whole.total) is int
        assert whole.to_jsonable()["cell_curvatures"] == {"r1": "2"}

    @pytest.mark.parametrize("value", ["1/2", Fraction(4, 2), 3, True, 1.0, "1/0"])
    def test_a_uniform_table_is_coerced_once_like_any_other(self, value):
        X = make_torus()
        assert outcome(lambda v: AngleAssignment.uniform(X, v).items(), value) == outcome(
            lambda v: AngleAssignment(dict.fromkeys(X.corners, v)).items(), value)

    @staticmethod
    def read_row(cls, read, position, weight):
        """``cls`` over the one row, from a table or from JSON rows."""
        if read == "table":
            return cls({("r1", position): weight})
        return cls.from_jsonable([{"cell": "r1", "position": position, "weight": weight}])

    @pytest.mark.parametrize("cls", [AngleAssignment, ZeroOneAssignment])
    @pytest.mark.parametrize("read", ["table", "json"])
    @pytest.mark.parametrize("position, weight, message", [
        (0, True, "cannot interpret weight True as an exact rational"),
        (0, 0.5, "cannot interpret weight 0.5 as an exact rational"),
        (0, "abc", "cannot interpret weight 'abc' as an exact rational"),
        (0, "1/0", "weight '1/0' has a zero denominator"),
        (True, 1, "cannot interpret corner position True as an integer"),
        (1.0, 1, "cannot interpret corner position 1.0 as an integer"),
    ], ids=["bool-weight", "float-weight", "text-weight", "zero-denominator", "bool-position",
            "float-position"])
    def test_the_constructors_refuse_a_bad_row(self, cls, read, position, weight, message):
        with pytest.raises(ComplexError) as caught:
            self.read_row(cls, read, position, weight)
        assert str(caught.value) == message

    @pytest.mark.parametrize("cls", [AngleAssignment, ZeroOneAssignment])
    @pytest.mark.parametrize("read", ["table", "json"])
    def test_a_text_position_is_read_by_int(self, cls, read):
        message = r"^cannot interpret corner position 'x' as an integer$"
        with pytest.raises(ComplexError, match=message):
            self.read_row(cls, read, "x", 1)

    @pytest.mark.parametrize("read", ["table", "json"])
    @pytest.mark.parametrize("weight, shown", [(2, "2"), ("1/2", "1/2")], ids=["two", "half"])
    def test_the_zero_one_constructor_refuses_another_angle(self, read, weight, shown):
        with pytest.raises(ComplexError) as caught:
            self.read_row(ZeroOneAssignment, read, 0, weight)
        assert str(caught.value) == f"angle at corner ('r1', 0) is {shown}, not 0 or 1"

    def test_a_zero_one_uniform_table_keeps_its_angle_rule(self):
        with pytest.raises(ComplexError, match=r"^angle at corner \('r1', 0\) is 2, not 0 or 1$"):
            ZeroOneAssignment.uniform(make_torus(), 2)

    def test_a_searched_table_has_the_angles_the_constructor_gives(self):
        found = find_zero_one_structure(make_torus())
        coerced = ZeroOneAssignment(dict(found.items()))
        assert [(k, v, type(v)) for k, v in found.items()] == [
            (k, v, type(v)) for k, v in coerced.items()]


class TestGaussBonnet:
    def test_torus_half_weights(self):
        X = make_torus()
        report = check_gauss_bonnet(X, AngleAssignment.uniform(X, Fraction(1, 2)))
        assert report.total == 0

    def test_m2_sphere(self):
        X = make_m2()
        report = check_gauss_bonnet(X, AngleAssignment.uniform(X, 1))
        assert report.total == 4
        assert report.vertex_curvatures["*"] == 0
        assert set(report.cell_curvatures.values()) == {2}

    def test_random_rational_assignments(self):
        rng = random.Random(11)
        for _ in range(60):
            X = random_complex(rng)
            w = random_rationals(rng, X, allow_negative=True)
            report = check_gauss_bonnet(X, w)
            assert report.total == 2 * report.euler

    def test_domain_validation(self):
        X = make_torus()
        bad = AngleAssignment({("r1", 0): 1, ("r1", 1): 1, ("r1", 2): 1,
                               ("r1", 3): 1, ("zz", 0): 1})
        with pytest.raises(Exception):
            check_gauss_bonnet(X, bad)


class TestCornerDomain:
    def test_checks_read_cells_without_a_cell_map(self, monkeypatch):
        trefoil = make_trefoil()
        K, omega01 = lot_complex(trefoil), bi_forest_orientation(trefoil).assignment
        X = make_torus()
        half = AngleAssignment.uniform(X, Fraction(1, 2))
        calls = []
        cell_map = TwoComplex.cell_map

        def counting_cell_map(self):
            calls.append(self)
            return cell_map(self)

        monkeypatch.setattr(TwoComplex, "cell_map", counting_cell_map)
        assert coloring_test(K, omega01).passed
        assert check_dr2_zero_one(K, omega01).ok
        assert weight_test(X, half).passed
        assert check_gauss_bonnet(X, half).total == 0
        assert calls == []

    @staticmethod
    def message(rng, check, table):
        """The message of the error ``check`` raises on ``table`` shuffled."""
        items = list(table.items())
        rng.shuffle(items)
        with pytest.raises((ComplexError, MissingWeight, UnsupportedWeights)) as info:
            check(dict(items))
        return str(info.value)

    def test_the_least_offending_corner_is_named_whatever_the_table_order(self):
        rng = random.Random(21)
        for _ in range(30):
            X = random_one_vertex_complex(rng, min_cells=2)
            keys = sorted(X.corners)
            bad = rng.sample(keys, rng.randint(1, min(3, len(keys))))
            least = min(bad)
            extra = [(cell, position + 100) for cell, position in bad]

            def total(table):
                AngleAssignment(table).validate_total(X)

            def nonnegative(table):
                AngleAssignment(table).validate_nonnegative()

            assert self.message(rng, total, {k: 1 for k in keys if k not in bad}) == (
                f"no angle for corner {least}"
            )
            assert self.message(rng, total, dict.fromkeys(keys + extra, 1)) == (
                f"angle assigned to unknown corner {min(extra)}"
            )
            assert self.message(
                rng, nonnegative, {k: -k[1] - 1 if k in bad else 1 for k in keys}
            ) == f"negative weight {-least[1] - 1} at corner {least}"
            assert self.message(
                rng, ZeroOneAssignment, {k: k[1] + 2 if k in bad else 0 for k in keys}
            ) == f"angle at corner {least} is {least[1] + 2}, not 0 or 1"


class TestMinReducedCycle:
    def test_torus_half(self):
        G = link_graph(make_torus(), "*")
        w = AngleAssignment.uniform(make_torus(), Fraction(1, 2))
        assert min_reduced_cycle(G, w)[0] == 2

    def test_forest_link_is_none(self):
        X = build_complex(
            edges=[("a", "v", "v"), ("b", "v", "v")], cells=[("r1", "a b")]
        )
        G = link_graph(X, "v")
        # two corners joining distinct node pairs: a path, no reduced cycle
        w = AngleAssignment.uniform(X, Fraction(1, 3))
        assert min_reduced_cycle(G, w) is None

    def test_loop_corner_counts_once(self):
        X = build_complex(edges=[("a", "*", "*")], cells=[("r1", "a a-")], vertices=["*"])
        G = link_graph(X, "*")
        w = AngleAssignment({("r1", 0): Fraction(3, 7), ("r1", 1): Fraction(5, 7)})
        assert min_reduced_cycle(G, w)[0] == Fraction(3, 7)

    def test_parallel_corners_make_a_two_cycle(self):
        X = build_complex(edges=[("a", "*", "*")], cells=[("r1", "a a")], vertices=["*"])
        G = link_graph(X, "*")
        w = AngleAssignment({("r1", 0): Fraction(1, 4), ("r1", 1): Fraction(1, 3)})
        assert min_reduced_cycle(G, w)[0] == Fraction(7, 12)

    def test_negative_weight_rejected(self):
        G = link_graph(make_torus(), "*")
        w = AngleAssignment.uniform(make_torus(), Fraction(-1, 2))
        with pytest.raises(UnsupportedWeights):
            min_reduced_cycle(G, w)

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(23)
        for _ in range(30):
            G = random_link(rng, max_corners=10)
            table = {
                c.key: Fraction(rng.randint(1, 24), rng.randint(1, 12))
                for c in G.corners
            }
            w = AngleAssignment(table)
            found = min_reduced_cycle(G, w)
            assert (None if found is None else found[0]) == oracle_min_reduced_cycle_weight(G, w)

    def test_witness_is_a_closed_reduced_walk(self):
        rng = random.Random(29)
        for _ in range(20):
            G = random_link(rng, max_corners=10)
            w = AngleAssignment({c.key: 1 for c in G.corners})
            found = min_reduced_cycle(G, w)
            if found is None:
                continue
            weight, steps = found
            assert weight == len(steps)
            assert is_reduced_walk(steps, G, cyclic=True)


class TestMinReducedPath:
    def test_matches_simple_path_enumeration(self):
        rng = random.Random(31)
        zeros = parallel = checked = 0
        for _ in range(40):
            G = random_link(rng, max_corners=10)
            w = AngleAssignment({
                c.key: Fraction(rng.choice((0, rng.randint(0, 24))), rng.randint(1, 12))
                for c in G.corners
            })
            zeros += any(w.weight(c) == 0 for c in G.corners)
            ends = [frozenset(c.nodes) for c in G.corners]
            parallel += len(set(ends)) < len(ends)
            for source in G.nodes:
                for target in G.nodes:
                    found = min_reduced_path(G, w, source, target)
                    expected = oracle_min_reduced_path(G, w, source, target)
                    if found is None:
                        assert expected is None
                        continue
                    weight, nodes, steps = found
                    assert weight == expected
                    assert nodes[0] == source and nodes[-1] == target
                    assert [s.start for s in steps] == nodes[:-1]
                    assert [s.end for s in steps] == nodes[1:]
                    assert is_reduced_walk(steps, G)
                    assert sum((w.weight(s.corner) for s in steps), Fraction(0)) == weight
                    checked += 1
        assert zeros > 10 and parallel > 10 and checked > 500

    def test_one_message_for_a_negative_weight(self):
        X = make_torus()
        G = link_graph(X, "*")
        w = AngleAssignment({**dict.fromkeys(X.corners, 1), ("r1", 2): -1})
        for search in (lambda: min_reduced_cycle(G, w),
                       lambda: min_reduced_path(G, w, G.nodes[0], G.nodes[1])):
            with pytest.raises(UnsupportedWeights) as info:
                search()
            assert str(info.value) == "negative weight at corner ('r1', 2)"


class TestWeightTest:
    def test_torus_half_passes(self):
        X = make_torus()
        assert weight_test(X, AngleAssignment.uniform(X, Fraction(1, 2))).passed

    def test_torus_quarter_fails_with_cycle_witness(self):
        X = make_torus()
        verdict = weight_test(X, AngleAssignment.uniform(X, Fraction(1, 4)))
        assert not verdict.passed
        assert verdict.witness["kind"] == "cycle"
        assert verdict.witness["weight"] == "1"
        assert len(verdict.witness["corners"]) == 4

    def test_trefoil_zero_one_passes(self):
        K = lot_complex(make_trefoil())
        assert weight_test(K, trefoil_zero_one()).passed

    def test_positive_cell_curvature_fails(self):
        X = make_torus()
        verdict = weight_test(X, AngleAssignment.uniform(X, 1))
        assert not verdict.passed
        assert verdict.witness["kind"] == "cell"

    def test_loop_convention_recorded(self):
        X = make_torus()
        verdict = weight_test(X, AngleAssignment.uniform(X, Fraction(1, 2)))
        assert "loop_convention" in verdict.notes


class TestColoringTest:
    def test_trefoil_bi_forest_structure_passes(self):
        K = lot_complex(make_trefoil())
        assert coloring_test(K, trefoil_zero_one()).passed

    def test_all_zero_on_torus_fails_forest_condition(self):
        X = make_torus()
        verdict = coloring_test(X, ZeroOneAssignment.uniform(X, 0))
        assert not verdict.passed
        assert verdict.witness["condition"] == 2
        assert len(verdict.witness["cycle_corners"]) == 4

    def test_all_one_on_torus_fails_curvature(self):
        X = make_torus()
        verdict = coloring_test(X, ZeroOneAssignment.uniform(X, 1))
        assert not verdict.passed
        assert verdict.witness["condition"] == 1

    def test_component_condition(self):
        # a visible condition-3 violation: a 1-corner inside a 0-connected part
        X = build_complex(
            edges=[("a", "*", "*"), ("b", "*", "*")],
            cells=[("r1", "a b a- b-")],
            vertices=["*"],
        )
        w = ZeroOneAssignment(
            {("r1", 0): 0, ("r1", 1): 0, ("r1", 2): 1, ("r1", 3): 0}
        )
        verdict = coloring_test(X, w)
        assert not verdict.passed
        assert verdict.witness["condition"] == 3

    def test_coloring_implies_weight_test(self):
        rng = random.Random(31)
        hits = 0
        for _ in range(300):
            X = random_complex(rng, max_edges=3, max_cells=3, max_len=4)
            if not X.cells:
                continue
            w = random_zero_one(rng, X)
            if coloring_test(X, w).passed:
                hits += 1
                assert weight_test(X, w).passed
        assert hits > 5  # the implication was actually exercised


class TestColoringOracle:
    """The zero/one kernel on the link numbering against the same test read
    over link nodes, one ``weight`` per corner (``oracle_coloring_forests``):
    the verdict, and on a pass the component numbering, whose classes in
    number order must be the partition of the oracle's ``UnionFind``."""

    @staticmethod
    def agree(X, omega01, seen):
        """Check the verdict, the numbering and, on one vertex, the ZERO_ONE
        outcome against the oracle, and count what they were in ``seen``."""
        verdict, forests = coloring_forests(X, omega01)
        verdict = verdict.to_jsonable()
        expected, oracle_forests = oracle_coloring_forests(X, omega01)
        assert verdict == expected
        assert (forests is None) == (oracle_forests is None)
        for v, component in (forests or {}).items():
            assert numbered_classes(X.links[v].nodes, component) == uf_classes(oracle_forests[v])
        seen["pass" if verdict["pass"] else verdict["witness"]["condition"]] += 1
        if X.is_single_vertex:
            outcome = check_dr2_zero_one(X, omega01).to_jsonable()
            assert outcome == oracle_dr2_zero_one(X, omega01)
            seen["components"] += outcome.get("witness", {}).get("reason") == "components"
            seen["certificate"] += outcome["ok"]

    @staticmethod
    def counts():
        return dict.fromkeys(["pass", 1, 2, 3, "components", "certificate"], 0)

    def test_random_complexes(self):
        """Random angles, and random angles of at most ``len(word) - 2`` ones
        a cell, which pass the curvature condition more often."""
        rng = random.Random(2323)
        seen = {"multi_vertex": 0, "loop_corner": 0, **self.counts()}
        for _ in range(1000):
            X = random_complex(rng, max_edges=3, max_cells=4, max_len=5)
            if not X.cells:
                continue
            budgeted = {(cell.id, i): 0 for cell in X.cells for i in range(len(cell.word))}
            for cell in X.cells:
                ones = rng.randint(0, max(len(cell.word) - 2, 0))
                budgeted.update(dict.fromkeys(
                    [(cell.id, i) for i in rng.sample(range(len(cell.word)), ones)], 1))
            for omega01 in (random_zero_one(rng, X), ZeroOneAssignment(budgeted)):
                self.agree(X, omega01, seen)
            seen["multi_vertex"] += not X.is_single_vertex
            seen["loop_corner"] += any(c.nodes[0] == c.nodes[1]
                                       for G in X.links.values() for c in G.corners)
        assert min(seen.values()) >= 10, seen

    def test_lot_complexes_with_bi_forest_angles(self):
        """The bi-forest's own angles, and the same with one angle flipped or
        with two angles 1 set to 0, on links of 12 to 28 nodes."""
        rng = random.Random(2324)
        seen = self.counts()
        for _ in range(60):
            lot = random_reduced_injective_lot(rng, rng.randint(6, 14))
            structure = bi_forest_orientation(lot)
            if structure is None:
                continue
            table = dict(structure.assignment.items())
            ones = sorted(k for k, angle in table.items() if angle == 1)
            flipped = rng.choice(sorted(table))
            tables = [table, {**table, flipped: 1 - table[flipped]},
                      {**table, **dict.fromkeys(rng.sample(ones, 2), 0)}]
            for angles in tables:
                self.agree(lot.complex, ZeroOneAssignment(angles), seen)
        del seen["components"]  # the random complexes reach it
        assert min(seen.values()) >= 5, seen


class TestLk0Components:
    @staticmethod
    def components(X, v, omega01):
        G = X.links[v]
        component, _ = curvature._zero_forest(G, omega01.angles(G.keys))
        return numbered_classes(G.nodes, component)

    def test_trefoil_split(self):
        K = lot_complex(make_trefoil())
        comps = self.components(K, BASE_VERTEX, trefoil_zero_one())
        rendered = sorted(tuple(str(n) for n in comp) for comp in comps)
        assert rendered == [("a+", "b+", "c+"), ("a-", "b-", "c-")]

    def test_all_ones_isolates_every_node(self):
        X = make_torus()
        comps = self.components(X, "*", ZeroOneAssignment.uniform(X, 1))
        assert all(len(comp) == 1 for comp in comps)
        assert len(comps) == 4

    def test_all_zeros_single_component(self):
        X = make_torus()
        comps = self.components(X, "*", ZeroOneAssignment.uniform(X, 0))
        assert len(comps) == 1
        assert len(comps[0]) == 4


class TestGirth:
    @staticmethod
    def girth(X):
        found = min_reduced_cycle(link_graph(X, "*"), AngleAssignment.uniform(X, 1))
        return None if found is None else found[0]

    def test_torus_girth_four(self):
        assert self.girth(make_torus()) == 4

    def test_loop_girth_one(self):
        X = build_complex(edges=[("a", "*", "*")], cells=[("r1", "a a-")], vertices=["*"])
        assert self.girth(X) == 1


class TestZeroOneSearch:
    def test_finds_structure_for_torus(self):
        X = make_torus()
        found = find_zero_one_structure(X)
        assert found is not None
        assert coloring_test(X, found).passed

    def test_cap_refusal(self, monkeypatch):
        monkeypatch.setenv("DRTOOL_SEARCH_CAP", "2")
        X = make_torus()
        with pytest.raises(CapExceeded, match="zero/one search cap 2"):
            find_zero_one_structure(X)

    def test_none_when_impossible(self):
        # single monogon: its cell curvature is w - (1-2) = w + 1 > 0 always
        X = build_complex(edges=[("a", "*", "*")], cells=[("r1", "a")], vertices=["*"])
        assert find_zero_one_structure(X) is None

    def test_matches_brute_force_oracle(self):
        # surface-like words, where structures are found, and a pentagon whose
        # structure needs every angle 1 its budget allows; then random one- and
        # multi-vertex complexes of at most 10 corners, Nones included
        words = ["a b a- b-", "a a b b", "a b a b-", "a b c a- b- c-", "a b a- c b- c-",
                 "a a b b c c", "a b c a b c", "a b a- b- c d c- d-",
                 "a b c d a- b- c- d-", "a b c d a b c d", "a a b- a- b-"]
        complexes = []
        for word in words:
            gens = sorted(set(word.replace("-", "").split()))
            complexes.append(build_complex(
                edges=[(g, "*", "*") for g in gens], cells=[("r1", word)], vertices=["*"]
            ))
        rng = random.Random(1)
        while len(complexes) < len(words) + 100:
            if len(complexes) % 3:
                X = random_one_vertex_complex(rng, max_edges=3, max_cells=3, max_len=5,
                                              min_cells=1)
            else:
                X = random_multi_vertex_complex(rng, n_vertices=rng.randint(2, 3),
                                                max_cells=3, max_len=6)
            if sum(len(c.word) for c in X.cells) <= 10:
                complexes.append(X)
        found = 0
        for X in complexes:
            expected = oracle_zero_one_structure(X)
            got = find_zero_one_structure(X)
            assert (None if got is None else got.items()) == (
                None if expected is None else expected.items()
            )
            found += got is not None
        assert found >= 30

    # The scan above stops at 10 corners.  The reference backtracker takes
    # under 0.35 s a surface word up to 18 corners (3.4 s at 20) and under
    # 0.01 s a random complex up to 20.
    @settings(max_examples=80)
    @given(st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_reference_backtracker_past_the_scan(self, surface_word, seed):
        rng = random.Random(seed)
        while True:
            if surface_word:
                X = random_surface_word_complex(rng, rng.randint(6, 9))
            else:
                X = random_complex(rng, max_edges=4, max_cells=5, max_len=7, min_cells=1)
            if 11 <= len(X.corners) <= 20:
                break
        expected = reference_zero_one_structure(X)
        got = find_zero_one_structure(X)
        assert (None if got is None else got.items()) == (
            None if expected is None else expected.items()
        )

    def test_budgets_are_restored_when_the_engine_closes_a_generator(self, monkeypatch):
        # the engine leaves every level's generator open when it succeeds and
        # closes each; a generator closed while it holds an angle 1 gives the
        # cell's budget back
        engine = curvature.first_acyclic_choices
        seen = {}

        def watched(levels, options, accept):
            room = inspect.getclosurevars(options).nonlocals["room"]
            seen["before"] = dict(room)
            found = engine(levels, options, accept)
            seen["after"] = dict(room)
            seen["ones"] = found.count(1)
            return found

        monkeypatch.setattr(curvature, "first_acyclic_choices", watched)
        assert find_zero_one_structure(make_torus()) is not None
        assert seen["ones"] > 0
        assert seen["after"] == seen["before"]

    def test_one_union_find_per_vertex_link(self, monkeypatch):
        built = []

        class CountingUnionFind(UnionFind):
            def __init__(self, items=()):
                super().__init__(items)
                built.append(self)

        monkeypatch.setattr(curvature, "UnionFind", CountingUnionFind)
        two_vertices = build_complex(
            edges=[("a", "u", "u"), ("b", "v", "u"), ("c", "u", "v"), ("d", "v", "v")],
            cells=[("r1", "d- d- c- a a c")],
            vertices=["u", "v"],
        )
        for X in (make_torus(), two_vertices):
            built.clear()
            assert find_zero_one_structure(X) is not None
            assert len(built) == len(X.vertices)
