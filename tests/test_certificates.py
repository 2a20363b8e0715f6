import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drtool import (
    AngleAssignment,
    Dr2Certificate,
    ZeroOneAssignment,
    build_complex,
    certificates,
    check_c4t4,
    check_dr2_c4t4,
    check_dr2_weighted,
    check_dr2_zero_one,
    compute_pieces,
    verify_dr2_certificate,
    weight_test,
)
from drtool.errors import (
    InvariantViolation,
    MultiVertexError,
    NonReducedRelator,
    UnsupportedWeights,
)
from drtool.lots import bi_forest_orientation, lot_complex

from conftest import make_m2, make_torus, make_trefoil
from genutil import inverse_letter_texts, oracle_cyclic_pairs, oracle_min_pieces


def torus_good_zero_one():
    # angle 1 on the corners {a+,b-} and {a-,b+}, angle 0 on the others
    return ZeroOneAssignment({("r1", 0): 1, ("r1", 1): 0, ("r1", 2): 1, ("r1", 3): 0})


class TestWeightedCriterion:
    def test_torus_fails_with_the_short_path(self):
        X = make_torus()
        out = check_dr2_weighted(X, AngleAssignment.uniform(X, Fraction(1, 2)))
        assert not out.ok
        assert out.witness["reason"] == "path"
        assert out.witness["edge"] == "a"
        assert out.witness["min_weight"] == "1"
        assert out.witness["path_nodes"] == ["a+", "b-", "a-"]

    def test_disconnected_ends_certify_vacuously(self):
        # two monogon-pair cells over separate edges: each link component
        # contains only one end of each edge... build: cells a a- style?
        X = build_complex(
            edges=[("a", "*", "*"), ("b", "*", "*")],
            cells=[("r1", "a b a- b-"), ("r2", "b a b- a-")],
            vertices=["*"],
        )
        w = AngleAssignment.uniform(X, Fraction(1, 2))
        out = check_dr2_weighted(X, w)
        # not asserting success here, just exercising the path table shape
        if out.ok:
            assert all(row["connected"] for row in out.certificate.hypotheses["edge_paths"])

    def test_forest_link_vacuous_certificate(self):
        # the cell "a b" gives a two-component forest link separating a+ from
        # a- and b+ from b-; with zero weights the weight test passes and the
        # path condition holds vacuously
        X = build_complex(
            edges=[("a", "*", "*"), ("b", "*", "*")], cells=[("r1", "a b")],
            vertices=["*"],
        )
        out = check_dr2_weighted(X, AngleAssignment.uniform(X, 0))
        assert out.ok
        rows = out.certificate.hypotheses["edge_paths"]
        assert {row["edge"]: row["connected"] for row in rows} == {"a": False, "b": False}
        assert out.certificate.conclusion == {"dr2": True, "locally_indicable": False}

    def test_trefoil_biforest_weights_fail_the_path_condition(self):
        # The zero/one structure from the bi-forest passes the component
        # criterion, but viewed as weights the two angle-0 forests provide a
        # connecting path of weight 1 from a+ to a-, below the bound 2.
        lot = make_trefoil()
        K = lot_complex(lot)
        w01 = bi_forest_orientation(lot).assignment
        out = check_dr2_weighted(K, AngleAssignment(dict(w01.items())))
        assert not out.ok
        assert out.witness["reason"] == "path"
        assert out.witness["min_weight"] == "1"

    def test_multi_vertex_rejected(self):
        X = build_complex(edges=[("a", "v", "w")], cells=[])
        with pytest.raises(MultiVertexError):
            check_dr2_weighted(X, AngleAssignment({}))

    @pytest.mark.parametrize("X, make_rows", [
        (make_torus(), lambda X: AngleAssignment.uniform(X, 1).to_jsonable()),
        (make_torus(), lambda X: torus_good_zero_one().to_jsonable()),
        (lot_complex(make_trefoil()),
         lambda X: bi_forest_orientation(make_trefoil()).assignment.to_jsonable()),
    ], ids=["torus-ones", "torus-zero-one", "trefoil-bi-forest"])
    def test_a_json_integer_weight_acts_as_its_string_twin(self, X, make_rows):
        rows = make_rows(X)
        twin = [{**row, "weight": int(row["weight"])} for row in rows]
        assert all(isinstance(row["weight"], str) for row in rows)
        by_string = AngleAssignment.from_jsonable(rows)
        by_int = AngleAssignment.from_jsonable(twin)
        assert weight_test(X, by_int).to_jsonable() == weight_test(X, by_string).to_jsonable()
        assert (check_dr2_weighted(X, by_int).to_jsonable()
                == check_dr2_weighted(X, by_string).to_jsonable())

    def test_negative_weights_rejected(self):
        X = make_torus()
        with pytest.raises(UnsupportedWeights):
            check_dr2_weighted(X, AngleAssignment.uniform(X, -1))

    def test_certificate_round_trip(self):
        X = build_complex(
            edges=[("a", "*", "*"), ("b", "*", "*")], cells=[("r1", "a b")],
            vertices=["*"],
        )
        out = check_dr2_weighted(X, AngleAssignment.uniform(X, 0))
        data = out.certificate.to_jsonable()
        cert = Dr2Certificate.from_jsonable(data)
        ok, problems = verify_dr2_certificate(cert)
        assert ok, problems


class TestZeroOneCriterion:
    def test_trefoil_certificate(self):
        lot = make_trefoil()
        K = lot_complex(lot)
        out = check_dr2_zero_one(K, bi_forest_orientation(lot).assignment)
        assert out.ok
        assert out.certificate.conclusion == {"dr2": True, "locally_indicable": True}
        comps = out.certificate.hypotheses["components"]
        assert sorted(map(tuple, comps)) == [
            ("a+", "b+", "c+"), ("a-", "b-", "c-")
        ]

    def test_torus_zero_one_certificate(self):
        X = make_torus()
        out = check_dr2_zero_one(X, torus_good_zero_one())
        assert out.ok

    def test_torus_all_zero_forwards_coloring_failure(self):
        X = make_torus()
        out = check_dr2_zero_one(X, ZeroOneAssignment.uniform(X, 0))
        assert not out.ok
        assert out.witness["reason"] == "coloring_test"

    def test_component_failure_witness(self):
        # coloring passes but one edge has both ends in one component:
        # the square a b a- b- with angles chosen to join a+ and a- via b+...
        X = build_complex(
            edges=[("a", "*", "*"), ("b", "*", "*")],
            cells=[("r1", "a b a- b-"), ("r2", "a b a- b-")],
            vertices=["*"],
        )
        w01 = ZeroOneAssignment(
            {("r1", 0): 0, ("r1", 1): 1, ("r1", 2): 0, ("r1", 3): 1,
             ("r2", 0): 1, ("r2", 1): 0, ("r2", 2): 1, ("r2", 3): 0}
        )
        out = check_dr2_zero_one(X, w01)
        if not out.ok:
            assert out.witness["reason"] in ("coloring_test", "components")

    def test_brute_force_over_torus_structures(self):
        # over all 16 zero/one structures on the torus square, a structure
        # certifies exactly when the coloring test and component test hold
        X = make_torus()
        winners = []
        for bits in range(16):
            table = {("r1", i): bits >> i & 1 for i in range(4)}
            out = check_dr2_zero_one(X, ZeroOneAssignment(table))
            if out.ok:
                winners.append(bits)
        # angle 1 exactly on the two corners or the other two: 0b0101=5, 0b1010=10
        assert winners == [5, 10]

    def test_round_trip(self):
        X = make_torus()
        out = check_dr2_zero_one(X, torus_good_zero_one())
        cert = Dr2Certificate.from_jsonable(out.certificate.to_jsonable())
        ok, problems = verify_dr2_certificate(cert)
        assert ok, problems


class TestPieces:
    def test_torus_pieces_are_single_letters(self):
        X = make_torus()
        dec = compute_pieces(X)
        assert dec.min_counts == {"r1": 4}
        assert [len(part) for part in dec.witnesses["r1"]] == [1, 1, 1, 1]

    def test_trefoil_presentation_pieces(self):
        K = lot_complex(make_trefoil())
        dec = compute_pieces(K)
        assert dec.min_counts == {"e1": 3, "e2": 3}
        witness = [" ".join(str(l) for l in part) for part in dec.witnesses["e1"]]
        assert witness == ["a c", "b-", "c-"]

    def test_proper_power_self_overlap(self):
        X = build_complex(edges=[("a", "*", "*")], cells=[("r1", "a a a a")], vertices=["*"])
        dec = compute_pieces(X)
        assert dec.min_counts["r1"] <= 2
        assert dec.periods == {"r1": 1}

    def test_non_reduced_relator_rejected(self):
        X = build_complex(edges=[("a", "*", "*")], cells=[("r1", "a a a-")], vertices=["*"])
        with pytest.raises(NonReducedRelator):
            compute_pieces(X)

    def test_no_decomposition_when_letters_unique(self):
        X = build_complex(
            edges=[("a", "*", "*"), ("b", "*", "*")], cells=[("r1", "a b")],
            vertices=["*"],
        )
        dec = compute_pieces(X)
        assert dec.min_counts == {"r1": None}

    def test_dp_matches_decomposition_enumeration(self):
        rng = random.Random(37)
        checked = 0
        for _ in range(40):
            names = ["a", "b", "c"][: rng.randint(2, 3)]
            cells = []
            for k in range(rng.randint(1, 3)):
                while True:
                    from drtool.complexes import Letter

                    word = tuple(
                        Letter(rng.choice(names), rng.choice((1, -1)))
                        for _ in range(rng.randint(2, 8))
                    )
                    L = len(word)
                    if all(word[(i + 1) % L] != word[i].inverse() for i in range(L)):
                        break
                cells.append((f"r{k + 1}", word))
            X = build_complex(
                edges=[(g, "*", "*") for g in names], cells=cells, vertices=["*"]
            )
            dec = compute_pieces(X)
            for cell in X.cells:
                assert dec.min_counts[cell.id] == oracle_min_pieces(X, cell.id)
                checked += 1
        assert checked >= 40


@st.composite
def relator_lists(draw):
    """One to three words of length 1-8 over 2 or 3 letters and their
    inverses, as lists of letter texts; about half of them periodic."""
    letters = ["a", "a-", "b", "b-", "c", "c-"][:2 * draw(st.sampled_from((2, 3)))]

    def word():
        if draw(st.booleans()):
            base = draw(st.lists(st.sampled_from(letters), min_size=1, max_size=4))
            return base * draw(st.integers(2, 8 // len(base)))
        return draw(st.lists(st.sampled_from(letters), min_size=1, max_size=8))

    return [word() for _ in range(draw(st.integers(1, 3)))]


def neighbour_witness(cell, word):
    """check_dr2_c4t4's witness for the first inverse pair of the cell's word
    or, when it has none, for its first repeated letter; None without either."""
    for reason, related in (("non_reduced_relator", inverse_letter_texts),
                            ("edge_repeat", operator.eq)):
        pairs = oracle_cyclic_pairs(word, related)
        if pairs:
            i, j = pairs[0]
            edge = {"edge": word[i].rstrip("-")} if reason == "edge_repeat" else {}
            return {"reason": reason, "cell": cell, **edge, "positions": [i + 1, j + 1]}
    return None


class TestNeighbourPairs:
    @settings(max_examples=300)
    @given(relator_lists())
    @example([["a", "a-"]])
    def test_flags_and_reduced_relator_witnesses_match_the_oracle(self, words):
        cells = [(f"r{k}", word) for k, word in enumerate(words, 1)]

        def one_vertex(cells):
            return build_complex(edges=[(e, "*", "*") for e in "abc"], cells=cells,
                                 vertices=["*"])

        X = one_vertex(cells)
        inverse = [(cell, oracle_cyclic_pairs(word, inverse_letter_texts))
                   for cell, word in cells]
        assert X.flags == tuple(
            f"non-reduced boundary word at cell {cell} position ({i + 1},{j + 1})"
            for cell, pairs in inverse for i, j in pairs)

        first = next(((cell, pairs[0]) for cell, pairs in inverse if pairs), None)
        if first is None:
            compute_pieces(X)
        else:
            cell, (i, j) = first
            with pytest.raises(NonReducedRelator) as caught:
                compute_pieces(X)
            assert str(caught.value) == f"cell {cell} has an inverse pair at positions ({i + 1},{j + 1})"

        # cell by cell, and the whole complex's witness is its first cell's
        witnesses = [neighbour_witness(cell, word) for cell, word in cells]
        for (cell, word), witness in zip(cells, witnesses):
            outcome = check_dr2_c4t4(one_vertex([(cell, word)]))
            if witness is not None:
                assert outcome.witness == witness
            else:
                assert outcome.ok or outcome.witness["reason"] == "c4t4"
        first = next((w for w in witnesses if w is not None), None)
        outcome = check_dr2_c4t4(X)
        if first is not None:
            assert outcome.witness == first
        else:
            assert outcome.ok or outcome.witness["reason"] == "c4t4"


class TestC4T4:
    def test_torus_passes(self):
        verdict = check_c4t4(make_torus())
        assert verdict.passed
        assert verdict.notes["girth"] == 4

    def test_trefoil_fails_c4(self):
        verdict = check_c4t4(lot_complex(make_trefoil()))
        assert not verdict.passed
        assert verdict.witness["condition"] == "C4"
        assert verdict.witness["cell"] == "e1"
        assert verdict.witness["count"] == 3

    def test_loop_corner_fails_t4(self):
        X = build_complex(
            edges=[("a", "*", "*"), ("b", "*", "*")],
            # a b a b: corners (a+,b-),(b+,a-),(a+,b-),(b+,a-): parallel pairs
            cells=[("r1", "a b a b")],
            vertices=["*"],
        )
        verdict = check_c4t4(X)
        assert not verdict.passed
        if verdict.witness["condition"] == "T4":
            assert verdict.witness["girth"] < 4

    def test_genus2_passes(self):
        X = build_complex(
            edges=[(g, "*", "*") for g in "abcd"],
            cells=[("r1", "a b a- b- c d c- d-")],
            vertices=["*"],
        )
        verdict = check_c4t4(X)
        assert verdict.passed
        assert verdict.notes["girth"] == 8

    def test_t4_matches_short_cycle_enumeration(self):
        import genutil
        from drtool import AngleAssignment
        from drtool.curvature import min_reduced_cycle

        rng = random.Random(41)
        for _ in range(25):
            G = genutil.random_link(rng, max_corners=8)
            short = genutil.oracle_reduced_cycles_up_to(G, 3)
            found = min_reduced_cycle(G, AngleAssignment({c.key: 1 for c in G.corners}))
            girth = None if found is None else found[0]
            if short:
                assert girth is not None and girth <= 3
            else:
                assert girth is None or girth >= 4


class TestC4T4Certificate:
    def test_torus_certificate(self):
        out = check_dr2_c4t4(make_torus())
        assert out.ok
        cert = out.certificate
        assert cert.conclusion == {"dr2": True, "locally_indicable": True}
        assert cert.hypotheses["piece_counts"] == {"r1": 4}
        assert cert.hypotheses["girth"] == 4
        ok, problems = verify_dr2_certificate(
            Dr2Certificate.from_jsonable(cert.to_jsonable())
        )
        assert ok, problems

    def test_pieces_are_computed_once_per_check(self, monkeypatch):
        import drtool.certificates

        calls = []
        compute_pieces = drtool.certificates.compute_pieces
        monkeypatch.setattr(drtool.certificates, "compute_pieces",
                            lambda X: calls.append(X) or compute_pieces(X))
        for X, ok in ((make_torus(), True), (lot_complex(make_trefoil()), False)):
            calls.clear()
            assert check_dr2_c4t4(X).ok is ok
            assert calls == [X]

    def test_edge_repeat_witness(self):
        X = build_complex(
            edges=[("a", "*", "*"), ("b", "*", "*")],
            cells=[("r1", "a a b a- b-")],
            vertices=["*"],
        )
        out = check_dr2_c4t4(X)
        assert not out.ok
        assert out.witness["reason"] == "edge_repeat"
        assert out.witness["positions"] == [1, 2]

    def test_trefoil_fails(self):
        out = check_dr2_c4t4(lot_complex(make_trefoil()))
        assert not out.ok
        assert out.witness["reason"] == "c4t4"

    def test_non_reduced_is_a_witness_not_an_error(self):
        X = build_complex(edges=[("a", "*", "*")], cells=[("r1", "a a a-")], vertices=["*"])
        out = check_dr2_c4t4(X)
        assert not out.ok
        assert out.witness["reason"] == "non_reduced_relator"

    def test_multi_vertex_is_a_witness(self):
        X = build_complex(edges=[("a", "v", "w")], cells=[])
        out = check_dr2_c4t4(X)
        assert not out.ok
        assert out.witness["reason"] == "multi_vertex"


class TestVerification:
    @pytest.mark.parametrize("make_certificate, edit, problem", [
        (lambda: check_dr2_zero_one(make_torus(), torus_good_zero_one()),
         lambda data: data["hypotheses"]["edge_components"][0].update(plus_component=0),
         "edge components: recorded value disagrees with recomputation"),
        (lambda: check_dr2_c4t4(make_torus()),
         lambda data: data["hypotheses"]["decompositions"].update(r1=["a b", "a- b-"]),
         "decompositions: recorded value disagrees with recomputation"),
        (lambda: check_dr2_c4t4(make_torus()), lambda data: data.update(method="X"),
         "unknown certificate method 'X'"),
        (lambda: check_dr2_zero_one(make_torus(), torus_good_zero_one()),
         lambda data: [row.update(weight="0") for row in data["hypotheses"]["angles"]],
         "ZERO_ONE hypotheses do not re-check: {'reason': 'coloring_test', 'witness': "
         "{'condition': 2, 'vertex': '*', 'cycle_nodes': ['b-', 'a+', 'b+', 'a-'], "
         "'cycle_corners': [['r1', 0], ['r1', 1], ['r1', 2], ['r1', 3]]}}"),
    ], ids=["zero-one-edge-components", "c4t4-decompositions", "unknown-method",
            "zero-one-angles-fail-coloring"])
    def test_every_hypothesis_is_rebuilt(self, make_certificate, edit, problem):
        data = make_certificate().certificate.to_jsonable()
        edit(data)
        assert verify_dr2_certificate(Dr2Certificate.from_jsonable(data)) == (False, [problem])

    def test_an_invariant_violation_is_not_a_problem(self, monkeypatch):
        cert = check_dr2_c4t4(make_torus()).certificate

        def boom(X, method, hypotheses):
            raise InvariantViolation("synthetic")

        monkeypatch.setattr(certificates, "rerun_dr2", boom)
        with pytest.raises(InvariantViolation, match="synthetic"):
            verify_dr2_certificate(cert)

    def test_tampered_certificate_detected(self):
        X = make_torus()
        out = check_dr2_c4t4(X)
        data = out.certificate.to_jsonable()
        data["hypotheses"]["piece_counts"]["r1"] = 5
        ok, problems = verify_dr2_certificate(Dr2Certificate.from_jsonable(data))
        assert not ok
        assert any("piece counts" in p for p in problems)

    def test_weighted_cannot_claim_local_indicability(self):
        X = build_complex(
            edges=[("a", "*", "*"), ("b", "*", "*")], cells=[("r1", "a b")],
            vertices=["*"],
        )
        out = check_dr2_weighted(X, AngleAssignment.uniform(X, 0))
        data = out.certificate.to_jsonable()
        data["conclusion"]["locally_indicable"] = True
        ok, problems = verify_dr2_certificate(Dr2Certificate.from_jsonable(data))
        assert not ok
