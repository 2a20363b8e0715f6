import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drtool.diagrams
from bench.generate import generator_names, presentation_text, random_word, surface_like_word
from drtool import (
    AngleAssignment,
    DiagramMap,
    SphereComplex,
    build_complex,
    check_diagram,
    diagram_gauss_bonnet,
    drk_witness_check,
    enumerate_diagrams,
    euler_characteristic,
    search_reduced_diagram,
    sphere_to_complex,
    validate_sphere,
)
from drtool.complexes import Cell, Letter
from drtool.diagrams import (
    _join_paths,
    _side_position,
    diagram_map_from_jsonable,
    sphere_from_jsonable,
)
from drtool.errors import CapExceeded, IllFormedMap, InvalidSearchCap
from drtool.lots import lot_complex
from drtool.parsing import parse_presentation
from drtool.reports import canonical_json, diagram_search_section
from drtool.unionfind import UnionFind

from conftest import (
    CORPUS,
    DIAGRAM_FIXTURES,
    fixture_text,
    load_diagram,
    make_m2,
    make_torus,
    make_trefoil,
)
from genutil import (
    is_reduced_walk,
    oracle_balanced_multisets,
    oracle_cyclic_pairs,
    oracle_glue_faces,
    oracle_side_gluings,
    oracle_sphere_gluings,
    random_one_vertex_complex,
)


def two_monogon_sphere():
    return SphereComplex((Cell("f0", (Letter("s0", 1),)), Cell("f1", (Letter("s0", -1),))))


class TestValidateSphere:
    def test_two_monogons_pass(self):
        verdict = validate_sphere(two_monogon_sphere())
        assert verdict.passed
        assert verdict.notes == {"V": 1, "E": 1, "F": 2}

    def test_single_torus_square_fails_euler(self):
        S = SphereComplex(
            (Cell("f0", (Letter("x", 1), Letter("y", 1), Letter("x", -1), Letter("y", -1))),)
        )
        verdict = validate_sphere(S)
        assert not verdict.passed
        assert verdict.witness["reason"] == "euler"
        assert verdict.witness["chi"] == 0

    def test_same_sign_pairing_rejected(self):
        S = SphereComplex(
            (Cell("f0", (Letter("x", 1),)), Cell("f1", (Letter("x", 1),)))
        )
        verdict = validate_sphere(S)
        assert not verdict.passed
        assert verdict.witness["reason"] == "pairing"

    def test_disconnected_rejected(self):
        S = SphereComplex(
            (
                Cell("f0", (Letter("x", 1), Letter("x", -1))),
                Cell("f1", (Letter("y", 1), Letter("y", -1))),
            )
        )
        verdict = validate_sphere(S)
        assert not verdict.passed
        assert verdict.witness["reason"] == "disconnected"

    def test_sphere_complex_has_euler_two(self):
        for name in DIAGRAM_FIXTURES:
            S, _, _ = load_diagram(name)
            assert euler_characteristic(sphere_to_complex(S)) == 2


class TestCheckDiagram:
    def test_m2_distinct_cells_reduced(self):
        S, dmap, X = load_diagram("m2_reduced.json")
        report = check_diagram(S, dmap, X)
        assert report.reduced
        assert report.folding == ()

    def test_m2_same_cell_folds(self):
        S, dmap, X = load_diagram("m2_folded.json")
        report = check_diagram(S, dmap, X)
        assert not report.reduced
        assert report.folding == (("s0", "a"),)

    def test_torus_pillow_folds_everywhere(self):
        S, dmap, X = load_diagram("torus_pillow.json")
        report = check_diagram(S, dmap, X)
        assert not report.reduced
        assert len(report.folding) == 4

    def test_rotated_alignment_accepted(self):
        S, dmap, X = load_diagram("torus_pillow_rot.json")
        report = check_diagram(S, dmap, X)
        assert len(report.folding) == 4

    def test_word_mismatch_rejected(self):
        S, dmap, X = load_diagram("m2_reduced.json")
        bad = DiagramMap(dict(dmap.labels), {"f0": ("r1", 0, 1), "f1": ("r2", 0, 1)})
        with pytest.raises(IllFormedMap, match="mismatch"):
            check_diagram(S, bad, X)

    def test_reduced_iff_no_folding_on_enumerated_diagrams(self):
        X = lot_complex(make_trefoil())
        count = 0
        for S, dmap in itertools.islice(enumerate_diagrams(X, 3, prune_isomorphs=False), 60):
            report = check_diagram(S, dmap, X)
            assert report.reduced == (not report.folding)
            count += 1
        assert count >= 2

    @pytest.mark.parametrize("make, kinds", [
        (make_torus, {True}), (lambda: lot_complex(make_trefoil()), {False, True}),
    ], ids=["torus", "trefoil"])
    def test_nonreduced_vertices_match_the_oracle(self, monkeypatch, make, kinds):
        # each sphere vertex's walk in the link, as check_diagram scans it,
        # is a closed walk there, one per vertex, over every face corner; the
        # vertex is non-reduced at the oracle's first backtrack of its walk.
        # Every torus vertex met backtracks; the trefoil's are of both kinds
        X = make()
        G = X.links[X.vertices[0]]
        walks = []
        scan = drtool.diagrams.cyclic_pairs
        monkeypatch.setattr(drtool.diagrams, "cyclic_pairs",
                            lambda steps, related: walks.append(steps) or scan(steps, related))
        found = set()
        diagrams = list(itertools.islice(enumerate_diagrams(X, 6, prune_isomorphs=False), 60))
        assert len(diagrams) == 60
        for S, dmap in diagrams:
            walks.clear()
            report = check_diagram(S, dmap, X)
            corners = sum(len(face.word) for face in S.faces)
            assert len(walks) == 2 - len(S.faces) + corners // 2  # V - E + F = 2
            assert sum(map(len, walks)) == corners
            want = []
            for k, steps in enumerate(walks):
                assert all(a.end == b.start for a, b in zip(steps, steps[1:] + steps[:1]))
                backtracks = oracle_cyclic_pairs(steps, lambda a, b: b == a.reversed_step())
                assert (not backtracks) == is_reduced_walk(steps, G, cyclic=True)
                if backtracks:
                    want.append((f"v{k}", backtracks[0][0]))
                found.add(bool(backtracks))
            assert report.nonreduced_vertices == tuple(want)
        assert found == kinds

    def test_every_trefoil_diagram_folds(self):
        X = lot_complex(make_trefoil())
        for S, dmap in itertools.islice(enumerate_diagrams(X, 4), 40):
            report = check_diagram(S, dmap, X)
            assert not report.reduced


class TestDrkWitness:
    def test_two_labels_two_folding_labels(self):
        S, dmap, X = load_diagram("torus_pillow.json")
        report = check_diagram(S, dmap, X)
        assert report.distinct_edge_labels == 2
        assert report.distinct_folding_labels == 2
        assert drk_witness_check(report, 2).passed

    def test_single_label_vacuous(self):
        S, dmap, X = load_diagram("m2_folded.json")
        report = check_diagram(S, dmap, X)
        verdict = drk_witness_check(report, 2)
        assert verdict.passed
        assert verdict.notes.get("vacuous")

    def test_failing_witness(self):
        from drtool.diagrams import FoldingReport

        report = FoldingReport(
            folding=(("s0", "a"),),
            reduced=False,
            distinct_edge_labels=2,
            distinct_folding_labels=1,
        )
        verdict = drk_witness_check(report, 2)
        assert not verdict.passed
        assert verdict.witness["reason"] == "too_few_folding_labels"

    def test_zero_one_certified_complexes_have_two_folding_labels(self):
        # consistency of the component criterion at desk scale
        X = lot_complex(make_trefoil())
        checked = 0
        for S, dmap in itertools.islice(enumerate_diagrams(X, 4), 40):
            report = check_diagram(S, dmap, X)
            if report.distinct_edge_labels >= 2:
                assert drk_witness_check(report, 2).passed
                checked += 1
        assert checked >= 2


class TestSearch:
    def test_m2_finds_the_two_monogon_diagram(self):
        found = search_reduced_diagram(make_m2(), 2)
        assert found is not None
        S, dmap = found
        report = check_diagram(S, dmap, make_m2())
        assert report.reduced
        cells = sorted(c for c, _, _ in dmap.cellmap.values())
        assert cells == ["r1", "r2"]

    def test_trefoil_complex_none_up_to_four(self):
        assert search_reduced_diagram(lot_complex(make_trefoil()), 4) is None

    def test_torus_none_up_to_four(self):
        assert search_reduced_diagram(make_torus(), 4) is None

    def test_cap(self):
        with pytest.raises(CapExceeded):
            search_reduced_diagram(make_m2(), 99)

    @pytest.mark.parametrize("bound", [-3, 2.5, True])
    def test_face_bound_that_is_not_a_count_is_an_input_error(self, bound):
        with pytest.raises(InvalidSearchCap):
            search_reduced_diagram(make_torus(), bound)
        assert search_reduced_diagram(make_m2(), 0) is None

    @pytest.mark.parametrize("bound, error", [
        (-3, InvalidSearchCap), (9, CapExceeded), ("3", InvalidSearchCap), (2.5, InvalidSearchCap),
        (True, InvalidSearchCap)])
    def test_every_entry_point_checks_the_face_bound(self, bound, error):
        # the stream took -3 as empty, ran past the cap at 9, raised a raw
        # TypeError on "3" and 2.5 and read True as 1
        with pytest.raises(error):
            next(enumerate_diagrams(make_m2(), bound))
        with pytest.raises(error):
            search_reduced_diagram(make_m2(), bound)
        with pytest.raises(error):
            diagram_search_section(make_m2(), bound)

    def test_pruning_soundness_small(self):
        for X in (make_m2(), make_torus(), lot_complex(make_trefoil())):
            for n in (1, 2, 3):
                pruned = search_reduced_diagram(X, n)
                unpruned = next(enumerate_diagrams(X, n, require_reduced=True,
                                                   prune_isomorphs=False), None)
                assert (pruned is None) == (unpruned is None)

    def test_every_fixture_presentation_reaches_the_face_cap(self):
        # genus2 took 4 s at 6 faces before the path bound
        found = {}
        for path in sorted(CORPUS.glob("*.pres")):
            X = parse_presentation(path.read_text(encoding="utf-8"))
            at_cap = search_reduced_diagram(X)
            assert at_cap == search_reduced_diagram(X, 5)
            found[path.name] = at_cap is not None
        assert [name for name, diagram in found.items() if diagram] == [
            "dh.pres", "m2.pres", "power4.pres"]

    def test_search_none_excludes_reduced_diagrams(self):
        # oracle coherence: when the bounded search reports NONE, no
        # enumerated diagram within the bound checks as reduced
        X = make_torus()
        assert search_reduced_diagram(X, 3) is None
        for S, dmap in itertools.islice(enumerate_diagrams(X, 3, prune_isomorphs=False), 100):
            assert not check_diagram(S, dmap, X).reduced


def side_pairing(S):
    """The side pairing of a sphere with faces f0, f1, ..., in the form
    ``oracle_sphere_gluings`` gives it."""
    return frozenset(
        frozenset((int(fid[1:]), p) for fid, p, _ in occ) for occ in S.occurrences().values()
    )


class TestGluingOracle:
    def assert_matches_oracle(self, X, n):
        """At exactly n faces, the unpruned search lists each side pairing
        the oracle glues into a sphere once, and with ``require_reduced``
        exactly those that check_diagram calls reduced."""
        type_index = {(cell.id, o): 2 * k + (o < 0)
                      for k, cell in enumerate(X.cells) for o in (1, -1)}
        oracle = oracle_sphere_gluings(X, n)
        for require_reduced in (False, True):
            got = {}
            for S, dmap in enumerate_diagrams(X, n, require_reduced, prune_isomorphs=False):
                if len(S.faces) == n:
                    multiset = tuple(type_index[dmap.cellmap[face.id][0], dmap.cellmap[face.id][2]]
                                     for face in S.faces)
                    got.setdefault(multiset, []).append(side_pairing(S))
            want = {}
            for multiset, found in oracle.items():
                pairings = {pairing for pairing, S, dmap in found
                            if not require_reduced or check_diagram(S, dmap, X).reduced}
                if pairings:
                    want[multiset] = pairings
            assert {m: set(pairings) for m, pairings in got.items()} == want
            assert all(len(pairings) == len(set(pairings)) for pairings in got.values())
        return sum(len(found) for found in oracle.values())

    def test_fixtures(self):
        complexes = [parse_presentation(p.read_text()) for p in sorted(CORPUS.glob("*.pres"))]
        complexes.append(lot_complex(make_trefoil()))
        spheres = 0
        for X in complexes:
            for n in (1, 2, 3):
                spheres += self.assert_matches_oracle(X, n)
        assert spheres > 10

    def test_random_one_vertex_complexes(self):
        rng = random.Random(8)
        spheres = 0
        for _ in range(40):
            X = random_one_vertex_complex(rng, max_edges=3, max_cells=3, max_len=4, min_cells=1)
            for n in (1, 2, 3):
                spheres += self.assert_matches_oracle(X, n)
        assert spheres > 500


def diagram_stream(X, max_faces, require_reduced, prune_isomorphs):
    return [(S.to_jsonable(), f.to_jsonable())
            for S, f in enumerate_diagrams(X, max_faces, require_reduced, prune_isomorphs)]


def assert_stream_matches_oracle(X, max_faces, reduced_flags=(False, True),
                                 prune_flags=(False, True)):
    """Under each pair of flags, ``enumerate_diagrams`` yields what it yields
    when ``oracle_glue_faces`` does the gluing, element by element; returns
    the stream lengths."""
    lengths = []
    for require_reduced in reduced_flags:
        for prune_isomorphs in prune_flags:
            got = diagram_stream(X, max_faces, require_reduced, prune_isomorphs)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(drtool.diagrams, "_glue_faces", oracle_glue_faces)
                want = diagram_stream(X, max_faces, require_reduced, prune_isomorphs)
            assert got == want, (require_reduced, prune_isomorphs)
            lengths.append(len(got))
    return lengths


def cyclically_reduced(word):
    """``word``, a list of letters such as ``a`` and ``a-``, with each letter
    that is followed, cyclically, by its inverse cancelled against it."""
    out = []
    for letter in word:
        if out and out[-1] == inverse_letter(letter):
            out.pop()
        else:
            out.append(letter)
    while len(out) > 1 and out[-1] == inverse_letter(out[0]):
        out = out[1:-1]
    return out


def inverse_letter(letter):
    return letter[:-1] if letter.endswith("-") else letter + "-"


@st.composite
def small_presentations(draw, max_len=8, reduced=False):
    """A one-vertex complex of one or two relators of at most ``max_len``
    letters over two or three generators; cyclically reduced relators with
    ``reduced``."""
    names = "abc"[:draw(st.integers(2, 3))]
    letter = st.tuples(st.sampled_from(names), st.sampled_from(["", "-"])).map("".join)
    word = st.lists(letter, min_size=1, max_size=max_len)
    if reduced:
        word = word.map(cyclically_reduced).filter(bool)
    relators = draw(st.lists(word, min_size=1, max_size=2))
    return build_complex(edges=[(g, "*", "*") for g in names],
                         cells=[(f"r{i + 1}", " ".join(w)) for i, w in enumerate(relators)],
                         vertices=["*"])


STREAM_FIXTURES = [p.name for p in sorted(CORPUS.glob("*.pres"))] + ["trefoil LOT"]
FIVE_FACE_FIXTURES = ["torus.pres", "m2.pres", "power4.pres", "dh.pres", "ktrefoil.pres"]


def bench_presentation(kind, generators, seed):
    """A presentation of a kind the diagram-search benchmark draws, from
    ``bench/generate`` with ``random.Random(seed)``: a relator that holds each
    generator once with each sign (``surface``), two copies of such a relator
    (``repeated``), or the square of a word of one letter per generator
    (``square``)."""
    rng = random.Random(seed)
    gens = generator_names(rng, generators)
    if kind == "square":
        relators = [random_word(rng, gens, generators) * 2]
    else:
        word = surface_like_word(rng, gens)
        relators = [word, word] if kind == "repeated" else [word]
    return parse_presentation(presentation_text(gens, relators))


def stream_fixture(name):
    """The complex a name of ``STREAM_FIXTURES`` stands for."""
    if name == "trefoil LOT":
        return lot_complex(make_trefoil())
    return parse_presentation(fixture_text(name))


class TestGluingStreamOracle:
    @pytest.mark.parametrize("name", STREAM_FIXTURES)
    def test_fixtures_up_to_four_faces(self, name):
        unreduced, unreduced_pruned, _, _ = assert_stream_matches_oracle(stream_fixture(name), 4)
        assert unreduced > unreduced_pruned > 0

    @pytest.mark.parametrize("name", FIVE_FACE_FIXTURES)
    def test_fixtures_at_five_faces(self, name):
        X = parse_presentation(fixture_text(name))
        unreduced, unreduced_pruned, _, _ = assert_stream_matches_oracle(X, 5)
        assert unreduced > unreduced_pruned > 0

    @settings(max_examples=150)
    @given(small_presentations())
    def test_random_presentations_up_to_three_faces(self, X):
        assert_stream_matches_oracle(X, 3)

    # the benchmark's kinds, each at its face count but the repeated relator:
    # there the oracle takes about 40 s at 5 faces, and its unpruned stream
    # about 20 s on the surface-like words
    @pytest.mark.parametrize("kind, generators, faces", [
        ("surface", 3, 5), ("surface", 4, 4), ("repeated", 3, 4), ("square", 3, 5)])
    def test_benchmark_kinds_pruned(self, kind, generators, faces):
        X = bench_presentation(kind, generators, seed=2029)
        unreduced, _ = assert_stream_matches_oracle(X, faces, prune_flags=(True,))
        assert unreduced > 0

    # relators that are not cyclically reduced, or of 6 letters or more,
    # can make the oracle take seconds or minutes at 4 faces
    @settings(max_examples=150)
    @given(small_presentations(max_len=5, reduced=True))
    def test_random_presentations_at_four_faces_reduced(self, X):
        assert_stream_matches_oracle(X, 4, reduced_flags=(True,))

    def test_torus_disconnected_pairings_at_three_faces_are_not_yielded(self):
        # four complete pairings of three torus squares have the vertex
        # count of a sphere but glue a torus beside a two-square sphere
        X = parse_presentation(fixture_text("torus.pres"))
        disconnected = [
            S for _, glued in oracle_side_gluings(X, 3) for _, S, _ in glued
            if validate_sphere(S).witness == {"reason": "disconnected", "components": 2}
            and euler_characteristic(sphere_to_complex(S)) == 2
        ]
        assert len(disconnected) == 4
        for require_reduced in (False, True):
            stream = list(enumerate_diagrams(X, 3, require_reduced, prune_isomorphs=False))
            assert all(validate_sphere(S).passed for S, _ in stream)
            assert [S for S, _ in stream if len(S.faces) == 3] == []


class TestBalanceFilter:
    @settings(max_examples=150)
    @given(small_presentations(), st.booleans())
    def test_the_multisets_glued_are_those_a_counter_balances(self, X, prune_isomorphs):
        glued = []

        def spy(chosen, require_reduced, prune_isomorphs):
            glued.append(tuple((t.cell, t.orientation) for t in chosen))
            return iter(())

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(drtool.diagrams, "_glue_faces", spy)
            assert list(enumerate_diagrams(X, 4, prune_isomorphs=prune_isomorphs)) == []
        assert glued == oracle_balanced_multisets(X, 4, prune_isomorphs)


@st.composite
def faces_and_partial_pairing(draw):
    """Words of one to four faces, and the pairs of a random partial pairing
    of their sides, each pair two sides with inverse letters, in the order
    they were made."""
    letter = st.builds(Letter, st.sampled_from("ab"), st.sampled_from([1, -1]))
    words = draw(st.lists(st.lists(letter, min_size=1, max_size=5), min_size=1, max_size=4))
    letters = [l for word in words for l in word]
    free = set(range(len(letters)))
    pairs = []
    for s in draw(st.permutations(range(len(letters)))):
        choices = sorted(t for t in free if t != s and letters[t] == letters[s].inverse())
        if s in free and choices and draw(st.booleans()):
            t = draw(st.sampled_from(choices))
            free -= {s, t}
            pairs.append((s, t))
    return words, pairs


class TestDiagramJson:
    @settings(max_examples=120)
    @given(st.sampled_from(STREAM_FIXTURES), st.integers(1, 4), st.booleans(), st.booleans(),
           st.integers(0, 10_000))
    def test_a_streamed_diagram_reads_back_as_itself(self, name, faces, require_reduced,
                                                     prune_isomorphs, index):
        stream = list(enumerate_diagrams(stream_fixture(name), faces, require_reduced,
                                         prune_isomorphs))
        if not stream:
            return
        S, f = stream[index % len(stream)]
        data = json.loads(canonical_json({**S.to_jsonable(), **f.to_jsonable()}))
        assert sphere_from_jsonable(data) == S
        assert diagram_map_from_jsonable(data) == f

    def test_a_ring_of_twelve_digons_reads_back_as_itself(self):
        # a string sort would read the faces back as f0, f1, f10, f11, f2, ...
        S = SphereComplex(tuple(
            Cell(f"f{i}", (Letter(f"s{i}", 1), Letter(f"s{(i + 1) % 12}", -1))) for i in range(12)
        ))
        assert validate_sphere(S).passed
        data = json.loads(canonical_json(S.to_jsonable()))
        assert list(data["faces"])[:3] == ["f0", "f1", "f10"]
        assert sphere_from_jsonable(data) == S


def walk(after, partner, start):
    """The orbit of slot ``start`` from it onwards, and whether it comes back
    to ``start``: the slot after slot s is the partner of side after[s]."""
    orbit, s = [start], partner[after[start]]
    while s is not None and s != start:
        orbit.append(s)
        s = partner[after[s]]
    return orbit, s is not None


def replay_paths(words, pairs, mates):
    """Glue ``pairs`` of sides of the faces ``words`` in order through
    ``_join_paths``, and after each pair check its tables against orbit
    walks: the end of the path from each unglued side, the number of closed
    orbits and the number of paths whose end is among ``mates`` of their
    start. Yields the closed count and that number after each pair."""
    after = []
    for word in words:
        first = len(after)
        after += [first + (p + 1) % len(word) for p in range(len(word))]
    total = len(after)
    pend = after[:]
    pstart = [0] * total
    for s, e in enumerate(after):
        pstart[e] = s
    partner = [None] * total
    closed = 0
    alone = sum(after[s] in mates[s] for s in range(total))
    for x, y in pairs:
        closes, change = _join_paths(pend, pstart, lambda a, b: b in mates[a], x, y)
        partner[x], partner[y] = y, x
        closed += closes
        alone += change
        ends = {s: after[walk(after, partner, s)[0][-1]]
                for s in range(total) if partner[s] is None}
        assert {s: pend[s] for s in ends} == ends
        assert {e: pstart[e] for e in ends.values()} == {e: s for s, e in ends.items()}
        orbits = {frozenset(orbit) for orbit, closes in
                  (walk(after, partner, s) for s in range(total)) if closes}
        assert closed == len(orbits)
        assert alone == sum(e in mates[s] for s, e in ends.items())
        yield closed, alone


class TestSlotOrbits:
    """Sides are numbered face by face, and slot s is the corner after side
    s; the slot after slot s round its vertex is the partner of the side
    that follows corner s. ``_glue_faces`` keeps each open orbit as a path
    from an unglued side to the slot whose next side is unglued
    (``_join_paths``), and counts only the closed orbits."""

    @settings(max_examples=300)
    @given(faces_and_partial_pairing())
    def test_slot_classes_are_closed_orbits_plus_unglued_sides(self, case):
        words, pairs = case
        letters = [letter for word in words for letter in word]
        total = len(letters)
        mates = [{t for t in range(total) if letters[t] == letters[s].inverse()}
                 for s in range(total)]
        before = []
        for word in words:
            first = len(before)
            before += [first + (p - 1) % len(word) for p in range(len(word))]
        slots = UnionFind(range(total))
        replay = replay_paths(words, pairs, mates)
        for k, (x, y) in enumerate(pairs):
            slots.union(before[x], y)
            slots.union(before[y], x)
            closed, _ = next(replay)
            assert slots.count == closed + total - 2 * (k + 1)

    # the fixtures whose oracle lists too many pairings at 4 faces: power4
    # (40,320) and genus2 (331,776 for each multiset)
    THREE_FACES = {"power4.pres", "genus2.pres"}

    @pytest.mark.parametrize("name", STREAM_FIXTURES)
    def test_the_bound_holds_on_every_prefix_of_a_sphere(self, name):
        # replayed in glue order, every sphere the oracle glues keeps the
        # closed orbits plus what the open paths can still close at least
        # a sphere's vertex count, under the pairing rule of each flag
        X = stream_fixture(name)
        cells = X.cell_map()
        spheres = 0
        for n in range(1, 4 if name in self.THREE_FACES else 5):
            for found in oracle_sphere_gluings(X, n).values():
                for pairing, S, dmap in found:
                    words, sides = [], []
                    for face in S.faces:
                        cell, _, orientation = dmap.cellmap[face.id]
                        m = len(cells[cell].word)
                        words.append(face.word)
                        sides += [(Letter(dmap.labels[l.edge], l.sign),
                                   _side_position(m, 0, orientation, p))
                                  for p, l in enumerate(face.word)]
                    first = list(itertools.accumulate([0] + [len(w) for w in words]))
                    pairs = sorted(sorted(first[f] + p for f, p in pair) for pair in pairing)
                    total = len(sides)
                    target_V = 2 - n + total // 2
                    reduced = check_diagram(S, dmap, X).reduced
                    for require_reduced in (False, True) if reduced else (False,):
                        mates = [{t for t, (other, other_position) in enumerate(sides)
                                  if other == letter.inverse() and not (
                                      require_reduced and other_position == position)}
                                 for letter, position in sides]
                        open_paths = total
                        for closed, alone in replay_paths(words, pairs, mates):
                            open_paths -= 2
                            assert closed <= target_V <= closed + (open_paths + alone) // 2
                    spheres += 1
        assert spheres > 0


class TestPullback:
    def test_m2_totals(self):
        S, dmap, X = load_diagram("m2_reduced.json")
        report = diagram_gauss_bonnet(S, dmap, X, AngleAssignment.uniform(X, 1))
        assert report.total == 4
        assert report.vertex_curvatures["v0"] == 0
        assert sorted(report.cell_curvatures.values()) == [2, 2]

    def test_fixture_diagrams_total_four(self):
        rng = random.Random(2)
        for name in DIAGRAM_FIXTURES:
            S, dmap, X = load_diagram(name)
            table = {}
            for cell in X.cells:
                for i in range(len(cell.word)):
                    table[(cell.id, i)] = Fraction(rng.randint(-6, 12), rng.randint(1, 12))
            report = diagram_gauss_bonnet(S, dmap, X, AngleAssignment(table))
            assert report.total == 4

    def test_sides_are_paired_once_per_call(self, monkeypatch):
        import drtool.diagrams

        calls = []
        paired_occurrences = drtool.diagrams._paired_occurrences
        monkeypatch.setattr(drtool.diagrams, "_paired_occurrences",
                            lambda S: calls.append(S) or paired_occurrences(S))
        for name in DIAGRAM_FIXTURES:
            S, dmap, X = load_diagram(name)
            calls.clear()
            assert diagram_gauss_bonnet(S, dmap, X, AngleAssignment.uniform(X, 1)).total == 4
            assert calls == [S]

    def test_torus_pillow_has_a_positive_vertex(self):
        S, dmap, X = load_diagram("torus_pillow.json")
        w = AngleAssignment.uniform(X, Fraction(1, 2))
        report = diagram_gauss_bonnet(S, dmap, X, w)
        assert [v for v, k in report.vertex_curvatures.items() if k > 0]

    def test_trefoil_pillow_zero_one_pullback(self):
        from drtool import bi_forest_orientation

        lot = make_trefoil()
        K = lot_complex(lot)
        w01 = bi_forest_orientation(lot).assignment
        # the trefoil pillow fixture lives over the parsed presentation whose
        # cells are named r1/r2; rebuild it over K with cell ids e1/e2
        S, dmap, _ = load_diagram("trefoil_pillow.json")
        renamed = DiagramMap(
            dict(dmap.labels),
            {f: ("e1" if c == "r1" else "e2", r, o) for f, (c, r, o) in dmap.cellmap.items()},
        )
        report = diagram_gauss_bonnet(S, renamed, K, w01)
        assert report.total == 4
        for v in [v for v, k in report.vertex_curvatures.items() if k > 0]:
            # positive curvature forces total link angle zero in a passing
            # zero/one structure
            assert report.vertex_curvatures[v] == 2
