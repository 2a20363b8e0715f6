"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time
from fractions import Fraction

from drtool import (
    AngleAssignment,
    Dr2Certificate,
    LiCertificateTree,
    bi_forest_orientation,
    build_lot,
    check_c4t4,
    check_diagram,
    check_dr2_c4t4,
    check_dr2_weighted,
    check_dr2_zero_one,
    check_gauss_bonnet,
    coloring_test,
    compute_pieces,
    decide_locally_indicable,
    diagram_gauss_bonnet,
    enumerate_sub_lots,
    link_graph,
    lot_complex,
    lots_isomorphic,
    parse_lot,
    parse_presentation,
    reduce_lot_with_log,
    replay_reduction,
    search_reduced_diagram,
    serialize_lot,
    serialize_presentation,
    verify_dr2_certificate,
    verify_li_tree,
    weight_test,
)
from drtool.curvature import min_reduced_cycle
from drtool.lots import KIND_HUCK_ROSE_BASE, KIND_QUOTIENT_STEP, KIND_SINGLE_VERTEX, lot_from_jsonable
from drtool.reports import AnalyzeOptions, analyze, canonical_json

from conftest import (
    CORPUS,
    DIAGRAM_FIXTURES,
    load_diagram,
    make_m2,
    make_torus,
    make_trefoil,
)
from genutil import (
    oracle_min_pieces,
    oracle_min_reduced_cycle_weight,
    random_complex,
    random_link,
    random_rationals,
    reduced_injective_lots,
)

def report(number, text):
    print(f"[acceptance] criterion {number}: PASS - {text}")


def test_criterion_1_gauss_bonnet_identity():
    start = time.monotonic()
    rng = random.Random(20260811)
    for _ in range(200):
        X = random_complex(rng, max_cells=6)
        omega = random_rationals(rng, X, denominator_max=12, allow_negative=True)
        rep = check_gauss_bonnet(X, omega)
        assert rep.total == 2 * rep.euler
    for name in DIAGRAM_FIXTURES:
        S, dmap, X = load_diagram(name)
        omega = random_rationals(rng, X, denominator_max=12, allow_negative=True)
        rep = diagram_gauss_bonnet(S, dmap, X, omega)
        assert rep.total == 4
    elapsed = time.monotonic() - start
    assert elapsed < 5
    report(1, f"200 random angled complexes + {len(DIAGRAM_FIXTURES)} fixture "
              f"diagrams, exact equality ({elapsed:.2f}s)")


def test_criterion_2_trefoil_pipeline():
    start = time.monotonic()
    lot = parse_lot((CORPUS / "trefoil.lot").read_text())
    bf = bi_forest_orientation(lot)
    assert bf.epsilon == {"a": 1, "b": 1, "c": 1}
    K = lot_complex(lot)
    assert coloring_test(K, bf.assignment).passed
    outcome = check_dr2_zero_one(K, bf.assignment)
    assert outcome.ok  # includes the per-edge component condition
    tree = decide_locally_indicable(lot)
    assert tree.kind == KIND_HUCK_ROSE_BASE
    tree2 = LiCertificateTree.from_jsonable(tree.to_jsonable())
    ok, problems = verify_li_tree(tree2)
    assert ok, problems
    elapsed = time.monotonic() - start
    assert elapsed < 1
    report(2, f"epsilon (+,+,+), coloring + component condition, HUCK_ROSE_BASE "
              f"re-verified ({elapsed:.2f}s)")


def test_criterion_3_w5_quotient_step():
    start = time.monotonic()
    lot = parse_lot((CORPUS / "w5.lot").read_text())
    tree = decide_locally_indicable(lot)
    assert tree.kind == KIND_QUOTIENT_STEP
    quotient = lot_from_jsonable(tree.evidence["quotient"])
    assert lots_isomorphic(quotient, make_trefoil())
    cert = Dr2Certificate.from_jsonable(tree.evidence["dr2_certificate"])
    assert cert.method == "ZERO_ONE"
    assert cert.conclusion["dr2"] is True
    ok, problems = verify_dr2_certificate(cert)
    assert ok, problems
    assert tree.children[0].certified
    assert tree.certified
    elapsed = time.monotonic() - start
    assert elapsed < 1
    report(3, f"QUOTIENT_STEP with quotient isomorphic to the trefoil LOT and a "
              f"ZERO_ONE certificate; child certified ({elapsed:.2f}s)")


def test_criterion_4_torus_tests():
    start = time.monotonic()
    X = parse_presentation((CORPUS / "torus.pres").read_text())
    half = AngleAssignment.uniform(X, Fraction(1, 2))
    assert weight_test(X, half).passed

    verdict = check_c4t4(X)
    assert verdict.passed
    decomposition = compute_pieces(X)
    assert decomposition.min_counts == {"r1": 4}
    assert verdict.notes["girth"] == 4

    outcome6 = check_dr2_c4t4(X)
    assert outcome6.ok
    ok, problems = verify_dr2_certificate(outcome6.certificate)
    assert ok, problems

    outcome4 = check_dr2_weighted(X, half)
    assert not outcome4.ok
    assert outcome4.witness["reason"] == "path"
    assert outcome4.witness["min_weight"] == "1"
    assert outcome4.witness["path_nodes"] == ["a+", "b-", "a-"]
    elapsed = time.monotonic() - start
    assert elapsed < 1
    report(4, f"weight test passes at 1/2, piece counts 4 and girth 4 certify "
              f"C4T4, weighted route fails on the a+ b- a- path ({elapsed:.2f}s)")


def test_criterion_5_cycle_oracle_equality():
    start = time.monotonic()
    rng = random.Random(5050)
    for _ in range(50):
        G = random_link(rng, max_corners=12)
        weights = AngleAssignment(
            {c.key: Fraction(rng.randint(1, 24), rng.randint(1, 12)) for c in G.corners}
        )
        found = min_reduced_cycle(G, weights)
        fast = None if found is None else found[0]
        slow = oracle_min_reduced_cycle_weight(G, weights)
        assert fast == slow
    elapsed = time.monotonic() - start
    assert elapsed < 30
    report(5, f"state-graph minimum equals exhaustive enumeration on 50 random "
              f"links ({elapsed:.2f}s)")


def test_criterion_6_piece_oracle_equality():
    start = time.monotonic()
    rng = random.Random(6060)
    from drtool.complexes import Letter
    from drtool import build_complex

    presentations = []
    fixture_names = ("torus.pres", "genus2.pres", "power4.pres", "ktrefoil.pres", "m2.pres")
    for name in fixture_names:
        presentations.append(parse_presentation((CORPUS / name).read_text()))
    while len(presentations) < 30:
        names = ["a", "b", "c"][: rng.randint(2, 3)]
        cells = []
        for k in range(rng.randint(1, 3)):
            while True:
                word = tuple(
                    Letter(rng.choice(names), rng.choice((1, -1)))
                    for _ in range(rng.randint(2, 8))
                )
                L = len(word)
                if all(word[(i + 1) % L] != word[i].inverse() for i in range(L)):
                    break
            cells.append((f"r{k + 1}", word))
        presentations.append(
            build_complex(edges=[(g, "*", "*") for g in names], cells=cells,
                          vertices=["*"])
        )
    relators = 0
    for X in presentations:
        decomposition = compute_pieces(X)
        for cell in X.cells:
            if len(cell.word) > 8:
                continue
            assert decomposition.min_counts[cell.id] == oracle_min_pieces(X, cell.id)
            relators += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30
    assert relators >= 30
    report(6, f"DP piece counts equal decomposition enumeration on {relators} "
              f"relators over 30 presentations ({elapsed:.2f}s)")


def test_criterion_7_diagram_oracle():
    start = time.monotonic()
    m2 = make_m2()
    found = search_reduced_diagram(m2, 2)
    assert found is not None
    S, dmap = found
    rep = check_diagram(S, dmap, m2)
    assert rep.reduced and not rep.folding

    assert search_reduced_diagram(lot_complex(make_trefoil()), 4) is None
    assert search_reduced_diagram(make_torus(), 4) is None
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(7, f"two-monogon reduced diagram found; no reduced diagram over the "
              f"trefoil complex or the torus up to 4 faces ({elapsed:.2f}s)")


def test_criterion_8_small_lot_sweep():
    start = time.monotonic()
    lots = reduced_injective_lots(6)
    base = [
        lot for lot in lots
        if not any(is_proper for _, is_proper in enumerate_sub_lots(lot))
    ]
    assert len(base) > 100  # the sweep is not vacuous
    failures = []
    for lot in base:
        bf = bi_forest_orientation(lot)
        if bf is None:
            failures.append(("no bi-forest", lot))
            continue
        K = lot_complex(lot)
        if not coloring_test(K, bf.assignment).passed:
            failures.append(("coloring", lot))
            continue
        if not check_dr2_zero_one(K, bf.assignment).ok:
            failures.append(("components", lot))
    assert failures == []
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report(8, f"bi-forest search and both criteria succeed on all {len(base)} "
              f"base-case LOTs with <= 6 vertices ({elapsed:.2f}s)")


def test_criterion_9_reduction_semantics():
    start = time.monotonic()
    lot = parse_lot((CORPUS / "collapse.lot").read_text())
    reduced, log = reduce_lot_with_log(lot)
    assert reduced == build_lot("a", [])
    assert replay_reduction(lot, log) == reduced
    tree = decide_locally_indicable(lot)
    assert tree.kind == KIND_SINGLE_VERTEX
    assert tree.evidence["group"] == "Z"
    elapsed = time.monotonic() - start
    assert elapsed < 1
    report(9, f"compression to a single vertex, SINGLE_VERTEX conclusion, log "
              f"replay agrees ({elapsed:.2f}s)")


def test_criterion_10_determinism_and_round_trip():
    start = time.monotonic()
    corpus = sorted(CORPUS.iterdir())
    for path in corpus:
        options = AnalyzeOptions(max_faces=2)
        first = canonical_json(analyze(path, options))
        second = canonical_json(analyze(path, options))
        assert first == second, path
        text = path.read_text()
        if path.suffix == ".pres":
            X = parse_presentation(text)
            assert parse_presentation(serialize_presentation(X)) == X
        else:
            lot = parse_lot(text)
            assert parse_lot(serialize_lot(lot)) == lot
    elapsed = time.monotonic() - start
    report(10, f"byte-identical reports and parse/serialize round-trips on "
               f"{len(corpus)} corpus files ({elapsed:.2f}s)")
