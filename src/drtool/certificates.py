"""DR(2) certificates for single-vertex complexes.

Three sufficient conditions are checked: the weighted path criterion
(weight test plus a minimum reduced-path weight of 2 between the two ends
of every edge), the zero/one component criterion (coloring test plus the
two ends of every edge in different components of the angle-0 subgraph),
and C(4)-T(4) with attaching words free of an immediate edge repeat.

Certificates embed the complex and the verified hypothesis data so a
third party can re-derive every condition without re-running searches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    LinkNode,
    TwoComplex,
    complex_from_jsonable,
    complex_to_jsonable,
    format_word,
    rotate_word,
    word_inverse,
)
from .curvature import (
    AngleAssignment,
    TestVerdict,
    ZeroOneAssignment,
    coloring_forests,
    min_reduced_cycle,
    min_reduced_path,
    weight_test,
)
from .errors import MultiVertexError, NonReducedRelator

METHOD_WEIGHTED = "WEIGHTED"
METHOD_ZERO_ONE = "ZERO_ONE"
METHOD_C4T4 = "C4T4"


@dataclass(frozen=True)
class Dr2Certificate:
    method: str
    complex: TwoComplex
    hypotheses: dict
    conclusion: dict

    def to_jsonable(self):
        return {
            "format": "dr2-certificate/1",
            "method": self.method,
            "complex": complex_to_jsonable(self.complex),
            "hypotheses": self.hypotheses,
            "conclusion": dict(self.conclusion),
        }

    @classmethod
    def from_jsonable(cls, data):
        return cls(
            method=data["method"],
            complex=complex_from_jsonable(data["complex"]),
            hypotheses=data["hypotheses"],
            conclusion=data["conclusion"],
        )


@dataclass(frozen=True)
class CheckOutcome:
    """Either a certificate or a re-checkable failure witness."""

    certificate: Dr2Certificate | None = None
    witness: dict | None = None

    @property
    def ok(self):
        return self.certificate is not None

    def to_jsonable(self):
        if self.ok:
            return {"ok": True, "certificate": self.certificate.to_jsonable()}
        return {"ok": False, "witness": self.witness}


def _require_single_vertex(X):
    if not X.is_single_vertex:
        raise MultiVertexError(
            f"certificate requires a single-vertex complex, got {len(X.vertices)} vertices"
        )


def check_dr2_weighted(X: TwoComplex, omega: AngleAssignment) -> CheckOutcome:
    """Weighted path criterion.

    Needs the weight test and, for every edge e, either no link path from
    e+ to e- or a minimum reduced-path weight of at least 2.
    """
    _require_single_vertex(X)
    omega.validate_total(X)
    omega.validate_nonnegative()
    wt = weight_test(X, omega)
    if not wt.passed:
        return CheckOutcome(witness={"reason": "weight_test", "witness": wt.witness})
    G = X.links[X.vertices[0]]
    edge_paths = []
    for e in X.edges:
        plus = LinkNode(e.id, 1)
        minus = LinkNode(e.id, -1)
        found = min_reduced_path(G, omega, plus, minus)
        if found is None:
            edge_paths.append({"edge": e.id, "connected": False})
            continue
        weight, nodes, steps = found
        row = {
            "edge": e.id,
            "connected": True,
            "min_weight": str(weight),
            "path_nodes": [str(n) for n in nodes],
            "path_corners": [list(s.corner.key) for s in steps],
        }
        if weight < 2:
            row["reason"] = "path"
            return CheckOutcome(witness=row)
        edge_paths.append(row)
    hypotheses = {
        "weights": omega.to_jsonable(),
        "path_minimisation": "minimum over reduced paths; for non-negative "
        "weights this equals the minimum over all connecting paths",
        "edge_paths": edge_paths,
    }
    cert = Dr2Certificate(
        method=METHOD_WEIGHTED,
        complex=X,
        hypotheses=hypotheses,
        conclusion={"dr2": True, "locally_indicable": False},
    )
    return CheckOutcome(certificate=cert)


def check_dr2_zero_one(X: TwoComplex, omega01: ZeroOneAssignment) -> CheckOutcome:
    """Zero/one component criterion: coloring test plus, per edge, the two
    edge-ends in different components of the angle-0 subgraph."""
    _require_single_vertex(X)
    ct, forests = coloring_forests(X, omega01)
    if not ct.passed:
        return CheckOutcome(witness={"reason": "coloring_test", "witness": ct.witness})
    comps = forests[X.vertices[0]].components()
    comp_index = {}
    for i, comp in enumerate(comps):
        for node in comp:
            comp_index[node] = i
    edge_rows = []
    for e in X.edges:
        i_plus = comp_index[(e.id, 1)]
        i_minus = comp_index[(e.id, -1)]
        if i_plus == i_minus:
            return CheckOutcome(
                witness={
                    "reason": "components",
                    "edge": e.id,
                    "component": [str(n) for n in comps[i_plus]],
                }
            )
        edge_rows.append({"edge": e.id, "plus_component": i_plus, "minus_component": i_minus})
    hypotheses = {
        "angles": omega01.to_jsonable(),
        "components": [[str(n) for n in comp] for comp in comps],
        "edge_components": edge_rows,
    }
    cert = Dr2Certificate(
        method=METHOD_ZERO_ONE,
        complex=X,
        hypotheses=hypotheses,
        conclusion={"dr2": True, "locally_indicable": True},
    )
    return CheckOutcome(certificate=cert)


# ---------------------------------------------------------------------------
# pieces and C(4)-T(4)


def _adjacent_inverse_positions(word):
    L = len(word)
    return [i for i in range(L) if L > 1 and word[(i + 1) % L] == word[i].inverse()]


def _require_reduced_relators(X):
    for cell in X.cells:
        if len(cell.word) > 1 and _adjacent_inverse_positions(cell.word):
            i = _adjacent_inverse_positions(cell.word)[0]
            raise NonReducedRelator(
                f"cell {cell.id} has an inverse pair at positions ({i + 1},{(i + 1) % len(cell.word) + 1})"
            )


def _cyclic_subword(word, start, length):
    L = len(word)
    return tuple(word[(start + k) % L] for k in range(length))


def word_period(word):
    """Smallest p dividing len(word) with the word invariant under rotation by p."""
    L = len(word)
    for p in range(1, L + 1):
        if L % p == 0 and rotate_word(word, p) == word:
            return p
    return L


class _PieceTable:
    """Occurrence counting over all cyclic relators and their inverses.

    A piece is a word occurring at two distinct positions; positions are
    (cell, inverse-flag, start), so self-overlaps of periodic relators count.
    """

    def __init__(self, X):
        self.words = []
        for cell in X.cells:
            self.words.append((cell.id, False, cell.word))
            self.words.append((cell.id, True, word_inverse(cell.word)))
        self._cache = {}

    def occurrences(self, piece, stop_at=None):
        found = []
        k = len(piece)
        for cell_id, inv, word in self.words:
            L = len(word)
            if k > L:
                continue
            for p in range(L):
                if _cyclic_subword(word, p, k) == piece:
                    found.append((cell_id, inv, p))
                    if stop_at is not None and len(found) >= stop_at:
                        return found
        return found

    def is_piece(self, piece):
        cached = self._cache.get(piece)
        if cached is None:
            cached = len(self.occurrences(piece, stop_at=2)) >= 2
            self._cache[piece] = cached
        return cached


@dataclass(frozen=True)
class PieceDecomposition:
    pieces: tuple  # maximal pieces, as words
    min_counts: dict  # cell id -> int or None (no decomposition into pieces)
    witnesses: dict  # cell id -> tuple of piece words or None
    periods: dict  # cell id -> cyclic period of the relator

    def to_jsonable(self):
        return {
            "pieces": [format_word(p) for p in self.pieces],
            "min_counts": {c: n for c, n in sorted(self.min_counts.items())},
            "witnesses": {
                c: ([format_word(p) for p in w] if w is not None else None)
                for c, w in sorted(self.witnesses.items())
            },
            "relator_periods": dict(sorted(self.periods.items())),
        }


def compute_pieces(X: TwoComplex) -> PieceDecomposition:
    """Pieces and minimal piece counts for every cell.

    The count is the least number of pieces whose concatenation is the cyclic
    relator, minimised over starting rotations by dynamic programming; None
    when no decomposition into pieces exists.
    """
    _require_reduced_relators(X)
    table = _PieceTable(X)

    all_pieces = set()
    for cell in X.cells:
        L = len(cell.word)
        for k in range(1, L + 1):
            for p in range(L):
                w = _cyclic_subword(cell.word, p, k)
                if table.is_piece(w):
                    all_pieces.add(w)

    def contains(big, small):
        if len(small) > len(big):
            return False
        return any(big[i : i + len(small)] == small for i in range(len(big) - len(small) + 1))

    maximal = sorted(
        (p for p in all_pieces if not any(q != p and contains(q, p) for q in all_pieces)),
        key=lambda w: (len(w), tuple(str(l) for l in w)),
    )

    min_counts = {}
    witnesses = {}
    periods = {}
    INF = float("inf")
    for cell in X.cells:
        word = cell.word
        L = len(word)
        periods[cell.id] = word_period(word)
        best = INF
        best_parts = None
        for r in range(L):
            lin = rotate_word(word, r)
            dp = [INF] * (L + 1)
            choice = [None] * (L + 1)
            dp[0] = 0
            for j in range(1, L + 1):
                for i in range(j):
                    if dp[i] + 1 < dp[j] and table.is_piece(lin[i:j]):
                        dp[j] = dp[i] + 1
                        choice[j] = i
            if dp[L] < best:
                best = dp[L]
                parts = []
                j = L
                while j > 0:
                    i = choice[j]
                    parts.append(lin[i:j])
                    j = i
                best_parts = tuple(reversed(parts))
        min_counts[cell.id] = None if best is INF else int(best)
        witnesses[cell.id] = best_parts
    return PieceDecomposition(tuple(maximal), min_counts, witnesses, periods)


def check_c4t4(X: TwoComplex) -> TestVerdict:
    """C(4): every cell needs at least 4 pieces (vacuous when no decomposition
    exists).  T(4): the link has no reduced cycle shorter than 4."""
    _require_single_vertex(X)
    decomposition = compute_pieces(X)
    for cell in X.cells:
        count = decomposition.min_counts[cell.id]
        if count is not None and count < 4:
            return TestVerdict(
                False,
                {
                    "condition": "C4",
                    "cell": cell.id,
                    "count": count,
                    "decomposition": [format_word(p) for p in decomposition.witnesses[cell.id]],
                },
            )
    G = X.links[X.vertices[0]]
    ones = AngleAssignment({c.key: 1 for c in G.corners})
    found = min_reduced_cycle(G, ones)
    girth = None if found is None else int(found[0])
    if girth is not None and girth < 4:
        return TestVerdict(
            False,
            {
                "condition": "T4",
                "girth": girth,
                "cycle_corners": [list(s.corner.key) for s in found[1]],
                "cycle_nodes": [str(s.start) for s in found[1]],
            },
        )
    return TestVerdict(True, None, notes={"girth": girth})


def _ee_positions(word):
    """Cyclic positions i where the same signed letter repeats at i+1."""
    L = len(word)
    if L == 1:
        return []
    return [i for i in range(L) if word[(i + 1) % L] == word[i]]


def check_dr2_c4t4(X: TwoComplex) -> CheckOutcome:
    """Small-cancellation criterion; every unmet hypothesis is a witness."""
    if not X.is_single_vertex:
        return CheckOutcome(
            witness={"reason": "multi_vertex", "vertices": list(X.vertices)}
        )
    for cell in X.cells:
        bad = _adjacent_inverse_positions(cell.word)
        if bad:
            i = bad[0]
            return CheckOutcome(
                witness={
                    "reason": "non_reduced_relator",
                    "cell": cell.id,
                    "positions": [i + 1, (i + 1) % len(cell.word) + 1],
                }
            )
        rep = _ee_positions(cell.word)
        if rep:
            i = rep[0]
            return CheckOutcome(
                witness={
                    "reason": "edge_repeat",
                    "cell": cell.id,
                    "edge": cell.word[i].edge,
                    "positions": [i + 1, (i + 1) % len(cell.word) + 1],
                }
            )
    verdict = check_c4t4(X)
    if not verdict.passed:
        return CheckOutcome(witness={"reason": "c4t4", "witness": verdict.witness})
    decomposition = compute_pieces(X)
    hypotheses = {
        "piece_counts": {c: n for c, n in sorted(decomposition.min_counts.items())},
        "decompositions": {
            c: ([format_word(p) for p in w] if w is not None else None)
            for c, w in sorted(decomposition.witnesses.items())
        },
        "relator_periods": dict(sorted(decomposition.periods.items())),
        "girth": verdict.notes.get("girth"),
        "no_edge_repeat": True,
    }
    cert = Dr2Certificate(
        method=METHOD_C4T4,
        complex=X,
        hypotheses=hypotheses,
        conclusion={"dr2": True, "locally_indicable": True},
    )
    return CheckOutcome(certificate=cert)


# ---------------------------------------------------------------------------
# certificate verification


def verify_dr2_certificate(cert: Dr2Certificate):
    """Re-derive the certificate's hypothesis conditions; returns (ok, problems)."""
    problems = []
    X = cert.complex
    if cert.method == METHOD_WEIGHTED:
        omega = AngleAssignment.from_jsonable(cert.hypotheses["weights"])
        outcome = check_dr2_weighted(X, omega)
        if not outcome.ok:
            problems.append(f"weighted hypotheses do not re-check: {outcome.witness}")
        else:
            recorded = cert.hypotheses["edge_paths"]
            fresh = outcome.certificate.hypotheses["edge_paths"]
            if recorded != fresh:
                problems.append("recorded edge path bounds disagree with recomputation")
        if cert.conclusion.get("locally_indicable"):
            problems.append("WEIGHTED certificates cannot conclude local indicability")
    elif cert.method == METHOD_ZERO_ONE:
        omega01 = ZeroOneAssignment.from_jsonable(cert.hypotheses["angles"])
        outcome = check_dr2_zero_one(X, omega01)
        if not outcome.ok:
            problems.append(f"zero/one hypotheses do not re-check: {outcome.witness}")
        else:
            if cert.hypotheses["components"] != outcome.certificate.hypotheses["components"]:
                problems.append("recorded component partition disagrees with recomputation")
    elif cert.method == METHOD_C4T4:
        outcome = check_dr2_c4t4(X)
        if not outcome.ok:
            problems.append(f"C(4)-T(4) hypotheses do not re-check: {outcome.witness}")
        else:
            if cert.hypotheses["piece_counts"] != outcome.certificate.hypotheses["piece_counts"]:
                problems.append("recorded piece counts disagree with recomputation")
    else:
        problems.append(f"unknown certificate method {cert.method!r}")
    if not cert.conclusion.get("dr2"):
        problems.append("certificate does not claim dr2")
    return (not problems), problems
