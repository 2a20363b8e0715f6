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

import functools
import operator
from dataclasses import dataclass

from .complexes import (
    LinkNode,
    TwoComplex,
    _inverse_letters,
    complex_from_jsonable,
    complex_to_jsonable,
    cyclic_pairs,
    format_word,
    rotate_word,
    word_inverse,
)
from .curvature import (
    AngleAssignment,
    TestVerdict,
    ZeroOneAssignment,
    _shortest_reduced_cycle,
    coloring_forests,
    min_reduced_path,
    weight_test,
)
from .errors import (
    _WRONG_SHAPE,
    CertificateRefused,
    DrtoolError,
    MultiVertexError,
    NonReducedRelator,
    ParseError,
)

METHOD_WEIGHTED = "WEIGHTED"
METHOD_ZERO_ONE = "ZERO_ONE"
METHOD_C4T4 = "C4T4"
DR2_FORMAT = "dr2-certificate/1"


def require_format(data, expected):
    """Refuse certificate JSON whose ``format`` is not ``expected``."""
    if data["format"] != expected:
        raise ParseError(f"unknown certificate format {data['format']!r}")


@dataclass(frozen=True)
class Dr2Certificate:
    method: str
    complex: TwoComplex
    hypotheses: dict
    conclusion: dict

    def to_jsonable(self):
        return {
            "format": DR2_FORMAT,
            "method": self.method,
            "complex": complex_to_jsonable(self.complex),
            "hypotheses": self.hypotheses,
            "conclusion": dict(self.conclusion),
        }

    @classmethod
    def from_jsonable(cls, data):
        require_format(data, DR2_FORMAT)
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
    return write_zero_one(X, omega01, forests[X.vertices[0]])


def write_zero_one(X: TwoComplex, omega01: ZeroOneAssignment, component) -> CheckOutcome:
    """The ZERO_ONE certificate of the single-vertex X and the angles omega01,
    which pass the coloring test, from ``component``, the component number of
    each node position of the link in their angle-0 subgraph, components
    numbered by their least position; or the witness of the first edge whose
    two ends lie in one component.  The one writer of ZERO_ONE hypotheses."""
    G = X.links[X.vertices[0]]
    comps = [[] for _ in range(max(component, default=-1) + 1)]
    for node, c in zip(G.nodes, component):
        comps[c].append(str(node))
    edge_rows = []
    for e in X.edges:
        i_plus = component[G.index[(e.id, 1)]]
        i_minus = component[G.index[(e.id, -1)]]
        if i_plus == i_minus:
            return CheckOutcome(
                witness={"reason": "components", "edge": e.id, "component": comps[i_plus]}
            )
        edge_rows.append({"edge": e.id, "plus_component": i_plus, "minus_component": i_minus})
    hypotheses = {
        "angles": omega01.to_jsonable(),
        "components": comps,
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


def _require_reduced_relators(X):
    for cell in X.cells:
        pair = next(cyclic_pairs(cell.word, _inverse_letters), None)
        if pair is not None:
            raise NonReducedRelator(
                f"cell {cell.id} has an inverse pair at positions ({pair[0] + 1},{pair[1] + 1})"
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


def _piece_predicate(X):
    """Memoised ``is_piece(word)``: whether the word occurs at two distinct
    positions among the cyclic relators and their inverses.  A position is
    (cell, inverse-flag, start), so self-overlaps of periodic relators count."""
    words = [w for cell in X.cells for w in (cell.word, word_inverse(cell.word))]

    @functools.cache
    def is_piece(piece):
        k = len(piece)
        seen = 0
        for word in words:
            L = len(word)
            if k > L:
                continue
            for p in range(L):
                if _cyclic_subword(word, p, k) == piece:
                    seen += 1
                    if seen == 2:
                        return True
        return False

    return is_piece


@dataclass(frozen=True)
class PieceDecomposition:
    min_counts: dict  # cell id -> int or None (no decomposition into pieces)
    witnesses: dict  # cell id -> tuple of piece words or None
    periods: dict  # cell id -> cyclic period of the relator


def compute_pieces(X: TwoComplex) -> PieceDecomposition:
    """Minimal piece counts, with a witness and the period, for every cell.

    The count is the least number of pieces whose concatenation is the cyclic
    relator, minimised over starting rotations by dynamic programming; None
    when no decomposition into pieces exists.
    """
    _require_reduced_relators(X)
    is_piece = _piece_predicate(X)
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
                    if dp[i] + 1 < dp[j] and is_piece(lin[i:j]):
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
    return PieceDecomposition(min_counts, witnesses, periods)


def check_c4t4(X: TwoComplex) -> TestVerdict:
    """C(4): every cell needs at least 4 pieces (vacuous when no decomposition
    exists).  T(4): the link has no reduced cycle shorter than 4."""
    return _c4t4_pieces(X)[0]


def _c4t4_pieces(X: TwoComplex):
    """check_c4t4's verdict, and the piece decomposition it read."""
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
            ), decomposition
    found = _shortest_reduced_cycle(X.links[X.vertices[0]])
    girth = None if found is None else found[0]
    if girth is not None and girth < 4:
        return TestVerdict(
            False,
            {
                "condition": "T4",
                "girth": girth,
                "cycle_corners": [list(s.corner.key) for s in found[1]],
                "cycle_nodes": [str(s.start) for s in found[1]],
            },
        ), decomposition
    return TestVerdict(True, None, notes={"girth": girth}), decomposition


def check_dr2_c4t4(X: TwoComplex) -> CheckOutcome:
    """Small-cancellation criterion; every unmet hypothesis is a witness."""
    if not X.is_single_vertex:
        return CheckOutcome(
            witness={"reason": "multi_vertex", "vertices": list(X.vertices)}
        )
    for cell in X.cells:
        pair = next(cyclic_pairs(cell.word, _inverse_letters), None)
        if pair is not None:
            return CheckOutcome(
                witness={"reason": "non_reduced_relator", "cell": cell.id,
                         "positions": [pair[0] + 1, pair[1] + 1]}
            )
        pair = next(cyclic_pairs(cell.word, operator.eq), None)  # the same signed letter twice
        if pair is not None:
            return CheckOutcome(
                witness={
                    "reason": "edge_repeat",
                    "cell": cell.id,
                    "edge": cell.word[pair[0]].edge,
                    "positions": [pair[0] + 1, pair[1] + 1],
                }
            )
    verdict, decomposition = _c4t4_pieces(X)
    if not verdict.passed:
        return CheckOutcome(witness={"reason": "c4t4", "witness": verdict.witness})
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


def dr2_routes(X: TwoComplex, weights=None, angles=None, components=None):
    """The DR(2) criteria to try on X, in order, as ``(method, check, args)``
    with ``check(*args)`` the CheckOutcome: ZERO_ONE when angles are given,
    then C4T4, then WEIGHTED when weights are given.  ZERO_ONE is written
    from ``components`` without the coloring test when the bi-forest search
    that found the angles gives their angle-0 numbering (``write_zero_one``)."""
    if angles is not None and components is not None:
        yield METHOD_ZERO_ONE, write_zero_one, (X, angles, components)
    elif angles is not None:
        yield METHOD_ZERO_ONE, check_dr2_zero_one, (X, angles)
    yield METHOD_C4T4, check_dr2_c4t4, (X,)
    if weights is not None:
        yield METHOD_WEIGHTED, check_dr2_weighted, (X, weights)


# ---------------------------------------------------------------------------
# certificate verification


def verify_dr2_certificate(cert: Dr2Certificate):
    """Compare the hypotheses and conclusion with those ``rerun_dr2`` writes;
    returns (ok, problems).  A hypothesis that is missing, of the wrong type
    or that the re-run refuses is a problem."""
    problems = []
    try:
        fresh = rerun_dr2(cert.complex, cert.method, cert.hypotheses)
        problems += field_disagreements(cert.hypotheses, fresh.hypotheses)
        problems += field_disagreements(cert.conclusion, fresh.conclusion)
    except CertificateRefused as exc:
        problems.append(str(exc))
    except (DrtoolError, *_WRONG_SHAPE) as exc:
        problems.append(f"hypotheses do not re-check: {type(exc).__name__}: {exc}")
    return (not problems), problems


def field_disagreements(recorded, fresh):
    """A problem for each field of ``fresh``, in its order, that ``recorded`` holds
    with another value, and one naming the fields only ``recorded`` has."""
    if recorded == fresh:  # the common case, compared at C speed
        return []
    problems = [f"{key.replace('_', ' ')}: recorded value disagrees with recomputation"
                for key, value in fresh.items() if recorded[key] != value]
    extra = recorded.keys() - fresh.keys()
    if extra:
        problems.append(f"recorded fields that recomputation does not write: {sorted(extra)}")
    return problems


def rerun_dr2(X: TwoComplex, method, hypotheses):
    """The certificate that DR(2) ``method`` writes when run again on X and
    the choice ``hypotheses`` records: the weights of WEIGHTED, the angles of
    ZERO_ONE, none for C4T4.  An unknown method, or a choice the method
    refuses, raises CertificateRefused."""
    if method == METHOD_WEIGHTED:
        outcome = check_dr2_weighted(X, AngleAssignment.from_jsonable(hypotheses["weights"]))
    elif method == METHOD_ZERO_ONE:
        outcome = check_dr2_zero_one(X, ZeroOneAssignment.from_jsonable(hypotheses["angles"]))
    elif method == METHOD_C4T4:
        outcome = check_dr2_c4t4(X)
    else:
        raise CertificateRefused(f"unknown certificate method {method!r}")
    if not outcome.ok:
        raise CertificateRefused(f"{method} hypotheses do not re-check: {outcome.witness}")
    return outcome.certificate
