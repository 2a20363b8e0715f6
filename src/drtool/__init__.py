"""Certification of diagrammatic reducibility and local indicability for
finite combinatorial 2-complexes and labeled oriented trees."""

from .version import VERSION as __version__

from .complexes import (
    Cell,
    Corner,
    CornerStep,
    Edge,
    Letter,
    LinkGraph,
    LinkNode,
    TwoComplex,
    build_complex,
    euler_characteristic,
    link_graph,
)
from .curvature import (
    AngleAssignment,
    CurvatureReport,
    TestVerdict,
    ZeroOneAssignment,
    check_gauss_bonnet,
    coloring_test,
    find_zero_one_structure,
    vertex_curvature,
    weight_test,
)
from .certificates import (
    CheckOutcome,
    Dr2Certificate,
    PieceDecomposition,
    check_c4t4,
    check_dr2_c4t4,
    check_dr2_weighted,
    check_dr2_zero_one,
    compute_pieces,
    verify_dr2_certificate,
)
from .lots import (
    BiForestStructure,
    LiCertificateTree,
    Lot,
    LotEdge,
    LotProperties,
    bi_forest_orientation,
    build_lot,
    check_properties,
    decide_locally_indicable,
    enumerate_sub_lots,
    lot_complex,
    lots_isomorphic,
    maximal_proper_sub_lot,
    quotient,
    reduce_lot,
    reduce_lot_with_log,
    replay_reduction,
    verify_li_tree,
)
from .diagrams import (
    DiagramMap,
    FoldingReport,
    SphereComplex,
    check_diagram,
    diagram_gauss_bonnet,
    drk_witness_check,
    enumerate_diagrams,
    search_reduced_diagram,
    sphere_to_complex,
    validate_sphere,
)
from .parsing import parse_lot, parse_presentation, serialize_lot, serialize_presentation
from .reports import AnalyzeOptions, analyze, analyze_text, canonical_json, export_dot
