"""Large Cayley graphs and digraphs from shift groups.

Exact constructions on Z_t^r ⋊ Z_r for the degree-diameter problem, with
BFS-verified diameters, explicit graph exports, and exact-arithmetic
comparisons against prior constructions and the Moore bound.
"""

from .bounds import (
    BoundRow,
    CorollaryCertificate,
    OptimalEll,
    compare,
    competitor_orders,
    corollary_certificate,
    corollary_lower_bound,
    debruijn_order,
    exact_log2_le,
    log2_enclosure,
    moore_bound,
    optimal_ell,
)
from .cayley import (
    BfsResult,
    DisconnectedGraphError,
    GraphReport,
    bfs_from,
    bfs_from_identity,
    export_graph,
    neighbors,
    verify_construction,
    write_graph,
)
from .generators import (
    ConstructionSpec,
    CorollarySelection,
    GeneratorClassOverlapError,
    GeneratorSet,
    SpecParseError,
    ValidationReport,
    build,
    corollary_params,
    parse_spec,
    thm1_directed,
    thm2_undirected,
    thm3_directed,
    thm4_classes,
    thm4_undirected,
    validate,
)
from .group import (
    DEFAULT_STATE_CAP,
    CapExceededError,
    GroupElement,
    GroupParams,
    ParameterError,
    shift_alpha,
)

__version__ = "0.1.0"

__all__ = [
    "BfsResult",
    "BoundRow",
    "CapExceededError",
    "ConstructionSpec",
    "CorollaryCertificate",
    "CorollarySelection",
    "DEFAULT_STATE_CAP",
    "DisconnectedGraphError",
    "GeneratorClassOverlapError",
    "GeneratorSet",
    "GraphReport",
    "GroupElement",
    "GroupParams",
    "OptimalEll",
    "ParameterError",
    "SpecParseError",
    "ValidationReport",
    "bfs_from",
    "bfs_from_identity",
    "build",
    "compare",
    "competitor_orders",
    "corollary_certificate",
    "corollary_lower_bound",
    "corollary_params",
    "debruijn_order",
    "exact_log2_le",
    "export_graph",
    "log2_enclosure",
    "moore_bound",
    "neighbors",
    "optimal_ell",
    "parse_spec",
    "shift_alpha",
    "thm1_directed",
    "thm2_undirected",
    "thm3_directed",
    "thm4_classes",
    "thm4_undirected",
    "validate",
    "verify_construction",
    "write_graph",
]
