"""Large Cayley graphs and digraphs from shift groups.

Exact constructions on Z_t^r ⋊ Z_r for the degree-diameter problem, with
BFS-verified diameters, explicit graph exports, and exact-arithmetic
comparisons against prior constructions and the Moore bound.

The package root imports each module on first use of a name it defines,
so ``import dbcayley`` alone loads no numpy; only :mod:`dbcayley.cayley`
imports it.
"""

import importlib

__version__ = "0.1.0"

#: the public names, by the module that defines them
_EXPORTS = {
    "bounds": (
        "BoundRow", "CorollaryCertificate", "OptimalEll", "compare",
        "competitor_orders", "corollary_certificate", "corollary_lower_bound",
        "debruijn_order", "exact_log2_le", "log2_enclosure", "moore_bound",
        "optimal_ell",
    ),
    "cayley": (
        "BfsResult", "DisconnectedGraphError", "GraphReport", "bfs_from",
        "bfs_from_identity", "export_graph", "neighbors", "verify_construction",
        "write_graph",
    ),
    "generators": (
        "ConstructionSpec", "CorollarySelection", "GeneratorClassOverlapError",
        "GeneratorSet", "SpecParseError", "ValidationReport", "build",
        "corollary_params", "parse_spec", "thm1_directed", "thm2_undirected",
        "thm3_directed", "thm4_classes", "thm4_undirected", "validate",
    ),
    "group": (
        "DEFAULT_STATE_CAP", "CapExceededError", "GroupElement", "GroupParams",
        "ParameterError", "shift_alpha",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    # bound here, so later lookups no longer reach this hook
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
