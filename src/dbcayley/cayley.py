"""Implicit Cayley (di)graphs: neighbors, identity-rooted BFS, exports.

A generator set is treated as an implicit graph on the whole group: the
out-neighbors of g are g*s for each generator s.  Because Cayley graphs
are vertex-transitive (left translation carries any vertex to the
identity), the eccentricity of the identity equals the diameter, so one
BFS suffices for exact diameter verification.

The BFS works on dense element indices with flat numpy arrays and is
sequential and deterministic: per-level counts are set-based, so the
histogram does not depend on any traversal order.  Memory is one distance
array (4 bytes per group element, 2 below 2**15 elements), a 1-byte-per-
element mask while a level's frontier is extracted, and transient arrays
the size of one shift's share of the frontier.  Each expanded level costs
frontier x degree neighbour evaluations plus one pass over the distance
array.  The search stops once every vertex has a distance, so the last
level, which holds most vertices, is never expanded or scanned.  Above the
state cap the search refuses instead of degrading.  Exports walk the
vertices in blocks through the same neighbour kernel, so their memory
does not grow with the graph.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO

import numpy as np

from .bounds import moore_bound
from .generators import (
    ConstructionSpec,
    GeneratorSet,
    ValidationReport,
    build,
    parse_spec,
    validate,
)
from .group import (
    DEFAULT_STATE_CAP,
    CapExceededError,
    GroupElement,
    ParameterError,
    shift_alpha,
)

EXPORT_FORMATS = ("edge-list", "dot", "adjacency")


class DisconnectedGraphError(RuntimeError):
    """BFS exhausted the reachable set without covering the group.

    All four constructions generate the whole group, so reaching this for
    one of them signals a generator-set bug; the unreachable count and the
    partial histogram are attached.
    """

    def __init__(self, unreachable: int, histogram: list[int]):
        self.unreachable = unreachable
        self.histogram = histogram
        super().__init__(
            f"graph is not connected from the source: {unreachable} vertices unreachable"
        )


@dataclass
class BfsResult:
    diameter: int
    histogram: list[int]
    distances: np.ndarray | None = None

    @property
    def reached(self) -> int:
        return sum(self.histogram)


def neighbors(g: GroupElement, gens: GeneratorSet) -> list[GroupElement]:
    """Out-neighbors [g*s for s in S], in generator order."""
    params = gens.params
    return [params.mul(g, s) for s in gens.elements]


class _NeighborKernel:
    """Right multiplication by every generator, vectorised over index blocks.

    Right-multiplying (x; su) by (v; sv) adds A = alpha^su(v) to x digit by
    digit mod t and moves to shift su + sv, so for each source shift the
    addend is a constant.  On the dense vector part x of a vertex the
    neighbour is x XOR A for t = 2, and otherwise

        x + A - sum over i in nz(A) of t**(i+1) * [digit_i(x) + a_i >= t],

    where the term at i = r-1 subtracts t**r, the wrap of the top digit.
    Only A's nonzero digits are read, each at most once per block.
    """

    def __init__(self, gens: GeneratorSet):
        params = gens.params
        t, r = params.t, params.r
        n = params.order()
        self.t = t
        self.base = t**r
        # per source shift, per generator: the dense index of (A; su + sv),
        # which is A plus the target shift's offset, and one
        # (t**i, t - a_i, t**(i+1)) carry per nonzero digit a_i of A
        self.steps = []
        for su in range(r):
            row = []
            for vec, sv in gens.elements:
                rotated = shift_alpha(vec, su)
                addend = params.encode(GroupElement(rotated, (su + sv) % r), cap=n)
                carries = tuple(
                    (t**i, t - a, t ** (i + 1)) for i, a in enumerate(rotated) if a
                )
                row.append((addend, carries))
            self.steps.append(row)

    def neighbors(self, su: int, vec: np.ndarray):
        """Yield the neighbour indices of a block, one array per generator.

        ``vec`` holds the vector parts (index minus ``su * t**r``, int64) of
        vertices that all have shift ``su``; arrays come in generator order
        and are aligned with ``vec``.
        """
        t = self.t
        digits: dict[int, np.ndarray] = {}
        for addend, carries in self.steps[su]:
            if t == 2:
                # the addend's shift offset lies above every vector bit
                nb = vec ^ addend
            else:
                nb = vec + addend
                for place, threshold, weight in carries:
                    digit = digits.get(place)
                    if digit is None:
                        digit = digits[place] = vec // place % t
                    np.subtract(nb, weight, out=nb, where=digit >= threshold)
            yield nb


def _bfs_distances(
    gens: GeneratorSet, source_index: int, cap: int
) -> tuple[np.ndarray, list[int]]:
    """Every vertex's distance from the source, and the per-level counts.

    Level-synchronous top-down BFS that stops as soon as every vertex has a
    distance: the last level is filled in while the one before it is
    expanded, and is itself never expanded.
    """
    params = gens.params
    r = params.r
    n = params.order()
    if n > cap:
        raise CapExceededError(n, cap)
    kernel = _NeighborKernel(gens)
    base = kernel.base

    # distances are bounded by n - 1, so promote the dtype when a pathological
    # (non-construction) set could push the eccentricity past int16
    dist = np.full(n, -1, dtype=np.int16 if n <= 0x7FFF else np.int32)
    dist[source_index] = 0
    histogram = [1]
    reached = 1
    block_edges = np.arange(r + 1, dtype=np.int64) * base
    while reached < n:
        level = len(histogram)
        frontier = np.flatnonzero(dist == level - 1)
        count = 0
        # indices are shift-major, so a sorted frontier splits into one
        # contiguous segment per source shift
        cuts = np.searchsorted(frontier, block_edges)
        for su in range(r):
            seg = frontier[cuts[su]:cuts[su + 1]]
            if seg.size == 0:
                continue
            for nb in kernel.neighbors(su, seg - su * base):
                fresh = nb[dist[nb] < 0]
                # one generator maps distinct vertices to distinct vertices,
                # so a step's finds are counted exactly once
                count += fresh.size
                dist[fresh] = level
        if count == 0:
            raise DisconnectedGraphError(n - reached, histogram)
        histogram.append(count)
        reached += count
    return dist, histogram


def bfs_from(
    gens: GeneratorSet,
    source: GroupElement,
    cap: int = DEFAULT_STATE_CAP,
    want_distances: bool = False,
) -> BfsResult:
    """Exact eccentricity and per-level counts from an arbitrary source."""
    source_index = gens.params.encode(source, cap=cap)
    dist, histogram = _bfs_distances(gens, source_index, cap)
    return BfsResult(
        diameter=len(histogram) - 1,
        histogram=histogram,
        distances=dist if want_distances else None,
    )


def bfs_from_identity(
    gens: GeneratorSet,
    cap: int = DEFAULT_STATE_CAP,
    want_distances: bool = False,
) -> BfsResult:
    """Exact diameter and distance histogram of the (di)graph.

    For directed sets this is the out-eccentricity of the identity, which
    vertex-transitivity makes equal to the digraph diameter.
    """
    return bfs_from(gens, gens.params.identity(), cap=cap, want_distances=want_distances)


@dataclass
class GraphReport:
    """Verification outcome for one construction instance."""

    spec: ConstructionSpec
    order: int
    degree: int
    directed: bool
    claimed_diameter: int
    diameter: int | None
    histogram: list[int] | None
    moore_ratio: Fraction
    validation: ValidationReport
    unreachable: int = 0
    discrepancies: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.validation.ok and not self.discrepancies


def verify_construction(
    spec: ConstructionSpec | str,
    cap: int = DEFAULT_STATE_CAP,
    run_bfs: bool = True,
) -> GraphReport:
    """Build, validate and (within cap) BFS-verify a construction.

    A computed diameter different from the claimed one is recorded as a
    discrepancy, never hidden; so is any unreachable vertex.  With
    ``run_bfs=False`` only the formula-level report is produced.  The Moore
    ratio is order over the Moore bound at the actual degree and the BFS
    diameter (claimed diameter when BFS was skipped).
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    gens = build(spec)
    report = validate(gens)
    order = gens.params.order()
    degree = len(gens.elements)

    diameter: int | None = None
    histogram: list[int] | None = None
    unreachable = 0
    discrepancies: list[str] = []
    if run_bfs:
        try:
            result = bfs_from_identity(gens, cap=cap)
            diameter = result.diameter
            histogram = result.histogram
        except DisconnectedGraphError as exc:
            histogram = exc.histogram
            unreachable = exc.unreachable
            discrepancies.append(f"{exc.unreachable} vertices unreachable from identity")
        if diameter is not None and diameter != spec.claimed_diameter:
            discrepancies.append(
                f"BFS diameter {diameter} != claimed diameter {spec.claimed_diameter}"
            )

    ratio_diameter = diameter if diameter is not None else spec.claimed_diameter
    ratio = Fraction(order, moore_bound(degree, ratio_diameter, spec.directed))
    return GraphReport(
        spec=spec,
        order=order,
        degree=degree,
        directed=spec.directed,
        claimed_diameter=spec.claimed_diameter,
        diameter=diameter,
        histogram=histogram,
        moore_ratio=ratio,
        validation=report,
        unreachable=unreachable,
        discrepancies=discrepancies,
    )


# --- explicit exports -------------------------------------------------------

#: arcs formatted per write, so an export's memory is bounded whatever the degree
_EXPORT_ARCS = 1 << 16


def write_graph(
    gens: GeneratorSet,
    fmt: str,
    out: IO[str],
    cap: int = DEFAULT_STATE_CAP,
) -> None:
    """Write an explicit encoding of the graph to a text stream.

    Vertices are labelled by their dense index.  ``edge-list`` emits one
    "u v" line per arc (per edge with u <= v when undirected); ``dot``
    emits a digraph/graph block; ``adjacency`` emits one "u: n1 n2 ..."
    line per vertex with neighbors in generator order.  Output bytes are
    deterministic given the set and format.  Vertices are walked in index
    order, a block of about ``_EXPORT_ARCS`` arcs at a time, so memory does
    not grow with the graph.
    """
    if fmt not in EXPORT_FORMATS:
        raise ParameterError(
            f"unknown export format {fmt!r}; choose one of {', '.join(EXPORT_FORMATS)}"
        )
    params = gens.params
    n = params.order()
    if n > cap:
        raise CapExceededError(n, cap)
    kernel = _NeighborKernel(gens)
    base = kernel.base
    d = len(gens.elements)
    # vertices per block; a block never straddles two source shifts
    block = max(1, _EXPORT_ARCS // max(d, 1))
    if fmt == "adjacency":
        line = "%d: " + " ".join(["%d"] * d) + "\n"
    elif fmt == "edge-list":
        line = "%d %d\n"
    else:
        line = "  %d -> %d;\n" if gens.directed else "  %d -- %d;\n"
        out.write("digraph {\n" if gens.directed else "graph {\n")
        for start in range(0, n, block):
            stop = min(start + block, n)
            out.write(("  %d;\n" * (stop - start)) % tuple(range(start, stop)))

    for su in range(params.r):
        for start in range(0, base, block):
            vec = np.arange(start, min(start + block, base), dtype=np.int64)
            rows = np.empty((vec.size, d), dtype=np.int64)
            for j, nb in enumerate(kernel.neighbors(su, vec)):
                rows[:, j] = nb
            u = vec + su * base
            if fmt == "adjacency":
                fields = np.column_stack((u, rows))
            else:
                sources = np.broadcast_to(u[:, None], rows.shape)
                if not gens.directed:
                    keep = sources <= rows
                    sources, rows = sources[keep], rows[keep]
                fields = np.column_stack((sources.ravel(), rows.ravel()))
            out.write((line * len(fields)) % tuple(fields.ravel().tolist()))
    if fmt == "dot":
        out.write("}\n")


def export_graph(gens: GeneratorSet, fmt: str, cap: int = DEFAULT_STATE_CAP) -> bytes:
    """Explicit graph encoding as ASCII bytes (LF line endings)."""
    buf = io.StringIO()
    write_graph(gens, fmt, buf, cap=cap)
    return buf.getvalue().encode("ascii")
