"""Implicit Cayley (di)graphs: neighbors, identity-rooted BFS, exports.

A generator set is treated as an implicit graph on the whole group: the
out-neighbors of g are g*s for each generator s.  Because Cayley graphs
are vertex-transitive (left translation carries any vertex to the
identity), the eccentricity of the identity equals the diameter, so one
BFS suffices for exact diameter verification.

The BFS works on dense element indices with flat numpy arrays and is
sequential and deterministic: per-level counts are set-based, so the
histogram does not depend on any traversal order.  Memory is one level map
of 1 byte per group element (a vertex's distance plus one, 0 while
unseen; widened once should a level pass 254), a second byte per element
while the next frontier is extracted, and the frontier's indices.
Neighbours are computed in generator-major chunks of about 2**16 arcs, so
transient arrays stay small whatever the degree.  Each level is counted by
one pass over the level map, and each expanded level also costs frontier x
degree neighbour evaluations and one pass to extract its frontier.  The
search stops once every vertex is reached, so the last level, which holds
most vertices, is counted but never expanded; dense distances are built
only when asked for.  Above the state cap the search refuses instead of
degrading.  Exports walk the vertices through the same neighbour kernel in
chunks of the same size, so their memory does not grow with the graph, and
refuse above the cap in vertices or in arcs.
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


#: arcs per neighbour chunk, in BFS and export alike, so memory is bounded
#: whatever the degree
_BLOCK_ARCS = 1 << 16


class _NeighborKernel:
    """Right multiplication by every generator, vectorised over index blocks.

    Right-multiplying (x; su) by (v; sv) adds A = alpha^su(v) to x digit by
    digit mod t and moves to shift su + sv, so for each source shift the
    addend is a constant.  On the dense vector part x of a vertex the
    neighbour is x XOR A for t = 2, and otherwise

        x + A - sum over i in nz(A) of t**(i+1) * [digit_i(x) + a_i >= t],

    where the term at i = r-1 subtracts t**r, the wrap of the top digit.
    Only digit places where some generator of a chunk has a nonzero digit
    are read, each at most once per call.
    """

    def __init__(self, gens: GeneratorSet, chunk_arcs: int = _BLOCK_ARCS):
        params = gens.params
        t, r = params.t, params.r
        n = params.order()
        self.t = t
        self.base = t**r
        self.chunk_arcs = chunk_arcs
        d = len(gens.elements)
        # vector codes of the generators, and their target-shift offsets per
        # source shift; alpha^su rotates the code's top su digits to the bottom
        codes = np.array(
            [params.encode(GroupElement(vec, 0), cap=n) for vec, _ in gens.elements],
            dtype=np.int64,
        )
        shifts = np.array([sv for _, sv in gens.elements], dtype=np.int64)
        su = np.arange(r, dtype=np.int64)[:, None]
        low = t ** (r - su)
        #: (r, d): the dense index of (alpha^su(v); su + sv) per source shift
        self.addends = (codes % low) * (t**su) + codes // low + (su + shifts) % r * self.base
        #: (d, r): carry threshold t - a_i per unrotated digit; a zero digit
        #: gives t, which no digit reaches
        vectors = np.array([vec for vec, _ in gens.elements], dtype=np.int64)
        self.thresholds = t - vectors.reshape(d, r)

    def neighbors(self, su: int, vec: np.ndarray):
        """Yield the neighbour indices of a block in generator-major chunks.

        ``vec`` holds the vector parts (index minus ``su * t**r``, int64) of
        vertices that all have shift ``su``.  Each chunk is a 2-D array of
        about ``chunk_arcs`` arcs, one row per generator (in generator order)
        aligned with ``vec``; a block of more than ``chunk_arcs`` vertices
        gets one row per chunk.
        """
        t = self.t
        addends = self.addends[su]
        rows = max(1, self.chunk_arcs // max(vec.size, 1))
        if t == 2:
            # the addend's shift offset lies above every vector bit
            for g in range(0, addends.size, rows):
                yield vec ^ addends[g:g + rows, None]
            return
        thresholds = np.roll(self.thresholds, su, axis=1)
        digits: dict[int, np.ndarray] = {}
        for g in range(0, addends.size, rows):
            nb = vec + addends[g:g + rows, None]
            chunk = thresholds[g:g + rows]
            for place in np.flatnonzero((chunk < t).any(axis=0)).tolist():
                digit = digits.get(place)
                if digit is None:
                    digit = digits[place] = vec // t**place % t
                np.subtract(
                    nb, t ** (place + 1), out=nb, where=digit >= chunk[:, place, None]
                )
            yield nb


def _bfs_levels(
    gens: GeneratorSet, source_index: int, cap: int
) -> tuple[np.ndarray, list[int]]:
    """Every vertex's level code, and the per-level counts.

    Level-synchronous top-down BFS that stops as soon as every vertex is
    reached: the last level is filled in while the one before it is
    expanded, and is itself never expanded.  The returned map holds each
    vertex's distance plus one.
    """
    params = gens.params
    r = params.r
    n = params.order()
    if n > cap:
        raise CapExceededError(n, cap)
    kernel = _NeighborKernel(gens)
    base = kernel.base

    # level + 1 per vertex, 0 while unseen; one byte until a pathological
    # (non-construction) set goes past level 254, then wide enough for n
    level_map = np.zeros(n, dtype=np.uint8)
    level_map[source_index] = 1
    frontier = np.array([source_index], dtype=np.int64)
    histogram = [1]
    reached = 1
    block_edges = np.arange(r + 1, dtype=np.int64) * base
    while reached < n:
        code = len(histogram) + 1
        if code > np.iinfo(level_map.dtype).max:
            level_map = level_map.astype(np.min_scalar_type(n))
        # indices are shift-major, so a sorted frontier splits into one
        # contiguous segment per source shift
        cuts = np.searchsorted(frontier, block_edges)
        for su in range(r):
            seg = frontier[cuts[su]:cuts[su + 1]]
            if seg.size == 0:
                continue
            for nb in kernel.neighbors(su, seg - su * base):
                level_map[nb[level_map[nb] == 0]] = code
        # a chunk can reach one vertex twice, so count the level once, here:
        # every vertex seen so far is nonzero in the map
        count = int(np.count_nonzero(level_map)) - reached
        if count == 0:
            raise DisconnectedGraphError(n - reached, histogram)
        histogram.append(count)
        reached += count
        if reached < n:
            frontier = np.flatnonzero(level_map == code)
    return level_map, histogram


def bfs_from(
    gens: GeneratorSet,
    source: GroupElement,
    cap: int = DEFAULT_STATE_CAP,
    want_distances: bool = False,
) -> BfsResult:
    """Exact eccentricity and per-level counts from an arbitrary source."""
    source_index = gens.params.encode(source, cap=cap)
    level_map, histogram = _bfs_levels(gens, source_index, cap)
    distances = None
    if want_distances:
        # the narrowest signed dtype that holds every level code
        distances = level_map.astype(np.result_type(level_map.dtype, np.int8))
        distances -= 1
    return BfsResult(
        diameter=len(histogram) - 1,
        histogram=histogram,
        distances=distances,
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

def check_export_cap(gens: GeneratorSet, cap: int = DEFAULT_STATE_CAP) -> None:
    """Refuse an export whose vertex or arc count exceeds ``cap``."""
    n = gens.params.order()
    if n > cap:
        raise CapExceededError(n, cap)
    arcs = n * len(gens.elements)
    if arcs > cap:
        raise CapExceededError(arcs, cap, "arcs")


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
    order, a block of about ``_BLOCK_ARCS`` arcs at a time, so memory does
    not grow with the graph.
    """
    if fmt not in EXPORT_FORMATS:
        raise ParameterError(
            f"unknown export format {fmt!r}; choose one of {', '.join(EXPORT_FORMATS)}"
        )
    check_export_cap(gens, cap)
    params = gens.params
    n = params.order()
    kernel = _NeighborKernel(gens)
    base = kernel.base
    d = len(gens.elements)
    # vertices per block; a block never straddles two source shifts
    block = max(1, _BLOCK_ARCS // max(d, 1))
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
            # (vertex, generator position); the empty head covers d = 0
            rows = np.concatenate(
                [np.empty((0, vec.size), dtype=np.int64), *kernel.neighbors(su, vec)]
            ).T
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
