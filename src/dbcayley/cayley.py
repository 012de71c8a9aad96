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
unseen; widened once should a level pass 254), plus transients.  The
search stops once every vertex is reached, so the last level is counted
but never expanded; dense distances are built only when asked for.

Each level is found top-down, and the map is read the same way
throughout: one shift at a time, in windows of 2**16 entries.  The level
before it is read window by window, taking the vector parts of the
vertices at its code, and expanded: frontier x degree neighbour
evaluations in generator-major chunks of about 2**16 arcs, through the
one neighbour kernel.  A level is counted by one pass over the map, and
the map is the only state kept between levels, so the search costs n
bytes plus window temporaries, a fixed few int64 words per arc of a
window.  Above the state cap the search refuses instead of degrading.

Exports walk the vertices through the same neighbour kernel in blocks of
about as many labels, format each block as ASCII bytes with numpy (one
byte per digit place of the largest label, a byte mask dropping leading
zeros) into buffers allocated once per export, and write those bytes, so
their memory does not grow with the graph; they refuse above the cap in
vertices or in arcs.  Labels are formatted in the narrowest unsigned
dtype that holds n - 1 (at most two bytes a label up to 65,536 vertices),
and an undirected block selects its edges u <= v straight from the
kernel's neighbour block.

A BFS from the identity without distances goes around the level map where
it can: every family of the paper is support-closed (each shift's
generators are a union of coordinate subspaces), so
:mod:`dbcayley.supports` counts its levels from a few antichains of digit
supports.  It takes a set only when the set passes its exact hypothesis
check and the work stays within n subset tests, the level map's n bytes.
Every other set (a support-closed one too where that work would pass n,
as on deep t = 2 sets), and every search from another source or with
distances, runs the dense BFS above, which stays the oracle for arbitrary
sets.  The cap refuses by the vertex count on both routes.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO

import numpy as np

from . import supports
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
    #: how the levels were counted: "dense" (a level map over every vertex)
    #: or "supports" (antichains of digit supports)
    method: str = "dense"


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
    Only digit places where some selected generator has a nonzero digit are
    read.  A call evaluates exactly the rows it is given; sizing them to a
    memory budget is the caller's job.  The kernel reads each generator's
    vector and shift as they are, which a :class:`GeneratorSet` keeps
    canonical.
    """

    def __init__(self, gens: GeneratorSet):
        t, r = gens.params.t, gens.params.r
        self.t, self.r = t, r
        self.base = t**r
        d = len(gens.elements)
        vectors = np.array([vec for vec, _ in gens.elements], dtype=np.int64).reshape(d, r)
        shifts = np.array([shift for _, shift in gens.elements], dtype=np.int64)
        # each vector's code, coordinate 0 least significant; alpha^su
        # rotates the code's top su digits to the bottom
        codes = (vectors * t ** np.arange(r, dtype=np.int64)).sum(axis=1)
        su = np.arange(r, dtype=np.int64)[:, None]
        low = t ** (r - su)
        #: (r, d): the dense index of (alpha^su(v); su + sv) per source shift
        self.addends = (codes % low) * (t**su) + codes // low + (su + shifts) % r * self.base
        #: (d, 2r): carry threshold t - a_i per unrotated digit, twice over,
        #: so columns r - su .. 2r - su are the thresholds rotated by su; a
        #: zero digit gives t, which no digit reaches
        self.thresholds = np.tile(t - vectors, 2)

    def neighbors(self, su: int, vec: np.ndarray, rows: slice | np.ndarray) -> np.ndarray:
        """Neighbour indices of a block through the generators ``rows`` selects.

        ``vec`` holds the vector parts (index minus ``su * t**r``, int64) of
        vertices that all have shift ``su``; ``rows`` is a slice or an array
        of generator positions.  The result has one row per selected
        generator, in the order selected, aligned with ``vec``.
        """
        t = self.t
        addends = self.addends[su, rows]
        if t == 2:
            # the addend's shift offset lies above every vector bit
            return vec ^ addends[:, None]
        r = self.r
        thresholds = self.thresholds[rows, r - su:2 * r - su]
        nb = vec + addends[:, None]
        for place in np.flatnonzero((thresholds < t).any(axis=0)).tolist():
            # the digit is q - t * (q // t): floor division by a scalar is fast
            # where np.remainder is not
            q = vec // t**place if place else vec
            digit = q - q // t * t
            np.subtract(
                nb, t ** (place + 1), out=nb,
                where=digit >= thresholds[:, place, None],
            )
        return nb


def _windows(level_map: np.ndarray, su: int, code: int, base: int):
    """Yield the vector parts of shift ``su``'s vertices at ``code``.

    The shift's map entries are read ``_BLOCK_ARCS`` at a time, so no
    temporary grows with the graph; empty windows are skipped.  Entries of
    a window may be rewritten before the next one is read.
    """
    block = level_map[su * base:(su + 1) * base]
    for lo in range(0, base, _BLOCK_ARCS):
        vec = np.flatnonzero(block[lo:lo + _BLOCK_ARCS] == code)
        if vec.size:
            vec += lo
            yield vec


def _top_down_level(level_map: np.ndarray, kernel: _NeighborKernel, code: int) -> None:
    """Mark ``code`` on every unseen out-neighbour of a vertex at ``code - 1``.

    Each window of the level before goes through every generator row of
    the kernel, in chunks of about ``_BLOCK_ARCS`` arcs, each a slice of
    consecutive rows.
    """
    base = kernel.base
    d = kernel.addends.shape[1]
    for su in range(level_map.size // base):
        for vec in _windows(level_map, su, code - 1, base):
            step = max(1, _BLOCK_ARCS // vec.size)
            for g in range(0, d, step):
                nb = kernel.neighbors(su, vec, slice(g, g + step))
                level_map[nb[level_map[nb] == 0]] = code
                # freed before the next chunk is formed: a window holds one
                # chunk
                del nb


def bfs_from(
    gens: GeneratorSet,
    source: GroupElement,
    cap: int = DEFAULT_STATE_CAP,
    want_distances: bool = False,
) -> BfsResult:
    """Exact eccentricity and per-level counts from an arbitrary source.

    Level-synchronous BFS that stops as soon as every vertex is reached:
    the last level is filled in while the one before it is expanded, and is
    itself never expanded.  Each level is found top-down, by expanding every
    vertex of the level before it through every generator
    (:func:`_top_down_level`).  The level map is the only state carried from
    one level to the next, and it is read in windows (:func:`_windows`).
    """
    params = gens.params
    n = params.order()
    if n > cap:
        raise CapExceededError(n, cap)
    kernel = _NeighborKernel(gens)

    # level + 1 per vertex, 0 while unseen; one byte until a pathological
    # (non-construction) set goes past level 254, then wide enough for n
    level_map = np.zeros(n, dtype=np.uint8)
    level_map[params.encode(source)] = 1
    reached = 1
    histogram = [1]
    while reached < n:
        code = len(histogram) + 1
        if code > np.iinfo(level_map.dtype).max:
            level_map = level_map.astype(np.min_scalar_type(n))
        _top_down_level(level_map, kernel, code)
        # a chunk can reach one vertex twice, so count the level once, here:
        # every vertex seen so far is nonzero in the map
        now = int(np.count_nonzero(level_map))
        if now == reached:
            raise DisconnectedGraphError(n - reached, histogram)
        histogram.append(now - reached)
        reached = now

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


def bfs_from_identity(gens: GeneratorSet, cap: int = DEFAULT_STATE_CAP) -> BfsResult:
    """Exact diameter and distance histogram of the (di)graph.

    For directed sets this is the out-eccentricity of the identity, which
    vertex-transitivity makes equal to the digraph diameter.  Above ``cap``
    vertices it refuses before either route.  The levels are counted from
    the generators' digit supports (:func:`dbcayley.supports.histogram`,
    method ``"supports"``) where the set is support-closed and the work
    stays within n subset tests; otherwise by the dense BFS
    (:func:`bfs_from`, method ``"dense"``), the one that gives distances.
    """
    params = gens.params
    n = params.order()
    if n > cap:
        raise CapExceededError(n, cap)
    histogram = supports.histogram(gens, n)
    if histogram is None:
        return bfs_from(gens, params.identity(), cap=cap)
    if sum(histogram) < n:
        raise DisconnectedGraphError(n - sum(histogram), histogram)
    return BfsResult(diameter=len(histogram) - 1, histogram=histogram, method="supports")


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
    order = spec.group_params().order()
    if run_bfs and order > cap:
        # refused before the generators are listed, as they may not fit
        raise CapExceededError(order, cap)
    gens = build(spec)
    report = validate(gens)
    degree = len(gens.elements)

    diameter: int | None = None
    histogram: list[int] | None = None
    discrepancies: list[str] = []
    if run_bfs:
        try:
            result = bfs_from_identity(gens, cap=cap)
            diameter = result.diameter
            histogram = result.histogram
        except DisconnectedGraphError as exc:
            histogram = exc.histogram
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
        discrepancies=discrepancies,
    )


# --- explicit exports -------------------------------------------------------

def check_export_cap(order: int, degree: int, cap: int = DEFAULT_STATE_CAP) -> None:
    """Refuse an export of ``order`` vertices of out-degree ``degree`` whose
    vertex or arc count exceeds ``cap``."""
    if order > cap:
        raise CapExceededError(order, cap)
    if order * degree > cap:
        raise CapExceededError(order * degree, cap, "arcs")


class _Rows:
    """Rows of decimal labels between fixed ASCII literals, formatted by numpy.

    ``template`` is one row with a NUL byte where each label goes.  A row is
    laid out one byte per digit place: each label gets as many bytes as the
    digits of ``largest``, between its literals; a keep mask of the same
    shape keeps the literals and each label's significant digits.  Both are
    allocated once, with the literals in place, so a block rewrites only its
    label bytes and their masks, and its bytes are one boolean selection of
    the row matrix.  The labels and their digit arithmetic use the narrowest
    unsigned dtype that holds ``largest`` (``np.min_scalar_type``), so a
    label below 2**16 costs two bytes per buffer, not eight.
    """

    def __init__(self, template: bytes, largest: int, capacity: int):
        literals = template.split(b"\0")
        self._digits = len(str(largest))
        row = bytes(self._digits).join(literals)
        # a label's units digit is always kept, its other places per block
        keep = (bytes(self._digits - 1) + b"\1").join(b"\1" * len(lit) for lit in literals)
        #: the column of each label's units digit
        self._units = np.cumsum([len(lit) + self._digits for lit in literals[:-1]],
                                dtype=np.intp) - 1
        #: the labels of the next block, one row per output row, in the
        #: narrowest unsigned dtype that holds ``largest``
        self.values = np.empty((capacity, self._units.size), dtype=np.min_scalar_type(largest))
        self._row = np.empty((capacity, len(row)), dtype=np.uint8)
        self._row[:] = np.frombuffer(row, dtype=np.uint8)
        self._keep = np.empty((capacity, len(row)), dtype=np.bool_)
        self._keep[:] = np.frombuffer(keep, dtype=np.bool_)
        #: two rows of quotients, taken in turn, and one of digits, so that a
        #: block allocates no label-sized temporaries
        self._scratch = np.empty((3, *self.values.shape), dtype=self.values.dtype)

    def write(self, out: IO[bytes], count: int) -> None:
        """Write the first ``count`` rows of :attr:`values` to ``out``."""
        values = self.values[:count]
        rest, digit = values, self._scratch[2, :count]
        for place in range(self._digits):
            columns = self._units - place
            # the digit is rest - 10 * quotient: floor division by a scalar is
            # fast where np.remainder by 10 is not, and the subtraction keeps
            # the unsigned labels from wrapping
            quotient = np.floor_divide(rest, 10, out=self._scratch[place % 2, :count])
            np.multiply(quotient, 10, out=digit)
            np.subtract(rest, digit, out=digit)
            digit += ord("0")
            self._row[:count, columns] = digit
            if place:
                self._keep[:count, columns] = values >= 10**place
            rest = quotient
        out.write(self._row[:count][self._keep[:count]])


def write_graph(
    gens: GeneratorSet,
    fmt: str,
    out: IO[bytes],
    cap: int = DEFAULT_STATE_CAP,
) -> None:
    """Write an explicit encoding of the graph to a binary stream, as ASCII.

    Vertices are labelled by their dense index.  ``edge-list`` emits one
    "u v" line per arc (per edge with u <= v when undirected); ``dot``
    emits a digraph/graph block; ``adjacency`` emits one "u: n1 n2 ..."
    line per vertex with neighbors in generator order.  Output bytes are
    deterministic given the set and format.  Vertices are walked in index
    order, a block of about ``_BLOCK_ARCS`` labels at a time, and each
    block is formatted by numpy (:class:`_Rows`) into buffers allocated
    once, so memory does not grow with the graph.  An undirected block takes
    its edges from the kernel's (vertex, generator) neighbours where v >= u,
    vertex-major in generator order, and writes only those.
    """
    if fmt not in EXPORT_FORMATS:
        raise ParameterError(
            f"unknown export format {fmt!r}; choose one of {', '.join(EXPORT_FORMATS)}"
        )
    params = gens.params
    n = params.order()
    d = len(gens.elements)
    check_export_cap(n, d, cap)
    kernel = _NeighborKernel(gens)
    base = kernel.base
    if fmt == "dot":
        out.write(b"digraph {\n" if gens.directed else b"graph {\n")
        nodes = _Rows(b"  \0;\n", n - 1, min(n, _BLOCK_ARCS))
        for start in range(0, n, _BLOCK_ARCS):
            count = min(_BLOCK_ARCS, n - start)
            nodes.values[:count, 0] = np.arange(start, start + count)
            nodes.write(out, count)
        del nodes  # its buffers go before the edge rows allocate theirs
    # output rows per vertex, and one row with a NUL per label
    if fmt == "adjacency":
        per_vertex, template = 1, b"\0: " + b" ".join([b"\0"] * d) + b"\n"
    elif fmt == "edge-list":
        per_vertex, template = d, b"\0 \0\n"
    else:
        per_vertex, template = d, b"  \0 -> \0;\n" if gens.directed else b"  \0 -- \0;\n"
    # vertices per block, about _BLOCK_ARCS labels; a block never straddles
    # two source shifts
    labels = per_vertex * template.count(0)
    block = min(base, max(1, _BLOCK_ARCS // max(labels, 1)))
    rows = _Rows(template, n - 1, block * per_vertex)

    for su in range(params.r):
        for start in range(0, base, block):
            vec = np.arange(start, min(start + block, base), dtype=np.int64)
            # (generator position, vertex)
            nb = kernel.neighbors(su, vec, slice(None))
            u = vec + su * base
            if fmt == "adjacency":
                count = vec.size
                rows.values[:count, 0] = u
                rows.values[:count, 1:] = nb.T
            elif gens.directed:
                count = nb.size
                arcs = rows.values[:count].reshape(vec.size, d, 2)
                arcs[..., 0] = u[:, None]
                arcs[..., 1] = nb.T
            else:
                # (vertex, generator): the edges u <= v, vertex-major
                nb = nb.T
                keep = nb >= u[:, None]
                count = int(np.count_nonzero(keep))
                rows.values[:count, 0] = np.repeat(u, np.count_nonzero(keep, axis=1))
                rows.values[:count, 1] = nb[keep]
            rows.write(out, count)
    if fmt == "dot":
        out.write(b"}\n")


def export_graph(gens: GeneratorSet, fmt: str, cap: int = DEFAULT_STATE_CAP) -> bytes:
    """Explicit graph encoding as ASCII bytes (LF line endings)."""
    buf = io.BytesIO()
    write_graph(gens, fmt, buf, cap=cap)
    return buf.getvalue()
