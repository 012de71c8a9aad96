"""Implicit-graph operations: BFS, reports, exports."""

import hashlib
import io
import itertools
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbcayley import (
    CapExceededError,
    DisconnectedGraphError,
    GeneratorSet,
    GroupElement,
    GroupParams,
    ParameterError,
    bfs_from,
    bfs_from_identity,
    build,
    export_graph,
    neighbors,
    parse_spec,
    thm1_directed,
    thm2_undirected,
    thm3_directed,
    thm4_undirected,
    verify_construction,
)
from dbcayley import cayley
from dbcayley.cayley import _BLOCK_ARCS, _NeighborKernel, check_export_cap

SMALL_SPECS = [
    "thm1:k=4,d=3",
    "thm2:k=4,d=5",
    "thm3:k=2,l=2,t=2,m=1",
    "thm3:k=3,l=2,t=2,m=1",
    "thm4:k=2,l=2,t=2,m=1",
]


def adjacency_from_edge_list(data: bytes, n: int, directed: bool):
    adj = [[] for _ in range(n)]
    for line in data.decode("ascii").splitlines():
        u, v = map(int, line.split())
        adj[u].append(v)
        if not directed:
            adj[v].append(u)
    return adj


# --- neighbors -----------------------------------------------------------------

def test_neighbors_of_identity_is_the_set():
    gens = thm1_directed(4, 3)
    assert neighbors(gens.params.identity(), gens) == list(gens.elements)


def test_neighbors_regular_outdegree():
    gens = thm1_directed(4, 3)
    for el in gens.params.elements():
        out = neighbors(el, gens)
        assert len(out) == 3
        assert len(set(out)) == 3  # right translation is injective


def test_neighbors_rejects_mismatched_element():
    gens = thm1_directed(4, 3)
    other = GroupParams(2, 4).identity()
    with pytest.raises(ParameterError):
        neighbors(other, gens)


def test_undirected_adjacency_is_symmetric():
    gens = thm4_undirected(2, 2, 2, 1)
    params = gens.params
    adjacency = {
        el: set(neighbors(el, gens)) for el in params.elements()
    }
    for u, nbrs in adjacency.items():
        for v in nbrs:
            assert u in adjacency[v]


# --- BFS -------------------------------------------------------------------------

def test_bfs_thm1_histogram():
    gens = thm1_directed(4, 3)
    result = bfs_from_identity(gens)
    assert result.diameter == 4
    assert sum(result.histogram) == 24
    assert result.histogram[0] == 1
    assert result.histogram[1] == len(gens.elements)


def test_bfs_specific_deep_vertex():
    gens = thm1_directed(4, 3)
    result = bfs_from(gens, gens.params.identity(), want_distances=True)
    idx = gens.params.encode(gens.params.element([1, 1, 1], 2))
    assert result.distances[idx] == 4


def test_bfs_thm3_histogram_exact():
    result = bfs_from_identity(thm3_directed(2, 2, 2, 1))
    assert result.histogram == [1, 7, 16]
    assert result.diameter == 2


@pytest.mark.parametrize("spec_text,diameter", [
    ("thm1:k=4,d=3", 4),
    ("thm1:k=5,d=4", 5),
    ("thm2:k=4,d=5", 4),
    ("thm3:k=2,l=2,t=2,m=1", 2),
    ("thm3:k=3,l=2,t=2,m=1", 3),
    ("thm4:k=2,l=2,t=2,m=1", 2),
])
def test_bfs_diameters(spec_text, diameter):
    gens = build(parse_spec(spec_text))
    result = bfs_from_identity(gens)
    assert result.diameter == diameter
    assert sum(result.histogram) == gens.params.order()


def test_bfs_non_binary_t():
    gens = thm1_directed(4, 4)  # t = 3
    result = bfs_from_identity(gens)
    assert gens.params.order() == 81
    assert result.diameter == 4
    assert sum(result.histogram) == 81


def test_bfs_refuses_above_cap():
    gens = thm3_directed(3, 9, 2, 3)  # order 44,040,192
    with pytest.raises(CapExceededError) as excinfo:
        bfs_from_identity(gens, cap=1_000_000)
    assert excinfo.value.required == 44_040_192
    # bfs_from refuses on its own when called directly
    gens = thm1_directed(4, 3)  # order 24
    with pytest.raises(CapExceededError) as excinfo:
        bfs_from(gens, gens.params.identity(), cap=23)
    assert excinfo.value.required == 24


def test_bfs_reports_unreachable_for_non_generating_set():
    params = GroupParams(2, 3)
    lone = GeneratorSet(params, (params.element([0, 0, 0], 1),), directed=True)
    with pytest.raises(DisconnectedGraphError) as excinfo:
        bfs_from_identity(lone)
    assert excinfo.value.unreachable == 21  # the shift subgroup has 3 elements
    assert excinfo.value.histogram == [1, 1, 1]


def test_vertex_transitivity_spot_check():
    rng = random.Random(3)
    for spec_text in ["thm3:k=3,l=2,t=2,m=1", "thm1:k=4,d=5", "thm2:k=4,d=9"]:
        gens = build(parse_spec(spec_text))
        baseline = bfs_from_identity(gens).histogram
        order = gens.params.order()
        for _ in range(10):
            source = gens.params.decode(rng.randrange(order))
            assert bfs_from(gens, source).histogram == baseline


def test_bfs_deterministic_across_runs():
    gens = thm2_undirected(5, 8)
    first = bfs_from_identity(gens)
    second = bfs_from_identity(gens)
    assert first.histogram == second.histogram == list(second.histogram)


def test_diameter_equals_claim_across_families():
    # every family instance checked so far attains its claimed diameter
    # exactly; any strict inequality must surface, so pin the equality here
    for k in (4, 5):
        for d in range(k + 1, k + 12):
            gens = thm2_undirected(k, d)
            if gens.params.order() > 60_000:
                continue
            assert bfs_from_identity(gens).diameter == k, (k, d)
    for k in (2, 3):
        for ell in (2, 3):
            for t in (2, 3):
                for m in range(1, ell):
                    r = (k - 1) * ell + m
                    if r * t**r > 60_000:
                        continue
                    assert bfs_from_identity(thm3_directed(k, ell, t, m)).diameter == k
                    if m == 1:
                        assert bfs_from_identity(thm4_undirected(k, ell, t, m)).diameter == k


def test_distances_fill_the_last_level():
    # the search stops before expanding the last level; that level must
    # still be written into the distance array
    for spec_text, histogram in [
        ("thm1:k=4,d=7", [1, 7, 45, 270, 325]),
        ("thm1:k=6,d=7", [1, 7, 33, 174, 666, 1998, 2241]),
        ("thm2:k=5,d=11", [1, 11, 72, 384, 1136, 896]),
        ("thm3:k=3,l=2,t=3,m=1", [1, 20, 234, 960]),
        ("thm4:k=3,l=2,t=3,m=1", [1, 34, 364, 816]),
        ("thm1:k=4,d=10", [1, 10, 96, 864, 1216]),
        ("thm2:k=5,d=21", [1, 21, 252, 2709, 15876, 21141]),
        ("thm3:k=3,l=7,t=2,m=3", [1, 255, 41368, 2186600]),
    ]:
        gens = build(parse_spec(spec_text))
        result = bfs_from(gens, gens.params.identity(), want_distances=True)
        assert result.histogram == histogram, spec_text
        assert np.bincount(result.distances).tolist() == histogram, spec_text
        assert all(type(count) is int for count in result.histogram)


def scalar_levels(gens, source):
    """Distance of every vertex reachable from ``source``, by a scalar BFS over ``neighbors``."""
    expected = {source: 0}
    level = [source]
    while level:
        nxt = []
        for g in level:
            for h in neighbors(g, gens):
                if h not in expected:
                    expected[h] = expected[g] + 1
                    nxt.append(h)
        level = nxt
    return expected


def scalar_distances(gens, source):
    """Distances from ``source`` in index order, by a scalar BFS over ``neighbors``."""
    params = gens.params
    expected = scalar_levels(gens, source)
    return [expected[params.decode(u)] for u in range(params.order())]


def test_bfs_from_non_identity_source_matches_scalar_bfs():
    for spec_text in ["thm1:k=4,d=6", "thm2:k=4,d=9", "thm3:k=3,l=2,t=2,m=1"]:
        gens = build(parse_spec(spec_text))
        params = gens.params
        source = params.decode(params.order() - 5)
        result = bfs_from(gens, source, want_distances=True)
        assert scalar_distances(gens, source) == result.distances.tolist(), spec_text


def test_bfs_past_level_254_widens_the_level_map():
    # two generators, one adding 1 to the first digit and one shifting, give
    # a diameter of 2 * 130 = 260: levels past 254 need more than one byte
    params = GroupParams(130, 2)
    gens = GeneratorSet(
        params, (params.element([1, 0], 0), params.element([0, 0], 1)), directed=True
    )
    assert params.order() == 33_800
    result = bfs_from(gens, params.identity(), want_distances=True)
    assert result.diameter == 260
    assert result.distances.tolist() == scalar_distances(gens, params.identity())
    assert np.bincount(result.distances).tolist() == result.histogram


def test_bfs_peak_memory_follows_the_level_map_model():
    # one byte of level map per vertex, plus the kernel's int64 tables, (r, d)
    # addends and (d, 2r) thresholds, plus window temporaries of at most
    # per_arc bytes per arc of a _BLOCK_ARCS window.  For t = 2 that is 34:
    # the window's frontier indices, a chunk of neighbour indices, the
    # positions of its unseen entries and those entries (four int64 words),
    # and the gathered map bytes with their mask.  For t > 2 it is 40: while
    # the kernel takes a digit, the frontier indices and the neighbour chunk
    # live with the quotient, its floor by t and the digit (five int64 words
    # when a window's chunk is one generator row, as in thm1:k=4,d=70's full
    # windows; at place 0 the quotient is the frontier indices themselves, so
    # thm1 peaks near 32).  An n-byte frontier mask does not fit
    for spec_text, histogram, per_arc in [
        ("thm3:k=3,l=7,t=2,m=3", [1, 255, 41368, 2186600], 34),
        ("thm1:k=4,d=70", [1, 70, 4896, 337824, 642736], 40),
    ]:
        gens = build(parse_spec(spec_text))
        n, r, d = gens.params.order(), gens.params.r, len(gens.elements)
        tracemalloc.start()
        try:
            assert bfs_from(gens, gens.params.identity()).histogram == histogram
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = n + per_arc * _BLOCK_ARCS + 3 * 8 * r * d
        assert peak <= bound, (spec_text, (peak - n) / _BLOCK_ARCS)


@st.composite
def bfs_cases(draw):
    """A small group, a directed generator list (generating or not) and a source."""
    t = draw(st.integers(2, 5))
    r = draw(st.integers(2, 4))
    params = GroupParams(t, r)
    element = st.builds(
        params.element,
        st.lists(st.integers(0, t - 1), min_size=r, max_size=r),
        st.integers(0, r - 1),
    )
    gens = GeneratorSet(params, tuple(draw(st.lists(element, max_size=6))), directed=True)
    source = params.decode(draw(st.integers(0, params.order() - 1)))
    return gens, source


def _check_bfs_against_scalar(gens, source):
    """Distances and histogram, or the disconnection fields, equal the scalar BFS's
    at block sizes of 1, 7 and the real one."""
    params = gens.params
    n = params.order()
    levels = scalar_levels(gens, source)
    histogram = np.bincount(list(levels.values())).tolist()
    for block_arcs in (1, 7, _BLOCK_ARCS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cayley, "_BLOCK_ARCS", block_arcs)
            if len(levels) == n:
                result = bfs_from(gens, source, want_distances=True)
                assert result.distances.tolist() == [
                    levels[params.decode(u)] for u in range(n)
                ], block_arcs
                assert result.histogram == histogram, block_arcs
            else:
                with pytest.raises(DisconnectedGraphError) as excinfo:
                    bfs_from(gens, source)
                assert excinfo.value.unreachable == n - len(levels), block_arcs
                assert excinfo.value.histogram == histogram, block_arcs


@settings(max_examples=100, deadline=None)
@given(bfs_cases())
def test_dense_bfs_matches_scalar_bfs_at_block_sizes_1_7_and_2_16(case):
    # groups of 8 to 2,500 vertices: block sizes of 1 and 7 split every
    # shift into windows and a window's generators into chunks, and the real
    # size splits neither here
    _check_bfs_against_scalar(*case)


@st.composite
def pure_shift_cases(draw):
    """A case of :func:`bfs_cases` with one to three pure shifts (0; s) added,
    the identity (s = 0) among them at times, in a random generator order."""
    gens, source = draw(bfs_cases())
    params = gens.params
    shifts = draw(st.lists(st.integers(0, params.r - 1), min_size=1, max_size=3))
    elements = [*gens.elements, *(params.element([0] * params.r, s) for s in shifts)]
    gens = GeneratorSet(params, tuple(draw(st.permutations(elements))), directed=True)
    return gens, source


@settings(max_examples=60, deadline=None)
@given(pure_shift_cases())
def test_bfs_with_pure_shifts_matches_scalar_bfs(case):
    # pure shifts change only the shift part of a vertex: here the identity
    # is at times among them, a shift may repeat, and a block size of 7
    # leaves a short last window in shift blocks of 9 to 625 entries
    _check_bfs_against_scalar(*case)



@st.composite
def coset_cases(draw):
    """A directed set in which one to three shifts carry every vector on a
    random cyclic interval of digit places, plus up to three random rows, in
    a random generator order, and a source.  The zero vector is at times
    left out (at shift 0 it is the identity), and such a shift then carries
    every vector on its interval but that one."""
    t = draw(st.integers(2, 3))
    r = draw(st.integers(2, 4))
    params = GroupParams(t, r)
    elements = []
    for sv in draw(st.lists(st.integers(0, r - 1), min_size=1, max_size=3, unique=True)):
        start = draw(st.integers(0, r - 1))
        width = draw(st.integers(1, r if t == 2 else 2))
        places = [(start + i) % r for i in range(width)]
        for digits in itertools.product(range(t), repeat=len(places)):
            vec = [0] * r
            for place, digit in zip(places, digits):
                vec[place] = digit
            if any(vec) or draw(st.booleans()):
                elements.append(params.element(vec, sv))
    extra = st.builds(
        params.element,
        st.lists(st.integers(0, t - 1), min_size=r, max_size=r),
        st.integers(0, r - 1),
    )
    elements += draw(st.lists(extra, max_size=3))
    gens = GeneratorSet(params, tuple(draw(st.permutations(elements))), directed=True)
    source = params.decode(draw(st.integers(0, params.order() - 1)))
    return gens, source


def _shift_zero_case():
    """Shift 0 carries every vector on places 0 and 1 but the zero vector,
    shift 1 two rows on place 0 without it; from (0,0,1;0)."""
    params = GroupParams(3, 3)
    elements = [params.element([a, b, 0], 0) for a in range(3) for b in range(3) if a or b]
    elements += [params.element([a, 0, 0], 1) for a in (1, 2)]
    return GeneratorSet(params, tuple(elements), directed=True), params.element([0, 0, 1], 0)


@settings(max_examples=80, deadline=None)
@given(coset_cases())
@example(_shift_zero_case())
def test_dense_bfs_matches_scalar_bfs_with_every_vector_on_cyclic_intervals(case):
    # groups of 8 to 324 vertices and up to 51 generators, in which one to
    # three shifts carry every vector on a cyclic interval of places: the
    # frontier vertices that differ only on that interval share their
    # neighbours through those rows, so a chunk marks one vertex many times
    # and the level must count it once.  A block size of 1 leaves one vertex
    # per window, 7 several, and the real size a whole shift block.  In the
    # example shift 0 carries every vector on places 0 and 1 but the zero
    # vector, so a frontier vertex reaches every vertex that differs from it
    # only there, but not itself
    _check_bfs_against_scalar(*case)


def test_top_down_chunks_follow_the_block_size(monkeypatch):
    # _BLOCK_ARCS is read when a level runs: at one arc per block, every
    # window of the three levels before the last (1, 19 and 196 vertices)
    # holds one vertex and is expanded one of the 19 generator rows at a time
    levels, rows = [], []
    kernel_neighbors = _NeighborKernel.neighbors
    top_down_level = cayley._top_down_level

    def spy(self, su, vec, selected):
        nb = kernel_neighbors(self, su, vec, selected)
        rows.append(len(nb))
        return nb

    def top_down(*args):
        levels.append(args[-1])
        return top_down_level(*args)

    monkeypatch.setattr(_NeighborKernel, "neighbors", spy)
    monkeypatch.setattr(cayley, "_top_down_level", top_down)
    monkeypatch.setattr(cayley, "_BLOCK_ARCS", 1)
    gens = build(parse_spec("thm3:k=3,l=3,t=2,m=1"))
    result = bfs_from(gens, gens.params.identity())
    assert result.histogram == [1, 19, 196, 680]
    assert levels == [2, 3, 4]
    assert len(rows) == 19 * (1 + 19 + 196) == 4104
    assert set(rows) == {1}


def test_bfs_refuses_non_canonical_generators():
    # with t = 2 the coordinate 3 would alias 1, so this set would reach
    # [1, 2, 4, 7, 7, 3] where its canonical form reaches [1, 2, 4, 6, 7, 4];
    # it is refused when the set is built, as are a shift out of range (4
    # would alias 1) and a vector of length r - 1, so neither BFS route can
    # be handed one
    params = GroupParams(2, 3)
    pure = GroupElement((0, 0, 0), 2)
    for first in (GroupElement((3, 0, 0), 1), GroupElement((1, 0, 0), 4),
                  GroupElement((1, 0), 1)):
        with pytest.raises(ParameterError, match="generators must be canonical"):
            GeneratorSet(params, (first, pure), directed=True)
    canonical = GeneratorSet(params, (params.element((3, 0, 0), 1), pure), directed=True)
    assert bfs_from_identity(canonical).histogram == [1, 2, 4, 6, 7, 4]
    assert bfs_from(canonical, params.identity(), want_distances=True).histogram == [
        1, 2, 4, 6, 7, 4]


def test_bfs_from_identity_encodes_only_its_source(monkeypatch):
    # the support route reads the generators' vectors and encodes nothing;
    # the dense BFS, where that route declines and in bfs_from's search
    # with distances, reads them the same way for its kernel and encodes
    # only its source, the identity
    encoded = []
    encode = GroupParams.encode

    def spy(self, g):
        encoded.append(g)
        return encode(self, g)

    monkeypatch.setattr(GroupParams, "encode", spy)
    closed = build(parse_spec("thm3:k=3,l=3,t=2,m=1"))
    params = GroupParams(2, 3)
    unclosed = GeneratorSet(
        params, (params.element((1, 0, 0), 1), params.element((0, 0, 0), 2)), directed=True
    )
    for gens, method in ((closed, "supports"), (unclosed, "dense")):
        encoded.clear()
        assert bfs_from_identity(gens).method == method
        assert encoded == ([gens.params.identity()] if method == "dense" else [])
    encoded.clear()
    assert bfs_from(closed, closed.params.identity(), want_distances=True).method == "dense"
    assert encoded == [closed.params.identity()]


# --- neighbour kernel ------------------------------------------------------------

@st.composite
def kernel_cases(draw):
    """A group, a generator list, one block and a selection of generator rows.

    Generator vectors are dense (every digit random) or sparse (mostly zero
    digits); t > 0x7FFF, with r = 2, is the range where a narrow per-digit
    dtype would overflow.  The rows are a slice in generator order or an
    array of positions in a random order, either of them possibly empty.
    """
    t = draw(st.one_of(st.integers(2, 7), st.integers(0x8000, 0x10000)))
    r = 2 if t > 0x7FFF else draw(st.integers(2, 6))
    params = GroupParams(t, r)
    digit = st.integers(0, t - 1)
    sparse_digit = st.one_of(st.just(0), st.just(0), st.just(0), digit)
    vector = st.lists(digit if draw(st.booleans()) else sparse_digit, min_size=r, max_size=r)
    elements = draw(st.lists(st.tuples(vector, st.integers(0, r - 1)), max_size=6))
    gens = GeneratorSet(
        params, tuple(params.element(vec, sv) for vec, sv in elements), directed=True
    )
    block = draw(st.lists(st.integers(0, t**r - 1), max_size=40))
    d = len(elements)
    if draw(st.booleans()):
        start = draw(st.integers(0, d))
        rows = slice(start, draw(st.integers(start, d + 2)))
    else:
        order = draw(st.permutations(range(d)))
        rows = np.array(order[:draw(st.integers(0, d))], dtype=np.int64)
    return gens, block, rows


def _check_kernel(gens, block, rows):
    params = gens.params
    base = params.t**params.r
    kernel = _NeighborKernel(gens)
    vec = np.array(block, dtype=np.int64)
    expected_gens = [gens.elements[j] for j in np.arange(len(gens.elements))[rows]]
    for su in range(params.r):
        produced = kernel.neighbors(su, vec, rows)
        assert produced.shape == (len(expected_gens), len(block))
        for s, row in zip(expected_gens, produced.tolist()):
            expected = [
                params.encode(params.mul(params.decode(su * base + x), s))
                for x in block
            ]
            assert row == expected, (su, s)


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_kernel_matches_scalar_mul(case):
    _check_kernel(*case)


@pytest.mark.parametrize("t,r", [(2, 5), (3, 4), (7, 3), (0x8001, 2)])
def test_kernel_carries_every_digit(t, r):
    # (t-1, ..., t-1) plus an all-nonzero addend carries out of every digit,
    # including the top one, which wraps by t**r
    params = GroupParams(t, r)
    gens = GeneratorSet(
        params,
        (params.element([t - 1] * r, 0), params.element(range(1, r + 1), r - 1)),
        directed=True,
    )
    for rows in (slice(None), slice(1, 2), slice(2, 2), np.array([1, 0]),
                 np.array([], dtype=np.int64)):
        _check_kernel(gens, [t**r - 1, 0, t**r - 2, 1], rows)
        _check_kernel(gens, [], rows)


# --- verify_construction ----------------------------------------------------------

def test_verify_report_fields():
    report = verify_construction("thm2:k=4,d=5")
    assert report.order == 24
    assert report.degree == 4
    assert not report.directed
    assert report.diameter == 4
    assert report.claimed_diameter == 4
    assert sum(report.histogram) == 24
    assert report.validation.ok
    assert report.discrepancies == []
    assert report.ok
    assert report.moore_ratio.denominator > 0


def test_verify_without_bfs():
    report = verify_construction("thm3:k=3,l=9,t=2,m=3", run_bfs=False)
    assert report.order == 44_040_192
    assert report.degree == 671
    assert report.diameter is None
    assert report.histogram is None


def test_verify_reports_a_diameter_other_than_k(monkeypatch):
    # thm1:k=4,d=3 has 24 vertices of degree 3; the Moore ratio is taken at
    # the BFS diameter: 24 / (1 + 3 + ... + 3^5) = 6/91
    deeper = cayley.BfsResult(diameter=5, histogram=[1, 3, 6, 9, 4, 1])
    monkeypatch.setattr(cayley, "bfs_from_identity", lambda gens, cap: deeper)
    report = verify_construction("thm1:k=4,d=3")
    assert report.discrepancies == ["BFS diameter 5 != claimed diameter 4"]
    assert report.validation.ok and not report.ok
    assert report.diameter == 5
    assert report.moore_ratio == Fraction(6, 91)


def test_verify_reports_unreachable_vertices(monkeypatch):
    def disconnected(gens, cap):
        raise DisconnectedGraphError(20, [1, 3])

    monkeypatch.setattr(cayley, "bfs_from_identity", disconnected)
    report = verify_construction("thm1:k=4,d=3")
    assert report.discrepancies == ["20 vertices unreachable from identity"]
    assert not report.ok
    assert report.histogram == [1, 3]
    assert report.diameter is None
    # no BFS diameter, so the ratio is taken at the claimed k = 4
    assert report.moore_ratio == Fraction(24, 1 + 3 + 9 + 27 + 81)


def test_verify_propagates_cap_refusal():
    with pytest.raises(CapExceededError):
        verify_construction("thm3:k=3,l=9,t=2,m=3", cap=2**20)


def test_verify_histogram_totals_order():
    for spec_text in SMALL_SPECS:
        report = verify_construction(spec_text)
        assert sum(report.histogram) == report.order
        assert report.histogram[0] == 1
        assert report.histogram[1] == report.degree
        assert report.diameter == max(
            level for level, count in enumerate(report.histogram) if count
        )


# --- exports -----------------------------------------------------------------------

def test_edge_list_line_counts():
    data = export_graph(build(parse_spec("thm1:k=4,d=3")), "edge-list")
    assert len(data.splitlines()) == 24 * 3

    data = export_graph(build(parse_spec("thm4:k=2,l=2,t=2,m=1")), "edge-list")
    assert len(data.splitlines()) == 24 * 11 // 2  # no loops, one line per edge


def test_edge_list_is_sorted_and_ascii():
    data = export_graph(thm1_directed(4, 3), "edge-list")
    lines = data.decode("ascii").splitlines()
    sources = [int(line.split()[0]) for line in lines]
    assert sources == sorted(sources)


def test_edge_list_golden_prefix():
    # hand-derived arcs pin the normative index layout and generator order:
    # generators of thm3:k=2,l=2,t=2,m=1 are the four long elements with
    # shift 2 (indices 16..19), then the shorts (1,0,0;0), (0,0,0;1),
    # (1,0,0;1) at indices 1, 8, 9
    data = export_graph(build(parse_spec("thm3:k=2,l=2,t=2,m=1")), "edge-list")
    lines = data.decode("ascii").splitlines()
    assert lines[:7] == ["0 16", "0 17", "0 18", "0 19", "0 1", "0 8", "0 9"]
    assert lines[7:14] == ["1 17", "1 16", "1 19", "1 18", "1 0", "1 9", "1 8"]


# sha256 and byte length of export_graph per (set, format), taken before the
# exports were formatted by numpy; the empty set runs on GroupParams(2, 3)
EXPORT_DIGESTS = {
    "thm1:k=4,d=5": {
        "edge-list": (6580, "b140f0774467aecde7ed301388da1a2845894ab07e43cddf6c8ea49fcd24b038"),
        "dot": (13586, "858be657441e48d68098ff5a6d960a75cffaaebcf815f8eeb5d0089229f7f266"),
        "adjacency": (4140, "db0559646d5d3149f56ee316f1a4e89fdf37176c48040b3c914d2a6aeb799a5b"),
    },
    "thm1:k=5,d=12": {
        "edge-list": (5493360, "559c9d955d34b860dc8f703ad301648ace0724d64303504b67f6a4297e1249c6"),
        "dot": (8722262, "bbce728a4e091a12acc299cb0c6eedb3af461419beb1d82a54e9590aa82e8660"),
        "adjacency": (3015570, "dc859af67c0f712b520125fbda180f027fc4cefec8a8c9df4572573a2da33647"),
    },
    # labels past 2**16, formatted from uint32
    "thm1:k=5,d=14": {
        "edge-list": (13623512, "3ba3f2d026f726a40689e620af68cc2f1f56b862b60fb5d9875d84bdb30da990"),
        "dot": (21326206, "d7f995b20002eb04aa26ccbff5d44d2f2b7bdf88662fb51a03bef86202acf0b0"),
        "adjacency": (7381254, "0fb06b084d0be3d5c243248d5e8488e622aa54fe9f70895fc3637a9df53e790b"),
    },
    "thm2:k=4,d=9": {
        "edge-list": (5264, "0bc6c190897f6f212677f68b1af147cd5d36d4893d9b273362b365eb443404a6"),
        "dot": (11116, "9823b284851513f90b61145dd66786abc8d7f14c83e29a15d3e3f1a3fe5b528b"),
        "adjacency": (6114, "927818fc726438aafc05a59a44537a8fdec7a2913c66bb604fa30c91d2849369"),
    },
    "thm2:k=5,d=21": {
        "edge-list": (4806690, "28dced86cae1c29bd2925f28f0db29015bbc1b6b836dc062f0e147e4b361dec6"),
        "dot": (7675590, "9fb5a84c1bb32cede07208a2bc6c37e80978199c84cd91ef3f80fcfc3e0ee56f"),
        "adjacency": (5075580, "490168b48a64dc7cbac0564d4ff8a4ba4b91720fd9f459c5dfebcd5abfee4467"),
    },
    "thm2:k=5,d=25": {
        "edge-list": (12163850, "c620d8df03ff5f37089a4e206673e58c4ee5d616ff17ada9962f9dd71667b35b"),
        "dot": (19120046, "96dbd80a5b42b4cc794781c838d497cfb552be2f4b3a1c2975aaad5e41064d08"),
        "adjacency": (12733348, "07d597666c7c4dfca591a1600d63c7a474038bec60fc6715b84b5ce442bd7e32"),
    },
    "thm3:k=2,l=2,t=2,m=1": {
        "edge-list": (868, "990773d79fe7505f1d675ad625cfacab2a671cbbebbd847cdcb70ae33b995ef3"),
        "dot": (2022, "716acb228d42e3f57b0bc4ff99df98258ffad79f9b0f7425427c5df5fdfc4c47"),
        "adjacency": (520, "6f013d7b60e9fc645457e35f7813d18b894fe35a0e69320d5715a7e892dbcb2e"),
    },
    "thm3:k=2,l=2,t=3,m=1": {
        "edge-list": (6524, "0154f49b28e623e112431778e75427aeb5955c4822a6d11ce85ea594cfb64cb8"),
        "dot": (13816, "706903fc9e5a7d694b10b23dec16df0917d90c4d846b23e464ba4ab85e01b26e"),
        "adjacency": (3576, "375889b29b2e94e63a376245484da944f908f52356e36cf0f3f06432cff25f8b"),
    },
    "thm4:k=2,l=2,t=2,m=1": {
        "edge-list": (682, "9272514ab03f1c45f68125e9d120420bdcd457890a02c491d10f48984e0076a4"),
        "dot": (1618, "d59b67139b1df554f60175c1e3b8fb58d32602f189157dec26679719c56660ed"),
        "adjacency": (768, "5e30808494f0540971bede40fee3785012f61cc15e008437fdb3ad3e45bda7cc"),
    },
    "empty": {
        "edge-list": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "dot": (146, "d59210a920ba74598056ce805c4b3b60c014f39eaf1e9bea2fa6758ef96e074c"),
        "adjacency": (110, "64cbe7e15dc4ba5500deb812a0e1fa8f1072168adbb225eebee6ec799669e449"),
    },
}


@pytest.mark.parametrize("spec_text", sorted(EXPORT_DIGESTS))
def test_export_bytes_match_the_pinned_digests(spec_text):
    if spec_text == "empty":
        gens = GeneratorSet(GroupParams(2, 3), (), directed=True)
    else:
        gens = build(parse_spec(spec_text))
    for fmt, (size, digest) in EXPORT_DIGESTS[spec_text].items():
        data = export_graph(gens, fmt)
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest), fmt


def test_export_peak_memory_does_not_grow_with_the_graph():
    # a block holds about _BLOCK_ARCS labels, at most about 48 bytes each:
    # the label and three scratch rows (two of quotients, one of digits), in
    # uint16 below 2**16 and uint32 above; a row byte per digit and literal
    # byte, its copy as bytes and the bytes left when its NULs are dropped,
    # 7 to 10 each per five- or six-digit label; the kernel's int64
    # neighbour block, and undirected, the int64 sources and neighbours of
    # the edges kept from it; so the bound is the same for 192, 40,000 and
    # 262,144 vertices
    class Discard:
        def write(self, data):
            return len(data)

    for spec_text in ("thm2:k=4,d=9", "thm2:k=5,d=21", "thm1:k=5,d=14"):
        gens = build(parse_spec(spec_text))
        for fmt in ("edge-list", "dot", "adjacency"):
            tracemalloc.start()
            try:
                cayley.write_graph(gens, fmt, Discard())
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 48 * _BLOCK_ARCS, (spec_text, fmt, peak / _BLOCK_ARCS)


_LITERALS = st.one_of(
    st.just(b""),
    st.binary(min_size=1, max_size=1),
    st.binary(min_size=9, max_size=20),
).map(lambda b: b.replace(b"\0", b"\1"))

# the edges of each digit count and of each unsigned label width
_EDGES = sorted({10**p - 1 for p in range(19)} | {10**p for p in range(19)}
                | {2**w - 1 for w in (8, 16, 32)} | {2**w for w in (8, 16, 32)})


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_rows_formatter_matches_percent_d(data):
    # two blocks through one formatter, the second no longer than the first,
    # against b"%d" row by row; labels up to 19 digits get up to 19 bytes
    # each, in the narrowest unsigned dtype that holds the largest
    largest = data.draw(st.one_of(st.sampled_from(_EDGES), st.integers(0, 10**18)))
    labels = st.one_of(
        st.sampled_from([edge for edge in _EDGES if edge <= largest]),
        st.integers(0, largest),
    )
    fields = data.draw(st.integers(1, 23))
    literals = data.draw(st.lists(_LITERALS, min_size=fields + 1, max_size=fields + 1))
    blocks = [
        data.draw(st.lists(st.lists(labels, min_size=fields, max_size=fields),
                           min_size=1, max_size=4))
    ]
    blocks.append(data.draw(st.lists(
        st.lists(labels, min_size=fields, max_size=fields),
        min_size=0, max_size=len(blocks[0]),
    )))
    rows = cayley._Rows(b"\0".join(literals), largest, len(blocks[0]))
    assert rows.values.dtype == np.min_scalar_type(largest)
    for block in blocks:
        out = io.BytesIO()
        rows.values[:len(block)] = np.array(block, dtype=np.int64).reshape(-1, fields)
        rows.write(out, len(block))
        expected = b"".join(
            literals[0] + b"".join(b"%d" % label + literal
                                   for label, literal in zip(row, literals[1:]))
            for row in block
        )
        assert out.getvalue() == expected


@pytest.mark.parametrize("largest", [40_000 - 1, 2**16 - 1, 2**18 - 1, 10**9])
@pytest.mark.parametrize("template,runs", [
    # an edge-list row: one run
    (b"\0 \0\n", 1),
    # an adjacency row of degree 21: its first gap is one byte wider than
    # the others, so the labels are two runs
    (b"\0: " + b" ".join([b"\0"] * 21) + b"\n", 2),
    # literals all of different lengths: no three labels are equally
    # spaced, so each run holds at most two labels
    (b"\0".join([b"<", b"", b"--", b"+++", b" -> ", b";\n\n\n\n\n"]), 3),
], ids=["edge-list", "adjacency", "uneven"])
def test_rows_formatter_splits_labels_into_runs(template, runs, largest):
    # every label at each 10**p - 1 and 10**p up to largest, in every field,
    # against b"%d" row by row
    labels = sorted({0, largest} | {edge for p in range(11) for edge in (10**p - 1, 10**p)
                                    if edge <= largest})
    fields = template.count(0)
    block = np.array([[labels[(i + j) % len(labels)] for j in range(fields)]
                      for i in range(len(labels))], dtype=np.int64)
    rows = cayley._Rows(template, largest, len(block))
    assert rows.values.dtype == np.min_scalar_type(largest)
    assert len(rows._runs) == runs
    rows.values[:] = block
    out = io.BytesIO()
    rows.write(out, len(block))
    literals = template.split(b"\0")
    expected = b"".join(
        literals[0] + b"".join(b"%d" % label + literal
                               for label, literal in zip(row, literals[1:]))
        for row in block.tolist()
    )
    assert out.getvalue() == expected


def test_export_deterministic():
    gens = thm4_undirected(2, 2, 2, 1)
    for fmt in ("edge-list", "dot", "adjacency"):
        assert export_graph(gens, fmt) == export_graph(gens, fmt)


def test_export_unknown_format():
    with pytest.raises(ParameterError):
        export_graph(thm1_directed(4, 3), "graphml")


def test_export_respects_cap():
    gens = thm3_directed(3, 9, 2, 3)
    with pytest.raises(CapExceededError):
        export_graph(gens, "edge-list", cap=1000)


def test_export_refuses_by_arcs():
    gens = thm2_undirected(5, 21)  # 40,000 vertices, 840,000 arcs
    check_export_cap(40_000, 21)
    with pytest.raises(CapExceededError, match="arcs") as excinfo:
        export_graph(gens, "edge-list", cap=100_000)
    assert excinfo.value.required == 840_000


def test_export_empty_set_vertices_only():
    params = GroupParams(2, 3)
    empty = GeneratorSet(params, (), directed=True)
    assert export_graph(empty, "edge-list") == b""
    dot = export_graph(empty, "dot").decode("ascii")
    assert dot.count(";") == 24  # one node statement per vertex, no edges
    assert "->" not in dot


def test_dot_structure():
    directed = export_graph(thm1_directed(4, 3), "dot").decode("ascii")
    assert directed.startswith("digraph {\n")
    assert directed.rstrip().endswith("}")
    body = directed[directed.index("{") + 1: directed.rindex("}")]
    node_re = re.compile(r"^\s*\d+;$")
    edge_re = re.compile(r"^\s*\d+ -> \d+;$")
    statements = [line for line in body.splitlines() if line.strip()]
    assert all(node_re.match(s) or edge_re.match(s) for s in statements)
    assert sum(1 for s in statements if edge_re.match(s)) == 72

    undirected = export_graph(thm2_undirected(4, 5), "dot").decode("ascii")
    assert undirected.startswith("graph {\n")
    assert "--" in undirected and "->" not in undirected


def test_undirected_edge_list_has_u_le_v_once():
    gens = thm2_undirected(4, 5)
    data = export_graph(gens, "edge-list").decode("ascii")
    pairs = [tuple(map(int, line.split())) for line in data.splitlines()]
    assert all(u <= v for u, v in pairs)
    assert len(pairs) == len(set(pairs)) == 24 * 4 // 2


def test_adjacency_rows_match_neighbors():
    for spec_text in [
        "thm3:k=2,l=2,t=2,m=1",
        "thm1:k=4,d=5",
        "thm2:k=4,d=9",
        "thm3:k=2,l=2,t=3,m=1",
    ]:
        gens = build(parse_spec(spec_text))
        params = gens.params
        data = export_graph(gens, "adjacency").decode("ascii")
        for line in data.splitlines():
            head, _, rest = line.partition(": ")
            u = int(head)
            listed = [int(x) for x in rest.split()]
            expected = [
                params.encode(g) for g in neighbors(params.decode(u), gens)
            ]
            assert listed == expected, spec_text


def test_export_reimport_preserves_histogram():
    # BFS on the re-imported explicit graph matches the implicit histogram
    for spec_text in SMALL_SPECS:
        gens = build(parse_spec(spec_text))
        n = gens.params.order()
        adj = adjacency_from_edge_list(
            export_graph(gens, "edge-list"), n, gens.directed
        )
        dist = [-1] * n
        dist[0] = 0
        level = [0]
        depth = 0
        while level:
            nxt = []
            for u in level:
                for v in adj[u]:
                    if dist[v] < 0:
                        dist[v] = depth + 1
                        nxt.append(v)
            level = nxt
            depth += 1
        histogram = [0] * (max(dist) + 1)
        for value in dist:
            histogram[value] += 1
        assert histogram == bfs_from_identity(gens).histogram


@pytest.mark.parametrize("spec_text", [
    "thm1:k=4,d=5",
    "thm1:k=5,d=5",
    "thm2:k=4,d=9",
    "thm2:k=5,d=8",
    "thm3:k=3,l=2,t=2,m=1",
    "thm3:k=2,l=2,t=3,m=1",
    "thm4:k=3,l=2,t=2,m=1",
    "thm4:k=2,l=3,t=2,m=1",
])
def test_networkx_oracle_agrees(spec_text):
    # a second, independent oracle on the exported graph
    nx = pytest.importorskip("networkx")
    gens = build(parse_spec(spec_text))
    n = gens.params.order()
    graph = nx.DiGraph() if gens.directed else nx.Graph()
    graph.add_nodes_from(range(n))
    lines = export_graph(gens, "edge-list").decode("ascii").splitlines()
    graph.add_edges_from(tuple(map(int, line.split())) for line in lines)
    result = bfs_from_identity(gens)
    distances = nx.single_source_shortest_path_length(graph, 0)
    assert np.bincount(list(distances.values())).tolist() == result.histogram
    if gens.directed:
        diameter = max(nx.eccentricity(graph).values())
    else:
        diameter = nx.diameter(graph)
    assert diameter == result.diameter
