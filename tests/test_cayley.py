"""Implicit-graph operations: BFS, reports, exports."""

import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbcayley import (
    CapExceededError,
    DisconnectedGraphError,
    GeneratorSet,
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
    validate,
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
    result = bfs_from_identity(gens, want_distances=True)
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
    for spec_text in [
        "thm1:k=4,d=7",
        "thm1:k=6,d=7",
        "thm2:k=5,d=11",
        "thm3:k=3,l=2,t=3,m=1",
        "thm4:k=3,l=2,t=3,m=1",
    ]:
        result = bfs_from_identity(build(parse_spec(spec_text)), want_distances=True)
        assert np.bincount(result.distances).tolist() == result.histogram, spec_text
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
    result = bfs_from_identity(gens, want_distances=True)
    assert result.diameter == 260
    assert result.distances.tolist() == scalar_distances(gens, params.identity())
    assert np.bincount(result.distances).tolist() == result.histogram


def test_bfs_peak_memory_follows_the_level_map_model():
    # one byte of level map and one byte of transient frontier mask per vertex,
    # three int64 copies of the largest expanded level (frontier, its
    # per-shift segments, the next frontier) and chunk temporaries of at
    # most 32 bytes per arc; the int32 distance array of old needed 4 bytes
    # per vertex on its own
    gens = build(parse_spec("thm3:k=3,l=7,t=2,m=3"))
    n = gens.params.order()
    tracemalloc.start()
    try:
        histogram = bfs_from_identity(gens).histogram
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert histogram == [1, 255, 41368, 2186600]
    bound = 2 * n + 24 * max(histogram[:-1]) + 32 * _BLOCK_ARCS
    assert peak <= bound, (peak / n, bound / n)


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


@settings(max_examples=100, deadline=None)
@given(bfs_cases())
def test_bfs_matches_scalar_bfs_in_both_directions(case):
    # groups of 8 to 2,500 vertices: most levels here are found bottom-up,
    # the first ones of the larger groups top-down
    gens, source = case
    params = gens.params
    n = params.order()
    levels = scalar_levels(gens, source)
    histogram = np.bincount(list(levels.values())).tolist()
    if len(levels) == n:
        result = bfs_from(gens, source, want_distances=True)
        assert result.distances.tolist() == [levels[params.decode(u)] for u in range(n)]
        assert result.histogram == histogram
    else:
        with pytest.raises(DisconnectedGraphError) as excinfo:
            bfs_from(gens, source)
        assert excinfo.value.unreachable == n - len(levels)
        assert excinfo.value.histogram == histogram


def test_bottom_up_runs_only_where_the_frontier_is_large(monkeypatch):
    # the kernel is given generator positions only by a bottom-up step
    positions = []
    kernel_neighbors = _NeighborKernel.neighbors

    def spy(self, su, vec, which=None):
        if which is not None:
            positions.append(which)
        return kernel_neighbors(self, su, vec, which)

    monkeypatch.setattr(_NeighborKernel, "neighbors", spy)
    for spec_text, histogram, bottom_up in [
        ("thm1:k=4,d=10", [1, 10, 96, 864, 1216], True),
        # the last step: 15,876 frontier vertices, 21,141 unseen
        ("thm2:k=5,d=21", [1, 21, 252, 2709, 15876, 21141], True),
        ("thm3:k=3,l=7,t=2,m=3", [1, 255, 41368, 2186600], False),
    ]:
        positions.clear()
        result = bfs_from_identity(build(parse_spec(spec_text)), want_distances=True)
        assert result.histogram == histogram, spec_text
        assert np.bincount(result.distances).tolist() == histogram, spec_text
        assert bool(positions) == bottom_up, spec_text


def test_bottom_up_peak_memory_follows_the_window_model(monkeypatch):
    # a bottom-up level holds the level map (1 byte per vertex), one shift's
    # mask while the frontier is counted per shift (n / r bytes), and window
    # temporaries: the window's unseen indices, a chunk of neighbour indices,
    # the cached digit and its transient quotient (thm1's inverse generators
    # have at most one nonzero digit), four int64 words per arc of a
    # _BLOCK_ARCS window, plus byte masks, within a fifth word
    gens = build(parse_spec("thm1:k=4,d=70"))
    n, r = gens.params.order(), gens.params.r
    peaks = []
    count_by_shift = cayley._count_by_shift
    bottom_up_level = cayley._bottom_up_level

    def counted(*args):
        tracemalloc.reset_peak()
        return count_by_shift(*args)

    def stepped(*args):
        found = bottom_up_level(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])
        return found

    monkeypatch.setattr(cayley, "_count_by_shift", counted)
    monkeypatch.setattr(cayley, "_bottom_up_level", stepped)
    tracemalloc.start()
    try:
        histogram = bfs_from_identity(gens).histogram
    finally:
        tracemalloc.stop()
    assert histogram == [1, 70, 4896, 337824, 642736]
    assert len(peaks) == 1  # the last level, found bottom-up after a top-down one
    bound = n + n // r + 5 * 8 * _BLOCK_ARCS
    assert peaks[0] <= bound, (peaks[0], bound)


# --- neighbour kernel ------------------------------------------------------------

@st.composite
def kernel_cases(draw):
    """A group, a generator list, one block, a chunk size and generator positions.

    Generator vectors are dense (every digit random) or sparse (mostly zero
    digits); t > 0x7FFF, with r = 2, is the range where a narrow per-digit
    dtype would overflow.  The chunk size gives one row per chunk, a partial
    set of rows or every row in one chunk.  The positions are None (every
    generator, in order) or a random subset of them in a random order.
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
    all_arcs = max(1, len(block) * len(elements))
    chunk_arcs = draw(st.one_of(st.just(1), st.integers(1, all_arcs), st.just(all_arcs)))
    which = None
    if draw(st.booleans()):
        order = draw(st.permutations(range(len(elements))))
        which = order[:draw(st.integers(0, len(order)))]
    return gens, block, chunk_arcs, which


def _check_kernel(gens, block, chunk_arcs=1 << 16, which=None):
    params = gens.params
    n = params.order()
    base = params.t**params.r
    kernel = _NeighborKernel(gens, chunk_arcs)
    vec = np.array(block, dtype=np.int64)
    if which is None:
        expected_gens = gens.elements
        positions = None
    else:
        expected_gens = [gens.elements[j] for j in which]
        positions = np.array(which, dtype=np.int64)
    for su in range(params.r):
        chunks = list(kernel.neighbors(su, vec, positions))
        assert all(chunk.shape[1] == len(block) for chunk in chunks)
        # a chunk holds whole rows, as many as fit (at least one)
        rows = max(1, chunk_arcs // max(len(block), 1))
        assert [len(chunk) for chunk in chunks[:-1]] == [rows] * (len(chunks) - 1)
        produced = np.concatenate([np.empty((0, len(block)), np.int64), *chunks])
        assert len(produced) == len(expected_gens)
        for s, row in zip(expected_gens, produced.tolist()):
            expected = [
                params.encode(params.mul(params.decode(su * base + x, cap=n), s), cap=n)
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
    for chunk_arcs in (1, 4, 1 << 16):
        _check_kernel(gens, [t**r - 1, 0, t**r - 2, 1], chunk_arcs)
        _check_kernel(gens, [t**r - 1, 0, t**r - 2, 1], chunk_arcs, [1, 0])
        _check_kernel(gens, [], chunk_arcs)


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
    check_export_cap(gens)
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
    # a second, independent oracle on the exported graph; the last level of
    # each of these small graphs is found bottom-up
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
