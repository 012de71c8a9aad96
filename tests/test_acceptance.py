"""Acceptance suite: one test per release criterion, exact values throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion with its time.  Criteria are timed with ``time.thread_time()``,
the CPU seconds of this thread, so a time bound holds on a loaded host: it
leaves out other processes and the OpenBLAS workers numpy starts.  Every
expected number here is either a closed-form evaluation checked against an
independent derivation or the output of the naive oracle implementations in
this file; nothing is tuned to the code under test.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from dbcayley import (
    GroupParams,
    bfs_from,
    bfs_from_identity,
    build,
    compare,
    corollary_certificate,
    corollary_lower_bound,
    corollary_params,
    export_graph,
    moore_bound,
    neighbors,
    optimal_ell,
    parse_spec,
    thm1_directed,
    thm4_classes,
    validate,
    verify_construction,
)

NAMED_SPECS = [
    "thm1:k=4,d=3",
    "thm2:k=4,d=5",
    "thm3:k=2,l=2,t=2,m=1",
    "thm3:k=3,l=2,t=2,m=1",
    "thm4:k=2,l=2,t=2,m=1",
]


def thm1_grid(max_order):
    """All (k in {4,5,6}, valid d) with construction order <= max_order."""
    for k in (4, 5, 6):
        t = 2
        while (k - 1) * t ** (k - 1) <= max_order:
            yield k, t + k - 3
            t += 1


def naive_allpairs_diameter(edge_list: bytes, n: int, directed: bool) -> int:
    """Independent oracle: BFS from every vertex of the explicit graph."""
    adj = [[] for _ in range(n)]
    for line in edge_list.decode("ascii").splitlines():
        a, b = line.split()
        u, v = int(a), int(b)
        adj[u].append(v)
        if not directed:
            adj[v].append(u)
    worst = 0
    for source in range(n):
        dist = bytearray([255]) * n
        dist[source] = 0
        level = [source]
        depth = 0
        while level:
            nxt = []
            for u in level:
                nd = depth + 1
                for v in adj[u]:
                    if dist[v] == 255:
                        dist[v] = nd
                        nxt.append(v)
            level = nxt
            depth += 1
        assert 255 not in dist, f"vertex unreachable from {source}"
        worst = max(worst, depth - 1)
    return worst


@pytest.fixture(scope="module")
def named_reports():
    return {text: verify_construction(text) for text in NAMED_SPECS}


def test_criterion_01_group_laws():
    started = time.thread_time()
    param_sets = [(2, 3), (3, 4), (5, 6)]
    triples_each = -(-10_000 // len(param_sets))  # >= 10^4 in total
    for t, r in param_sets:
        params = GroupParams(t, r)
        order = params.order()
        e = params.identity()
        rng = random.Random(1000 * t + r)
        for _ in range(triples_each):
            x = params.decode(rng.randrange(order))
            y = params.decode(rng.randrange(order))
            z = params.decode(rng.randrange(order))
            assert params.mul(params.mul(x, y), z) == params.mul(x, params.mul(y, z))
            assert params.mul(x, e) == x and params.mul(e, x) == x
            assert params.mul(x, params.inv(x)) == e
            assert params.mul(params.inv(x), x) == e
    # exhaustive for (2, 3): all 24^3 ordered triples
    params = GroupParams(2, 3)
    elems = list(params.elements())
    e = params.identity()
    products = {(x, y): params.mul(x, y) for x in elems for y in elems}
    for x in elems:
        assert products[(x, e)] == x and products[(e, x)] == x
        assert products[(x, params.inv(x))] == e
        for y in elems:
            xy = products[(x, y)]
            for z in elems:
                assert products[(xy, z)] == products[(x, products[(y, z)])]
    elapsed = time.thread_time() - started
    assert elapsed < 1.0
    print(f"ACCEPT 01 group-laws: PASS ({elapsed:.2f}s)")


def test_criterion_02_first_directed_construction(named_reports):
    started = time.thread_time()
    report = named_reports["thm1:k=4,d=3"]
    assert report.order == 24
    assert report.degree == 3
    assert report.diameter == 4
    gens = thm1_directed(4, 3)
    distances = bfs_from(gens, gens.params.identity(), want_distances=True).distances
    deep = gens.params.encode(gens.params.element([1, 1, 1], 2))
    assert distances[deep] == 4
    instance_elapsed = time.thread_time() - started
    assert instance_elapsed < 1.0

    grid_started = time.thread_time()
    checked = 0
    for k, d in thm1_grid(10**6):
        gens = thm1_directed(k, d)
        assert gens.params.order() == (k - 1) * (d - k + 3) ** (k - 1)
        assert bfs_from_identity(gens).diameter == k
        checked += 1
    grid_elapsed = time.thread_time() - grid_started
    assert checked >= 90
    assert grid_elapsed < 120.0
    print(
        f"ACCEPT 02 thm1 instance+grid: PASS "
        f"({instance_elapsed:.2f}s + {checked} instances in {grid_elapsed:.1f}s)"
    )


def test_criterion_03_first_undirected_construction(named_reports):
    started = time.thread_time()
    report = named_reports["thm2:k=4,d=5"]
    assert report.order == 24
    assert report.degree == 4
    assert report.diameter == 4
    assert report.validation.symmetric is True
    elapsed = time.thread_time() - started
    assert elapsed < 1.0
    print(f"ACCEPT 03 thm2 instance: PASS ({elapsed:.2f}s)")


def test_criterion_04_second_directed_construction(named_reports):
    started = time.thread_time()
    small = named_reports["thm3:k=2,l=2,t=2,m=1"]
    assert (small.order, small.degree, small.diameter) == (24, 7, 2)
    larger = named_reports["thm3:k=3,l=2,t=2,m=1"]
    assert (larger.order, larger.degree, larger.diameter) == (160, 11, 3)
    elapsed = time.thread_time() - started
    assert elapsed < 1.0
    print(f"ACCEPT 04 thm3 instances: PASS ({elapsed:.2f}s)")


def test_criterion_05_second_undirected_construction(named_reports):
    started = time.thread_time()
    classes = thm4_classes(2, 2, 2, 1)
    assert [len(c) for c in classes] == [4, 4, 1, 1, 1, 0]
    union = [el for cls in classes for el in cls]
    assert len(set(union)) == 11
    report = named_reports["thm4:k=2,l=2,t=2,m=1"]
    assert report.degree == 11
    assert report.validation.symmetric is True
    assert report.diameter == 2
    elapsed = time.thread_time() - started
    assert elapsed < 1.0
    print(f"ACCEPT 05 thm4 instance: PASS ({elapsed:.2f}s)")


def test_criterion_06_oracle_equivalence(named_reports):
    started = time.thread_time()
    spec_texts = list(NAMED_SPECS) + [
        f"thm1:k={k},d={d}" for k, d in thm1_grid(5000) if (k, d) != (4, 3)
    ]
    checked = 0
    for text in spec_texts:
        gens = build(parse_spec(text))
        n = gens.params.order()
        assert n <= 5000
        implicit = bfs_from_identity(gens).diameter
        explicit = naive_allpairs_diameter(
            export_graph(gens, "edge-list"), n, gens.directed
        )
        assert implicit == explicit, text
        checked += 1
    elapsed = time.thread_time() - started
    print(f"ACCEPT 06 oracle-equivalence: PASS ({checked} graphs in {elapsed:.1f}s)")


def test_criterion_07_comparison_crossovers():
    started = time.thread_time()
    row8 = compare(8, 4, directed=True)
    assert row8.our_order == 1029
    assert row8.competitor_orders["vetrik"] == 1024
    assert row8.our_order > row8.competitor_orders["vetrik"]

    row10 = compare(10, 4, directed=True)
    assert row10.our_order == 2187
    assert row10.competitor_orders["vetrik"] == 2500
    assert row10.our_order < row10.competitor_orders["vetrik"]

    row_u = compare(100, 20, directed=False)
    assert row_u.our_order == 19 * 42**19
    assert row_u.competitor_orders["mssv"] == 20 * 33**20
    assert row_u.our_order > row_u.competitor_orders["mssv"]
    elapsed = time.thread_time() - started
    assert elapsed < 1.0
    print(f"ACCEPT 07 crossovers: PASS ({elapsed:.2f}s)")


def test_criterion_08_corollary_certificate():
    started = time.thread_time()
    sel = corollary_params(3)
    assert (sel.ell, sel.r, sel.m, sel.d_directed) == (9, 21, 3, 671)
    assert sel.thm3_spec().group_params().order() == 21 * 2**21 == 44_040_192

    lo, hi = corollary_lower_bound(3, 671, True)
    assert lo == hi == Fraction(21_849_440_256, 1000)
    assert sel.thm3_spec().group_params().order() >= hi

    cert = corollary_certificate(3)
    theta_lo, theta_hi = cert.theta
    assert abs(float(theta_lo) - 0.2348) < 1e-3
    assert theta_hi <= Fraction(1, 4)
    assert cert.inequality_holds, cert.checks
    elapsed = time.thread_time() - started
    assert elapsed < 1.0
    print(f"ACCEPT 08 corollary-certificate: PASS ({elapsed:.2f}s)")


def test_criterion_09_optimal_block_length():
    started = time.thread_time()
    result = optimal_ell(3, 2, 21)
    assert (result.ell, result.degree) == (9, 671)
    degrees = {e: deg for e, _, deg in result.candidates}
    assert degrees[8] == 895 and degrees[10] == 1063

    for k in range(2, 7):
        for t in range(2, 5):
            for r in range(3, 61):
                try:
                    res = optimal_ell(k, t, r)
                except Exception:
                    continue
                assert abs(res.ell - round(res.ell_star)) <= 1, (k, t, r)
    elapsed = time.thread_time() - started
    assert elapsed < 5.0
    print(f"ACCEPT 09 optimal-ell: PASS ({elapsed:.2f}s)")


def test_criterion_10_moore_and_symmetry(named_reports):
    started = time.thread_time()
    report = named_reports["thm3:k=2,l=2,t=2,m=1"]
    assert moore_bound(report.degree, report.diameter, True) == 57
    assert report.order == 24 <= 57
    for report in named_reports.values():
        bound = moore_bound(report.degree, report.diameter, report.directed)
        assert report.order <= bound
        assert report.moore_ratio == Fraction(report.order, bound)
        assert sum(report.histogram) == report.order

    for text in NAMED_SPECS:
        gens = build(parse_spec(text))
        if gens.directed:
            continue
        adjacency = {
            el: set(neighbors(el, gens)) for el in gens.params.elements()
        }
        for u, nbrs in adjacency.items():
            for v in nbrs:
                assert u in adjacency[v], (text, u, v)
    elapsed = time.thread_time() - started
    print(f"ACCEPT 10 moore-and-symmetry: PASS ({elapsed:.2f}s)")
