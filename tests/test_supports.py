"""Histograms from digit supports: the hypothesis check, the budget, the route
through ``bfs_from_identity`` and agreement with the dense and scalar BFS."""

import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbcayley import (
    DEFAULT_STATE_CAP,
    CapExceededError,
    DisconnectedGraphError,
    GeneratorSet,
    GroupElement,
    GroupParams,
    ParameterError,
    bfs_from,
    bfs_from_identity,
    build,
    parse_spec,
)
from dbcayley import cayley, supports

from test_cayley import scalar_levels

#: the thm1 specs with k in {4, 5, 6} and order (k - 1) * t**(k - 1) <= 10**6,
#: t = d - k + 3: the benchmark's bfs-digits grid
THM1_GRID = [
    f"thm1:k={k},d={t + k - 3}"
    for k in (4, 5, 6) for t in range(2, 101) if (k - 1) * t ** (k - 1) <= 10**6
]


def dense(gens):
    return bfs_from(gens, gens.params.identity()).histogram


def unbounded(gens):
    """The support histogram with no work budget, or None if not support-closed."""
    return supports.histogram(gens, math.inf)


@pytest.mark.parametrize("spec_text, histogram", [
    ("thm3:k=3,l=8,t=2,m=3", [1, 399, 120048, 9841024]),
    ("cor:k=3", [1, 671, 381576, 43657944]),
    ("thm1:k=4,d=100", [1, 100, 9996, 989604, 1911196]),
])
def test_families_route_to_supports(spec_text, histogram):
    result = bfs_from_identity(build(parse_spec(spec_text)))
    assert result.method == "supports"
    assert result.histogram == histogram
    assert result.diameter == len(histogram) - 1
    assert result.distances is None


def test_deep_t2_sets_fall_back_through_the_budget():
    # thm3:k=8,l=2,t=2,m=1 would cost about 13 n units of work
    gens = build(parse_spec("thm3:k=8,l=2,t=2,m=1"))
    result = bfs_from_identity(gens)
    assert result.method == "dense"
    assert result.histogram == [1, 31, 476, 3732, 18458, 61172, 134104, 176236, 97310]
    assert supports.histogram(gens, gens.params.order()) is None


def _no_search(*args, **kwargs):
    raise AssertionError("a search ran")


def test_refusals_come_before_either_path(monkeypatch):
    monkeypatch.setattr(supports, "histogram", _no_search)
    monkeypatch.setattr(cayley, "bfs_from", _no_search)
    with pytest.raises(CapExceededError) as excinfo:
        bfs_from_identity(build(parse_spec("thm3:k=3,l=9,t=2,m=3")), cap=1_000_000)
    assert excinfo.value.required == 44_040_192
    # a digit out of range, a shift out of range, a vector of length r - 1:
    # the set itself is refused, so no search can be handed one
    params = GroupParams(2, 3)
    for first in (GroupElement((3, 0, 0), 1), GroupElement((1, 0, 0), 4),
                  GroupElement((1, 0), 1)):
        with pytest.raises(ParameterError):
            GeneratorSet(params, (first, GroupElement((0, 0, 0), 2)), directed=True)


def test_dense_fallback_goes_through_bfs_from(monkeypatch):
    # bfs_from is the one dense entry point: a set that is not support-closed
    # (shift 1 holds (1,0,0) without (0,0,0)) reaches it with the identity
    # and the cap, the default one too
    calls = []

    def stub(gens, source, cap):
        calls.append((gens, source, cap))
        return "dense"

    monkeypatch.setattr(cayley, "bfs_from", stub)
    params = GroupParams(2, 3)
    unclosed = GeneratorSet(
        params, (params.element((1, 0, 0), 1), params.element((0, 0, 0), 2)), directed=True
    )
    closed = build(parse_spec("thm3:k=3,l=3,t=2,m=1"))
    assert bfs_from_identity(unclosed, cap=100) == "dense"
    assert bfs_from_identity(unclosed) == "dense"
    assert bfs_from_identity(closed).method == "supports"
    assert calls == [(unclosed, params.identity(), 100),
                     (unclosed, params.identity(), DEFAULT_STATE_CAP)]


def test_disconnected_set_raises_from_supports(monkeypatch):
    # shift 0 carries V_{0} without the identity and (0; 2) is the only other
    # generator: shifts 0, 2 and 4 with every vector on places 0, 2 and 4
    params = GroupParams(3, 6)
    elements = (params.element([1, 0, 0, 0, 0, 0], 0), params.element([2, 0, 0, 0, 0, 0], 0),
                params.element([0] * 6, 2))
    gens = GeneratorSet(params, elements, directed=True)
    with pytest.raises(DisconnectedGraphError) as oracle:
        bfs_from(gens, params.identity())
    monkeypatch.setattr(cayley, "bfs_from", _no_search)
    with pytest.raises(DisconnectedGraphError) as excinfo:
        bfs_from_identity(gens)
    assert oracle.value.unreachable == excinfo.value.unreachable == 6 * 3**6 - 3 * 27
    assert excinfo.value.histogram == oracle.value.histogram


def test_grid_histograms_equal_the_dense_bfs():
    # thm1:k=5,d=4 and thm1:k=6,d=5 (64 and 160 vertices) would pass the
    # budget of n and run dense; the support histogram is exact on them too
    routed = []
    for spec_text in THM1_GRID:
        gens = build(parse_spec(spec_text))
        result = bfs_from_identity(gens)
        expected = dense(gens)
        assert result.histogram == unbounded(gens) == expected, spec_text
        routed.append(result.method)
    assert len(routed) == 99
    assert routed.count("dense") == 2


@pytest.mark.parametrize("spec_text", [
    "thm1:k=4,d=100", "thm2:k=5,d=21", "thm3:k=3,l=7,t=2,m=3", "thm3:k=4,l=4,t=2,m=3",
    "thm4:k=4,l=3,t=3,m=1", "cor:k=3",
])
def test_family_histograms_equal_the_dense_bfs(spec_text):
    gens = build(parse_spec(spec_text))
    result = bfs_from_identity(gens)
    assert result.method == "supports"
    assert result.histogram == dense(gens)


@pytest.mark.parametrize("specs", [
    *([f"thm1:k={k},d={d}" for d in (k - 1, k, k + 5)] for k in range(4, 11)),
    *([f"thm2:k={k},d={d}" for d in (k + 1, k + 3, k + 9)] for k in range(4, 11)),
    [f"thm3:k=3,l=9,t={t},m=3" for t in (2, 3)],
    [f"thm4:k=3,l=3,t={t},m=1" for t in (2, 3, 4)],
], ids=lambda specs: specs[0])
def test_levels_do_not_depend_on_t(specs):
    # each spec of a group differs from the others in t alone: the families
    # M_s are the same, and the t-free antichain pass ends after exactly k
    # levels with every shift at the full support.  build lists the same
    # digit supports for every t, so the diameter is k at every degree.
    sets = [build(parse_spec(spec_text)) for spec_text in specs]
    families = [supports._families(gens, supports._Work(math.inf)) for gens in sets]
    assert all(family == families[0] for family in families)
    spec, r = sets[0].spec, sets[0].params.r
    last = {}
    levels = 0
    for grown in supports._levels(families[0], r, supports._Work(math.inf)):
        last.update(grown)
        levels += 1
    assert levels == spec.claimed_diameter == spec.k
    assert last == {c: [(1 << r) - 1] for c in range(r)}


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(0, 2**8 - 1), max_size=40))
def test_maximal_equals_brute_force_and_charges_one_unit_a_test(masks):
    # the maximal masks, widest first and then by value; one unit for each
    # test of a mask against a mask kept before it, in that order
    maximal = {x for x in masks if not any(x != y and x & y == x for y in masks)}
    order = sorted(masks, key=lambda m: (-m.bit_count(), m))
    units, kept = 0, 0
    for x in order:
        units += kept
        kept += x in maximal
    work = supports._Work(10**9)
    result = supports._maximal(set(masks), work)
    assert set(result) == maximal
    assert result == [x for x in order if x in maximal]
    assert 10**9 - work.left == units
    supports._maximal(set(masks), supports._Work(units))
    if units:
        with pytest.raises(supports._OverBudget):
            supports._maximal(set(masks), supports._Work(units - 1))


def test_union_size_frees_its_memo_on_return():
    # the union of V_J over the 4-subsets J of 12 places holds the vectors
    # of at most 4 nonzero digits; the split's memo of families must be
    # freed when the call returns, not left to the cycle collector
    antichain = [sum(1 << p for p in places) for places in itertools.combinations(range(12), 4)]
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        size = supports._union_size(antichain, 2, supports._Work(math.inf))
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert size == sum(math.comb(12, k) for k in range(5))
    assert left < 4096


@st.composite
def support_closed_sets(draw):
    """Per shift, the union of V_J over zero to two random supports J (an
    empty J gives the pure shift), at shift 0 at times without the zero
    vector; t 2-4, r 2-5, and each V_J at most 8 vectors, so that the
    scalar BFS stays quick."""
    t = draw(st.integers(2, 4))
    r = draw(st.integers(2, 5))
    params = GroupParams(t, r)
    widest = max(w for w in range(r + 1) if t**w <= 8)
    place_sets = st.sets(st.integers(0, r - 1), max_size=widest)
    elements = []
    for shift in range(r):
        vectors = set()
        for places in draw(st.lists(place_sets, max_size=2)):
            for digits in itertools.product(range(t), repeat=len(places)):
                vec = [0] * r
                for place, digit in zip(sorted(places), digits):
                    vec[place] = digit
                vectors.add(tuple(vec))
        if shift == 0 and draw(st.booleans()):
            vectors.discard((0,) * r)
        elements += [params.element(vec, shift) for vec in sorted(vectors)]
    return GeneratorSet(params, tuple(draw(st.permutations(elements))), directed=True)


@settings(max_examples=120, deadline=None)
@given(support_closed_sets())
def test_support_histogram_matches_scalar_bfs(gens):
    # the levels from supports, with no budget, equal the scalar BFS's up to
    # the last vertex it reaches; through bfs_from_identity (either route)
    # a set that misses vertices raises with the same fields
    params = gens.params
    n = params.order()
    levels = scalar_levels(gens, params.identity())
    histogram = np.bincount(list(levels.values())).tolist()
    assert unbounded(gens) == histogram
    if len(levels) == n:
        assert bfs_from_identity(gens).histogram == histogram
    else:
        with pytest.raises(DisconnectedGraphError) as excinfo:
            bfs_from_identity(gens)
        assert excinfo.value.unreachable == n - len(levels)
        assert excinfo.value.histogram == histogram


def _without(spec_text, vector, shift):
    gens = build(parse_spec(spec_text))
    drop = GroupElement(tuple(vector), shift)
    assert drop in gens.elements
    return GeneratorSet(gens.params, tuple(s for s in gens.elements if s != drop), directed=True)


def test_a_set_missing_one_vector_of_its_union_falls_back():
    # without (1,1,0,...;4) the long shift's supports still reach [0, 4),
    # so the union has one vector more than the shift holds
    gens = _without("thm3:k=3,l=4,t=2,m=2", [1, 1] + [0] * 8, 4)
    assert unbounded(gens) is None
    result = bfs_from_identity(gens)
    assert result.method == "dense"
    assert result.histogram == dense(gens)


def test_a_set_missing_only_full_support_vectors_stays_closed():
    # with t = 2 the long shift without its all-ones vector is the union of
    # V_J over the four 3-subsets J of [0, 4); its antichains grow wide, and
    # at about 2.6 n units of work the route sends it to the dense BFS
    gens = _without("thm3:k=3,l=4,t=2,m=2", [1, 1, 1, 1] + [0] * 6, 4)
    assert unbounded(gens) == [1, 50, 1119, 8394, 676] == dense(gens)
    result = bfs_from_identity(gens)
    assert result.method == "dense"
    assert result.histogram == [1, 50, 1119, 8394, 676]
