"""Generator-set builders: sizes, symmetry, class structure, spec strings."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbcayley import (
    ConstructionSpec,
    GeneratorClassOverlapError,
    GeneratorSet,
    GroupElement,
    GroupParams,
    ParameterError,
    SpecParseError,
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
from dbcayley.generators import _digit_block


# --- first construction -------------------------------------------------------

def test_thm1_small_instance():
    gens = thm1_directed(4, 3)
    assert gens.params.t == 2 and gens.params.r == 3
    assert len(gens.elements) == 3
    assert gens.params.order() == 24
    assert gens.directed
    assert validate(gens).ok


def test_thm1_degree_formula():
    for k in (4, 5, 6):
        for d in range(k - 1, k + 20):
            gens = thm1_directed(k, d)
            assert len(gens.elements) == d
            assert gens.params.order() == (k - 1) * (d - k + 3) ** (k - 1)


def test_thm1_bounds():
    with pytest.raises(ParameterError):
        thm1_directed(3, 10)
    with pytest.raises(ParameterError):
        thm1_directed(4, 2)


def test_thm2_small_instance():
    gens = thm2_undirected(4, 5)
    assert gens.params.t == 2 and gens.params.r == 3
    assert len(gens.elements) == 4
    assert gens.params.order() == 24
    report = validate(gens)
    assert report.ok and report.symmetric


def test_thm2_degree_at_most_d():
    for k in (4, 5, 7):
        for d in range(k + 1, k + 25):
            gens = thm2_undirected(k, d)
            size = len(gens.elements)
            assert size <= d
            t, r = gens.params.t, gens.params.r
            assert size == 2 * t + r - 3
            # parity slack only: even d-k hits d exactly
            assert size == d or size == d - 1


def test_thm2_order_formula():
    gens = thm2_undirected(4, 14)
    assert gens.params.t == 7
    assert gens.params.order() == 3 * 7**3 == 1029


def test_thm2_symmetric_elementwise():
    for k, d in [(4, 5), (5, 8), (6, 13)]:
        gens = thm2_undirected(k, d)
        elems = set(gens.elements)
        assert {gens.params.inv(el) for el in elems} == elems


def test_thm2_contains_displayed_inverse_forms():
    # inverses are computed algebraically but must match (0,...,0,-a;-1)
    gens = thm2_undirected(4, 5)
    params = gens.params
    for a in range(params.t):
        assert params.element([0, 0, -a], -1) in set(gens.elements)


def test_thm2_involution_pairing():
    for k, d in [(4, 5), (4, 9), (5, 10), (6, 9)]:
        gens = thm2_undirected(k, d)
        params = gens.params
        involutions = sum(1 for el in gens.elements if params.inv(el) == el)
        paired = sum(1 for el in gens.elements if params.inv(el) != el)
        assert paired % 2 == 0
        assert involutions + paired == len(gens.elements)


# --- second construction ------------------------------------------------------

def test_thm3_small_instances():
    gens = thm3_directed(2, 2, 2, 1)
    assert gens.params.r == 3
    assert len(gens.elements) == 7
    assert gens.params.order() == 24
    assert validate(gens).ok

    gens = thm3_directed(3, 2, 2, 1)
    assert gens.params.r == 5
    assert len(gens.elements) == 11
    assert gens.params.order() == 160


def test_thm3_counts_by_shift():
    gens = thm3_directed(3, 3, 2, 2)
    r, t, ell, m = gens.params.r, 2, 3, 2
    by_shift = {}
    for el in gens.elements:
        by_shift.setdefault(el.shift, []).append(el)
    assert len(by_shift[ell]) == t**ell  # long elements
    assert len(by_shift[0]) == t**m - 1  # identity excluded
    for s in range(1, r):
        if s != ell:
            assert len(by_shift[s]) == t**m


def test_thm3_size_formula_sweep():
    for k in (2, 3):
        for ell in (2, 3):
            for t in (2, 3):
                for m in range(1, ell):
                    gens = thm3_directed(k, ell, t, m)
                    r = (k - 1) * ell + m
                    assert len(gens.elements) == t**ell + (r - 1) * t**m - 1
                    assert validate(gens).ok


def test_thm3_bounds():
    with pytest.raises(ParameterError):
        thm3_directed(2, 2, 2, 2)  # m < ell violated
    with pytest.raises(ParameterError):
        thm3_directed(1, 2, 2, 1)
    with pytest.raises(ParameterError):
        thm3_directed(2, 2, 1, 1)


def test_thm4_class_audit():
    gens = thm4_undirected(2, 2, 2, 1)
    assert gens.class_sizes == (4, 4, 1, 1, 1, 0)
    assert len(gens.elements) == 11
    assert len(set(gens.elements)) == 11
    report = validate(gens)
    assert report.ok and report.symmetric


def test_thm4_long_inverses_match_positional_form():
    # inverses of (a1,...,a_ell,0,...,0;ell) form (0,...,0,b1,...,b_ell;-ell)
    classes = thm4_classes(2, 2, 2, 1)
    params = thm4_undirected(2, 2, 2, 1).params
    expected = {
        params.element([0, b1, b2], -2) for b1 in range(2) for b2 in range(2)
    }
    assert set(classes[1]) == expected


def test_thm4_size_formula():
    for k, ell, t in [(2, 2, 2), (2, 2, 3), (3, 2, 2)]:
        m = 1
        gens = thm4_undirected(k, ell, t, m)
        r = (k - 1) * ell + m
        assert len(gens.elements) == 2 * t**ell + (2 * r - 3) * t**m - r
        assert validate(gens).ok


def test_thm4_symmetric_elementwise():
    gens = thm4_undirected(3, 2, 2, 1)
    elems = set(gens.elements)
    assert {gens.params.inv(el) for el in elems} == elems


def test_thm4_involution_pairing():
    gens = thm4_undirected(2, 2, 2, 1)
    params = gens.params
    involutions = sum(1 for el in gens.elements if params.inv(el) == el)
    paired = sum(1 for el in gens.elements if params.inv(el) != el)
    assert involutions + paired == len(gens.elements)
    assert paired % 2 == 0


def test_thm4_detects_class_overlap_for_wide_short_block():
    # with m >= 2 a short element's inverse can itself be a short element,
    # so the stated class decomposition stops being disjoint
    with pytest.raises(GeneratorClassOverlapError):
        thm4_undirected(2, 3, 2, 2)


@pytest.mark.parametrize("text,degree,first,digest", [
    ("thm3:k=2,l=3,t=3,m=2", 62, [729, 730, 731, 732],
     "e192eb389a99de07164e983a8bbb3e1a0a5f33330d9cdabd31ab1a23b562fc04"),
    ("thm4:k=3,l=3,t=3,m=1", 80, [6561, 6562, 6563, 6564],
     "0ee7d018bb6543fbb5b469d4d46c0aec8dbcb54a6143cf4e63d8eca50c030e85"),
])
def test_block_generator_order_is_pinned(text, degree, first, digest):
    # exports list arcs in generator order, so the order itself is part of
    # the output contract; t = 3 with a short block wider than one digit
    gens = build(parse_spec(text))
    codes = [gens.params.encode(s) for s in gens.elements]
    assert len(codes) == degree
    assert codes[:4] == first
    assert hashlib.sha256(",".join(map(str, codes)).encode()).hexdigest() == digest


@st.composite
def digit_blocks(draw):
    t = draw(st.integers(2, 5))
    r = draw(st.integers(2, 6))
    width = draw(st.integers(0, r))
    start = draw(st.integers(0, t**width + 2))
    shift = draw(st.integers(0, r - 1))
    return GroupParams(t, r), width, shift, start


@settings(max_examples=200, deadline=None)
@given(digit_blocks())
def test_digit_block_lists_decoded_indices_in_order(block):
    # the block enumerates digits directly; it must list exactly the
    # vectors of indices start, ..., t**width - 1, decoded, in that order
    params, width, shift, start = block
    expected = [
        GroupElement(params.decode(v).vector, shift)
        for v in range(start, params.t**width)
    ]
    assert _digit_block(params, width, shift, start) == expected


# --- validation reporting -------------------------------------------------------

def test_validate_flags_injected_identity():
    gens = thm1_directed(4, 3)
    tampered = GeneratorSet(
        gens.params,
        gens.elements + (gens.params.identity(),),
        directed=True,
        spec=gens.spec,
        expected_size=gens.expected_size,
    )
    report = validate(tampered)
    assert not report.identity_free
    assert not report.size_ok
    assert not report.ok
    assert any("identity" in p for p in report.problems)


def test_validate_flags_duplicates_and_asymmetry():
    params = thm1_directed(4, 3).params
    el = params.element([1, 0, 0], 1)
    report = validate(GeneratorSet(params, (el, el), directed=False))
    assert not report.distinct
    assert report.duplicates == [el]
    assert report.symmetric is False
    assert el in report.missing_inverses



def test_validate_flags_non_canonical_elements():
    # with t = 2 the coordinates 3 and 2 are 1 and 0: the set is refused when
    # it is built, and in canonical form (1,0,0;1) appears twice and
    # (0,0,0;0) is the identity, which validate reports as they are
    params = GroupParams(2, 3)
    raw = (GroupElement((3, 0, 0), 1), GroupElement((1, 0, 0), 1),
           GroupElement((2, 0, 0), 0))
    with pytest.raises(ParameterError):
        GeneratorSet(params, raw, directed=True)
    elements = tuple(params.element(*el) for el in raw)
    report = validate(GeneratorSet(params, elements, directed=True))
    assert report.duplicates == [elements[1]]
    assert not report.identity_free
    assert not report.ok
    assert report.problems == ["1 duplicate elements, e.g. (1,0,0;1)",
                               "identity element present"]
    canonical = GeneratorSet(params, (params.element([1, 0, 0], 1),), directed=True)
    assert validate(canonical).ok
    # a vector of length r - 1 is no element of the group
    with pytest.raises(ParameterError):
        GeneratorSet(params, (GroupElement((1, 0), 1),), directed=True)


@st.composite
def raw_element_lists(draw):
    """A group and a list of elements drawn with residues one past either end
    of their range and vector lengths r - 1 to r + 1, mixed with canonical
    ones so that whole sets are canonical often enough."""
    t = draw(st.integers(2, 4))
    r = draw(st.integers(2, 4))
    wide = st.builds(
        GroupElement,
        st.integers(r - 1, r + 1).flatmap(
            lambda n: st.tuples(*[st.integers(-1, t)] * n)),
        st.integers(-1, r),
    )
    canonical = st.builds(
        GroupElement,
        st.tuples(*[st.integers(0, t - 1)] * r),
        st.integers(0, r - 1),
    )
    return GroupParams(t, r), draw(st.lists(st.one_of(canonical, wide), max_size=5))


@settings(max_examples=300, deadline=None)
@given(raw_element_lists())
def test_generator_set_is_canonical_by_construction(case):
    params, elements = case

    def canonical(el):
        vec, s = el
        return (len(vec) == params.r and all(0 <= a < params.t for a in vec)
                and 0 <= s < params.r)

    if all(map(canonical, elements)):
        gens = GeneratorSet(params, elements, directed=True)
        assert gens.elements == tuple(elements)
    else:
        with pytest.raises(ParameterError):
            GeneratorSet(params, elements, directed=True)


# --- corollary parameter selection ----------------------------------------------

def test_corollary_auto_selection_k3():
    sel = corollary_params(3)
    assert (sel.ell, sel.r, sel.m) == (9, 21, 3)
    assert sel.t == 2
    assert sel.d_directed == 512 + 160 - 1 == 671
    assert sel.thm3_spec().group_params().order() == 21 * 2**21 == 44_040_192


def test_corollary_explicit_ell():
    sel = corollary_params(3, 9)
    assert sel.thm3_spec().group_params().order() == 44_040_192


def test_corollary_rejects_bad_ell():
    # log2(72) ~ 6.17 > 6 = 0.75 * 8
    with pytest.raises(ParameterError):
        corollary_params(3, 8)


def test_corollary_requires_k_at_least_3():
    with pytest.raises(ParameterError):
        corollary_params(2)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_corollary_m_in_range(k):
    sel = corollary_params(k)
    assert 0 < sel.m < sel.ell
    assert sel.r == (k - 1) * sel.ell + sel.m


def test_corollary_auto_is_smallest_admissible():
    sel = corollary_params(3)
    # every smaller ell fails the exact condition (k^2*ell)^4 <= 2^(3*ell)
    for ell in range(2, sel.ell):
        assert (9 * ell) ** 4 > 2 ** (3 * ell)
    assert (9 * sel.ell) ** 4 <= 2 ** (3 * sel.ell)


# --- spec strings ----------------------------------------------------------------

def test_parse_and_canonical_roundtrip():
    for text in ["thm1:k=4,d=3", "thm2:k=4,d=5", "thm3:k=3,l=2,t=2,m=1",
                 "thm4:k=2,l=2,t=2,m=1"]:
        spec = parse_spec(text)
        assert spec.canonical() == text
        assert parse_spec(spec.canonical()) == spec


def test_parse_cor_resolves_to_thm3():
    spec = parse_spec("cor:k=3")
    assert spec == ConstructionSpec("thm3", k=3, ell=9, t=2, m=3)
    assert spec.canonical() == "thm3:k=3,l=9,t=2,m=3"
    assert parse_spec("cor:k=3,l=9") == spec


@pytest.mark.parametrize("bad", [
    "thm5:k=4,d=3",
    "thm1:k=4",
    "thm1 k=4,d=3",
    "thm1:k=4,d=x",
    "thm3:k=3,l=2,t=2",
    "cor:d=3",
    "thm1:k=4,d=3,m=1",
    "thm1:k=4,d=3,d=5",
    "cor:k=3,k=4",
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(SpecParseError):
        parse_spec(bad)


def test_build_dispatch():
    for text in ["thm1:k=4,d=3", "thm2:k=4,d=5", "thm3:k=2,l=2,t=2,m=1",
                 "thm4:k=2,l=2,t=2,m=1"]:
        spec = parse_spec(text)
        gens = build(spec)
        assert gens.spec == spec
        assert len(gens.elements) == spec.expected_degree()
        assert gens.directed == spec.directed
