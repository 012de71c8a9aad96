"""Group arithmetic: laws, the shift automorphism, and dense indexing."""

import random

import pytest

from dbcayley import (
    GroupElement,
    GroupParams,
    ParameterError,
    shift_alpha,
)

PARAM_GRID = [(2, 3), (3, 4), (5, 6)]


def random_element(params, rng):
    return params.decode(rng.randrange(params.order()))


# --- parameter validation ----------------------------------------------------

@pytest.mark.parametrize("t,r", [(1, 3), (0, 2), (2, 1), (-2, 5)])
def test_rejects_bad_parameters(t, r):
    with pytest.raises(ParameterError):
        GroupParams(t, r)


def test_order_formula():
    assert GroupParams(2, 3).order() == 24
    assert GroupParams(3, 3).order() == 81
    assert GroupParams(2, 21).order() == 44_040_192


# --- the cyclic shift automorphism -------------------------------------------

def test_shift_alpha_basic():
    assert shift_alpha((1, 0, 0), 1) == (0, 1, 0)
    assert shift_alpha((1, 0, 0), -1) == (0, 0, 1)


@pytest.mark.parametrize("r", range(2, 9))
def test_shift_alpha_power_laws_exhaustive(r):
    vec = tuple(range(r))  # distinct entries expose any mis-rotation
    assert shift_alpha(vec, 0) == vec
    assert shift_alpha(vec, r) == vec
    for s in range(r):
        for s2 in range(r):
            assert shift_alpha(shift_alpha(vec, s2), s) == shift_alpha(vec, s + s2)


def test_shift_alpha_inverse_exhaustive_z2_cubed():
    # alpha o alpha^-1 is the identity on all of Z_2^3
    for v in range(8):
        vec = tuple((v >> i) & 1 for i in range(3))
        assert shift_alpha(shift_alpha(vec, -1), 1) == vec


# --- group laws ---------------------------------------------------------------

def test_identity_shape():
    assert GroupParams(2, 3).identity() == GroupElement((0, 0, 0), 0)
    assert GroupParams(5, 6).identity() == GroupElement((0,) * 6, 0)


@pytest.mark.parametrize("t,r", PARAM_GRID)
def test_group_laws_random(t, r):
    params = GroupParams(t, r)
    rng = random.Random(20240 + t * 10 + r)
    e = params.identity()
    for _ in range(2000):
        x = random_element(params, rng)
        y = random_element(params, rng)
        z = random_element(params, rng)
        assert params.mul(params.mul(x, y), z) == params.mul(x, params.mul(y, z))
        assert params.mul(e, x) == x
        assert params.mul(x, e) == x
        assert params.mul(x, params.inv(x)) == e
        assert params.mul(params.inv(x), x) == e


def test_group_laws_exhaustive_24():
    params = GroupParams(2, 3)
    elems = list(params.elements())
    e = params.identity()
    for x in elems:
        assert params.mul(x, params.inv(x)) == e
        for y in elems:
            for z in elems:
                assert params.mul(params.mul(x, y), z) == params.mul(x, params.mul(y, z))


def test_shift_homomorphism():
    params = GroupParams(3, 4)
    rng = random.Random(7)
    for _ in range(500):
        x = random_element(params, rng)
        y = random_element(params, rng)
        assert params.mul(x, y).shift == (x.shift + y.shift) % params.r


def test_product_matches_coordinate_expansion():
    # (a,0,0;1)*(b,0,0;1)*(c,0,0;1) = (a,b,c;0) over all of Z_2
    params = GroupParams(2, 3)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                prod = params.mul(
                    params.mul(params.element([a, 0, 0], 1), params.element([b, 0, 0], 1)),
                    params.element([c, 0, 0], 1),
                )
                assert prod == GroupElement((a, b, c), 0)


def test_pure_shift_addition():
    params = GroupParams(2, 3)
    s2 = params.element([0, 0, 0], 2)
    assert params.mul(s2, s2) == params.element([0, 0, 0], 1)


def test_inverse_closed_form():
    # (a,0,...,0;1)^-1 = (0,...,0,-a;-1)
    for t, r in PARAM_GRID:
        params = GroupParams(t, r)
        for a in range(t):
            inv = params.inv(params.element([a] + [0] * (r - 1), 1))
            assert inv == params.element([0] * (r - 1) + [-a], -1)


def test_inverse_matches_exhaustive_search():
    # the unique y with x*y = y*x = e over all 24 elements
    params = GroupParams(2, 3)
    x = params.element([1, 0, 0], 1)
    e = params.identity()
    matches = [
        y for y in params.elements()
        if params.mul(x, y) == e and params.mul(y, x) == e
    ]
    assert matches == [GroupElement((0, 0, 1), 2)]
    assert params.inv(x) == matches[0]


def test_inverse_of_identity():
    params = GroupParams(5, 6)
    assert params.inv(params.identity()) == params.identity()


def test_canonical_residues():
    params = GroupParams(3, 4)
    el = params.element([-1, 7, 3, -6], -5)
    assert all(0 <= c < 3 for c in el.vector)
    assert 0 <= el.shift < 4
    assert el == params.element([2, 1, 0, 0], 3)


def test_mul_rejects_mismatched_vectors():
    params = GroupParams(2, 3)
    alien = GroupElement((1, 0), 1)
    with pytest.raises(ParameterError):
        params.mul(params.identity(), alien)
    with pytest.raises(ParameterError, match="vector length 2 does not match r=3"):
        params.element([1, 0], 0)


# --- dense indexing -----------------------------------------------------------

def test_encode_layout_fixed_points():
    params = GroupParams(2, 3)
    assert params.encode(params.identity()) == 0
    assert params.encode(params.element([1, 0, 0], 0)) == 1
    assert params.encode(params.element([1, 1, 1], 2)) == 23


@pytest.mark.parametrize("t,r", [(2, 3), (3, 4), (2, 10), (5, 6)])
def test_encode_decode_roundtrip_exhaustive(t, r):
    params = GroupParams(t, r)
    assert params.canonical(tuple(params.elements())) and params.canonical(())
    for index, element in enumerate(params.elements()):
        assert params.encode(element) == index
        assert params.decode(index) == element


def test_encode_decode_roundtrip_random_large():
    params = GroupParams(3, 13)  # order 20,726,199 > 10**6
    rng = random.Random(99)
    for _ in range(300):
        index = rng.randrange(params.order())
        assert params.encode(params.decode(index)) == index


def test_encode_decode_roundtrip_above_state_cap():
    # index arithmetic allocates nothing, so it takes any order; refusals
    # belong to the operations that spend memory
    params = GroupParams(2, 30)  # order 30 * 2**30 > 2**27
    n = params.order()
    assert params.encode(params.decode(n - 1)) == n - 1
    assert params.encode(params.identity()) == 0


@pytest.mark.parametrize("element", [
    GroupElement((2, 0, 0), 0),  # would alias (0, 1, 0; 0)
    GroupElement((0, -1, 0), 1),
    GroupElement((0, 0, 0), 3),  # would be index 24, the order
    GroupElement((1, 0, 0), -1),
    GroupElement((1, 0), 1),  # a vector of length r - 1
])
def test_encode_rejects_non_canonical_residues(element):
    # canonical states encode's rule for a whole set
    params = GroupParams(2, 3)
    with pytest.raises(ParameterError):
        params.encode(element)
    assert not params.canonical([params.identity(), element])


def test_decode_rejects_out_of_range():
    params = GroupParams(2, 3)
    with pytest.raises(ParameterError):
        params.decode(24)
    with pytest.raises(ParameterError):
        params.decode(-1)
