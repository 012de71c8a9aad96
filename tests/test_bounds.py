"""Exact bound formulas, log enclosures, certificates, block-length search."""

import math
from fractions import Fraction
from math import isqrt

import pytest

from dbcayley import (
    ConstructionSpec,
    ParameterError,
    compare,
    competitor_orders,
    corollary_certificate,
    corollary_lower_bound,
    corollary_params,
    debruijn_order,
    exact_log2_le,
    log2_enclosure,
    moore_bound,
    optimal_ell,
)
from dbcayley.bounds import BOUNDARY, FAILS, HOLDS, _compare_ge


# --- Moore bounds and competitors ------------------------------------------------

def test_moore_directed():
    assert moore_bound(7, 2, True) == 57
    assert moore_bound(1, 3, True) == 4
    assert moore_bound(3, 4, True) == 1 + 3 + 9 + 27 + 81


def test_moore_undirected():
    assert moore_bound(3, 2, False) == 10  # met by the Petersen graph
    assert moore_bound(4, 3, False) == 1 + 4 * (27 - 1) // 2
    assert moore_bound(2, 5, False) == 11  # cycle C_11
    assert moore_bound(1, 4, False) == 2


def test_moore_rejects_degenerate():
    with pytest.raises(ParameterError):
        moore_bound(0, 3, True)
    with pytest.raises(ParameterError):
        moore_bound(3, 0, True)


def test_competitor_orders_directed():
    orders = competitor_orders(8, 4, directed=True)
    assert orders["vetrik"] == 4 * 4**4 == 1024
    assert orders["debruijn"] == 8**4
    assert orders["moore"] == moore_bound(8, 4, True)
    assert "mssv" not in orders


def test_competitor_orders_undirected():
    orders = competitor_orders(100, 20, directed=False)
    assert orders["mssv"] == 20 * 33**20
    assert orders["mss"] == 20 * (2 * 16 + 1) ** 20 - 20
    assert orders["debruijn"] == 50**20
    assert "vetrik" not in orders


def test_mss_footnote_value():
    assert competitor_orders(8, 3, directed=False)["mss"] == 3 * 3**3 - 3 == 78


def test_out_of_range_families_omitted():
    assert "vetrik" not in competitor_orders(3, 4, directed=True)
    assert "mssv" not in competitor_orders(4, 2, directed=False)
    assert "mss" not in competitor_orders(7, 3, directed=False)


def test_debruijn_baseline():
    assert debruijn_order(8, 4, True) == 4096
    assert debruijn_order(9, 4, False) == 4**4
    assert debruijn_order(3, 4, False) is None


# --- construction orders -----------------------------------------------------------

def test_construction_order_closed_forms():
    def order(spec):
        return spec.group_params().order()

    assert order(ConstructionSpec("thm1", k=4, d=8)) == 3 * 7**3 == 1029
    assert order(ConstructionSpec("thm2", k=20, d=100)) == 19 * 42**19
    assert order(ConstructionSpec("thm3", k=3, ell=9, t=2, m=3)) == 21 * 2**21 == 44_040_192


# --- log2 machinery ------------------------------------------------------------------

def test_log2_enclosure_exact_powers():
    lo, hi = log2_enclosure(1024)
    assert lo == 10
    assert hi - lo < Fraction(1, 10**9)
    lo, hi = log2_enclosure(Fraction(1, 8))
    assert lo == -3


def test_log2_enclosure_brackets_true_value():
    for value in [3, 5, 81, 657, Fraction(3, 7), Fraction(1315, 2)]:
        lo, hi = log2_enclosure(value)
        assert hi - lo < Fraction(1, 10**9)
        true = math.log2(float(value))
        assert float(lo) <= true + 1e-12
        assert float(hi) >= true - 1e-12


def test_log2_enclosure_within_exact_rational_brackets():
    # 19/3 < log2(81) < 32/5, both sides decided by pure integer powers
    assert not exact_log2_le(Fraction(81), Fraction(19, 3))
    assert exact_log2_le(Fraction(81), Fraction(32, 5))
    lo, hi = log2_enclosure(81)
    assert Fraction(19, 3) < lo <= hi < Fraction(32, 5)


def test_log2_enclosure_concedes_an_ambiguous_bit():
    # x is within 2^-130 of sqrt(2), so x^2 straddles 2 at the first bit:
    # every fractional bit is conceded and the interval has width 1
    x = Fraction(isqrt(2 << 260), 1 << 130)
    assert abs(x * x - 2) < Fraction(1, 1 << 128)
    lo, hi = log2_enclosure(x)
    assert (lo, hi) == (0, 1)
    assert float(lo) <= math.log2(float(x)) <= float(hi)


@pytest.mark.parametrize("call", [
    lambda: log2_enclosure(0),
    lambda: exact_log2_le(Fraction(0), Fraction(1)),
    lambda: corollary_lower_bound(2, 10, True),
    lambda: corollary_lower_bound(3, 2, False),
])
def test_log2_and_lower_bound_refusals(call):
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize("lo,hi,strict,verdict", [
    (2, 3, False, HOLDS),
    (0, 2, False, BOUNDARY),
    (0, 1, False, FAILS),
    (3, 4, True, HOLDS),
    (2, 3, True, BOUNDARY),
    (0, 2, True, FAILS),
])
def test_compare_ge_verdicts(lo, hi, strict, verdict):
    # is the value in [lo, hi] at least 2 (strict: above 2)?
    assert _compare_ge(Fraction(lo), Fraction(hi), Fraction(2), strict=strict) == verdict


def test_exact_log2_le():
    assert exact_log2_le(Fraction(8), Fraction(3))
    assert not exact_log2_le(Fraction(8), Fraction(3), strict=True)
    assert exact_log2_le(Fraction(81), Fraction(27, 4))  # the k=3, ell=9 condition
    assert not exact_log2_le(Fraction(72), Fraction(6))  # the rejected ell=8
    assert exact_log2_le(Fraction(1, 8), Fraction(-3))
    assert not exact_log2_le(Fraction(1, 4), Fraction(-3))


def test_undirected_bound_interval_is_ordered_even_when_inner_negative():
    # tiny d makes the bracketed expression negative; the interval must
    # still be a valid (lo <= hi) pair of rationals
    lo, hi = corollary_lower_bound(4, 3, False)
    assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
    assert lo <= hi


# --- corollary bounds and certificates -------------------------------------------------

def test_directed_lower_bound_exact_value():
    lo, hi = corollary_lower_bound(3, 671, True)
    assert lo == hi == Fraction(2_731_180_032, 125)
    assert float(lo) == 21_849_440.256


def test_directed_lower_bound_below_moore():
    for k in (3, 4, 5):
        for d in (50, 671, 2000):
            _, hi = corollary_lower_bound(k, d, True)
            assert hi < moore_bound(d, k, True)


def test_certificate_k3():
    cert = corollary_certificate(3)
    assert (cert.ell, cert.r, cert.m) == (9, 21, 3)
    assert cert.d_directed == 671
    assert cert.order == 44_040_192
    theta_lo, theta_hi = cert.theta
    assert theta_hi - theta_lo < Fraction(1, 10**9)
    assert abs(float(theta_lo) - 0.2348) < 1e-3
    assert theta_hi <= Fraction(1, 4)
    assert cert.inequality_holds
    assert all(v == "holds" for v in cert.checks.values())
    # the certified integer lower bound on the order is honest
    assert cert.n0 <= cert.order


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_certificate_chain_holds_for_auto_ell(k):
    cert = corollary_certificate(k)
    assert cert.inequality_holds


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_order_meets_lower_bounds(k):
    sel = corollary_params(k)
    order = sel.thm3_spec().group_params().order()
    _, hi = corollary_lower_bound(k, sel.d_directed, True)
    assert order >= hi
    _, hi_und = corollary_lower_bound(k, sel.d_undirected, False)
    assert order >= hi_und


def test_certificate_rejects_small_k():
    with pytest.raises(ParameterError):
        corollary_certificate(2)


def test_certificate_rejects_bad_ell():
    with pytest.raises(ParameterError):
        corollary_certificate(3, 8)


# --- optimal block length ----------------------------------------------------------------

def test_optimal_ell_k3_r21():
    result = optimal_ell(3, 2, 21)
    assert (result.ell, result.m, result.degree) == (9, 3, 671)
    assert dict((e, deg) for e, _, deg in result.candidates) == {
        8: 895, 9: 671, 10: 1063
    }
    assert abs(result.ell_star - 8.774) < 0.01


def test_optimal_ell_single_candidate():
    result = optimal_ell(2, 2, 3)
    assert (result.ell, result.m, result.degree) == (2, 1, 7)


def test_optimal_ell_no_candidates():
    with pytest.raises(ParameterError):
        optimal_ell(6, 2, 6)


def test_optimal_ell_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        optimal_ell(1, 2, 9)
    with pytest.raises(ParameterError):
        optimal_ell(2, 2, 2)


def test_optimal_ell_sweep_tracks_continuous_prediction():
    for k in range(2, 7):
        for t in range(2, 5):
            for r in range(3, 61):
                try:
                    result = optimal_ell(k, t, r)
                except ParameterError:
                    continue
                rounded = round(result.ell_star)
                assert abs(result.ell - rounded) <= 1, (k, t, r, result)
                # exhaustive minimum cannot lose to the clamped prediction
                valid = {e: deg for e, _, deg in result.candidates}
                clamped = min(max(rounded, min(valid)), max(valid))
                if clamped in valid:
                    assert result.degree <= valid[clamped]


# --- comparison rows ------------------------------------------------------------------------

def test_compare_directed_crossover():
    row8 = compare(8, 4, directed=True)
    assert row8.our_order == 1029
    assert row8.competitor_orders["vetrik"] == 1024
    assert row8.winner == "thm1"

    row10 = compare(10, 4, directed=True)
    assert row10.our_order == 2187
    assert row10.competitor_orders["vetrik"] == 2500
    assert row10.winner == "vetrik"


def test_compare_undirected_large():
    row = compare(100, 20, directed=False)
    assert row.our_order == 19 * 42**19
    assert row.winner == "thm2"
    assert row.our_order > row.competitor_orders["mssv"]
    # sanity on the reported ratio magnitude
    ratio = row.our_order / row.competitor_orders["mssv"]
    assert 2.5 < ratio < 3.2


def test_compare_our_order_below_moore():
    for d in range(5, 30):
        row = compare(d, 4, directed=True)
        assert row.our_order <= row.moore()
        row_u = compare(d, 5, directed=False) if d >= 6 else None
        if row_u and row_u.our_order is not None:
            assert row_u.our_order <= row_u.moore()


def test_compare_without_our_construction():
    row = compare(6, 3, directed=True)  # thm1 needs k >= 4
    assert row.our_order is None
    assert row.winner == "vetrik"


def test_compare_rejects_empty_row():
    with pytest.raises(ParameterError):
        compare(2, 2, directed=True)
