"""Competitor orders, Moore bounds, corollary certificates, block lengths.

Every value that enters a verdict is an exact integer or Fraction.  The
handful of quantities that involve binary logarithms (the corollary
certificates and the undirected lower bound) are bracketed by rational
enclosures of width < 1e-9 obtained from integer power comparisons; a
comparison whose threshold falls inside an enclosure is reported as
``"boundary"`` rather than guessed.  No floating-point number ever decides
a verdict (the continuous block-length prediction is float, but it is a
cross-check only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .generators import ConstructionSpec, corollary_params
from .group import ParameterError

HOLDS = "holds"
FAILS = "fails"
BOUNDARY = "boundary"

#: Construction families eligible to win a comparison row.  Moore is a
#: bound, not a construction, and the De Bruijn baselines are not Cayley
#: graphs; both appear as informational columns only.
_WINNER_POOL_DIRECTED = ("thm1", "vetrik")
_WINNER_POOL_UNDIRECTED = ("thm2", "mssv", "mss")
_FRAC_BITS = 48  # the fractional bits of a log2 enclosure


# --- Moore bounds and competitor orders -------------------------------------

def moore_bound(d: int, k: int, directed: bool) -> int:
    """Moore bound on the order of a (di)graph of max (out)degree d, diameter k.

    Directed: 1 + d + d^2 + ... + d^k.  Undirected:
    1 + d*((d-1)^k - 1)/(d-2) for d >= 3, with the cycle/path counts
    1 + 2k for d = 2 and 2 for d = 1 as the degenerate cases.
    """
    if d < 1 or k < 1:
        raise ParameterError(f"Moore bound needs d >= 1 and k >= 1, got d={d}, k={k}")
    if directed:
        if d == 1:
            return k + 1
        return (d ** (k + 1) - 1) // (d - 1)
    if d == 1:
        return 1 + d
    if d == 2:
        return 1 + 2 * k
    return 1 + d * ((d - 1) ** k - 1) // (d - 2)


def debruijn_order(d: int, k: int, directed: bool) -> int | None:
    """Order of the (non-Cayley) De Bruijn baseline at degree d, diameter k."""
    if directed:
        return d**k if d >= 2 else None
    t = d // 2
    return t**k if t >= 2 else None


def competitor_orders(d: int, k: int, directed: bool) -> dict[str, int]:
    """Exact orders of prior constructions plus baselines at (d, k).

    Directed rows carry ``vetrik`` (k >= 3, d >= 4); undirected rows carry
    ``mssv`` (k >= 3, d >= 5) and ``mss`` (k >= 3, d >= 8, below which its
    formula drops under 1).  ``moore`` and ``debruijn`` are informational.
    Out-of-range families are omitted.
    """
    orders: dict[str, int] = {}
    if directed:
        if k >= 3 and d >= 4:
            orders["vetrik"] = k * (d // 2) ** k
    else:
        if k >= 3 and d >= 5:
            orders["mssv"] = k * ((d + 1) // 3) ** k
        if k >= 3 and d >= 8:
            orders["mss"] = k * (2 * ((d - 2) // 6) + 1) ** k - k
    baseline = debruijn_order(d, k, directed)
    if baseline is not None:
        orders["debruijn"] = baseline
    orders["moore"] = moore_bound(d, k, directed)
    return orders


# --- rational enclosures for binary logarithms ------------------------------

def exact_log2_le(x: Fraction, y: Fraction, strict: bool = False) -> bool:
    """Decide log2(x) <= y (or < y) exactly via integer powers.

    log2(a/b) <= p/q  iff  a^q * 2^max(0,-p) <= b^q * 2^max(0,p).
    """
    x = Fraction(x)
    y = Fraction(y)
    if x <= 0:
        raise ParameterError("log2 needs a positive argument")
    p, q = y.numerator, y.denominator
    lhs = x.numerator**q
    rhs = x.denominator**q
    if p >= 0:
        rhs <<= p
    else:
        lhs <<= -p
    return lhs < rhs if strict else lhs <= rhs


def log2_enclosure(x: Fraction | int) -> tuple[Fraction, Fraction]:
    """Rational interval [lo, hi] containing log2(x), of width 2**-_FRAC_BITS.

    Bit-by-bit: normalise x into [1, 2) tracking the integer exponent, then
    repeatedly square a scaled-integer enclosure of the mantissa with
    outward rounding; each certified comparison against 2 yields one bit of
    the fractional part.  If rounding ever makes a comparison ambiguous the
    remaining bits are conceded and the (still valid) wider interval is
    returned.
    """
    x = Fraction(x)
    if x <= 0:
        raise ParameterError("log2 needs a positive argument")
    num, den = x.numerator, x.denominator

    # x lies in (2^(e-1), 2^(e+1)); the mantissa x / 2^e is scaled_num / scaled_den
    exponent = num.bit_length() - den.bit_length()
    if exponent >= 0:
        scaled_num, scaled_den = num, den << exponent
    else:
        scaled_num, scaled_den = num << -exponent, den
    if scaled_num < scaled_den:
        exponent -= 1
        scaled_num <<= 1

    work = 2 * _FRAC_BITS + 32
    lo = (scaled_num << work) // scaled_den
    hi = lo if lo * scaled_den == scaled_num << work else lo + 1

    two = 2 << work
    bits = 0
    produced = 0
    for _ in range(_FRAC_BITS):
        lo = (lo * lo) >> work
        hi = -((-(hi * hi)) >> work)
        if lo >= two:
            bit = 1
            lo >>= 1
            hi = -((-hi) >> 1)
        elif hi < two:
            bit = 0
        else:
            break  # rounding made the bit ambiguous; concede the rest
        bits = (bits << 1) | bit
        produced += 1
    frac_lo = Fraction(bits, 1 << produced) if produced else Fraction(0)
    width = Fraction(1, 1 << produced) if produced else Fraction(1)
    return exponent + frac_lo, exponent + frac_lo + width


def _interval_pow(lo: Fraction, hi: Fraction, k: int) -> tuple[Fraction, Fraction]:
    if lo >= 0 or k % 2 == 1:
        return lo**k, hi**k
    # even power of an interval spanning or below zero
    candidates = (lo**k, hi**k)
    low = Fraction(0) if lo < 0 < hi else min(candidates)
    return low, max(candidates)


def _compare_ge(lo: Fraction, hi: Fraction, threshold: Fraction, strict: bool = False) -> str:
    """Verdict for 'interval value >= threshold' (or > with strict)."""
    if (lo > threshold) if strict else (lo >= threshold):
        return HOLDS
    if (hi <= threshold) if strict else (hi < threshold):
        return FAILS
    return BOUNDARY


# --- corollary lower bounds and certificates --------------------------------

def _undirected_log_terms(k: int, d: int) -> tuple[Fraction, Fraction]:
    """Enclosure of k*log2(d/2) - log2(log2(d)) - log2(8k^2)."""
    half_lo, half_hi = log2_enclosure(Fraction(d, 2))
    dlog_lo, dlog_hi = log2_enclosure(Fraction(d))
    loglog_lo, loglog_hi = log2_enclosure(dlog_lo)[0], log2_enclosure(dlog_hi)[1]
    const_lo, const_hi = log2_enclosure(Fraction(8 * k * k))
    return k * half_lo - loglog_hi - const_hi, k * half_hi - loglog_lo - const_lo


def corollary_lower_bound(
    k: int, d: int, directed: bool
) -> tuple[Fraction, Fraction]:
    """Lower bound on achievable order at degree d, as a rational interval.

    Directed: (1/k) * ((k/(k+2)) * (d+1))^k, exact (lo == hi).
    Undirected: (1/k) * ((k/(2k+4)) * (d + k*log2(d/2) - log2(log2(d))
    - log2(8k^2)))^k, with the logarithms bracketed by rational enclosures.
    """
    if k < 3:
        raise ParameterError(f"corollary bounds require k >= 3, got k={k}")
    if directed:
        value = Fraction(k ** (k - 1) * (d + 1) ** k, (k + 2) ** k)
        return value, value
    if d < 3:
        raise ParameterError(f"undirected corollary bound needs d >= 3, got d={d}")
    terms_lo, terms_hi = _undirected_log_terms(k, d)
    coeff = Fraction(k, 2 * k + 4)
    plo, phi = _interval_pow(coeff * (d + terms_lo), coeff * (d + terms_hi), k)
    return plo / k, phi / k


@dataclass
class CorollaryCertificate:
    """Numeric audit of the inequality chain behind the corollary bound.

    ``theta`` is log2(k^2*ell)/(k*ell); ``n0`` is a certified integer lower
    bound on the order; ``d_plus``/``q`` bound the directed degree and half
    the undirected degree-plus-r.  ``checks`` maps each inequality to
    holds/fails/boundary and ``inequality_holds`` is True only when every
    check certainly holds.
    """

    k: int
    ell: int
    r: int
    m: int
    d_directed: int
    d_undirected: int
    order: int
    theta: tuple[Fraction, Fraction]
    n0: int
    d_plus: tuple[Fraction, Fraction]
    q: tuple[Fraction, Fraction]
    checks: dict[str, str]
    inequality_holds: bool


def corollary_certificate(k: int, ell: int | str = "auto") -> CorollaryCertificate:
    """Evaluate the corollary inequality chain at concrete (k, ell)."""
    sel = corollary_params(k, ell)
    k, ell, r, m = sel.k, sel.ell, sel.r, sel.m
    kl = k * ell
    k2l = k * k * ell

    log_lo, log_hi = log2_enclosure(Fraction(k2l))
    theta = (log_lo / kl, log_hi / kl)

    # n0 = (k*ell - log2(k^2*ell)) * 2^(k*ell) / (k^2*ell)
    pow_kl = Fraction(1 << kl)
    n0_lo = (kl - log_hi) * pow_kl / k2l
    n0_hi = (kl - log_lo) * pow_kl / k2l
    n0_int = math.floor(n0_lo)

    # q = d_plus + 1 = (1 + 2/k - 2*log2(k^2*ell)/(k^2*ell)) * 2^ell
    pow_l = Fraction(1 << ell)
    q_lo = (1 + Fraction(2, k) - 2 * log_hi / k2l) * pow_l
    q_hi = (1 + Fraction(2, k) - 2 * log_lo / k2l) * pow_l
    d_plus = (q_lo - 1, q_hi - 1)

    checks: dict[str, str] = {}
    # theta <= 3/(4k) is equivalent to the ell-condition; decide exactly.
    checks["theta_le_3_over_4k"] = (
        HOLDS if exact_log2_le(Fraction(k2l), Fraction(3 * ell, 4)) else FAILS
    )
    checks["3_over_4k_le_1_over_4"] = HOLDS if Fraction(3, 4 * k) <= Fraction(1, 4) else FAILS
    checks["theta_le_k_minus_2_over_2k_minus_2"] = (
        HOLDS
        if exact_log2_le(Fraction(k2l), Fraction(kl * (k - 2), 2 * k - 2))
        else FAILS
    )
    # main chain: k * n0 * ((k/(k+2)) * (d_plus + 1))^-k >= 1
    coeff = Fraction(k, k + 2)
    den_lo, den_hi = _interval_pow(coeff * q_lo, coeff * q_hi, k)
    chain_lo = k * n0_lo / den_hi
    chain_hi = k * n0_hi / den_lo
    checks["k_n0_ratio_ge_1"] = _compare_ge(chain_lo, chain_hi, Fraction(1))
    # the realised directed degree stays below its rounded bound
    checks["degree_le_d_plus"] = _compare_ge(
        d_plus[0] - sel.d_directed, d_plus[1] - sel.d_directed, Fraction(0)
    )
    # undirected: r exceeds k*log2(d/2) - log2(log2(d)) - log2(8k^2)
    rhs_lo, rhs_hi = _undirected_log_terms(k, sel.d_undirected)
    checks["undirected_r_lower_bound"] = _compare_ge(
        r - rhs_hi, r - rhs_lo, Fraction(0), strict=True
    )

    return CorollaryCertificate(
        k=k,
        ell=ell,
        r=r,
        m=m,
        d_directed=sel.d_directed,
        d_undirected=sel.d_undirected,
        order=sel.thm3_spec().group_params().order(),
        theta=theta,
        n0=n0_int,
        d_plus=d_plus,
        q=(q_lo, q_hi),
        checks=checks,
        inequality_holds=all(v == HOLDS for v in checks.values()),
    )


# --- block-length optimisation ----------------------------------------------

@dataclass
class OptimalEll:
    """Degree-minimising block length for fixed (k, t, r)."""

    ell: int
    m: int
    degree: int
    ell_star: float
    candidates: list[tuple[int, int, int]]  # (ell, m, degree)


def optimal_ell(k: int, t: int, r: int) -> OptimalEll:
    """Exhaustive search for the ell minimising t^ell + (r-1)*t^(r-(k-1)ell) - 1.

    Only ell with 0 < m = r - (k-1)*ell < ell are admissible; ties go to
    the smaller ell.  The continuous stationary point
    ell* = (r + log_t((k-1)(r-1))) / k is reported as a cross-check.
    """
    if k < 2 or t < 2 or r < 3:
        raise ParameterError(
            f"optimal_ell needs k >= 2, t >= 2, r >= 3, got k={k}, t={t}, r={r}"
        )
    candidates = []
    for ell in range(2, r + 1):
        m = r - (k - 1) * ell
        if 0 < m < ell:
            degree = ConstructionSpec("thm3", k=k, ell=ell, t=t, m=m).expected_degree()
            candidates.append((ell, m, degree))
    if not candidates:
        raise ParameterError(f"no admissible ell for k={k}, t={t}, r={r}")
    best = min(candidates, key=lambda c: (c[2], c[0]))
    ell_star = (r + math.log((k - 1) * (r - 1), t)) / k
    return OptimalEll(ell=best[0], m=best[1], degree=best[2],
                      ell_star=ell_star, candidates=candidates)


# --- side-by-side comparison rows -------------------------------------------

@dataclass
class BoundRow:
    """Exact order comparison at one (d, k) pair."""

    k: int
    d: int
    directed: bool
    our_name: str
    our_order: int | None
    competitor_orders: dict[str, int]
    winner: str | None

    def moore(self) -> int:
        return self.competitor_orders["moore"]


def compare(d: int, k: int, directed: bool = True) -> BoundRow:
    """Fill a comparison row with every order computable at (d, k).

    The winner is the largest Cayley construction (ties go to ours); the
    Moore bound and the De Bruijn baselines are informational columns.
    """
    our_name = "thm1" if directed else "thm2"
    our_order: int | None = None
    try:
        our_order = ConstructionSpec(our_name, k=k, d=d).group_params().order()
    except ParameterError:
        pass
    competitors = competitor_orders(d, k, directed)
    pool = _WINNER_POOL_DIRECTED if directed else _WINNER_POOL_UNDIRECTED
    orders = {our_name: our_order, **competitors}
    defined = [name for name in pool if orders.get(name) is not None]
    if not defined:
        raise ParameterError(f"no construction is defined at d={d}, k={k}")
    # max keeps the first of equal orders, and the pool lists ours first
    winner = max(defined, key=orders.get)
    return BoundRow(
        k=k,
        d=d,
        directed=directed,
        our_name=our_name,
        our_order=our_order,
        competitor_orders=competitors,
        winner=winner,
    )
