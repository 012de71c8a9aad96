"""Exact distance histograms of support-closed generator sets, from digit supports.

Write V_J for the vectors of Z_t^r whose support, the set of digit places
where they are nonzero, lies in a set J of places.  Two facts hold:
V_A + V_B = V_{A ∪ B}, and alpha^c(V_J) = V_{J + c}, where alpha^c moves
place i to (i + c) mod r.

**Lemma.**  Call a generator set *support-closed* when, for every shift s,
the vectors of its generators at shift s are exactly the union of V_J over a
family M_s of supports; at s = 0 the zero vector, the identity, may be
missing, since it costs no step.  Every family of the paper is: thm1 has
V_{0} at shift 1 and V_∅ at each pure shift, thm2 adds V_{r-1} at shift -1,
thm3 has V_[0,l) at shift l and V_[0,m) at every other shift, and thm4's
six classes unite to such sets at every shift.  A word ending at shift c
whose vectors fill V_S, followed by a letter (v; s) with v in V_J, fills
V_{S ∪ (J + c)} at shift c + s.  So the ball of radius j at shift c is the
union of V_S over the supports S that words of at most j letters place when
they end at shift c, and a vertex's distance depends only on (supp x, c).

**Hypothesis check.**  Per shift s, C_s is the set of distinct generator
vectors (with the zero vector at s = 0) and M_s the maximal supports among
them.  C_s lies in the union of V_J over M_s, so the set is support-closed
exactly when that union has |C_s| vectors; otherwise :func:`histogram`
returns None.

**Antichain BFS.**  A(c) holds the maximal supports of the ball at shift c,
starting from A(0) = {∅}.  Each level, shift c + s gains S ∪ (J + c) for
every S in A(c) and J in M_s; the old sets are kept, since the balls are
nested, and the result is reduced to its maximal sets.  Only the sets that
joined A(c) on the level before can extend to a support not yet covered, so
only they are extended, and a shift none joined is skipped; each family is
rotated to J + c once per call.

**Ball sizes.**  The ball at shift c has t^|S| vectors when A(c) = {S}
(t^r once S holds every place).  Otherwise its size is split place by
place: a place p that every member holds is free, a factor t; else the
vectors with a nonzero digit at p lie in the members that hold p (less p),
and those with a zero there in every member less p.  Both parts are
antichains again, and equal parts are counted once.  A level's count is
the growth of the balls over all shifts; a level that adds nothing ends the
search with the balls short of the group, as a disconnected set does.

**Budget.**  Every pairwise subset or intersection test counts as one unit.
A split of a ball size charges its tests before it runs them; a reduction
to the maximal sets charges its tests together when it is done, since how
many there are depends on which sets it keeps.  The caller passes the
budget (n, the bytes of the dense BFS's level map, in
:mod:`dbcayley.cayley`); once the units charged pass it, :func:`histogram`
returns None.  So whether a set gets a histogram depends only on the units
it costs in total, and the work abandoned passes the budget by at most one
reduction: L (L - 1) / 2 tests for L candidate sets.  Deep t = 2 sets,
whose antichains grow wide, end here and go to the dense BFS.

Supports are bit masks (place i is bit i), and the module is pure Python.
It reads a :class:`~dbcayley.generators.GeneratorSet`'s vectors and shifts
as they are: the set is canonical by construction, so distinct vectors at a
shift are distinct elements.
"""

from __future__ import annotations

from itertools import compress

from .generators import GeneratorSet


class _OverBudget(Exception):
    """The subset and intersection tests charged have passed the budget."""


class _Work:
    """Units of work left: subset and intersection tests."""

    def __init__(self, budget: float):
        self.left = budget

    def spend(self, units: int) -> None:
        self.left -= units
        if self.left < 0:
            raise _OverBudget


def _maximal(masks: set[int], work: _Work) -> list[int]:
    """The maximal masks of ``masks``, widest first, then by value.

    Each mask is tested against the masks kept before it, one unit a test,
    charged together once the call is done."""
    order = sorted(masks)
    order.sort(key=int.bit_count, reverse=True)  # stable: ties keep value order
    kept: list[int] = []
    units = 0
    for x in order:
        units += len(kept)
        for y in kept:
            if x & y == x:
                break
        else:
            kept.append(x)
    work.spend(units)
    return kept


def _union_size(antichain: list[int], t: int, work: _Work) -> int:
    """How many vectors lie in the union of V_J over J in ``antichain``,
    split place by place (see the module docstring), lowest place first."""
    memo: dict[tuple[int, ...], int] = {}

    def count(family: tuple[int, ...]) -> int:
        if len(family) <= 1:
            return t ** family[0].bit_count() if family else 0
        if len(family) == 2:
            a, b = family
            return t ** a.bit_count() + t ** b.bit_count() - t ** (a & b).bit_count()
        value = memo.get(family)
        if value is not None:
            return value
        work.spend(len(family))
        core, every = -1, 0
        for x in family:
            core &= x
            every |= x
        if core:
            value = t ** core.bit_count() * count(tuple(sorted([x & ~core for x in family])))
        else:
            p = every & -every
            holding = [x ^ p for x in family if x & p]
            rest = [x for x in family if not x & p]
            # a member without p is never inside one that held it
            work.spend(len(holding) * len(rest))
            merged = rest[:]
            for h in holding:
                for x in rest:
                    if h & x == h:
                        break
                else:
                    merged.append(h)
            merged.sort()
            holding.sort()
            value = (t - 1) * count(tuple(holding)) + count(tuple(merged))
        memo[family] = value
        return value

    size = count(tuple(sorted(antichain)))
    # count refers to itself, so without this the memo would stay alive
    # until the cycle collector runs
    memo.clear()
    return size


def _families(gens: GeneratorSet, work: _Work) -> list[list[int]] | None:
    """M_s per shift s, or None when the set is not support-closed."""
    t, r = gens.params.t, gens.params.r
    places = [1 << i for i in range(r)]
    vectors: list[set[tuple[int, ...]]] = [set() for _ in range(r)]
    vectors[0].add((0,) * r)  # the identity costs no step
    for vec, shift in gens.elements:
        vectors[shift].add(vec)
    families = []
    for distinct in vectors:
        # a support mask sums the bits of the nonzero places
        family = _maximal({sum(compress(places, vec)) for vec in distinct}, work)
        if _union_size(family, t, work) != len(distinct):
            return None
        families.append(family)
    return families


def histogram(gens: GeneratorSet, budget: float) -> list[int] | None:
    """Vertices per distance from the identity in the Cayley (di)graph of
    ``gens``, or None when the set is not support-closed or the work passes
    ``budget`` units.

    Each generator is read as its vector and shift, canonical since a
    :class:`~dbcayley.generators.GeneratorSet` is; a vector's support is
    the set of its nonzero coordinates.

    The levels are counted until the balls stop growing: they sum to the
    group order exactly when the set generates the group.
    """
    work = _Work(budget)
    params = gens.params
    t, r = params.t, params.r
    full = (1 << r) - 1
    try:
        families = _families(gens, work)
        if families is None:
            return None
        antichains: list[list[int]] = [[0]] + [[] for _ in range(r - 1)]
        # the members that joined on the last level: only they can extend to
        # a support not already covered
        joined = [list(antichain) for antichain in antichains]
        balls = [1] + [0] * (r - 1)
        levels = [1]
        reached, n = 1, params.order()
        # rotated[c][s]: the supports J + c of the family M_s
        rotated = [[[(j << c | j >> (r - c)) & full for j in family] for family in families]
                   for c in range(r)]
        while reached < n:
            candidates = [set(antichain) for antichain in antichains]
            for c, fresh in enumerate(joined):
                if not fresh:
                    continue
                for s, family in enumerate(rotated[c]):
                    target = candidates[(c + s) % r]
                    for j in family:
                        target.update([x | j for x in fresh])
            for c, masks in enumerate(candidates):
                antichain = _maximal(masks, work)
                old = set(antichains[c])
                joined[c] = [x for x in antichain if x not in old]
                if joined[c]:
                    antichains[c] = antichain
                    balls[c] = _union_size(antichain, t, work)
            now = sum(balls)
            if now == reached:
                break
            levels.append(now - reached)
            reached = now
        return levels
    except _OverBudget:
        return None
