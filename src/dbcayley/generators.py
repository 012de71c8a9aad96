"""Generator sets for the four Cayley (di)graph constructions.

Each builder produces a :class:`GeneratorSet` whose size equals the
construction's closed-form degree:

* ``thm1`` (directed):   t shift-and-add elements (a,0,...,0;1) plus the
  r-2 pure cyclic shifts (0,...,0;s), 2 <= s <= r-1, on the group with
  r = k-1, t = d-k+3.  Degree d, order (k-1)*(d-k+3)**(k-1).
* ``thm2`` (undirected): the shift-and-add elements, their inverses
  (0,...,0,-a;-1), and the pure shifts 2 <= s <= r-2, with
  t = floor((d-k)/2)+2.  Degree 2t+r-3 <= d.
* ``thm3`` (directed):   vectors split into k-1 long blocks of length ell
  and one short block of length m.  Generators are the t**ell long
  elements (a1,...,a_ell,0,...,0;ell) plus every nonzero short element
  (a1,...,am,0,...,0;s) with s != ell.  Degree t**ell + (r-1)*t**m - 1,
  order r*t**r with r = (k-1)*ell + m.
* ``thm4`` (undirected): six classes; the long and short elements above,
  their inverses, the nonzero short elements with s = 0, and the pure
  shifts with s not in {0, ell, -ell}.  Degree 2*t**ell + (2r-3)*t**m - r.

Construction specs have a canonical one-line text form shared by the CLI
and JSON reports, e.g. ``thm3:k=3,l=2,t=2,m=1``.  The ``cor:`` prefix
selects corollary parameters (t=2, degree-optimal block length) and
resolves to a ``thm3`` spec.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .group import GroupElement, GroupParams, ParameterError

_KINDS = ("thm1", "thm2", "thm3", "thm4")


class SpecParseError(ValueError):
    """A construction spec string is malformed."""


class GeneratorClassOverlapError(RuntimeError):
    """Two element classes of an undirected block construction collide.

    The closed-form degree counts the six classes as disjoint; when they
    are not (this happens for m >= 2), the formula overcounts and the
    construction is refused rather than silently shrunk.
    """

    def __init__(self, element: GroupElement, first_class: int, second_class: int):
        self.element = element
        self.first_class = first_class
        self.second_class = second_class
        super().__init__(
            f"generator classes {first_class} and {second_class} overlap at "
            f"{element}; the stated degree formula assumes disjoint classes"
        )


@dataclass(frozen=True)
class ConstructionSpec:
    """Tagged choice among the four constructions.

    ``thm1``/``thm2`` take a diameter target k and degree target d;
    ``thm3``/``thm4`` take k plus block parameters (ell, t, m).
    """

    kind: str
    k: int
    d: int | None = None
    ell: int | None = None
    t: int | None = None
    m: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown construction kind {self.kind!r}")
        k = self.k
        if self.kind == "thm1":
            if self.d is None:
                raise ParameterError("thm1 requires a degree d")
            if k < 4:
                raise ParameterError(f"thm1 requires k >= 4, got k={k}")
            if self.d < k - 1:
                raise ParameterError(f"thm1 requires d >= k-1 = {k - 1}, got d={self.d}")
        elif self.kind == "thm2":
            if self.d is None:
                raise ParameterError("thm2 requires a degree d")
            if k < 4:
                raise ParameterError(f"thm2 requires k >= 4, got k={k}")
            if self.d < k + 1:
                raise ParameterError(f"thm2 requires d >= k+1 = {k + 1}, got d={self.d}")
        else:
            if self.ell is None or self.t is None or self.m is None:
                raise ParameterError(f"{self.kind} requires ell, t and m")
            if k < 2 or self.ell < 2 or self.t < 2:
                raise ParameterError(
                    f"{self.kind} requires k, l, t >= 2, got k={k}, l={self.ell}, t={self.t}"
                )
            if not 0 < self.m < self.ell:
                raise ParameterError(
                    f"{self.kind} requires 0 < m < l, got m={self.m}, l={self.ell}"
                )

    @property
    def directed(self) -> bool:
        return self.kind in ("thm1", "thm3")

    @property
    def claimed_diameter(self) -> int:
        return self.k

    def group_params(self) -> GroupParams:
        if self.kind == "thm1":
            return GroupParams(t=self.d - self.k + 3, r=self.k - 1)
        if self.kind == "thm2":
            return GroupParams(t=(self.d - self.k) // 2 + 2, r=self.k - 1)
        return GroupParams(t=self.t, r=(self.k - 1) * self.ell + self.m)

    def expected_degree(self) -> int:
        params = self.group_params()
        t, r = params.t, params.r
        if self.kind == "thm1":
            return t + r - 2
        if self.kind == "thm2":
            return 2 * t + r - 3
        if self.kind == "thm3":
            return t**self.ell + (r - 1) * t**self.m - 1
        return 2 * t**self.ell + (2 * r - 3) * t**self.m - r

    def canonical(self) -> str:
        if self.kind in ("thm1", "thm2"):
            return f"{self.kind}:k={self.k},d={self.d}"
        return f"{self.kind}:k={self.k},l={self.ell},t={self.t},m={self.m}"


@dataclass
class GeneratorSet:
    """An ordered generator list with its ambient group; canonical, checked at
    construction (:meth:`GroupParams.canonical`): each element is a vector of
    length r over [0, t) with a shift in [0, r), else ParameterError."""

    params: GroupParams
    elements: tuple[GroupElement, ...]
    directed: bool
    spec: ConstructionSpec | None = None
    expected_size: int | None = None
    class_sizes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        self.elements = tuple(self.elements)
        if not self.params.canonical(self.elements):
            raise ParameterError("generators must be canonical: vectors of length r "
                                 "over [0, t), shifts in [0, r)")
        if self.expected_size is None:
            self.expected_size = len(self.elements)

    @property
    def degree(self) -> int:
        return len(self.elements)


@dataclass
class ValidationReport:
    """Itemized structural checks for a generator set."""

    distinct: bool
    identity_free: bool
    symmetric: bool | None
    size_ok: bool
    expected_size: int
    actual_size: int
    duplicates: list[GroupElement] = field(default_factory=list)
    missing_inverses: list[GroupElement] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.distinct
            and self.identity_free
            and self.size_ok
            and self.symmetric is not False
        )


def validate(gens: GeneratorSet) -> ValidationReport:
    """Check distinctness, identity-freeness, symmetry and size of a set.

    A :class:`GeneratorSet` is canonical by construction, so elements are
    compared as they are."""
    params = gens.params
    seen: set[GroupElement] = set()
    duplicates = []
    for el in gens.elements:
        if el in seen:
            duplicates.append(el)
        seen.add(el)
    identity_present = params.identity() in seen

    symmetric: bool | None = None
    missing = []
    if not gens.directed:
        for el in gens.elements:
            if params.inv(el) not in seen:
                missing.append(el)
        symmetric = not missing

    expected = gens.expected_size
    size_ok = len(gens.elements) == expected

    problems = []
    if duplicates:
        problems.append(f"{len(duplicates)} duplicate elements, e.g. {duplicates[0]}")
    if identity_present:
        problems.append("identity element present")
    if missing:
        problems.append(
            f"{len(missing)} elements without inverse in the set, e.g. {missing[0]}"
        )
    if not size_ok:
        problems.append(f"size {len(gens.elements)} != expected {expected}")

    return ValidationReport(
        distinct=not duplicates,
        identity_free=not identity_present,
        symmetric=symmetric,
        size_ok=size_ok,
        expected_size=expected,
        actual_size=len(gens.elements),
        duplicates=duplicates,
        missing_inverses=missing,
        problems=problems,
    )


def _digit_block(
    params: GroupParams, width: int, shift: int, start: int = 0
) -> list[GroupElement]:
    """Every element of the given shift whose vector's digits lie in the
    first ``width`` coordinates, in index order from vector index ``start``;
    ``shift`` lies in [0, r), and digits drawn from range(t) are canonical.

    ``itertools.product`` counts with its last digit fastest, so each tuple
    is reversed to put coordinate 0 least significant, then padded with
    zeros to length r."""
    pad = (0,) * (params.r - width)
    digits = itertools.product(range(params.t), repeat=width)
    return [
        GroupElement(low[::-1] + pad, shift)
        for low in itertools.islice(digits, start, None)
    ]


def thm1_directed(k: int, d: int) -> GeneratorSet:
    """Directed set of d generators: shift-and-add plus pure cyclic shifts."""
    spec = ConstructionSpec("thm1", k=k, d=d)
    params = spec.group_params()
    t, r = params.t, params.r
    elems = [params.element([a] + [0] * (r - 1), 1) for a in range(t)]
    elems += [params.element([0] * r, s) for s in range(2, r)]
    return GeneratorSet(params, tuple(elems), directed=True, spec=spec,
                        expected_size=spec.expected_degree())


def thm2_undirected(k: int, d: int) -> GeneratorSet:
    """Symmetric set of 2t+r-3 generators; degree at most d.

    The parity slack (2t+r-3 = d-1 when d-k is odd) is left as-is and
    surfaces through ``expected_size``; no padding generators are added.
    """
    spec = ConstructionSpec("thm2", k=k, d=d)
    params = spec.group_params()
    t, r = params.t, params.r
    forwards = [params.element([a] + [0] * (r - 1), 1) for a in range(t)]
    backwards = [params.inv(el) for el in forwards]
    shifts = [params.element([0] * r, s) for s in range(2, r - 1)]
    elems = forwards + backwards + shifts
    return GeneratorSet(params, tuple(elems), directed=False, spec=spec,
                        expected_size=spec.expected_degree())


def thm3_directed(k: int, ell: int, t: int, m: int) -> GeneratorSet:
    """Directed long/short block set of t**ell + (r-1)*t**m - 1 generators."""
    spec = ConstructionSpec("thm3", k=k, ell=ell, t=t, m=m)
    params = spec.group_params()
    elems = _digit_block(params, ell, ell)
    for s in range(params.r):
        if s != ell:
            # at shift 0 the block starts at 1: the identity is excluded
            elems += _digit_block(params, m, s, start=1 if s == 0 else 0)
    return GeneratorSet(params, tuple(elems), directed=True, spec=spec,
                        expected_size=spec.expected_degree())


def thm4_classes(
    k: int, ell: int, t: int, m: int
) -> list[list[GroupElement]]:
    """The six element classes of the undirected block construction, in order.

    1. long elements (a1,...,a_ell,0,...,0;ell)
    2. their inverses (0,...,0,b1,...,b_ell;-ell)
    3. short elements (a1,...,am,0,...,0;s), a nonzero, s not in {0, ell}
    4. their inverses
    5. nonzero short elements with s = 0 (closed under inversion)
    6. pure shifts (0,...,0;s), s not in {0, ell, -ell} (closed under inversion)
    """
    spec = ConstructionSpec("thm4", k=k, ell=ell, t=t, m=m)
    params = spec.group_params()
    r = params.r
    longs = _digit_block(params, ell, ell)
    long_invs = [params.inv(el) for el in longs]
    shorts = [
        el for s in range(r) if s not in (0, ell)
        for el in _digit_block(params, m, s, start=1)
    ]
    short_invs = [params.inv(el) for el in shorts]
    zero_shift = _digit_block(params, m, 0, start=1)
    excluded = {0, ell, (-ell) % r}
    pure_shifts = [
        params.element([0] * r, s) for s in range(r) if s not in excluded
    ]
    return [longs, long_invs, shorts, short_invs, zero_shift, pure_shifts]


def thm4_undirected(k: int, ell: int, t: int, m: int) -> GeneratorSet:
    """Symmetric block set of 2*t**ell + (2r-3)*t**m - r generators.

    Raises :class:`GeneratorClassOverlapError` if the six classes are not
    pairwise disjoint (the degree formula assumes they are; overlaps occur
    for m >= 2).
    """
    spec = ConstructionSpec("thm4", k=k, ell=ell, t=t, m=m)
    classes = thm4_classes(k, ell, t, m)
    owner: dict[GroupElement, int] = {}
    for idx, cls in enumerate(classes, start=1):
        for el in cls:
            if el in owner:
                raise GeneratorClassOverlapError(el, owner[el], idx)
            owner[el] = idx
    elems = tuple(el for cls in classes for el in cls)
    return GeneratorSet(
        spec.group_params(),
        elems,
        directed=False,
        spec=spec,
        expected_size=spec.expected_degree(),
        class_sizes=tuple(len(cls) for cls in classes),
    )


def build(spec: ConstructionSpec) -> GeneratorSet:
    """Build the generator set described by a construction spec."""
    if spec.kind == "thm1":
        return thm1_directed(spec.k, spec.d)
    if spec.kind == "thm2":
        return thm2_undirected(spec.k, spec.d)
    if spec.kind == "thm3":
        return thm3_directed(spec.k, spec.ell, spec.t, spec.m)
    return thm4_undirected(spec.k, spec.ell, spec.t, spec.m)


# --- corollary parameter selection (t = 2) ---------------------------------

@dataclass(frozen=True)
class CorollarySelection:
    """Degree-optimised block parameters for a given diameter k (t = 2)."""

    k: int
    ell: int
    t: int
    r: int
    m: int
    d_directed: int
    d_undirected: int

    def thm3_spec(self) -> ConstructionSpec:
        return ConstructionSpec("thm3", k=self.k, ell=self.ell, t=self.t, m=self.m)


def _log_condition_holds(k: int, ell: int) -> bool:
    # log2(k^2 * ell) <= (3/4) * ell, decided exactly: (k^2*ell)^4 <= 2^(3*ell)
    return (k * k * ell) ** 4 <= 1 << (3 * ell)


def corollary_params(k: int, ell: int | str = "auto") -> CorollarySelection:
    """Select (t=2, ell, r, m) and the resulting degrees for diameter k.

    ``ell`` must satisfy log2(k^2 * ell) <= (3/4) * ell; ``"auto"`` picks the
    smallest such ell.  All arithmetic is exact: the ceiling in
    r = ceil(k*ell - log2(k^2*ell)) reduces to r = k*ell - floor(log2(k^2*ell)),
    computed with integer bit lengths, and the ell-condition is the integer
    comparison (k^2*ell)^4 <= 2^(3*ell).
    """
    if k < 3:
        raise ParameterError(f"corollary selection requires k >= 3, got k={k}")
    if ell == "auto":
        for cand in range(2, 10_000):
            if _log_condition_holds(k, cand):
                ell = cand
                break
        else:  # pragma: no cover - condition holds for all large ell
            raise ParameterError(f"no admissible ell found for k={k}")
    else:
        ell = int(ell)
        if ell < 2:
            raise ParameterError(f"ell must be >= 2, got {ell}")
        if not _log_condition_holds(k, ell):
            approx = math.log2(k * k * ell)
            raise ParameterError(
                f"ell={ell} violates log2(k^2*ell) <= (3/4)*ell: "
                f"log2({k * k * ell}) ~ {approx:.4f} > {0.75 * ell}"
            )
    log_floor = (k * k * ell).bit_length() - 1
    r = k * ell - log_floor
    m = r - (k - 1) * ell
    if not 0 < m < ell:
        raise ParameterError(
            f"selected m={m} falls outside 0 < m < ell={ell} (r={r}); "
            f"parameters are reported, not adjusted"
        )
    d_dir = ConstructionSpec("thm3", k=k, ell=ell, t=2, m=m).expected_degree()
    d_und = ConstructionSpec("thm4", k=k, ell=ell, t=2, m=m).expected_degree()
    return CorollarySelection(k=k, ell=ell, t=2, r=r, m=m,
                              d_directed=d_dir, d_undirected=d_und)


# --- spec strings -----------------------------------------------------------

def _parse_fields(body: str, head: str) -> dict[str, int]:
    fields: dict[str, int] = {}
    if not body:
        raise SpecParseError(f"{head}: expected key=value parameters")
    for part in body.split(","):
        if "=" not in part:
            raise SpecParseError(f"{head}: malformed parameter {part!r}")
        key, _, raw = part.partition("=")
        key = key.strip()
        if key in fields:
            raise SpecParseError(f"{head}: repeated key {key!r}")
        try:
            fields[key] = int(raw.strip())
        except ValueError:
            raise SpecParseError(f"{head}: non-integer value in {part!r}") from None
    return fields


def parse_spec(text: str) -> ConstructionSpec:
    """Parse a spec string such as ``thm1:k=4,d=3`` or ``cor:k=3``.

    ``cor:`` resolves corollary parameters and returns the corresponding
    ``thm3`` spec.
    """
    head, sep, body = text.strip().partition(":")
    head = head.strip()
    if not sep:
        raise SpecParseError(f"spec {text!r} is missing the ':' separator")
    if head == "cor":
        fields = _parse_fields(body, head)
        unknown = set(fields) - {"k", "l"}
        if unknown:
            raise SpecParseError(f"cor: unknown keys {sorted(unknown)}")
        if "k" not in fields:
            raise SpecParseError("cor: requires k")
        sel = corollary_params(fields["k"], fields.get("l", "auto"))
        return sel.thm3_spec()
    if head not in _KINDS:
        raise SpecParseError(f"unknown construction kind {head!r}")
    fields = _parse_fields(body, head)
    if head in ("thm1", "thm2"):
        wanted = {"k", "d"}
    else:
        wanted = {"k", "l", "t", "m"}
    if set(fields) != wanted:
        raise SpecParseError(
            f"{head}: expected keys {sorted(wanted)}, got {sorted(fields)}"
        )
    if head in ("thm1", "thm2"):
        return ConstructionSpec(head, k=fields["k"], d=fields["d"])
    return ConstructionSpec(head, k=fields["k"], ell=fields["l"],
                            t=fields["t"], m=fields["m"])
