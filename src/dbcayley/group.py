"""Exact arithmetic in the shift groups Z_t^r ⋊ Z_r.

An element is a pair (vector, shift): a length-r tuple of residues mod t
together with a shift residue mod r.  Multiplication rotates the right
operand's vector before adding coordinates, so the element (a, 0, ..., 0; 1)
acts like a shift-register step: rotate right once, then add ``a`` to the
first coordinate.  Residues are stored canonically in [0, t) and [0, r);
element equality is plain tuple equality.

Every element also has a dense integer index

    index = shift * t**r + sum(vector[i] * t**i)

with coordinate 0 least significant.  This layout is normative: BFS
bookkeeping and graph exports both rely on it, so exported files are
byte-identical across runs and machines.

All operations are pure functions on immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

#: Default ceiling on the number of dense states (visited-array slots) any
#: index-based operation may allocate.  Operations refuse, rather than
#: degrade, above this; callers may pass an explicit higher cap.
DEFAULT_STATE_CAP = 2**27


class ParameterError(ValueError):
    """A group or construction parameter violates a stated bound."""


class CapExceededError(RuntimeError):
    """An operation would need more dense states (or arcs) than the cap allows."""

    def __init__(self, required: int, cap: int, unit: str = "dense states"):
        self.required = required
        self.cap = cap
        super().__init__(
            f"refusing: operation needs {required} {unit}, which exceeds "
            f"the cap of {cap}; pass an explicit higher cap to proceed"
        )


class GroupElement(NamedTuple):
    vector: tuple[int, ...]
    shift: int

    def __str__(self) -> str:
        return f"({','.join(map(str, self.vector))};{self.shift})"


def shift_alpha(vector: Sequence[int], s: int) -> tuple[int, ...]:
    """Rotate ``vector`` rightwards s times; s may be any integer.

    One application sends (v1, ..., vr) to (vr, v1, ..., v(r-1)).
    """
    r = len(vector)
    s %= r
    if s == 0:
        return tuple(vector)
    return tuple(vector[(i - s) % r] for i in range(r))


@dataclass(frozen=True)
class GroupParams:
    """The pair (t, r) fixing the group Z_t^r ⋊ Z_r of order r * t**r.

    t is the modulus of each vector coordinate (t >= 2) and r is both the
    vector length and the shift modulus (r >= 2).
    """

    t: int
    r: int

    def __post_init__(self) -> None:
        if self.t < 2:
            raise ParameterError(f"coordinate modulus t must be >= 2, got {self.t}")
        if self.r < 2:
            raise ParameterError(f"vector length r must be >= 2, got {self.r}")

    def order(self) -> int:
        """Exact group order r * t**r (arbitrary precision)."""
        return self.r * self.t**self.r

    def element(self, vector: Iterable[int], shift: int) -> GroupElement:
        """Canonical element with residues reduced into [0, t) and [0, r)."""
        vec = tuple(v % self.t for v in vector)
        if len(vec) != self.r:
            raise ParameterError(
                f"vector length {len(vec)} does not match r={self.r}"
            )
        return GroupElement(vec, shift % self.r)

    def identity(self) -> GroupElement:
        return GroupElement((0,) * self.r, 0)

    def _check_member(self, x: GroupElement) -> None:
        if len(x.vector) != self.r:
            raise ParameterError(
                f"element has vector length {len(x.vector)}, expected r={self.r}"
            )

    def mul(self, x: GroupElement, y: GroupElement) -> GroupElement:
        """Product (u; s) * (v; s') = (u + alpha^s(v); s + s'), reduced."""
        self._check_member(x)
        self._check_member(y)
        rotated = shift_alpha(y.vector, x.shift)
        vec = tuple((a + b) % self.t for a, b in zip(x.vector, rotated))
        return GroupElement(vec, (x.shift + y.shift) % self.r)

    def inv(self, x: GroupElement) -> GroupElement:
        """Inverse (v; s)^-1 = (-alpha^(-s)(v); -s), reduced."""
        self._check_member(x)
        rotated = shift_alpha(x.vector, -x.shift)
        vec = tuple((-a) % self.t for a in rotated)
        return GroupElement(vec, (-x.shift) % self.r)

    def encode(self, x: GroupElement) -> int:
        """Dense index of ``x`` in [0, r * t**r) under the normative layout.

        Residues must be canonical, as :meth:`element` makes them: a
        coordinate outside [0, t) or a shift outside [0, r) would alias
        another element's index, so either is refused.
        """
        self._check_member(x)
        t = self.t
        value = 0
        for coord in reversed(x.vector):
            if not 0 <= coord < t:
                raise ParameterError(f"coordinate {coord} outside [0, {t})")
            value = value * t + coord
        if not 0 <= x.shift < self.r:
            raise ParameterError(f"shift {x.shift} outside [0, {self.r})")
        return x.shift * t**self.r + value

    def canonical(self, elements: Collection[GroupElement]) -> bool:
        """Whether every element is canonical, as :meth:`encode` requires: a
        vector of length r with residues in [0, t), and a shift in [0, r).

        The residues are checked over the distinct ones."""
        if not elements:
            return True
        vectors, shifts = zip(*elements)
        digits = set().union(*vectors)
        return (set(map(len, vectors)) == {self.r} and 0 <= min(digits) and max(digits) < self.t
                and 0 <= min(shifts) and max(shifts) < self.r)

    def decode(self, index: int) -> GroupElement:
        """Inverse of :meth:`encode`."""
        n = self.order()
        if not 0 <= index < n:
            raise ParameterError(f"index {index} outside [0, {n})")
        shift, value = divmod(index, self.t**self.r)
        vec = []
        for _ in range(self.r):
            value, digit = divmod(value, self.t)
            vec.append(digit)
        return GroupElement(tuple(vec), shift)

    def elements(self) -> Iterator[GroupElement]:
        """All elements in index order (exhaustive; intended for small groups)."""
        for index in range(self.order()):
            yield self.decode(index)
