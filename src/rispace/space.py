"""Sigma-finite resonant measure spaces and the exact set algebra over them.

A space here is either non-atomic Lebesgue (half-line, line, or a bounded
interval [0, L)) or completely atomic with equal atom masses (indices from N,
Z, or {0..count-1}).  These are exactly the resonant spaces, which is the
setting in which rearrangement inequalities are saturated.

Each kind states its meaning through its ``domain`` [left, right), the
points or the indices, off which everything else reads, and ``has_tail``:
only a sequence over N may keep a nonzero tail.

Sets are kept in a closed, exactly measurable class: finite disjoint unions
of half-open intervals [a, b) within the domain on the Lebesgue side (so
-inf only on the full line, and +inf right rays), and finite-or-cofinite
index sets on the atomic side.  Preimages under the symbol catalog never
leave this class.

The records are plain and check nothing: outside input enters through the
builders (``halfline`` ... ``atomic_finite``, ``interval_set``,
``atomic_set``), which do, and the set algebra and the symbols' preimages
build records that are in the class by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .num import INF, NEG_INF, Real, as_real, is_finite, lt, real_key

LEBESGUE_HALFLINE = "lebesgue_halfline"
LEBESGUE_LINE = "lebesgue_line"
LEBESGUE_INTERVAL = "lebesgue_interval"
ATOMIC_N = "atomic_n"
ATOMIC_Z = "atomic_z"
ATOMIC_FINITE = "atomic_finite"

_ATOMIC_KINDS = (ATOMIC_N, ATOMIC_Z, ATOMIC_FINITE)
_TWO_SIDED_KINDS = (LEBESGUE_LINE, ATOMIC_Z)


@dataclass(frozen=True)
class MeasureSpace:
    kind: str
    length: Real | None = None
    atom_mass: Real | None = None
    count: int | None = None

    # -- classification ----------------------------------------------------
    @property
    def is_atomic(self) -> bool:
        return self.kind in _ATOMIC_KINDS

    @cached_property
    def domain(self) -> tuple[Real, Real]:
        """[left, right): the points of a Lebesgue space, the indices of an
        atomic one (int ends, so ``range(*domain)`` lists a finite space).
        The left end is -inf on the line and Z, else 0; the right end is the
        length or the count, if the kind has one, else +inf."""
        if self.kind in _TWO_SIDED_KINDS:
            left = NEG_INF
        else:
            left = 0 if self.is_atomic else Fraction(0)
        end = self.length if self.count is None else self.count
        return (left, INF if end is None else end)

    def valid_index(self, j: int) -> bool:
        left, right = self.domain
        return left <= j < right

    def total_measure(self) -> Real:
        left, right = self.domain
        return self.atom_mass * (right - left) if self.is_atomic else right - left

    @property
    def has_tail(self) -> bool:
        """Whether a sequence here may keep a nonzero tail: only over N, the
        one catalog space where such a tail arises."""
        return self.kind == ATOMIC_N


def halfline() -> MeasureSpace:
    return MeasureSpace(LEBESGUE_HALFLINE)


def line() -> MeasureSpace:
    return MeasureSpace(LEBESGUE_LINE)


def interval(length) -> MeasureSpace:
    length = as_real(length)
    if not (0 < length < INF):
        raise ValueError("interval length must be positive and finite")
    return MeasureSpace(LEBESGUE_INTERVAL, length=length)


def _mass(atom_mass) -> Real:
    atom_mass = as_real(atom_mass)
    if not (0 < atom_mass < INF):
        raise ValueError("atom_mass must be positive and finite")
    return atom_mass


def atomic_n(atom_mass=1) -> MeasureSpace:
    return MeasureSpace(ATOMIC_N, atom_mass=_mass(atom_mass))


def atomic_z(atom_mass=1) -> MeasureSpace:
    return MeasureSpace(ATOMIC_Z, atom_mass=_mass(atom_mass))


def atomic_finite(count: int, atom_mass=1) -> MeasureSpace:
    atom_mass = _mass(atom_mass)
    if count is None or count < 1:
        raise ValueError("count must be >= 1")
    return MeasureSpace(ATOMIC_FINITE, atom_mass=atom_mass, count=count)


# ---------------------------------------------------------------------------
# Interval sets
# ---------------------------------------------------------------------------


def _normalize_intervals(pairs, *, allow_overlap: bool):
    """Sort, validate, and merge touching [a,b) pairs.  Ends compare by
    ``num.lt`` and sort by ``num.real_key``, in ``sorted``'s order, and each
    merge keeps the very end object that ``max`` would."""
    pairs = sorted(pairs, key=lambda ab: (real_key(ab[0]), real_key(ab[1])))
    out: list[list[Real]] = []
    for a, b in pairs:
        if not lt(a, b):
            raise ValueError(f"empty or inverted interval [{a}, {b})")
        if out and lt(a, out[-1][1]):
            if not allow_overlap:
                raise ValueError("overlapping intervals")
            if lt(out[-1][1], b):
                out[-1][1] = b
        elif out and not lt(out[-1][1], a):  # a == out[-1][1]
            out[-1][1] = b
        else:
            out.append([a, b])
    return tuple((a, b) for a, b in out)


@dataclass(frozen=True)
class IntervalSet:
    """Finite union of half-open intervals within a Lebesgue space's domain,
    sorted, disjoint and no two touching."""

    space: MeasureSpace
    intervals: tuple[tuple[Real, Real], ...]

    def measure(self) -> Real:
        total: Real = Fraction(0)
        for a, b in self.intervals:
            if not (is_finite(a) and is_finite(b)):
                return INF
            total += b - a
        return total

    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, x) -> bool:
        return any(a <= x < b for a, b in self.intervals)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        _same_space(self, other)
        merged = _normalize_intervals(
            list(self.intervals) + list(other.intervals), allow_overlap=True
        )
        return IntervalSet(self.space, merged)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        _same_space(self, other)
        out = []
        for a, b in self.intervals:
            for c, d in other.intervals:
                lo, hi = max(a, c), min(b, d)
                if lo < hi:
                    out.append((lo, hi))
        return IntervalSet(self.space, tuple(out))  # already sorted, disjoint, not touching

    def complement(self) -> "IntervalSet":
        left, right = self.space.domain
        out = []
        cursor = left
        for a, b in self.intervals:
            if cursor < a:
                out.append((cursor, a))
            cursor = b
        if cursor < right:
            out.append((cursor, right))
        return IntervalSet(self.space, tuple(out))

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersect(other.complement())


def interval_set(space: MeasureSpace, pairs: Iterable[tuple]) -> IntervalSet:
    """Build an IntervalSet from outside input: coerce, reject empty, inverted
    and overlapping pairs, merge touching ones, and check that the space is
    Lebesgue and holds every piece.  Ends compare by ``num.lt``, so a float
    end meets a Fraction one as doubles."""
    intervals = _normalize_intervals([(as_real(a), as_real(b)) for a, b in pairs], allow_overlap=False)
    if space.is_atomic:
        raise ValueError("IntervalSet needs a Lebesgue space")
    left, right = space.domain
    for a, b in intervals:
        if lt(a, left) or lt(right, b):
            raise ValueError(f"[{a}, {b}) outside the space domain")
    return IntervalSet(space, intervals)


def empty_set(space: MeasureSpace):
    if space.is_atomic:
        return AtomicSet(space, frozenset(), False)
    return IntervalSet(space, ())


# ---------------------------------------------------------------------------
# Atomic sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomicSet:
    """Finite or co-finite set of atoms.

    When ``cofinite`` is False, ``atoms`` lists the members; when True,
    ``atoms`` lists the excluded indices and every other valid index belongs.
    On AtomicFinite the co-finite form is materialized away.
    """

    space: MeasureSpace
    atoms: frozenset[int] = field(default_factory=frozenset)
    cofinite: bool = False

    def __post_init__(self):
        if self.cofinite and self.space.kind == ATOMIC_FINITE:
            members = frozenset(range(*self.space.domain)) - self.atoms
            object.__setattr__(self, "atoms", members)
            object.__setattr__(self, "cofinite", False)

    def measure(self) -> Real:
        if self.cofinite:
            return INF
        return self.space.atom_mass * len(self.atoms)

    def is_empty(self) -> bool:
        return not self.cofinite and not self.atoms

    def contains(self, j: int) -> bool:
        if not self.space.valid_index(j):
            return False
        return (j in self.atoms) != self.cofinite

    def union(self, other: "AtomicSet") -> "AtomicSet":
        _same_space(self, other)
        a, b = self, other
        if not a.cofinite and not b.cofinite:
            return AtomicSet(self.space, a.atoms | b.atoms, False)
        if a.cofinite and b.cofinite:
            return AtomicSet(self.space, a.atoms & b.atoms, True)
        if b.cofinite:
            a, b = b, a  # a cofinite, b finite
        return AtomicSet(self.space, a.atoms - b.atoms, True)

    def intersect(self, other: "AtomicSet") -> "AtomicSet":
        return self.complement().union(other.complement()).complement()

    def complement(self) -> "AtomicSet":
        return AtomicSet(self.space, self.atoms, not self.cofinite)

    def difference(self, other: "AtomicSet") -> "AtomicSet":
        return self.intersect(other.complement())


def atomic_set(space: MeasureSpace, atoms: Iterable[int], cofinite: bool = False) -> AtomicSet:
    """Build an AtomicSet from outside input: check that the space is atomic,
    that every index is an int (not a bool) in its range, and that cofinite
    is a bool."""
    atoms = frozenset(atoms)
    if not space.is_atomic:
        raise ValueError("AtomicSet needs an atomic space")
    for j in atoms:
        if not isinstance(j, int) or isinstance(j, bool):
            raise ValueError("atom indices must be integers")
        if not space.valid_index(j):
            raise ValueError(f"index {j} outside the space's range")
    if not isinstance(cofinite, bool):
        raise ValueError(f"cofinite must be True or False, got {cofinite!r}")
    return AtomicSet(space, atoms, cofinite)


def _same_space(a, b) -> None:
    if a.space != b.space:
        raise ValueError("sets live on different spaces")


def measure(space: MeasureSpace, E) -> Real:
    """Exact measure of a catalog set; +inf for rays and co-finite tails."""
    if E.space != space:
        raise ValueError("set does not belong to this space")
    return E.measure()
