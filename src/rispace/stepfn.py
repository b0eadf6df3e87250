"""Step functions and finitely-described sequences: the carrier for everything.

A ``StepFn`` is piecewise constant on its Lebesgue space: interior cut points
split the domain into half-open pieces, the first and last of which may be
infinite rays (values there are the "tails").  An ``AtomSeq`` stores a
sequence by its finitely many exceptional entries plus a default value (the
default may be nonzero only over N).  Values stay ``Fraction`` whenever the
inputs are rational, so identities like canonical equality after a linear
combination are exact, not epsilon-true.  Build both with ``step``/``seq``,
which check outside input; the operations below share their merges.
Both give their level cells (``cells()``), all that the distribution
function, the rearrangement and sign checks read; the operations that need a
different algorithm per carrier keep one branch each.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Union

from .num import INF, NEG_INF, Real, as_int, as_real, is_finite
from .space import AtomicSet, IntervalSet, MeasureSpace


class UndefinedIntegralError(ValueError):
    """Raised when an integral is a genuine inf - inf."""


@dataclass(frozen=True)
class StepFn:
    """Canonical piecewise-constant function on a Lebesgue space; build it
    with ``step``.

    ``cuts`` are strictly increasing points in the open interior of the
    domain; ``vals`` has one more element than ``cuts`` and lists the finite
    value on each piece left to right.  Adjacent pieces never share a value.
    """

    space: MeasureSpace
    cuts: tuple[Real, ...]
    vals: tuple[Real, ...]

    def value_at(self, x) -> Real:
        left, right = self.space.domain
        if not (left <= x < right):
            raise ValueError(f"{x} outside the domain")
        return self.vals[bisect_right(self.cuts, x)]

    def pieces(self):
        """Yield (a, b, value) over the whole domain, tails included."""
        left, right = self.space.domain
        bounds = (left,) + self.cuts + (right,)
        for i, v in enumerate(self.vals):
            yield bounds[i], bounds[i + 1], v

    def cells(self):
        """Yield (measure, value) for each nonzero piece; a ray's measure is
        INF, told by its end's type and not by subtracting its finite end."""
        left, right = self.space.domain
        bounds = (left,) + self.cuts + (right,)
        for a, b, v in zip(bounds, bounds[1:], self.vals):
            if v != 0:
                yield (b - a if is_finite(a) and is_finite(b) else INF), v


def _merged_step(space: MeasureSpace, cuts, vals) -> StepFn:
    """The StepFn of len(cuts)+1 piece values with adjacent equal values
    merged; a non-finite value raises.  Cuts are taken as they are."""
    ccuts: list[Real] = []
    cvals: list[Real] = [vals[0]]
    for c, v in zip(cuts, vals[1:]):
        if v != cvals[-1]:
            ccuts.append(c)
            cvals.append(v)
    if not all(map(is_finite, cvals)):
        raise ValueError("piece values must be finite")
    return StepFn(space, tuple(ccuts), tuple(cvals))


def step(space: MeasureSpace, cuts, vals) -> StepFn:
    """Build a StepFn from outside input: coerce, merge adjacent equal
    values, and check the result."""
    cuts = [as_real(c) for c in cuts]
    vals = [as_real(v) for v in vals]
    if space.is_atomic:
        raise ValueError("StepFn needs a Lebesgue space")
    if len(vals) != len(cuts) + 1:
        raise ValueError("need exactly len(cuts)+1 piece values")
    f = _merged_step(space, cuts, vals)
    bounds = (space.domain[0], *f.cuts, space.domain[1])
    if any(not a < b for a, b in zip(bounds, bounds[1:])):
        raise ValueError("cuts must increase strictly inside the open domain")
    return f


def constant(space: MeasureSpace, v) -> StepFn:
    return step(space, (), (v,))


def _fn_from_pieces(sp: MeasureSpace, pieces) -> StepFn:
    """StepFn equal to v on each listed disjoint (a, b, v) and 0 elsewhere."""
    left, right = sp.domain
    segs = []
    cursor = left
    for a, b, v in sorted(pieces):
        if a > cursor:
            segs.append((cursor, a, Fraction(0)))
        segs.append((a, b, v))
        cursor = b
    if cursor < right:
        segs.append((cursor, right, Fraction(0)))
    return _merged_step(sp, [s[0] for s in segs[1:]], [s[2] for s in segs])


@dataclass(frozen=True)
class AtomSeq:
    """Sequence over an atomic space: finitely many entries over a default;
    build it with ``seq``.

    ``tail`` is the value at every index not listed in ``entries``; it may be
    nonzero only where the space ``has_tail`` (over N).  Entries are sorted
    by index and never equal the tail; all values are finite.
    """

    space: MeasureSpace
    entries: tuple[tuple[int, Real], ...]
    tail: Real = field(default=Fraction(0))

    @cached_property
    def _values(self) -> dict[int, Real]:
        return dict(self.entries)

    def value_at(self, j: int) -> Real:
        if not self.space.valid_index(j):
            raise ValueError(f"index {j} outside the space's range")
        return self._values.get(j, self.tail)

    def cells(self):
        """Yield (measure, value) for each nonzero entry, then (INF, tail) for
        a nonzero tail: a tail over N is one cell."""
        mass = self.space.atom_mass
        yield from ((mass, v) for _, v in self.entries if v != 0)
        if self.tail != 0:
            yield INF, self.tail


def _merged_seq(space: MeasureSpace, items, tail: Real = Fraction(0)) -> AtomSeq:
    """The AtomSeq of the (index, value) items that differ from the tail,
    sorted by index; a zero tail is the exact 0 (also for 0.0 and -0.0), and
    a non-finite entry or tail raises."""
    tail = tail or Fraction(0)
    entries = tuple(sorted((j, v) for j, v in items if v != tail))
    if not (is_finite(tail) and all(is_finite(v) for _, v in entries)):
        raise ValueError("values must be finite")
    return AtomSeq(space, entries, tail)


def seq(space: MeasureSpace, entries, tail=0) -> AtomSeq:
    """Build an AtomSeq from outside input (a dict or (index, value) pairs):
    coerce, drop entries equal to the tail, sort, and check the result."""
    tail = as_real(tail)
    items = entries.items() if isinstance(entries, dict) else entries
    s = _merged_seq(space, [(as_int(j), as_real(v)) for j, v in items], tail)
    if not space.is_atomic:
        raise ValueError("AtomSeq needs an atomic space")
    if tail != 0 and not space.has_tail:
        raise ValueError("nonzero tail is only supported over N")
    indices = [j for j, _ in s.entries]
    if not all(map(space.valid_index, indices)) or len(set(indices)) < len(indices):
        raise ValueError("indices must be distinct and in the space's range")
    return s


def seq_from_values(space: MeasureSpace, values) -> AtomSeq:
    """AtomSeq from a dense list starting at index 0."""
    return seq(space, enumerate(values))


MeasFn = Union[StepFn, AtomSeq]


# ---------------------------------------------------------------------------
# Construction from sets
# ---------------------------------------------------------------------------


def indicator(space: MeasureSpace, E) -> MeasFn:
    """Characteristic function of a catalog set, canonical."""
    if E.space != space:
        raise ValueError("set does not belong to this space")
    if isinstance(E, IntervalSet):
        return _fn_from_pieces(space, [(a, b, Fraction(1)) for a, b in E.intervals])
    if isinstance(E, AtomicSet):
        if E.cofinite:
            if not space.has_tail:
                raise ValueError("co-finite indicator needs a nonzero tail over N")
            return seq(space, {j: 0 for j in E.atoms}, tail=1)
        return seq(space, {j: 1 for j in E.atoms})
    raise TypeError("not a catalog set")


# ---------------------------------------------------------------------------
# Linear combinations (event-sweep, exact)
# ---------------------------------------------------------------------------


def linear_combine(coeffs, fns) -> MeasFn:
    """Sum of c_i * f_i in canonical form.

    Step functions are combined by one sweep over the union of their cuts, so
    combining n translates of an indicator costs O(total cuts * log) rather
    than O(n^2).
    """
    if len(coeffs) != len(fns) or not fns:
        raise ValueError("need equally many (>=1) coefficients and functions")
    coeffs = [as_real(c) for c in coeffs]
    sp = fns[0].space
    for f in fns:
        if f.space != sp:
            raise ValueError("functions live on different spaces")
    if isinstance(fns[0], AtomSeq):
        tail = sum(c * f.tail for c, f in zip(coeffs, fns))
        acc: dict[int, Real] = {}
        for c, f in zip(coeffs, fns):
            base = c * f.tail
            for j, v in f.entries:
                acc[j] = acc.get(j, Fraction(0)) + c * v - base
        # acc[j] holds the deviation from the summed tail at j
        return _merged_seq(sp, ((j, tail + d) for j, d in acc.items()), tail)
    # step functions: collect jump events
    base = sum(c * f.vals[0] for c, f in zip(coeffs, fns))
    jumps: dict[Real, Real] = {}
    for c, f in zip(coeffs, fns):
        for cut, lo, hi in zip(f.cuts, f.vals, f.vals[1:]):
            if cut in jumps:
                jumps[cut] += c * (hi - lo)
            else:
                jumps[cut] = c * (hi - lo)
    cuts = sorted(jumps)
    vals = [base]
    for cut in cuts:
        vals.append(vals[-1] + jumps[cut])
    return _merged_step(sp, cuts, vals)


def scale(c, f: MeasFn) -> MeasFn:
    return linear_combine([c], [f])


def add(f: MeasFn, g: MeasFn) -> MeasFn:
    return linear_combine([1, 1], [f, g])


def subtract(f: MeasFn, g: MeasFn) -> MeasFn:
    return linear_combine([1, -1], [f, g])


# ---------------------------------------------------------------------------
# Pointwise operations via common refinement
# ---------------------------------------------------------------------------


def _on_cells(h: StepFn, cuts: list[Real]) -> list[Real]:
    """h's value on each cell of a refinement of its cuts."""
    vals = [h.vals[0]]
    i = 0
    for c in cuts:
        if i < len(h.cuts) and h.cuts[i] == c:
            i += 1
        vals.append(h.vals[i])
    return vals


def _union(xs, ys) -> list[Real]:
    """The sorted union of two strictly increasing sequences, in one merge.
    On a tie the element of xs is kept, as ``sorted(set(xs) | set(ys))``
    keeps it, so a float equal to a Fraction keeps the type it has in xs."""
    out: list[Real] = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        x, y = xs[i], ys[j]
        if x < y:
            out.append(x)
            i += 1
        elif y < x:
            out.append(y)
            j += 1
        else:
            out.append(x)
            i += 1
            j += 1
    out += xs[i:]
    out += ys[j:]
    return out


def _refine(f: StepFn, g: StepFn):
    """The union of f's and g's cuts, and each one's values on its cells."""
    cuts = _union(f.cuts, g.cuts)
    return cuts, _on_cells(f, cuts), _on_cells(g, cuts)


def _seq_pairs(f: AtomSeq, g: AtomSeq):
    fd, gd = f._values, g._values
    for j in sorted(fd.keys() | gd.keys()):
        yield j, fd.get(j, f.tail), gd.get(j, g.tail)


def pointwise_leq(f: MeasFn, g: MeasFn) -> bool:
    """Exact f <= g everywhere (union partition / union index set)."""
    if f.space != g.space:
        raise ValueError("functions live on different spaces")
    if isinstance(f, AtomSeq):
        if f.tail > g.tail:
            return False
        return all(fv <= gv for _, fv, gv in _seq_pairs(f, g))
    _, fvals, gvals = _refine(f, g)
    return all(fv <= gv for fv, gv in zip(fvals, gvals))


def pointwise_map(op, f: MeasFn, g: MeasFn) -> MeasFn:
    """Binary pointwise operation on a common refinement, canonical; op
    maps two values to a Fraction or float."""
    if f.space != g.space:
        raise ValueError("functions live on different spaces")
    if isinstance(f, AtomSeq):
        tail = op(f.tail, g.tail)
        return _merged_seq(f.space, ((j, op(fv, gv)) for j, fv, gv in _seq_pairs(f, g)), tail)
    cuts, fvals, gvals = _refine(f, g)
    return _merged_step(f.space, cuts, [op(fv, gv) for fv, gv in zip(fvals, gvals)])


def pointwise_max(f: MeasFn, g: MeasFn) -> MeasFn:
    return pointwise_map(max, f, g)


def pointwise_mul(f: MeasFn, g: MeasFn) -> MeasFn:
    return pointwise_map(lambda a, b: a * b, f, g)


def abs_fn(f: MeasFn) -> MeasFn:
    if isinstance(f, AtomSeq):
        return _merged_seq(f.space, ((j, abs(v)) for j, v in f.entries), abs(f.tail))
    return _merged_step(f.space, f.cuts, [abs(v) for v in f.vals])


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


def integrate(f: MeasFn) -> Real:
    """Exact integral against the space's measure.

    A nonzero value on an infinite piece contributes a signed infinity; when
    both signs occur the integral is undefined and raises.
    """
    pos_inf = neg_inf = False
    total: Real = Fraction(0)
    if isinstance(f, AtomSeq):
        if f.tail > 0:
            pos_inf = True
        elif f.tail < 0:
            neg_inf = True
        total = f.space.atom_mass * sum((v for _, v in f.entries), Fraction(0))
    else:
        for a, b, v in f.pieces():
            if v == 0:
                continue
            if a == NEG_INF or b == INF:
                if v > 0:
                    pos_inf = True
                else:
                    neg_inf = True
            else:
                total += v * (b - a)
    if pos_inf and neg_inf:
        raise UndefinedIntegralError("integral is inf - inf")
    if pos_inf:
        return INF
    if neg_inf:
        return NEG_INF
    return total
