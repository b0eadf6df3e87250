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
different algorithm per carrier keep one branch each.  A StepFn also keeps
its int view (``View``), cuts and values as ints over two denominators, which
the hot loops here and in ``rearrange`` read in place of Fractions; past a
float or 1,024 bits it is at scale 1, over the values themselves.  A StepFn
that an int loop builds (``_merged_step`` over an exact view: f*, linear
combinations) holds only its space and that view, and forms its Fraction
``cuts`` and ``vals`` the first time they are read; loops that chain read
the view, so a comparison of rearrangements forms none.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Union

from .num import INF, NEG_INF, Real, as_int, as_real, is_finite, scaled, unscaled
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
    A function built from its exact view forms both on first read; it
    compares, hashes, prints, pickles and travels as the ``step`` it equals.
    """

    space: MeasureSpace
    cuts: tuple[Real, ...]
    vals: tuple[Real, ...]

    def __getattr__(self, name):
        """``cuts`` and ``vals`` of a function built from its exact view
        (``_merged_step``): formed from the view on first read, then kept in
        ``__dict__`` as a constructed record keeps them."""
        V = self.__dict__.get("_view") if name in ("cuts", "vals") else None
        if V is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__.update(cuts=tuple(Fraction(c, V.C) for c in V.cuts),
                             vals=tuple(Fraction(v, V.D) for v in V.vals))
        return self.__dict__[name]

    def value_at(self, x) -> Real:
        left, right = self.space.domain
        if not (left <= x < right):
            raise ValueError(f"{x} outside the domain")
        return self.vals[bisect_right(self.cuts, x)]

    def pieces(self):
        """Yield (a, b, value) over the whole domain, tails included."""
        bounds = _plain(self).bounds
        return zip(bounds, bounds[1:], self.vals)

    def cells(self):
        """Yield (measure, value) for each nonzero piece; a ray's measure is
        INF, told by its end's type and not by subtracting its finite end."""
        return _cells(_plain(self).bounds, self.vals)

    @cached_property
    def _view(self) -> View:
        """The function's ``View``, kept in ``__dict__`` as its rearrangement is."""
        bounds = _plain(self).bounds
        finite = slice(0 if is_finite(bounds[0]) else 1, len(bounds) - (0 if is_finite(bounds[-1]) else 1))
        C, bounds[finite] = scaled(bounds[finite])
        D, vals = scaled(self.vals)
        if not all(type(x) is int for x in (*bounds[finite], *vals)):
            return _plain(self)
        return View(C, bounds, D, vals, True)


class View(NamedTuple):
    """A step function over ints: its bounds (the domain's ends, +-INF kept,
    and its cuts) over one cut denominator C, its values over one value
    denominator D (``num.scaled``).  Past a float or the budget it is at
    C = D = 1 over the values themselves, not ``exact``."""

    C: int
    bounds: list
    D: int
    vals: list
    exact: bool

    @property
    def cuts(self) -> list:
        return self.bounds[1:-1]


def _cells(bounds, vals):
    """Yield (measure, value) for each nonzero piece, a ray's measure INF."""
    for a, b, v in zip(bounds, bounds[1:], vals):
        if v != 0:
            yield (b - a if is_finite(a) and is_finite(b) else INF), v


def _plain(f: StepFn) -> View:
    """f's view at scale 1, over its own cuts and values."""
    left, right = f.space.domain
    return View(1, [left, *f.cuts, right], 1, list(f.vals), False)


def _views(fns, points=()) -> tuple[list[View], list]:
    """The views of fns and the points (INF allowed), all over one C, the lcm
    of theirs; at scale 1 past a float or the budget."""
    views = [f._view for f in fns]
    # 1/C_i over the common C is C // C_i, the factor that rescales view i
    C, ints = scaled([*(Fraction(1, V.C) for V in views), *(p for p in points if is_finite(p))])
    if not (all(V.exact for V in views) and all(type(x) is int for x in ints)):
        return [_plain(f) for f in fns], list(points)
    ks, ints = ints[:len(views)], iter(ints[len(views):])
    return ([V if k == 1 else V._replace(C=C, bounds=[b * k for b in V.bounds]) for k, V in zip(ks, views)],
            [next(ints) if is_finite(p) else p for p in points])


def _merged(cuts, vals) -> tuple[list, list]:
    """Cuts and piece values once adjacent equal values merge; a non-finite one raises."""
    ccuts: list[Real] = []
    cvals: list[Real] = [vals[0]]
    for c, v in zip(cuts, vals[1:]):
        if v != cvals[-1]:
            ccuts.append(c)
            cvals.append(v)
    if not all(map(is_finite, cvals)):
        raise ValueError("piece values must be finite")
    return ccuts, cvals


def _merged_step(space: MeasureSpace, cuts, vals, scale: View | None = None) -> StepFn:
    """The StepFn of cuts and piece values with adjacent equal values merged,
    taken as they are, or over the C and D of a ``scale`` view (its bounds
    the domain's ends).  Over an exact view the result holds only its space
    and the merged ints; its Fraction ``cuts`` and ``vals`` are formed when
    first read (``StepFn.__getattr__``)."""
    cuts, vals = _merged(cuts, vals)
    if scale is None:
        return StepFn(space, tuple(cuts), tuple(vals))
    V = scale._replace(bounds=[scale.bounds[0], *cuts, scale.bounds[-1]], vals=vals)
    if not V.exact:
        return StepFn(space, tuple(unscaled(c, V.C) for c in cuts), tuple(unscaled(v, V.D) for v in vals))
    f = object.__new__(StepFn)
    f.__dict__.update(space=space, _view=V)
    return f


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


def _mapped_pieces(pieces, lo, hi, g, increasing: bool) -> list:
    """The change of variable of sorted, disjoint pieces (a, b, v): each cut
    to [lo, hi), its ends mapped by the monotone g (swapped where g
    decreases), kept where the mapped ends still satisfy a < b.  An end
    shared with the previous piece (the same object) is mapped once."""
    out, last, gb = [], None, None
    for a, b, v in pieces:
        a, b = max(a, lo), min(b, hi)
        if not a < b:
            if a >= hi:  # so is every later piece
                break
            continue
        ga = gb if a is last else g(a)
        last, gb = b, g(b)
        x, y = (ga, gb) if increasing else (gb, ga)
        if x < y:
            out.append((x, y, v))
    return out


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
    # step functions: collect jump events, as ints over one cut scale and one
    # value scale M wherever all are exact: c_i v / D_i = k_i v / M
    views, _ = _views(fns)
    M, ks = scaled([c / V.D for c, V in zip(coeffs, views)])
    if not (views[0].exact and all(type(k) is int for k in ks)):
        views, M, ks = [_plain(f) for f in fns], 1, coeffs
    base = sum(k * V.vals[0] for k, V in zip(ks, views))
    jumps: dict[Real, Real] = {}
    for k, V in zip(ks, views):
        for cut, lo, hi in zip(V.cuts, V.vals, V.vals[1:]):
            if cut in jumps:
                jumps[cut] += k * (hi - lo)
            else:
                jumps[cut] = k * (hi - lo)
    cuts = sorted(jumps)
    vals = [base]
    for cut in cuts:
        vals.append(vals[-1] + jumps[cut])
    return _merged_step(sp, cuts, vals, views[0]._replace(D=M))


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
    """h's value on each cell of a refinement of its cuts (h may be a View)."""
    hcuts, hvals = h.cuts, h.vals
    vals = [hvals[0]]
    i = 0
    for c in cuts:
        if i < len(hcuts) and hcuts[i] == c:
            i += 1
        vals.append(hvals[i])
    return vals


def _union(xs, ys) -> list[Real]:
    """The sorted union of two strictly increasing sequences, one merge of two
    runs.  On a tie the element of xs is kept, as ``sorted(set(xs) | set(ys))``
    keeps it, so a float equal to a Fraction keeps the type it has in xs."""
    out: list[Real] = []
    for v in sorted([*xs, *ys]):
        if not out or out[-1] != v:
            out.append(v)
    return out


def _refine(f: StepFn, g: StepFn):
    """The union of f's and g's cuts, and each one's values on its cells (f
    and g may be Views over one scale)."""
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
    (F, G), _ = _views([f, g])
    _, fvals, gvals = _refine(F, G)
    return all(x * G.D <= y * F.D for x, y in zip(fvals, gvals))


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


def _integrate_abs_product(f: MeasFn, g: MeasFn) -> Real:
    """The integral of |f g|: for step functions, over their views and with
    no product function formed, the sum of ``integrate(abs_fn(pointwise_mul(
    f, g)))``, |f g| times the width of each run of cells where it holds."""
    if f.space != g.space:
        raise ValueError("functions live on different spaces")
    if isinstance(f, AtomSeq):
        return integrate(abs_fn(pointwise_mul(f, g)))
    (F, G), _ = _views([f, g])
    cuts, fvals, gvals = _refine(F, G)
    cuts, products = _merged(cuts, [abs(x * y) for x, y in zip(fvals, gvals)])
    total: Real = 0
    for m, p in _cells([F.bounds[0], *cuts, F.bounds[-1]], products):
        if m == INF:
            return INF
        total += p * m
    return unscaled(total, F.C * F.D * G.D)


def integrate(f: MeasFn) -> Real:
    """Exact integral against the space's measure.

    A nonzero value on an infinite piece contributes a signed infinity; when
    both signs occur the integral is undefined and raises.
    """
    pos_inf = neg_inf = False
    total: Real = Fraction(0)
    for m, v in f.cells():
        if m == INF:
            pos_inf, neg_inf = pos_inf or v > 0, neg_inf or v < 0
        else:
            total += v * m
    if pos_inf and neg_inf:
        raise UndefinedIntegralError("integral is inf - inf")
    if pos_inf:
        return INF
    if neg_inf:
        return NEG_INF
    return total
