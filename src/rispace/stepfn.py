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
float or 1,024 bits it is at scale 1, over the values themselves.  Where
only the cuts fail (a non-affine pull-back's float cuts), ``linear_combine``
still reads the exact values as ints, over the cuts as they are.  A StepFn
that an int loop builds (``_merged_step`` over an exact view: f*, linear
combinations) holds only its space and that view, and forms its Fraction
``cuts`` and ``vals`` the first time they are read; loops that chain read
the view, so a comparison of rearrangements forms none.  An AtomSeq keeps
its int view too (``SeqView``, entries and tail over one denominator), and
every operation on sequences reads it: ``linear_combine`` sums the
deviations from the summed tail as ints over one scale, ``abs_fn`` and
``pointwise_leq`` read ints, the integral of |f g| sums |x y| over two views,
and f* (``rearrange``) lays out atom counts over it.  One that an int loop
builds (``_int_seq``: combinations, |f|, orbit means, pull-backs) holds only
its space, tail and that view, forming its Fraction ``entries`` on first
read; a loop that reads it forms none.  Float values and views past the
budget run the same loops at scale 1 (``_plain``, ``_plain_seq``), and only
the builders, ``_merged_step`` and ``_merged_seq``, ask which scale it is.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import NamedTuple, Union

from .num import INF, NEG_INF, Real, as_int, as_real, common_denominator, is_finite, lt, real_key, scaled, unscaled
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
    of theirs and of the points' denominators; at scale 1 past a float, a
    view at scale 1 or the budget."""
    views = [f._view for f in fns]
    finite = [p for p in points if is_finite(p)]
    C = (all(V.exact for V in views) and not any(isinstance(p, float) for p in finite)
         and common_denominator([*(V.C for V in views), *(p.denominator for p in finite)]))
    if not C:
        return [_plain(f) for f in fns], list(points)
    return ([V if V.C == C else V._replace(C=C, bounds=[b * (C // V.C) for b in V.bounds]) for V in views],
            [p.numerator * (C // p.denominator) if is_finite(p) else p for p in points])


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
    """StepFn equal to v on each listed disjoint (a, b, v) and 0 elsewhere;
    the pieces sort in ``sorted``'s order by ``num.real_key``, and their ends
    compare by ``num.lt``."""
    left, right = sp.domain
    segs = []
    cursor = left
    for a, b, v in sorted(pieces, key=lambda p: (real_key(p[0]), real_key(p[1]), p[2])):
        if lt(cursor, a):
            segs.append((cursor, a, Fraction(0)))
        segs.append((a, b, v))
        cursor = b
    if lt(cursor, right):
        segs.append((cursor, right, Fraction(0)))
    return _merged_step(sp, [s[0] for s in segs[1:]], [s[2] for s in segs])


def _mapped_pieces(pieces, lo, hi, g, increasing: bool) -> list:
    """The change of variable of sorted, disjoint pieces (a, b, v): each cut
    to [lo, hi), its ends mapped by the monotone g (swapped where g
    decreases), kept where the mapped ends still satisfy a < b.  An end
    shared with the previous piece (the same object) is mapped once.  The
    cut keeps the very object ``max(a, lo)`` and ``min(b, hi)`` keep, and
    every comparison is ``num.lt``."""
    out, last, gb = [], None, None
    for a, b, v in pieces:
        a, b = lo if lt(a, lo) else a, hi if lt(hi, b) else b
        if not lt(a, b):
            if a >= hi:  # so is every later piece
                break
            continue
        ga = gb if a is last else g(a)
        last, gb = b, g(b)
        x, y = (ga, gb) if increasing else (gb, ga)
        if lt(x, y):
            out.append((x, y, v))
    return out


@dataclass(frozen=True)
class AtomSeq:
    """Sequence over an atomic space: finitely many entries over a default;
    build it with ``seq``.

    ``tail`` is the value at every index not listed in ``entries``; it may be
    nonzero only where the space ``has_tail`` (over N).  Entries are sorted
    by index and never equal the tail; all values are finite.  A sequence
    built from ints (``_int_seq``) forms its ``entries`` on first read; it
    compares, hashes, prints, pickles and travels as the ``seq`` it equals.
    """

    space: MeasureSpace
    entries: tuple[tuple[int, Real], ...]
    tail: Real = field(default=Fraction(0))

    def __getattr__(self, name):
        """``entries`` of a sequence built by ``_int_seq``: formed from its
        view on first read, then kept in ``__dict__`` as ``seq`` keeps them."""
        V = self.__dict__.get("_view") if name == "entries" else None
        if V is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__["entries"] = tuple(zip(V.indices, (Fraction(v, V.D) for v in V.vals)))
        return self.entries

    @cached_property
    def _view(self) -> SeqView:
        """The sequence's ``SeqView``; ``_int_seq`` stores it from the start."""
        D, ws = scaled([v for _, v in self.entries] + [self.tail])
        return SeqView(D, tuple(j for j, _ in self.entries), ws[:-1], ws[-1], all(type(w) is int for w in ws))

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
        return _seq_cells(self.space.atom_mass, (v for _, v in self.entries), self.tail)


class SeqView(NamedTuple):
    """A sequence over ints: its indices, and its entries' values and its
    tail over one denominator D.  Past a float or the budget it is at D = 1
    over the values themselves, not ``exact``."""

    D: int
    indices: tuple
    vals: list
    tail: Real
    exact: bool


def _seq_cells(mass, vals, tail):
    """Yield (mass, value) for each nonzero value, then (INF, tail) for a
    nonzero tail (a sequence's entries, or its view's ints)."""
    yield from ((mass, v) for v in vals if v != 0)
    if tail != 0:
        yield INF, tail


def _plain_seq(f: AtomSeq) -> SeqView:
    """f's view at scale 1, over its own entries and tail."""
    return SeqView(1, tuple(j for j, _ in f.entries), [v for _, v in f.entries], f.tail, False)


def _seq_views(fns) -> list[SeqView]:
    """The views of fns, every one exact, or every one at scale 1."""
    views = [f._view for f in fns]
    return views if all(V.exact for V in views) else [_plain_seq(f) for f in fns]


def _int_seq(space: MeasureSpace, indices, nums, D: int, tail: Fraction) -> AtomSeq:
    """The AtomSeq with the entries nums[i] / D at the sorted indices, none
    equal to the exact tail, whose denominator divides D.  It holds only its
    space, tail and exact ``SeqView``, and forms ``entries`` on first read."""
    s = object.__new__(AtomSeq)
    V = SeqView(D, tuple(indices), nums, tail.numerator * (D // tail.denominator), True)
    s.__dict__.update(space=space, tail=tail, _view=V)
    return s


def _merged_seq(space: MeasureSpace, items, tail: Real = Fraction(0), scale: SeqView | None = None) -> AtomSeq:
    """The AtomSeq of the (index, value) items that differ from the tail,
    sorted by index, as ints over the D of an exact ``scale`` view
    (``_int_seq``); else as they are, where a zero tail is the exact 0 (also
    for 0.0 and -0.0), and a non-finite entry or tail raises."""
    if scale is not None and scale.exact:
        kept = sorted((j, w) for j, w in items if w != tail)
        return _int_seq(space, [j for j, _ in kept], [w for _, w in kept], scale.D, Fraction(tail, scale.D))
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
    than O(n^2).  The jumps are summed as ints over one value scale wherever
    the values and coefficients are exact, also over cuts with no int view
    (floats), whose union then sorts by ``num.real_key``.  Sequences sum
    their deviations from the summed tail as ints the same way.  A float
    value or coefficient, or a scale past the budget, runs the same loop at
    scale 1, over the values and coefficients themselves.
    """
    if len(coeffs) != len(fns) or not fns:
        raise ValueError("need equally many (>=1) coefficients and functions")
    coeffs = [as_real(c) for c in coeffs]
    sp = fns[0].space
    for f in fns:
        if f.space != sp:
            raise ValueError("functions live on different spaces")
    if isinstance(fns[0], AtomSeq):
        # c_i v / D_i = k_i v / M (M = 1, k_i = c_i at scale 1), summed as
        # deviations k_i v - k_i tail_i from the summed tail T, T / M the tail
        views = _seq_views(fns)
        M, ks = scaled([c / V.D for c, V in zip(coeffs, views)])
        if not (views[0].exact and all(type(k) is int for k in ks)):
            views, M, ks = [_plain_seq(f) for f in fns], 1, coeffs
        T = sum(k * V.tail for k, V in zip(ks, views))
        dev: dict[int, Real] = {}
        for k, V in zip(ks, views):
            kt = k * V.tail
            for j, w in zip(V.indices, V.vals):
                dev[j] = dev.get(j, 0) + k * w - kt
        return _merged_seq(sp, ((j, T + d) for j, d in dev.items()), T, views[0]._replace(D=M))
    # step functions: collect jump events, as ints over one value scale M
    # wherever the values and coefficients are exact, c_i v / D_i = k_i v / M,
    # and over one cut scale too where the cuts have an int view
    views, _ = _views(fns)
    if not views[0].exact:  # cuts at scale 1: each function's values over their own D
        views = [V._replace(D=D, vals=vals) for V in views for D, vals in [scaled(V.vals)]]
    M, ks = scaled([c / V.D for c, V in zip(coeffs, views)])
    if not (all(type(k) is int for k in ks) and all(type(V.vals[0]) is int for V in views)):
        views, M, ks = [_plain(f) for f in fns], 1, coeffs
    base = sum(k * V.vals[0] for k, V in zip(ks, views))
    jumps: dict[Real, Real] = {}
    for k, V in zip(ks, views):
        for cut, lo, hi in zip(V.cuts, V.vals, V.vals[1:]):
            if cut in jumps:
                jumps[cut] += k * (hi - lo)
            else:
                jumps[cut] = k * (hi - lo)
    cuts = sorted(jumps) if views[0].exact else sorted(jumps, key=real_key)
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


def _view_pairs(F: SeqView, G: SeqView):
    """(j, x, y), the values of two sequence views (each over its own D) at
    every index j that either lists, in no set order."""
    gd = dict(zip(G.indices, G.vals))
    yield from ((j, x, gd.pop(j, G.tail)) for j, x in zip(F.indices, F.vals))
    yield from ((j, F.tail, y) for j, y in gd.items())


def pointwise_leq(f: MeasFn, g: MeasFn) -> bool:
    """Exact f <= g everywhere, x D_g <= y D_f over the views of f and g: on
    each cell of their refinement, or at the tails and each listed index."""
    if f.space != g.space:
        raise ValueError("functions live on different spaces")
    if isinstance(f, AtomSeq):
        F, G = _seq_views([f, g])
        pairs = chain([(F.tail, G.tail)], ((x, y) for _, x, y in _view_pairs(F, G)))
    else:
        (F, G), _ = _views([f, g])
        _, fvals, gvals = _refine(F, G)
        pairs = zip(fvals, gvals)
    return all(x * G.D <= y * F.D for x, y in pairs)


def pointwise_map(op, f: MeasFn, g: MeasFn) -> MeasFn:
    """Binary pointwise operation on a common refinement, canonical; op
    maps two values to a Fraction or float."""
    if f.space != g.space:
        raise ValueError("functions live on different spaces")
    if isinstance(f, AtomSeq):
        pairs = _view_pairs(_plain_seq(f), _plain_seq(g))
        return _merged_seq(f.space, ((j, op(x, y)) for j, x, y in pairs), op(f.tail, g.tail))
    cuts, fvals, gvals = _refine(f, g)
    return _merged_step(f.space, cuts, [op(fv, gv) for fv, gv in zip(fvals, gvals)])


def pointwise_max(f: MeasFn, g: MeasFn) -> MeasFn:
    return pointwise_map(max, f, g)


def pointwise_mul(f: MeasFn, g: MeasFn) -> MeasFn:
    return pointwise_map(lambda a, b: a * b, f, g)


def abs_fn(f: MeasFn) -> MeasFn:
    V = f._view
    if isinstance(f, AtomSeq):
        return _merged_seq(f.space, ((j, abs(w)) for j, w in zip(V.indices, V.vals)), abs(V.tail), V)
    return _merged_step(f.space, V.cuts, [abs(v) for v in V.vals], V)


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


def _integrate_abs_product(f: MeasFn, g: MeasFn) -> Real:
    """The integral of |f g| over the views of f and g, with no product
    function formed, the sum of ``integrate(abs_fn(pointwise_mul(f, g)))``:
    for step functions |f g| times the width of each run of cells where it
    holds, for exact sequences sum |x y| at the indices either lists times
    the atom mass (INF for two nonzero tails)."""
    if f.space != g.space:
        raise ValueError("functions live on different spaces")
    if isinstance(f, AtomSeq):
        (F, G), m = _seq_views([f, g]), f.space.atom_mass
        if not (F.exact and type(m) is Fraction):
            return integrate(abs_fn(pointwise_mul(f, g)))
        if F.tail and G.tail:
            return INF
        total = sum(abs(x * y) for _, x, y in _view_pairs(F, G))
        return Fraction(total * m.numerator, F.D * G.D * m.denominator)
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
