"""Distribution functions, non-increasing rearrangements, and comparisons.

The rearrangement of a catalog function is computed exactly: merge the level
cells of f (``cells()``, for either carrier) into the finitely many levels of
|f|, sort them in descending order, and lay them out left to right on
[0, infinity) with their measures as widths.  A positive level of infinite
measure becomes the rearrangement's tail value (the function then fails the
absolutely-continuous-rearrangement property).
That costs O(n log n) for n pieces (the sort of the levels), and it is paid
once per function object: ``rearrangement`` keeps f* on the (immutable)
function, and every norm and comparison reads it from there.  Levels are
grouped, sorted and laid out as ints over f's int view (``stepfn.View``, or
for a sequence its ``SeqView``, each atom as wide as its mass).

The distribution function reads f's cells as ints too: |v| d > n D for
s = n / d, the widths summed over C.

The Hardy integral H(t) = integral of f* over [0, t] is piecewise linear in
t, so one left-to-right sweep over the pieces of f* gives H at every point of
a sorted grid, in int running sums over the view.  That sweep is the one code
path for H: the Hardy-Littlewood-Polya comparison and the MarcStrong norm
sweep merged grids, and ``hardy_integral`` keeps the sweep's values at the
cuts of f* on f* (as f keeps f*), so each t is one bisection plus the
partial piece v (t - a).  A dilation by an exact t divides the int cuts of
an exact view (``stepfn._affine_slice``).  Once f* and g* are known, the comparison is
linear in their cuts (one merge of two sorted cut lists, then one sweep, with
H_f D_g <= H_g D_f over one cut denominator).  The comparison is exact:
checking the union of breakpoints plus the terminal slopes is a complete
decision procedure, not a sampling heuristic.
"""

from __future__ import annotations

from fractions import Fraction

from .num import INF, Real, as_real, is_finite, to_float, unscaled
from .space import halfline
from .stepfn import (
    MeasFn,
    StepFn,
    View,
    _affine_slice,
    _fn_from_pieces,
    _held,
    _integrate_abs_product,
    _mapped_pieces,
    _merged_step,
    _piece,
    _tiled_step,
    _union,
    _views,
)

_HALFLINE = halfline()


def distribution_at(f: MeasFn, s) -> Real:
    """mu({|f| > s}), exactly: over the view f holds, |v| d > n D for
    s = n / d, and the widths summed as ints over C."""
    s = as_real(s)
    if s < 0:
        raise ValueError("distribution function needs s >= 0")
    cells, V = f._scaled_cells()
    n, d = s.as_integer_ratio() if V.exact and is_finite(s) else (s, 1)
    nD = n * V.D
    total: Real = 0
    for m, v in cells:
        if abs(v) * d > nD:
            if not is_finite(m):  # INF absorbs every other measure
                return INF
            total += m
    return unscaled(total, V.C)


def _levels(f: MeasFn, cells=None) -> dict[Real, Real]:
    """Map |value| -> total measure of that level set, skipping level 0; read
    off f's ``cells()``, or off the given cells of its view."""
    levels: dict[Real, Real] = {}
    for m, v in (f.cells() if cells is None else cells):
        key = abs(v)
        got = levels.get(key)
        if got is None:
            levels[key] = m
        elif is_finite(got) and is_finite(m):
            levels[key] = got + m
        else:  # INF absorbs every other measure, without float() of a Fraction
            levels[key] = INF
    return levels


def rearrangement(f: MeasFn) -> StepFn:
    """The non-increasing rearrangement f* as a StepFn on the half-line,
    canonical by construction: distinct decreasing levels, positive widths.

    f* is computed once per function object and kept in the object's
    ``__dict__``, beside its fields: the record is frozen, so f* never goes
    stale, and equality, hashing, repr and the wire see only the fields."""
    r = f.__dict__.get("_rearrangement")
    if r is None:
        r = f.__dict__["_rearrangement"] = _rearranged(f)
    return r


def _rearranged(f: MeasFn) -> StepFn:
    """f* from f's levels as ints over f's view, whose value denominator D f*
    keeps: a step function's widths over its view's C, an exact sequence's
    atom counts times the atom mass's numerator over its denominator, and a
    nonzero tail over N the final ray (``_scaled_cells``).  Past a float or
    the budget, f*'s own values at scale 1."""
    cells, scale = f._scaled_cells(f._view)
    levels = _levels(f, cells)
    cuts: list = []
    vals: list = []
    pos = 0
    for v in sorted(levels, reverse=True):
        vals.append(v)
        if levels[v] == INF:  # this level fills the rest of the half-line
            break
        end = pos + levels[v]
        if not pos < end:
            raise ValueError(f"level {v} is narrower than the float rounding of its "
                             f"position {pos}; exact cuts avoid this")
        pos = end
        cuts.append(pos)
    else:
        vals.append(0)
    return _merged_step(_HALFLINE, cuts, vals, scale._replace(bounds=[0, INF]))


def is_rearranged(f: MeasFn) -> bool:
    """True when f is already a nonnegative nonincreasing StepFn on [0, inf),
    read off its view: signs and order are the same at any positive scale."""
    if not isinstance(f, StepFn) or f.space != _HALFLINE:
        return False
    vals = f._view.vals
    return vals[-1] >= 0 and all(a > b for a, b in zip(vals, vals[1:]))


def hardy_integral(f: MeasFn, t) -> Real:
    """Exact integral of f* over [0, t] (t = inf allowed): H at the left end
    a of the piece of f* that holds t, from the sweep kept on f*
    (``_hardy_at_cuts``), plus the partial piece v (t - a), as the sweep
    adds it; for an exact t over the exact view, one Fraction."""
    t = as_real(t)
    if not t > 0:
        raise ValueError("hardy_integral needs t > 0")
    r = rearrangement(f)
    V, H = r.__dict__.get("_hardy") or _hardy_at_cuts(r)
    i = _piece(V, t)
    total, a, v = H[i], V.bounds[i], V.vals[i]
    if V.exact and type(t) is Fraction:  # over C D d for t = n / d
        n, d = t.as_integer_ratio()
        return Fraction(total * d + v * (n * V.C - a * d), V.C * V.D * d)
    total, a, v = unscaled(total, V.C * V.D), unscaled(a, V.C), unscaled(v, V.D)
    if v == 0 or a == t:
        return total
    return total + v * (t - a) if is_finite(t) else INF


def _hardy_at_cuts(r: StepFn):
    """(V, H): the view r holds and H at each left end of its pieces (over
    C D), by one sweep, kept in r's ``__dict__`` as f keeps f*."""
    V = _held(r)
    r.__dict__["_hardy"] = V, [0, *_hardy_sweep(V, V.cuts)]
    return r.__dict__["_hardy"]


def _hardy_sweep(V: View, ts):
    """Yield H(t) = integral of r over [0, t] for each t of the nondecreasing
    sequence ts (t > 0, t = inf allowed), in one pass over the pieces of the
    view V of the rearrangement r, nonzero but for the last (ts over V's C, H
    over C D).  Each value is the same sum, in the same order, as an integral
    up to t alone: whole pieces left to right, then the partial piece v (t - a)."""
    pieces = zip(V.bounds, V.bounds[1:], V.vals)
    a, b, v = next(pieces)
    total = 0
    for t in ts:
        while b <= t and b != INF:
            total += v * (b - a)
            a, b, v = next(pieces)
        if v == 0 or a == t:
            yield total
        else:  # at t = inf, v > 0 on the last piece, a ray: H(t) = INF
            yield total + v * (t - a) if is_finite(t) else INF


def hlp_leq(f: MeasFn, g: MeasFn) -> bool:
    """Exact Hardy-Littlewood-Polya comparison: integral of f* over [0,t]
    <= same for g*, for every t > 0.

    Both Hardy integrals are piecewise linear with breakpoints at the cuts of
    the two rearrangements, so it suffices to compare the terminal slopes
    (the tail values) and then to sweep both over the merged cuts together,
    stopping at the first violation.  Once f* and g* are known (each is
    computed once per function object), this is linear in the cuts: over
    their views, H_f D_g <= H_g D_f on ints over one C.
    """
    (F, G), _ = _views([rearrangement(f), rearrangement(g)])
    if F.vals[-1] * G.D > G.vals[-1] * F.D:
        return False
    ts = _union(F.cuts, G.cuts)
    return all(hf * G.D <= hg * F.D for hf, hg in zip(_hardy_sweep(F, ts), _hardy_sweep(G, ts)))


def equimeasurable(f: MeasFn, g: MeasFn) -> bool:
    return rearrangement(f) == rearrangement(g)


def hardy_littlewood_pair(f: MeasFn, g: MeasFn) -> tuple[Real, Real]:
    """(integral of |fg| d mu, integral of f* g* d lambda) — both exact.

    The first never exceeds the second on a resonant space.
    """
    return _integrate_abs_product(f, g), _integrate_abs_product(rearrangement(f), rearrangement(g))


def dilate(f: StepFn, t) -> StepFn:
    """Dilation (D_t f)(s) = f(t s) for f on the half-line; exact cuts.  An
    exact t on an exact view that f holds divides f's int cuts by t: the
    pull-back by s -> t s (``stepfn._affine_slice``).

    Dividing float cuts by t can round a narrow piece to width 0.  No float
    lies in such a piece, so it is dropped and its neighbours merge.  By a t
    whose float is 0, a float cut is divided exactly (ValueError past 2^1024)."""
    t = as_real(t)
    if not t > 0:
        raise ValueError("dilation parameter must be positive")
    if not isinstance(f, StepFn) or f.space != _HALFLINE:
        raise ValueError("dilate needs a StepFn on the half-line")

    V = f.__dict__.get("_view")
    if V is not None and V.exact and type(t) is Fraction:  # the pull-back by s -> t s
        d = _tiled_step(_HALFLINE, [(0, *_affine_slice(V, 0, INF, 1 / t, Fraction(0)))], V.D)
        if d is not None:
            return d

    def g(c):
        if type(c) is float and is_finite(c) and not to_float(t):
            n, d = c.as_integer_ratio()
            if (q := to_float(n * t.denominator, d * t.numerator)) == INF:
                raise ValueError(f"the cut {c!r} over t is past the double range")
            return q
        return c / t if is_finite(c) else c
    pieces = _mapped_pieces(f.pieces(), *_HALFLINE.domain, g, True)
    return _fn_from_pieces(_HALFLINE, pieces)


def is_acr(f: MeasFn) -> bool:
    """Absolutely continuous rearrangement: f*(t) -> 0 as t -> infinity."""
    return rearrangement(f)._view.vals[-1] == 0
