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
grouped, sorted and laid out as ints over f's int view (``stepfn.View``).

The Hardy integral H(t) = integral of f* over [0, t] is piecewise linear in
t, so one left-to-right sweep over the pieces of f* gives H at every point of
a sorted grid, in int running sums over the view.  That sweep is the one code
path for H: ``hardy_integral``, the Hardy-Littlewood-Polya comparison and the
MarcStrong norm all read it.  Once f* and g* are known, the comparison is
linear in their cuts (one merge of two sorted cut lists, then one sweep, with
H_f D_g <= H_g D_f over one cut denominator).  The comparison is exact:
checking the union of breakpoints plus the terminal slopes is a complete
decision procedure, not a sampling heuristic.
"""

from __future__ import annotations

from fractions import Fraction

from .num import INF, Real, as_real, is_finite, unscaled
from .space import halfline
from .stepfn import (
    MeasFn,
    StepFn,
    View,
    _cells,
    _fn_from_pieces,
    _integrate_abs_product,
    _mapped_pieces,
    _merged_step,
    _union,
    _views,
)

_HALFLINE = halfline()
_SCALE_1 = View(1, [0, INF], 1, [], False)  # a sequence's f*, over its values themselves


def distribution_at(f: MeasFn, s) -> Real:
    """mu({|f| > s}), exactly."""
    s = as_real(s)
    if s < 0:
        raise ValueError("distribution function needs s >= 0")
    total: Real = Fraction(0)
    for m, v in f.cells():
        if abs(v) > s:
            if not is_finite(m):  # INF absorbs every other measure
                return INF
            total += m
    return total


def _levels(f: MeasFn, V: View | None = None) -> dict[Real, Real]:
    """Map |value| -> total measure of that level set, skipping level 0; over
    the C and D of f's view V, if given."""
    levels: dict[Real, Real] = {}
    for m, v in (f.cells() if V is None else _cells(V.bounds, V.vals)):
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
    """f* from f's levels as ints over f's view, which f* keeps (none for a
    sequence, whose levels are read at scale 1)."""
    V = f._view if isinstance(f, StepFn) else None
    levels = _levels(f, V)
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
    return _merged_step(_HALFLINE, cuts, vals, _SCALE_1 if V is None else V._replace(bounds=[0, INF]))


def is_rearranged(f: MeasFn) -> bool:
    """True when f is already a nonnegative nonincreasing StepFn on [0, inf)."""
    if not isinstance(f, StepFn) or f.space != _HALFLINE:
        return False
    if any(v < 0 for v in f.vals):
        return False
    return all(a > b for a, b in zip(f.vals, f.vals[1:]))


def hardy_integral(f: MeasFn, t) -> Real:
    """Exact integral of f* over [0, t] (t = inf allowed)."""
    t = as_real(t)
    if not t > 0:
        raise ValueError("hardy_integral needs t > 0")
    (V,), ts = _views([rearrangement(f)], [t])
    return unscaled(next(_hardy_sweep(V, ts)), V.C * V.D)


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
    """Dilation (D_t f)(s) = f(t s) for f on the half-line; exact cuts.

    Dividing float cuts by t can round a narrow piece to width 0.  No float
    lies in such a piece, so it is dropped and its neighbours merge."""
    t = as_real(t)
    if not t > 0:
        raise ValueError("dilation parameter must be positive")
    if not isinstance(f, StepFn) or f.space != _HALFLINE:
        raise ValueError("dilate needs a StepFn on the half-line")
    pieces = _mapped_pieces(f.pieces(), *_HALFLINE.domain, lambda c: c / t if is_finite(c) else c, True)
    return _fn_from_pieces(_HALFLINE, pieces)


def is_acr(f: MeasFn) -> bool:
    """Absolutely continuous rearrangement: f*(t) -> 0 as t -> infinity."""
    return rearrangement(f)._view.vals[-1] == 0
