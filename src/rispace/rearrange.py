"""Distribution functions, non-increasing rearrangements, and comparisons.

The rearrangement of a catalog function is computed exactly: merge the level
cells of f (``cells()``, for either carrier) into the finitely many levels of
|f|, sort them in descending order, and lay them out left to right on
[0, infinity) with their measures as widths.  A positive level of infinite
measure becomes the rearrangement's tail value (the function then fails the
absolutely-continuous-rearrangement property).
That costs O(n log n) for n pieces (the sort of the levels), and it is paid
once per function object: ``rearrangement`` keeps f* on the (immutable)
function, and every norm and comparison reads it from there.

The Hardy integral H(t) = integral of f* over [0, t] is piecewise linear in
t, so one left-to-right sweep over the pieces of f* gives H at every point of
a sorted grid.  That sweep is the one code path for H: ``hardy_integral``, the
Hardy-Littlewood-Polya comparison and the MarcStrong norm all read it.  Once
f* and g* are known, the comparison is linear in their cuts (one merge of two
sorted cut tuples, then one sweep); the MarcStrong norm sorts its grid, so it
stays O(n log n).  The comparison is exact: checking the union of breakpoints
plus the terminal slopes is a complete decision procedure, not a sampling
heuristic.
"""

from __future__ import annotations

from fractions import Fraction

from .num import INF, Real, as_real, is_finite
from .space import halfline
from .stepfn import (
    MeasFn,
    StepFn,
    _fn_from_pieces,
    _union,
    abs_fn,
    integrate,
    pointwise_mul,
)

_HALFLINE = halfline()


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


def _levels(f: MeasFn) -> dict[Real, Real]:
    """Map |value| -> total measure of that level set, skipping level 0."""
    levels: dict[Real, Real] = {}
    for m, v in f.cells():
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
    levels = _levels(f)
    cuts: list[Real] = []
    vals: list[Real] = []
    pos: Real = Fraction(0)
    for v in sorted(levels, reverse=True):
        vals.append(v)
        if levels[v] == INF:  # this level fills the rest of the half-line
            return StepFn(_HALFLINE, tuple(cuts), tuple(vals))
        end = pos + levels[v]
        if not pos < end:
            raise ValueError(f"level {v} is narrower than the float rounding of its "
                             f"position {pos}; exact cuts avoid this")
        pos = end
        cuts.append(pos)
    vals.append(Fraction(0))
    return StepFn(_HALFLINE, tuple(cuts), tuple(vals))


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
    return next(_hardy_sweep(rearrangement(f), [t]))


def _hardy_sweep(r: StepFn, ts):
    """Yield H(t) = integral of r over [0, t] for each t of the nondecreasing
    sequence ts (t > 0, t = inf allowed), in one pass over the pieces of the
    rearrangement r, nonzero but for the last.  Each value is the same sum, in
    the same order, as an integral up to t alone: whole pieces left to right,
    then the partial piece v (t - a)."""
    pieces = r.pieces()
    a, b, v = next(pieces)
    total: Real = Fraction(0)
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
    computed once per function object), this is linear in the cuts.
    """
    rf, rg = rearrangement(f), rearrangement(g)
    if rf.vals[-1] > rg.vals[-1]:
        return False
    ts = _union(rf.cuts, rg.cuts)
    return all(hf <= hg for hf, hg in zip(_hardy_sweep(rf, ts), _hardy_sweep(rg, ts)))


def equimeasurable(f: MeasFn, g: MeasFn) -> bool:
    return rearrangement(f) == rearrangement(g)


def hardy_littlewood_pair(f: MeasFn, g: MeasFn) -> tuple[Real, Real]:
    """(integral of |fg| d mu, integral of f* g* d lambda) — both exact.

    The first never exceeds the second on a resonant space.
    """
    if f.space != g.space:
        raise ValueError("functions live on different spaces")
    lhs = integrate(abs_fn(pointwise_mul(f, g)))
    rhs = integrate(pointwise_mul(rearrangement(f), rearrangement(g)))
    return lhs, rhs


def dilate(f: StepFn, t) -> StepFn:
    """Dilation (D_t f)(s) = f(t s) for f on the half-line; exact cuts.

    Dividing float cuts by t can round a narrow piece to width 0.  No float
    lies in such a piece, so it is dropped and its neighbours merge."""
    t = as_real(t)
    if not t > 0:
        raise ValueError("dilation parameter must be positive")
    if not isinstance(f, StepFn) or f.space != _HALFLINE:
        raise ValueError("dilate needs a StepFn on the half-line")
    bounds = (Fraction(0), *(c / t for c in f.cuts), INF)
    pieces = [(a, b, v) for a, b, v in zip(bounds, bounds[1:], f.vals) if a < b]
    return _fn_from_pieces(_HALFLINE, pieces)


def is_acr(f: MeasFn) -> bool:
    """Absolutely continuous rearrangement: f*(t) -> 0 as t -> infinity."""
    return rearrangement(f).vals[-1] == 0
