"""Randomized property suite with deterministic seeds and greedy shrinking.

Every property draws its instance from ``random.Random(f"{seed}:{name}:{t}")``
for trial t, so a run is reproducible and independent of registry order.
Trial t uses instance size ``1 + t % max_size``.  When a trial fails, the
runner re-samples at smaller sizes and reports the smallest counterexample it
can find, as a JSON-ready payload.

The checks compare exact rationals with ``==``; values that pass through
floating point (fractional-power norms, the log profile) are compared with a
relative tolerance of 1e-12.

The function generators draw cuts as ints over 8 and values as ints over 4,
and build their results from those ints, unchecked, as the int loops of
``stepfn`` do: a step function from its exact view (``_grid_step``), a
sequence by ``_int_seq``.  They equal what ``step`` and ``seq`` build from the
same draws, which outside input still goes through.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import jsonio
from .ergodic import _cycles, apply, cesaro, iterate_apply, maximal_truncated, permutation_limit
from .num import INF, NEG_INF, Real, is_finite, to_float, unscaled
from .rearrange import (
    dilate,
    distribution_at,
    equimeasurable,
    hardy_integral,
    hardy_littlewood_pair,
    hlp_leq,
    is_rearranged,
    rearrangement,
)
from .space import (
    ATOMIC_FINITE,
    ATOMIC_N,
    LEBESGUE_HALFLINE,
    LEBESGUE_INTERVAL,
    LEBESGUE_LINE,
    MeasureSpace,
    atomic_finite,
    atomic_n,
    atomic_set,
    atomic_z,
    empty_set,
    halfline,
    interval,
    interval_set,
    line,
)
from .spaces import (
    LogClip,
    Lorentz,
    Lp,
    MarcStrong,
    MarcWeak,
    Power,
    StepApprox,
    WeakLp,
    XiWeight,
    norm_eval,
    phi_at,
    quasiconcave_check,
    xi_seminorm,
)
from .stepfn import (
    AtomSeq,
    MeasFn,
    StepFn,
    View,
    _int_seq,
    _merged_step,
    _views,
    abs_fn,
    add,
    integrate,
    linear_combine,
    pointwise_leq,
    pointwise_mul,
    scale,
    seq,
    step,
    subtract,
)
from .symbols import (
    Affine,
    AffineTail,
    AtomicSymbol,
    Branch,
    ExpRecip,
    IntervalSymbol,
    PowerOnUnit,
    ShiftedPower,
    Symbol,
    atomic_power,
    lower_bound,
    measure_bound,
    power_measure_bound,
    preimage,
    preimage_measure,
)

# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------

_REL = 1e-12


def _eq(a: Real, b: Real) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    fa, fb = to_float(a), to_float(b)
    if math.isinf(fa) or math.isinf(fb):
        return fa == fb
    return math.isclose(fa, fb, rel_tol=_REL, abs_tol=1e-15)


def _leq(a: Real, b: Real) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a <= b
    fa, fb = to_float(a), to_float(b)
    return fa <= fb or math.isclose(fa, fb, rel_tol=_REL, abs_tol=1e-15)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

_DEN = 8  # cuts are drawn as ints over this
_VAL_DEN = 4  # values are drawn as ints over this
_ATOM_MASSES = (Fraction(1), Fraction(1), Fraction(1, 2), Fraction(2))
_ZERO = Fraction(0)  # the tail of every generated sequence


def _quarter(rng: random.Random, lo: int, hi: int) -> int:
    """A value draw: the numerator over ``_VAL_DEN`` of a dyadic in [lo, hi]."""
    return rng.randint(lo * _VAL_DEN, hi * _VAL_DEN)


def _dyadic(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(_quarter(rng, lo, hi), _VAL_DEN)


def _over_den(x) -> int:
    """int(x * _DEN), truncated toward 0, from x's int ratio: no Fraction formed."""
    n, d = x.as_integer_ratio()
    q = abs(n) * _DEN // d
    return q if n >= 0 else -q


def _cut_ints(rng: random.Random, size: int, lo, hi) -> list[int]:
    """Up to size + 1 distinct cuts in the open (lo, hi), sorted, as ints
    over ``_DEN``."""
    # random.sample draws by index, so sampling the integers draws the same
    # cuts as sampling a pool of Fractions would, at the cost of k of them
    pool = range(_over_den(lo) + 1, _over_den(hi))
    k = min(len(pool), rng.randint(0, size + 1))
    return sorted(rng.sample(pool, k))


def _sorted_cuts(rng: random.Random, size: int, lo, hi) -> list[Fraction]:
    return [Fraction(i, _DEN) for i in _cut_ints(rng, size, lo, hi)]


def _grid_step(sp: MeasureSpace, cuts: list[int], vals: list[int]) -> StepFn:
    """The StepFn of drawn cut ints over ``_DEN`` and value ints over
    ``_VAL_DEN``, built unchecked from its exact view over C, the lcm of
    ``_DEN`` and the finite domain ends' denominators; a float end
    (``interval(2.5)``) has no int view, so that one goes through ``step``."""
    ends = sp.domain
    if any(isinstance(e, float) and is_finite(e) for e in ends):
        return step(sp, [Fraction(c, _DEN) for c in cuts], [Fraction(v, _VAL_DEN) for v in vals])
    C = math.lcm(_DEN, *(e.denominator for e in ends if is_finite(e)))
    k = C // _DEN
    bounds = [e.numerator * (C // e.denominator) if is_finite(e) else e for e in ends]
    return _merged_step(sp, [c * k for c in cuts], vals, View(C, bounds, _VAL_DEN, [], True))


def gen_lebesgue_space(rng: random.Random, size: int) -> MeasureSpace:
    r = rng.random()
    if r < 0.4:
        return halfline()
    if r < 0.7:
        return interval(Fraction(rng.randint(1, 4)))
    return line()


def gen_atomic_space(rng: random.Random, size: int) -> MeasureSpace:
    mass = rng.choice(_ATOM_MASSES)
    r = rng.random()
    if r < 0.4:
        return atomic_finite(rng.randint(2, 4 + 2 * size), mass)
    if r < 0.7:
        return atomic_n(mass)
    return atomic_z(mass)


def gen_space(rng: random.Random, size: int) -> MeasureSpace:
    if rng.random() < 0.6:
        return gen_lebesgue_space(rng, size)
    return gen_atomic_space(rng, size)


def _fn_bounds(sp: MeasureSpace, size: int):
    """The ends of the span the generators draw cuts in: ints, or the
    interval's length."""
    if sp.kind == LEBESGUE_INTERVAL:
        return 0, sp.length
    if sp.kind == LEBESGUE_HALFLINE:
        return 0, 3 * size + 2
    b = 2 * size + 2
    return -b, b


def gen_step(rng: random.Random, size: int, sp: MeasureSpace, *,
             nonneg: bool = False, compact: bool = True) -> StepFn:
    lo, hi = _fn_bounds(sp, size)
    cuts = _cut_ints(rng, size, lo, hi)
    vlo = 0 if nonneg else -6
    vals = [_quarter(rng, vlo, 6) for _ in range(len(cuts) + 1)]
    if compact:
        if sp.kind == LEBESGUE_HALFLINE:
            vals[-1] = 0
        elif sp.kind == LEBESGUE_LINE:
            vals[0] = 0
            vals[-1] = 0
    return _grid_step(sp, cuts, vals)


def _index_pool(sp: MeasureSpace, size: int) -> list[int]:
    if sp.kind == ATOMIC_FINITE:
        return list(range(sp.count))
    if sp.kind == ATOMIC_N:
        return list(range(0, 3 * size + 3))
    return list(range(-2 * size - 2, 2 * size + 3))


def gen_seq(rng: random.Random, size: int, sp: MeasureSpace, *,
            nonneg: bool = False) -> AtomSeq:
    pool = _index_pool(sp, size)
    k = rng.randint(0, min(len(pool), size + 2))
    vlo = 0 if nonneg else -6
    # the sampled indices are distinct and in the space; a zero draw is the tail
    kept = [(j, w) for j, w in sorted((j, _quarter(rng, vlo, 6)) for j in rng.sample(pool, k)) if w]
    return _int_seq(sp, [j for j, _ in kept], [w for _, w in kept], _VAL_DEN, _ZERO)


def gen_fn(rng: random.Random, size: int, sp: MeasureSpace, *,
           nonneg: bool = False, compact: bool = True) -> MeasFn:
    if sp.is_atomic:
        return gen_seq(rng, size, sp, nonneg=nonneg)
    return gen_step(rng, size, sp, nonneg=nonneg, compact=compact)


def gen_weight(rng: random.Random, size: int) -> StepFn:
    """Nonnegative nonincreasing step weight on the half-line, not all zero."""
    cuts = _cut_ints(rng, size, 0, 4)
    vals = sorted((_quarter(rng, 0, 6) for _ in range(len(cuts) + 1)), reverse=True)
    if rng.random() < 0.8:
        vals[-1] = 0
    if vals[0] == 0:
        vals[0] = _VAL_DEN
    return _grid_step(halfline(), cuts, vals)


def gen_phi(rng: random.Random, size: int):
    r = rng.random()
    if r < 0.35:
        return Power(rng.choice([Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)]))
    if r < 0.6:
        return LogClip()
    t = Fraction(rng.randint(1, 8), 4)
    v = Fraction(rng.randint(1, 8), 4)
    knots = [(t, v)]
    for _ in range(rng.randint(0, size)):
        dt = Fraction(rng.randint(1, 8), 4)
        slope = (v / t) * Fraction(rng.randint(0, 4), 4)
        t, v = t + dt, v + slope * dt
        knots.append((t, v))
    final = (v / t) * Fraction(rng.randint(0, 4), 4)
    return StepApprox(tuple(knots), final)


def gen_normspec(rng: random.Random, size: int, sp: MeasureSpace, *,
                 hlp_safe: bool = False):
    if hlp_safe:
        # families where Hardy-Littlewood-Polya domination forces norm order
        if rng.random() < 0.5:
            return MarcStrong(sp, gen_phi(rng, size))
        q = rng.choice([Fraction(1), Fraction(3, 2), Fraction(2)])
        return Lorentz(sp, q + Fraction(rng.randint(0, 4), 2), q)
    r = rng.random()
    if r < 0.3:
        return Lp(sp, rng.choice([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3), INF]))
    if r < 0.5:
        return Lorentz(sp, Fraction(rng.randint(1, 3)), rng.choice([Fraction(1), Fraction(2)]))
    if r < 0.65:
        return WeakLp(sp, rng.choice([Fraction(1), Fraction(2)]))
    if r < 0.85:
        return MarcWeak(sp, gen_phi(rng, size))
    return MarcStrong(sp, gen_phi(rng, size))


def gen_set(rng: random.Random, size: int, sp: MeasureSpace):
    if sp.is_atomic:
        pool = _index_pool(sp, size)
        k = rng.randint(0, min(len(pool), size + 2))
        cofinite = sp.kind != ATOMIC_FINITE and rng.random() < 0.2
        return atomic_set(sp, rng.sample(pool, k), cofinite)
    lo, hi = _fn_bounds(sp, size)
    cuts = _sorted_cuts(rng, size, lo, hi)
    pairs = [(cuts[i], cuts[i + 1]) for i in range(0, len(cuts) - 1, 2)]
    if sp.kind == LEBESGUE_HALFLINE and rng.random() < 0.15:
        pairs.append((hi, INF))
    if sp.kind == LEBESGUE_LINE and rng.random() < 0.15:
        pairs.append((NEG_INF, lo))
    return interval_set(sp, pairs)


def gen_atomic_symbol(rng: random.Random, size: int,
                      sp: MeasureSpace | None = None) -> AtomicSymbol:
    if sp is None:
        sp = gen_atomic_space(rng, size)
    if sp.kind == ATOMIC_FINITE:
        m = sp.count
        targets = list(range(m))
        if rng.random() < 0.5:
            rng.shuffle(targets)  # a permutation half the time
        else:
            targets = [rng.randrange(m) for _ in range(m)]
        return AtomicSymbol(sp, tuple((j, targets[j]) for j in range(m)), None)
    if sp.kind == ATOMIC_N:
        c = rng.choice([-1, 0, 1, 2])
        keys = set(rng.sample(range(0, 5), rng.randint(0, 3)))
        if c < 0:
            keys |= set(range(-c))
        table = tuple((j, rng.randrange(0, 7)) for j in sorted(keys))
        return AtomicSymbol(sp, table, c)
    c = rng.choice([-2, -1, 0, 1, 2])
    keys = rng.sample(range(-4, 5), rng.randint(0, 3))
    table = tuple((j, rng.randint(-5, 5)) for j in sorted(keys))
    return AtomicSymbol(sp, table, c)


def gen_interval_symbol(rng: random.Random, size: int, *,
                        affine_only: bool = False) -> IntervalSymbol:
    r = rng.random()
    if not affine_only and r < 0.3:
        choice = rng.random()
        if choice < 0.35:
            return IntervalSymbol(
                interval(1),
                (Branch(Fraction(0), Fraction(1), PowerOnUnit(rng.randint(2, 4))),),
            )
        if choice < 0.6:
            return IntervalSymbol(
                interval(1), (Branch(Fraction(0), Fraction(1), ExpRecip()),)
            )
        return IntervalSymbol(
            halfline(),
            (
                Branch(Fraction(0), Fraction(1), ShiftedPower(rng.randint(2, 4))),
                Branch(Fraction(1), INF, AffineTail(rng.randint(1, 3))),
            ),
        )
    if rng.random() < 0.2:
        alpha = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2]))
        beta = _dyadic(rng, -3, 3)
        return IntervalSymbol(line(), (Branch(NEG_INF, INF, Affine(alpha, beta)),))
    if rng.random() < 0.5:
        cuts = _sorted_cuts(rng, min(size, 2), Fraction(0), Fraction(4))
        pts = [Fraction(0)] + cuts + [INF]
        branches = []
        for a, b in zip(pts, pts[1:]):
            alpha = Fraction(rng.randint(1, 4), rng.choice([1, 2]))
            beta = Fraction(rng.randint(0, 4), rng.choice([1, 2]))
            branches.append(Branch(a, b, Affine(alpha, beta)))
        return IntervalSymbol(halfline(), tuple(branches))
    ln = Fraction(rng.randint(1, 3))
    sp = interval(ln)
    cuts = _sorted_cuts(rng, min(size, 2), Fraction(0), ln)
    pts = [Fraction(0)] + cuts + [ln]
    den = _over_den(ln)
    branches = []
    for a, b in zip(pts, pts[1:]):
        ui = rng.randint(0, den - 1)
        vi = rng.randint(ui + 1, den)
        u, v = Fraction(ui, _DEN), Fraction(vi, _DEN)
        alpha = (v - u) / (b - a)
        branches.append(Branch(a, b, Affine(alpha, u - alpha * a)))
    return IntervalSymbol(sp, tuple(branches))


def gen_symbol(rng: random.Random, size: int, *, exact_only: bool = False) -> Symbol:
    if rng.random() < 0.5:
        return gen_atomic_symbol(rng, size)
    return gen_interval_symbol(rng, size, affine_only=exact_only)


def _iter_cap(sym: Symbol, deep: int, shallow: int = 6) -> int:
    """Iteration depth safe from piece blow-up.

    Interval symbols with several branches multiply the piece count of a
    pulled-back function by the branch count each step, so those stay shallow.
    """
    if isinstance(sym, AtomicSymbol) or len(sym.branches) == 1:
        return deep
    return min(deep, shallow)


def _sup_abs(f: AtomSeq) -> Fraction:
    """max |v| over f's entries, read off its view (the values themselves
    where it is not exact)."""
    V = f._view
    return unscaled(max(map(abs, V.vals), default=0), V.D)


def _sample_times(*fns: StepFn) -> list[Fraction]:
    """Positive probe points: the cuts plus midpoints and one point beyond,
    read off the functions' views over one C (``_views``) as ints over 2 C,
    one Fraction formed per point (at scale 1, the sums of the cuts
    themselves, halved)."""
    views, _ = _views(fns)
    C = views[0].C
    grid = sorted({0, *(c for V in views for c in V.cuts)})
    pts = {2 * t for t in grid if t > 0}
    pts.update(a + b for a, b in zip(grid, grid[1:]))
    pts.add(2 * (grid[-1] + C))
    return [Fraction(x, 2 * C) if type(x) is int else x / 2 for x in sorted(pts)]


# ---------------------------------------------------------------------------
# Property checks: measure spaces and step functions
# ---------------------------------------------------------------------------


def _p_measure_additivity(rng, size):
    sp = gen_space(rng, size)
    raw = [gen_set(rng, size, sp) for _ in range(rng.randint(2, 3))]
    used = empty_set(sp)
    parts = []
    for E in raw:
        parts.append(E.difference(used))
        used = used.union(E)
    total: Real = Fraction(0)
    for p in parts:
        total = total + p.measure()
    if _eq(used.measure(), total):
        return None
    return {
        "sets": raw,
        "union_measure": used.measure(),
        "sum_of_parts": total,
    }


def _p_measure_zero_iff_empty(rng, size):
    sp = gen_space(rng, size)
    E = gen_set(rng, size, sp)
    if rng.random() < 0.5:
        E = E.intersect(gen_set(rng, size, sp))
    if (E.measure() == 0) == E.is_empty():
        return None
    return {"set": E, "measure": E.measure()}


def _p_combine_canonical(rng, size):
    sp = gen_space(rng, size)
    k = rng.randint(2, 3)
    fns = [gen_fn(rng, size, sp, compact=rng.random() < 0.7) for _ in range(k)]
    coeffs = [_dyadic(rng, -3, 3) for _ in range(k)]
    h = linear_combine(coeffs, fns)
    if isinstance(h, StepFn):
        ok = (
            all(a < b for a, b in zip(h.cuts, h.cuts[1:]))
            and all(u != v for u, v in zip(h.vals, h.vals[1:]))
            and step(sp, h.cuts, h.vals) == h
        )
    else:
        idx = [j for j, _ in h.entries]
        ok = (
            idx == sorted(idx)
            and len(set(idx)) == len(idx)
            and all(v != h.tail for _, v in h.entries)
            and seq(sp, h.entries, tail=h.tail) == h
        )
    if ok:
        return None
    return {"coeffs": coeffs, "fns": fns}


def _p_integrate_linear(rng, size):
    sp = gen_space(rng, size)
    f = gen_fn(rng, size, sp)
    g = gen_fn(rng, size, sp)
    a, b = _dyadic(rng, -3, 3), _dyadic(rng, -3, 3)
    lhs = integrate(linear_combine([a, b], [f, g]))
    rhs = a * integrate(f) + b * integrate(g)
    if lhs == rhs:
        return None
    return {
        "a": a, "b": b,
        "f": f, "g": g,
        "lhs": lhs, "rhs": rhs,
    }


def _p_combine_pointwise(rng, size):
    sp = gen_space(rng, size)
    f = gen_fn(rng, size, sp, compact=rng.random() < 0.7)
    g = gen_fn(rng, size, sp, compact=rng.random() < 0.7)
    a, b = _dyadic(rng, -3, 3), _dyadic(rng, -3, 3)
    h = linear_combine([a, b], [f, g])
    if sp.is_atomic:
        points = sorted({j for j, _ in f.entries} | {j for j, _ in g.entries}
                        | set(rng.sample(_index_pool(sp, size), 2)))
    else:
        grid = sorted({c for fn in (f, g) for c in fn.cuts})
        points = list(grid)
        for u, v in zip(grid, grid[1:]):
            points.append((u + v) / 2)
        lo, hi = _fn_bounds(sp, size)
        if sp.kind != LEBESGUE_INTERVAL:
            points.append(Fraction(hi + 1))
        if sp.kind == LEBESGUE_LINE:
            points.append(Fraction(lo - 1))
        if not points:
            points = [Fraction(1, 2)]
    for x in points:
        if h.value_at(x) != a * f.value_at(x) + b * g.value_at(x):
            return {
                "a": a, "b": b,
                "f": f, "g": g, "x": x,
            }
    return None


# ---------------------------------------------------------------------------
# Property checks: rearrangement
# ---------------------------------------------------------------------------


def _p_rearrangement_equimeasurable(rng, size):
    sp = gen_space(rng, size)
    f = gen_fn(rng, size, sp, compact=rng.random() < 0.7)
    r = rearrangement(f)
    levels = sorted({abs(v) for _, v in f.cells()} | {Fraction(0)})
    probes = list(levels)
    for a, b in zip(levels, levels[1:]):
        probes.append((a + b) / 2)
    for s in probes:
        if not _eq(distribution_at(f, s), distribution_at(r, s)):
            return {"f": f, "s": s}
    return None


def _p_rearrangement_nonincreasing(rng, size):
    sp = gen_space(rng, size)
    f = gen_fn(rng, size, sp, compact=rng.random() < 0.7)
    r = rearrangement(f)
    if is_rearranged(r):
        return None
    return {"f": f, "rearrangement": r}


def _p_quasi_subadditivity(rng, size):
    sp = gen_space(rng, size)
    f = gen_fn(rng, size, sp, compact=rng.random() < 0.7)
    g = gen_fn(rng, size, sp, compact=rng.random() < 0.7)
    rf, rg = rearrangement(f), rearrangement(g)
    rh = rearrangement(add(f, g))
    for t in _sample_times(rh, rf, rg):
        if not _leq(rh.value_at(t), rf.value_at(t / 2) + rg.value_at(t / 2)):
            return {"f": f, "g": g, "t": t}
    return None


def _p_double_star_subadditive(rng, size):
    sp = gen_space(rng, size)
    f = gen_fn(rng, size, sp, compact=rng.random() < 0.7)
    g = gen_fn(rng, size, sp, compact=rng.random() < 0.7)
    h = add(f, g)
    for t in _sample_times(rearrangement(h), rearrangement(f), rearrangement(g)):
        lhs = hardy_integral(h, t)
        rhs = hardy_integral(f, t) + hardy_integral(g, t)
        if not _leq(lhs, rhs):
            return {"f": f, "g": g, "t": t}
    return None


def _hlp_pair(rng, size, sp):
    """A pair f, g with f below g in the Hardy-Littlewood-Polya order."""
    f = gen_fn(rng, size, sp, nonneg=True)
    if sp.is_atomic or rng.random() < 0.5:
        return f, add(f, gen_fn(rng, size, sp, nonneg=True))
    # concentrate the same mass near the origin at a strictly larger level;
    # the width stays below every relevant bound because peak > sup f
    total = integrate(f)
    peak = rearrangement(f).vals[0] + 1
    width = total / peak
    if width == 0:
        return f, f
    if sp.kind == LEBESGUE_LINE:
        g = step(sp, [Fraction(0), width], [Fraction(0), peak, Fraction(0)])
    else:
        g = step(sp, [width], [peak, Fraction(0)])
    return f, g


def _p_hardy_lemma(rng, size):
    sp = gen_space(rng, size)
    f, g = _hlp_pair(rng, size, sp)
    if not hlp_leq(f, g):
        return {"f": f, "g": g, "note": "expected HLP order"}
    w = gen_weight(rng, size)
    lhs = integrate(pointwise_mul(rearrangement(f), w))
    rhs = integrate(pointwise_mul(rearrangement(g), w))
    if _leq(lhs, rhs):
        return None
    return {"f": f, "g": g, "w": w,
            "lhs": lhs, "rhs": rhs}


def _p_dilate_composition(rng, size):
    f = gen_step(rng, size, halfline(), compact=rng.random() < 0.7)
    a = Fraction(rng.randint(1, 8), rng.choice([1, 2, 4]))
    b = Fraction(rng.randint(1, 8), rng.choice([1, 2, 4]))
    if dilate(dilate(f, a), b) == dilate(f, a * b):
        return None
    return {"f": f, "a": a, "b": b}


def _nonincreasing_step(rng, size, sp) -> StepFn:
    """One nonincreasing factor of the Hardy-Littlewood equality case."""
    cuts = _cut_ints(rng, size, 0, 6)
    return _grid_step(sp, cuts, sorted((_quarter(rng, 0, 6) for _ in cuts), reverse=True) + [0])


def _p_hardy_littlewood(rng, size):
    sp = gen_space(rng, size)
    if rng.random() < 0.4 and not sp.is_atomic and sp.kind == LEBESGUE_HALFLINE:
        # equality case: both factors already nonincreasing
        f, g = _nonincreasing_step(rng, size, sp), _nonincreasing_step(rng, size, sp)
        lhs, rhs = hardy_littlewood_pair(f, g)
        if lhs == rhs:
            return None
        return {"f": f, "g": g,
                "lhs": lhs, "rhs": rhs, "note": "expected equality"}
    f = gen_fn(rng, size, sp, compact=rng.random() < 0.7)
    g = gen_fn(rng, size, sp, compact=rng.random() < 0.7)
    lhs, rhs = hardy_littlewood_pair(f, g)
    if _leq(lhs, rhs):
        return None
    return {"f": f, "g": g,
            "lhs": lhs, "rhs": rhs}


# ---------------------------------------------------------------------------
# Property checks: norms and seminorms
# ---------------------------------------------------------------------------


def _p_norm_lattice(rng, size):
    sp = gen_space(rng, size)
    f = gen_fn(rng, size, sp, nonneg=True, compact=rng.random() < 0.7)
    g = add(f, gen_fn(rng, size, sp, nonneg=True, compact=rng.random() < 0.7))
    spec = gen_normspec(rng, size, sp)
    nf, ng = norm_eval(spec, f), norm_eval(spec, g)
    if _leq(nf, ng):
        return None
    return {"spec": spec, "f": f, "g": g,
            "norm_f": nf, "norm_g": ng}


def _shuffled_copy(rng, f: MeasFn) -> MeasFn:
    if isinstance(f, AtomSeq):
        idx = [j for j, _ in f.entries]
        vals = [v for _, v in f.entries]
        rng.shuffle(vals)
        return seq(f.space, list(zip(idx, vals)), tail=f.tail)
    if not f.cuts:
        return f
    # the finite-width pieces trade places, laid end to end from the first
    # finite breakpoint; a ray keeps its value
    pieces = list(f.pieces())
    first = int(pieces[0][0] == NEG_INF)
    last = len(pieces) - (pieces[-1][1] == INF)
    body = [(b - a, v) for a, b, v in pieces[first:last]]
    rng.shuffle(body)
    pos = pieces[first][0]
    cuts = [pos] if first else []
    for w, _ in body:
        pos += w
        cuts.append(pos)
    vals = [*f.vals[:first], *(v for _, v in body), *f.vals[last:]]
    # a finite right end is the last breakpoint laid, not a cut
    return step(f.space, cuts[: len(f.cuts)], vals)


def _p_norm_rearrangement_invariant(rng, size):
    sp = gen_space(rng, size)
    f = gen_fn(rng, size, sp, compact=True)
    g = _shuffled_copy(rng, f)
    spec = gen_normspec(rng, size, sp)
    if not equimeasurable(f, g):
        return {"f": f, "g": g, "note": "shuffle broke equimeasurability"}
    nf, ng = norm_eval(spec, f), norm_eval(spec, g)
    if _eq(nf, ng):
        return None
    return {"spec": spec, "f": f, "g": g,
            "norm_f": nf, "norm_g": ng}


def _p_xi_triangle(rng, size):
    sp = gen_space(rng, size)
    w = XiWeight(gen_weight(rng, size))
    f = gen_fn(rng, size, sp, compact=rng.random() < 0.7)
    g = gen_fn(rng, size, sp, compact=rng.random() < 0.7)
    lhs = xi_seminorm(w, add(f, g))
    rhs = xi_seminorm(w, f) + xi_seminorm(w, g)
    if _leq(lhs, rhs):
        return None
    return {"w": w.weight, "f": f, "g": g,
            "lhs": lhs, "rhs": rhs}


def _p_xi_hardy_littlewood(rng, size):
    sp = gen_space(rng, size)
    wfn = gen_weight(rng, size)
    f = gen_fn(rng, size, sp, compact=rng.random() < 0.7)
    xi = xi_seminorm(XiWeight(wfn), f)
    lhs, rhs = hardy_littlewood_pair(wfn, rearrangement(f))
    if _eq(xi, lhs) and _eq(xi, rhs):
        return None
    return {"w": wfn, "f": f, "xi": xi,
            "hl": [lhs, rhs]}


def _p_hlp_norm_monotone(rng, size):
    sp = gen_space(rng, size)
    f, g = _hlp_pair(rng, size, sp)
    if not hlp_leq(f, g):
        return {"f": f, "g": g, "note": "expected HLP order"}
    spec = gen_normspec(rng, size, sp, hlp_safe=True)
    nf, ng = norm_eval(spec, f), norm_eval(spec, g)
    if _leq(nf, ng):
        return None
    return {"spec": spec, "f": f, "g": g,
            "norm_f": nf, "norm_g": ng}


def _p_dilation_contraction(rng, size):
    sp = gen_space(rng, size)
    f = gen_fn(rng, size, sp, compact=rng.random() < 0.7)
    r = rearrangement(f)
    t = 1 + _dyadic(rng, 0, 4)
    spec = gen_normspec(rng, size, halfline())
    nd, nr = norm_eval(spec, dilate(r, t)), norm_eval(spec, r)
    if _leq(nd, nr):
        return None
    return {"spec": spec, "f": f, "t": t,
            "dilated": nd, "original": nr}


def _p_norm_homogeneous(rng, size):
    sp = gen_space(rng, size)
    f = gen_fn(rng, size, sp, compact=True)
    c = _dyadic(rng, -4, 4)
    spec = gen_normspec(rng, size, sp)
    lhs = norm_eval(spec, scale(c, f))
    rhs = abs(c) * norm_eval(spec, f)
    if _eq(lhs, rhs):
        return None
    return {"spec": spec, "f": f, "c": c,
            "lhs": lhs, "rhs": rhs}


_BAD_PROFILE = StepApprox(((Fraction(1), Fraction(1)), (Fraction(2), Fraction(4))), Fraction(0))


def _p_quasiconcave_catalog(rng, size):
    phi = gen_phi(rng, size)
    ok, cert = quasiconcave_check(phi)
    if not ok:
        return {"phi": phi, "certificate": cert}
    if quasiconcave_check(_BAD_PROFILE)[0]:
        return {"note": "superlinear profile passed the check"}
    ts = sorted({Fraction(rng.randint(1, 32), 8) for _ in range(4)})
    for a, b in zip(ts, ts[1:]):
        if not _leq(phi_at(phi, a), phi_at(phi, b)):
            return {"phi": phi, "t": [a, b],
                    "note": "profile decreased"}
        if not _leq(phi_at(phi, b) / b, phi_at(phi, a) / a):
            return {"phi": phi, "t": [a, b],
                    "note": "phi(t)/t increased"}
    return None


# ---------------------------------------------------------------------------
# Property checks: symbols
# ---------------------------------------------------------------------------


def _p_preimage_boolean(rng, size):
    sym = gen_symbol(rng, size)
    sp = sym.space
    E, F = gen_set(rng, size, sp), gen_set(rng, size, sp)
    pe, pf = preimage(sym, E), preimage(sym, F)
    pu = preimage(sym, E.union(F))
    pi = preimage(sym, E.intersect(F))
    if isinstance(sym, AtomicSymbol):
        ok = (
            pu == pe.union(pf)
            and pi == pe.intersect(pf)
            and preimage(sym, E.complement()) == pe.complement()
        )
    else:
        # interval preimages are exact up to null sets, so compare measures
        ok = (
            _eq(pu.measure(), pe.union(pf).measure())
            and _eq(pi.measure(), pe.intersect(pf).measure())
        )
    if ok:
        return None
    return {"symbol": sym,
            "E": E, "F": F}


def _p_measure_bound_sound(rng, size):
    sym = gen_symbol(rng, size)
    a = measure_bound(sym)
    if a == INF:
        return None
    E = gen_set(rng, size, sym.space)
    if _leq(preimage_measure(sym, E), a * E.measure()):
        return None
    return {"symbol": sym, "E": E,
            "bound": a,
            "preimage_measure": preimage_measure(sym, E),
            "set_measure": E.measure()}


def _p_lower_bound_sound(rng, size):
    sym = gen_symbol(rng, size)
    c = lower_bound(sym)
    if c == INF:
        return None
    E = gen_set(rng, size, sym.space)
    if _leq(E.measure(), c * preimage_measure(sym, E)):
        return None
    return {"symbol": sym, "E": E,
            "bound": c,
            "preimage_measure": preimage_measure(sym, E),
            "set_measure": E.measure()}


def _p_power_bound_sound(rng, size):
    sym = gen_symbol(rng, size, exact_only=True)
    horizon = _iter_cap(sym, min(size + 1, 4), 3)
    pb = power_measure_bound(sym, horizon)
    if not pb.certified:
        return None
    E = gen_set(rng, size, sym.space)
    en = E
    for n in range(1, horizon + 1):
        en = preimage(sym, en)
        if not _leq(en.measure(), pb.at(n) * E.measure()):
            return {"symbol": sym, "E": E,
                    "n": n, "bound": pb.at(n),
                    "iterated_measure": en.measure()}
    return None


def _p_atomic_power_preimage(rng, size):
    sym = gen_atomic_symbol(rng, size)
    k = rng.randint(0, 3)
    E = gen_set(rng, size, sym.space)
    it = E
    for _ in range(k):
        it = preimage(sym, it)
    if preimage(atomic_power(sym, k), E) == it:
        return None
    return {"symbol": sym, "k": k, "E": E}


# ---------------------------------------------------------------------------
# Property checks: composition and averaging
# ---------------------------------------------------------------------------


def _p_compose_power_apply(rng, size):
    sym = gen_atomic_symbol(rng, size)
    f = gen_seq(rng, size, sym.space)
    k = rng.randint(2, 3)
    lhs = f
    for _ in range(k):
        lhs = apply(sym, lhs)
    if lhs == apply(atomic_power(sym, k), f):
        return None
    return {"symbol": sym, "k": k, "f": f}


def _p_iterate_dilation_estimate(rng, size):
    sym = gen_symbol(rng, size, exact_only=True)
    horizon = _iter_cap(sym, min(size + 1, 4), 3)
    pb = power_measure_bound(sym, horizon)
    f = gen_fn(rng, size, sym.space)
    rf = rearrangement(f)
    k = rng.randint(1, horizon)
    a = pb.at(k)
    if a == INF:
        return None
    g = iterate_apply(sym, f, k)
    if pointwise_leq(rearrangement(g), dilate(rf, Fraction(1) / a)):
        return None
    return {"symbol": sym, "f": f,
            "k": k, "bound": a}


def _p_cesaro_hlp(rng, size):
    sym = gen_symbol(rng, size, exact_only=True)
    n = rng.randint(1, _iter_cap(sym, 3 * size + 2))
    pb = power_measure_bound(sym, n)
    a = pb.sup
    if a == INF:
        return None
    b = min(Fraction(1), Fraction(1) / a)
    f = gen_fn(rng, size, sym.space)
    if hlp_leq(cesaro(sym, f, n), dilate(rearrangement(f), b)):
        return None
    return {"symbol": sym, "f": f,
            "n": n, "B": b}


def _p_apply_from_below(rng, size):
    sym = gen_symbol(rng, size)
    c = lower_bound(sym)
    if c == INF:
        return None
    f = gen_fn(rng, size, sym.space)
    rf = rearrangement(f)
    rg = rearrangement(apply(sym, f))
    if pointwise_leq(dilate(rf, c), rg):
        return None
    return {"symbol": sym, "f": f, "C": c}


def _p_maximal_dominates(rng, size):
    sym = gen_symbol(rng, size)
    k_max = _iter_cap(sym, rng.randint(1, size + 2), 4)
    f = gen_fn(rng, size, sym.space)
    m = maximal_truncated(sym, f, k_max)
    for n in range(1, k_max + 1):
        if not pointwise_leq(abs_fn(cesaro(sym, f, n)), m):
            return {"symbol": sym, "f": f,
                    "K": k_max, "n": n}
    if not pointwise_leq(m, maximal_truncated(sym, f, k_max + 1)):
        return {"symbol": sym, "f": f,
                "K": k_max, "note": "not monotone in K"}
    return None


def _perm_symbol(rng, size) -> AtomicSymbol:
    # not gen_atomic_symbol: that draws from rng differently, which would
    # change every later input of the permutation properties
    m = rng.randint(2, 4 + size)
    targets = list(range(m))
    rng.shuffle(targets)
    return AtomicSymbol(atomic_finite(m), tuple((j, targets[j]) for j in range(m)), None)


def _p_permutation_rate(rng, size):
    sym = _perm_symbol(rng, size)
    f = gen_seq(rng, size, sym.space)
    tf = permutation_limit(sym, f)
    ell = max(map(len, _cycles(sym)))
    sup_f = _sup_abs(f)
    for n in (1, 2, 5, 9, 16):
        gap = _sup_abs(subtract(cesaro(sym, f, n), tf))
        if not gap <= Fraction(2 * ell) * sup_f / n:
            return {"symbol": sym, "f": f,
                    "n": n, "gap": gap, "cycle_length": ell}
    return None


def _p_cesaro_paths_agree(rng, size):
    sym = _perm_symbol(rng, size)
    f = gen_seq(rng, size, sym.space)
    n = rng.randint(1, 10)
    fast = cesaro(sym, f, n)
    slow = linear_combine([Fraction(1, n)] * n,
                          [iterate_apply(sym, f, i) for i in range(n)])
    if fast == slow:
        return None
    return {"symbol": sym, "f": f, "n": n}


# ---------------------------------------------------------------------------
# Property checks: serialization
# ---------------------------------------------------------------------------


# (upper end of the draw, generator, decoder, counterexample kind)
_ROUNDTRIPS = (
    (0.3, lambda rng, size: gen_fn(rng, size, gen_space(rng, size), compact=rng.random() < 0.7),
     jsonio.measfn_from_obj, "measfn"),
    (0.55, gen_symbol, jsonio.symbol_from_obj, "symbol"),
    (0.8, lambda rng, size: gen_normspec(rng, size, gen_space(rng, size)),
     jsonio.normspec_from_obj, "normspec"),
    (1.0, lambda rng, size: XiWeight(gen_weight(rng, size)), jsonio.xiweight_from_obj, "xiweight"),
)


def _p_json_roundtrip(rng, size):
    r = rng.random()
    gen, decode, kind = next(row[1:] for row in _ROUNDTRIPS if r < row[0])
    x = gen(rng, size)
    obj = jsonio.to_obj(x)
    if decode(jsonio.loads(jsonio.dumps(obj))) == x:
        return None
    return {"kind": kind, "value": obj}


# ---------------------------------------------------------------------------
# The deliberately broken property used to self-test failure reporting
# ---------------------------------------------------------------------------


def _p_injected_violation(rng, size):
    """Claims (f+g)* <= f* + g* pointwise, which is false in general."""
    u = Fraction(rng.randint(1, 4 * size), 4)
    v = Fraction(rng.randint(0, 4 * size), 4)
    w = Fraction(rng.randint(1, 4 * size), 4)
    sp = halfline()
    f = step(sp, [u], [Fraction(1), Fraction(0)])
    g = step(sp, [v, v + w] if v > 0 else [w], [Fraction(0), Fraction(1), Fraction(0)] if v > 0 else [Fraction(1), Fraction(0)])
    bound = add(rearrangement(f), rearrangement(g))
    if pointwise_leq(rearrangement(add(f, g)), bound):
        return None
    return {"f": f, "g": g}


# ---------------------------------------------------------------------------
# Registry and runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Property:
    name: str
    check: Callable[[random.Random, int], Optional[dict]]
    max_size: int = 5


PROPERTIES: tuple[Property, ...] = (
    Property("measure-additivity", _p_measure_additivity),
    Property("measure-zero-iff-empty", _p_measure_zero_iff_empty),
    Property("combine-canonical", _p_combine_canonical),
    Property("integrate-linear", _p_integrate_linear),
    Property("combine-pointwise", _p_combine_pointwise),
    Property("rearrangement-equimeasurable", _p_rearrangement_equimeasurable),
    Property("rearrangement-nonincreasing", _p_rearrangement_nonincreasing),
    Property("quasi-subadditivity", _p_quasi_subadditivity),
    Property("double-star-subadditive", _p_double_star_subadditive),
    Property("hardy-lemma", _p_hardy_lemma),
    Property("dilate-composition", _p_dilate_composition),
    Property("hardy-littlewood", _p_hardy_littlewood),
    Property("norm-lattice", _p_norm_lattice),
    Property("norm-rearrangement-invariant", _p_norm_rearrangement_invariant),
    Property("xi-triangle", _p_xi_triangle),
    Property("xi-hardy-littlewood", _p_xi_hardy_littlewood),
    Property("hlp-norm-monotone", _p_hlp_norm_monotone),
    Property("dilation-contraction", _p_dilation_contraction),
    Property("norm-homogeneous", _p_norm_homogeneous),
    Property("quasiconcave-catalog", _p_quasiconcave_catalog),
    Property("preimage-boolean", _p_preimage_boolean),
    Property("measure-bound-sound", _p_measure_bound_sound),
    Property("lower-bound-sound", _p_lower_bound_sound),
    Property("power-bound-sound", _p_power_bound_sound),
    Property("atomic-power-preimage", _p_atomic_power_preimage),
    Property("compose-power-apply", _p_compose_power_apply),
    Property("iterate-dilation-estimate", _p_iterate_dilation_estimate),
    Property("cesaro-hlp", _p_cesaro_hlp),
    Property("apply-from-below", _p_apply_from_below),
    Property("maximal-dominates", _p_maximal_dominates),
    Property("permutation-rate", _p_permutation_rate),
    Property("cesaro-paths-agree", _p_cesaro_paths_agree),
    Property("json-roundtrip", _p_json_roundtrip),
)

INJECTED = Property("injected-violation", _p_injected_violation, max_size=3)

_SHRINK_TRIES = 30


@dataclass(frozen=True)
class PropertyResult:
    name: str
    trials: int
    failures: int
    counterexample: Optional[dict]

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        if self.passed:
            return f"PASS {self.name} ({self.trials}/{self.trials})"
        return f"FAIL {self.name} ({self.trials - self.failures}/{self.trials} passed)"


@dataclass(frozen=True)
class SuiteResult:
    seed: int
    trials: int
    results: tuple[PropertyResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failed(self) -> tuple[PropertyResult, ...]:
        return tuple(r for r in self.results if not r.passed)


def _run_property(prop: Property, seed: int, trials: int) -> PropertyResult:
    failures = 0
    best: Optional[tuple[int, int, dict]] = None  # (size, trial, payload)
    for t in range(trials):
        rng = random.Random(f"{seed}:{prop.name}:{t}")
        size = 1 + t % prop.max_size
        payload = prop.check(rng, size)
        if payload is not None:
            failures += 1
            if best is None or size < best[0]:
                best = (size, t, payload)
    if best is None:
        return PropertyResult(prop.name, trials, failures, None)
    size, trial, payload = best
    for s in range(1, size):
        found = None
        for a in range(_SHRINK_TRIES):
            rng = random.Random(f"{seed}:{prop.name}:shrink:{s}:{a}")
            found = prop.check(rng, s)
            if found is not None:
                break
        if found is not None:
            size, payload = s, found
            trial = -1  # reproduced during shrinking, not at an original trial
            break
    counterexample = {"property": prop.name, "size": size, "trial": trial,
                      "data": jsonio.to_obj(payload)}
    return PropertyResult(prop.name, trials, failures, counterexample)


def verify_suite(seed: int = 42, trials: int = 500, *,
                 inject_failure: bool = False,
                 names: Optional[Sequence[str]] = None) -> SuiteResult:
    """Run the registered properties; optionally include the broken one.

    ``names`` restricts the run to a subset of properties (unknown names are
    an error); the injected violation is appended after that filter.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    props = list(PROPERTIES)
    if names is not None:
        known = {p.name: p for p in props}
        missing = [n for n in names if n not in known]
        if missing:
            raise ValueError(f"unknown properties: {', '.join(missing)}")
        props = [known[n] for n in names]
    if inject_failure:
        props.append(INJECTED)
    return SuiteResult(seed, trials,
                       tuple(_run_property(p, seed, trials) for p in props))
