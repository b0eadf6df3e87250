"""Composition operators T f = f ∘ phi, their Cesàro means, and diagnostics.

Everything is computed exactly on the step/sequence representations:
``apply`` has the symbol pull f back (each symbol family's ``pull_back``
moves the pieces or entries of f through its preimages).  An atomic symbol
reads Cesàro means and the truncated maximal operator off each line of its
shift in a few passes over the whole line, walking orbits one by one only
near its table (a float maximal: wherever they meet an entry), at a cost set
by the output for exact values, not by n; an interval symbol reads its
iterates f, T f, T² f, … off one stream (``_iterates``), combines them with
rational weights, cell by cell.  Its exact maximal means read the iterates'
int views and decide each cell's peak by ``_Orbits.peak``'s comparison of
int running sums; its maximal means of float values are the running-sum
chain itself.  An all-affine symbol pulls an exact view back in ints
(``IntervalSymbol.pull_back``), so its iterates chain with no Fraction.
Limits are only ever produced by oracles (orbit averages for finite
permutations); nothing is extrapolated.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, islice, repeat
from operator import ge, mul, sub
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

from . import jsonio
from .num import INF, Real, as_int, common_denominator, fmt_real
from .rearrange import distribution_at
from .stepfn import (
    AtomSeq,
    MeasFn,
    StepFn,
    _int_seq,
    _merged_seq,
    _merged_step,
    _plain,
    _views,
    abs_fn,
    add,
    linear_combine,
    pointwise_max,
    scale,
    subtract,
)
from .symbols import AtomicSymbol, Symbol

if TYPE_CHECKING:  # the norm catalog is imported where a norm is taken
    from .spaces import NormSpec, XiWeight


# ---------------------------------------------------------------------------
# The operator itself
# ---------------------------------------------------------------------------


def apply(sym: Symbol, f: MeasFn) -> MeasFn:
    """T f = f ∘ phi, exact: the symbol pulls f back (``pull_back``)."""
    _check_acts_on(sym, f)
    return sym.pull_back(f)


def _check_acts_on(sym: Symbol, f: MeasFn) -> None:
    """The carrier follows from the space, as ``step`` and ``seq`` pin it."""
    if f.space != sym.space:
        raise ValueError("function and symbol live on different spaces")


def iterate_apply(sym: Symbol, f: MeasFn, k: int) -> MeasFn:
    """T^k f by k-fold application (the catalog is not closed under
    composition, so powers are never formed symbolically)."""
    k = as_int(k)
    if k < 0:
        raise ValueError("iterate count must be >= 0")
    _check_acts_on(sym, f)
    return next(islice(_iterates(sym, f), k, None))


def _iterates(sym: Symbol, f: MeasFn) -> Iterator[MeasFn]:
    """f, T f, T² f, …, each by ``apply`` and only when it is asked for."""
    while True:
        yield f
        f = apply(sym, f)


# ---------------------------------------------------------------------------
# Cesàro means
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CesaroTrajectory:
    symbol: Symbol
    seed: MeasFn
    schedule: tuple[int, ...]
    means: tuple[tuple[int, MeasFn], ...]

    def mean(self, n: int) -> MeasFn:
        return dict(self.means)[n]


def cesaro(sym: Symbol, f: MeasFn, n: int) -> MeasFn:
    """C_n f = (1/n) sum_{i<n} T^i f, exact: the one-snapshot schedule."""
    return cesaro_schedule(sym, f, (n,)).means[0][1]


def cesaro_schedule(sym: Symbol, f: MeasFn, schedule: Sequence[int]) -> CesaroTrajectory:
    """Means C_n f along an increasing schedule.

    An atomic symbol reads every mean off one orbit walk (``_Orbits``)
    unless f has a float value off a finite permutation.  There, and for
    interval symbols, the iterates come from one stream (``_iterates``) and
    each snapshot is one linear combination of the previous snapshot C_m
    (m = 0 at the first) and the n - m iterates since it:
    C_n = (m/n) C_m + (1/n) sum T^i f over m <= i < n."""
    ns = [as_int(n) for n in schedule]
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])) or ns[0] < 1:
        raise ValueError("schedule must be strictly increasing and positive")
    _check_acts_on(sym, f)
    if isinstance(sym, AtomicSymbol) and (not _has_float(f) or sym.is_permutation()):
        return CesaroTrajectory(sym, f, tuple(ns), _Orbits(sym, f).means(ns))
    stream, out, m = _iterates(sym, f), [], 0
    for n in ns:
        w = Fraction(1, n)
        ws, fs = ([m * w], [out[-1][1]]) if out else ([], [])
        out.append((n, linear_combine(ws + [w] * (n - m), fs + list(islice(stream, n - m)))))
        m = n
    return CesaroTrajectory(sym, f, tuple(ns), tuple(out))


def _has_float(f: AtomSeq) -> bool:
    """Whether a value of f is a float, whose sums round as they are formed;
    an exact view (``AtomSeq._view``) has none."""
    return not f._view.exact and (isinstance(f.tail, float) or any(isinstance(v, float) for _, v in f.entries))


def _cycles(sym: AtomicSymbol) -> list[list[int]]:
    seen, cycles = set(), []
    for start in range(*sym.space.domain):
        cyc, j = [], start
        while j not in seen:
            seen.add(j)
            cyc.append(j)
            j = sym.image_of(j)
        if cyc:
            cycles.append(cyc)
    return cycles


class _Orbits:
    """Sums of f along an atomic symbol's orbits, at a cost set by the output.

    Off the table an orbit runs along its line j % s, a place j // s a step.
    f (|f| for ``maximal``) is read off its view (``AtomSeq._view``) less its
    entries equal to the tail, and each line lists its entries' places, read
    straight off the view's sorted indices: exact values as ints over one
    denominator D (past its budget, the Fractions over D = 1) less the tail,
    with their prefix sums, floats as they are, with none.  ``layout`` lays a
    line out with its wide gaps cut short, so that one pass over the whole
    line gives every place's window of m steps.  ``walk`` serves the indices
    near a row (``near``): a run is a slice of its line, table rows are
    stepped one by one until a row recurs, m = qL + r steps around a cycle sum
    to q cycle sums plus a prefix difference, and a shift of 0 holds j fixed.
    The value kind picks only how sums round: exact peaks are one loop per
    line, and a float peak sums each index's hits in step order."""

    def __init__(self, sym: AtomicSymbol, f: AtomSeq, absolute: bool = False):
        self.sym, s, V, self.floats = sym, sym.shift, f._view, _has_float(f)
        ws, T = ([abs(w) for w in V.vals], abs(V.tail)) if absolute else (V.vals, V.tail)
        if self.floats:  # the values as they are, less those equal to the tail (as ``abs_fn`` drops them)
            keep, self.tail = [w != T for w in ws], T
        else:  # less the tail, then less the zeros
            ws = keep = [w - T for w in ws] if T else ws
            self.D, self.T, self.tail = V.D, T, Fraction(T, V.D)
        js, ws = list(compress(V.indices, keep)), list(compress(ws, keep))
        self.vals = dict(zip(js, ws)) if sym.table or not s or self.floats else None  # only walks read it
        self.lines = {}  # line -> its entries' places, increasing, then INF, and their prefix sums (exact values)
        if s:  # places rise with j on a line of s > 0 and fall on one of s < 0
            js, ws = (js, ws) if s > 0 else (js[::-1], ws[::-1])
            groups = {0: (js, ws)} if abs(s) == 1 else {}
            for j, w in zip(js, ws) if abs(s) > 1 else ():
                line = groups.setdefault(j % s, ([], []))
                line[0].append(j)
                line[1].append(w)
            for r, (lj, lw) in groups.items():
                self.lines[r] = ([*(lj if s == 1 else map(s.__rfloordiv__, lj)), INF],
                                 None if self.floats else list(accumulate(lw, initial=0)))
        self.cycles = {}  # index -> its cycle, its place, the doubled cycle's prefix sums
        for cyc in _cycles(sym) if sym.is_permutation() else ():
            prefix = list(accumulate([self.vals.get(j, 0) for j in cyc] * 2, initial=0))
            self.cycles.update((j, (cyc, p, prefix)) for p, j in enumerate(cyc))

    def walk(self, j: int, m: int, hits: Optional[list] = None):
        """The sum over j's first m steps, or hits with each (step, entry) met."""
        sym, s, vals, seen = self.sym, self.sym.shift, self.vals, {}
        acc = i = 0
        while i < m:
            k = sym.steps_to_table(j) if sym.table else None
            if s and k != 0:  # a run along j's line
                run = m - i if k is None or k > m - i else k
                q, r = divmod(j, s)
                places, sums = self.lines.get(r, ((), (0,)))
                a, b = bisect_left(places, q), bisect_left(places, q + run)
                if hits is None:
                    acc += sums[b] - sums[a]
                else:
                    hits += [(i + c - q, vals[r + c * s]) for c in places[a:b]]
                j, i = j + run * s, i + run
            elif hits is None and j in self.cycles:
                cyc, p, prefix = self.cycles[j]
                q, r = divmod(m - i, len(cyc))
                return acc + (q * prefix[len(cyc)] + (prefix[p + r] - prefix[p]))
            else:  # a table row, or an index held fixed by a shift of 0
                if k == 0 and hits is None:  # a row met before closes a cycle: its q whole rounds at once
                    i0, acc0 = seen.setdefault(j, (i, acc))
                    if i0 < i:
                        q = (m - i) // (i - i0)
                        acc, i = acc + q * (acc - acc0), i + q * (i - i0)
                        if i == m:
                            break
                steps = 1 if k == 0 else m - i
                if j in vals and hits is not None:
                    hits += [(t, vals[j]) for t in range(i, i + steps)]
                acc += steps * vals.get(j, 0)
                j, i = sym.image_of(j) if k == 0 else j, i + steps
        return acc if hits is None else hits

    def near(self, m: int):
        """The indices whose orbit meets an entry within m - 1 steps and no run serves: up to m - 1
        preimages back from an entry with no shift or a shift of 0, on a shift's line those up to
        m - 1 places below a row t that meet an entry by t or past it (the first at step hits[0][0])."""
        sym, s, depth, out = self.sym, self.sym.shift, m - 1, []
        if not s:
            seen = level = set(self.vals)
            while depth and level:
                level = sym.index_preimage(level) - seen
                seen |= level
                depth -= 1
            return seen
        for r, rows in sym.table_places.items():
            places = self.lines.get(r, ([INF],))[0]
            for t, prev in zip(rows, [sym.space.domain[0] - 1 if s > 0 else -INF, *rows]):
                hits, a = self.walk(sym.image_of(r + t * s), m - 1, []), bisect_right(places, t)
                start = max(t - m + 1, prev + 1)
                mid, past = max(start, places[a - 1] + 1) if a else start, t + 2 - m + (hits[0][0] if hits else m)
                out += [r + q * s for q in (*range(start, mid), *range(max(mid, past), t + 1))]
        return out

    def layout(self, m: int):
        """Yield (r, qs, at, reach) for each line r: the places qs, increasing, whose
        m steps meet an entry and no table row, the index at of the first entry at or
        past each, and reach(n) <= m, that of the first at or past q + n.  The line is
        laid out from N's left end or m - 1 places below its first entry, with each
        gap between entries wider than 2m - 1 cut to 2m - 1, so the window of m steps
        from a place that meets an entry reads the line as it is: count[x] is the
        number of entries before position x, and sel[x] whether the place there is in qs."""
        rows, lo = self.sym.table_places, self.sym.space.domain[0] if (self.sym.shift or 0) > 0 else -INF
        for r, (places, _) in self.lines.items():
            k, w = len(places) - 1, 2 * m - 1
            ends = list(accumulate([min(m, places[0] - lo + 1), *(g if g < w else w for g in map(sub, places[1:k], places))]))
            off = list(map(sub, ends, places))  # each entry's position plus 1, less its place
            count = [0] * ends[-1]
            for x in ends[:-1]:
                count[x] = 1
            count = list(accumulate(count))
            sel = list(map(sub, chain(count[m:], repeat(k)), count))
            for t in rows.get(r, ()):  # the places t - m + 1..t, if an entry is near
                c = bisect_left(places, t - m + 1)
                if places[c] < t + m:
                    a, b = max(t + off[c] - m, 0), max(min(t + off[c], len(sel)), 0)
                    sel[a:b] = repeat(0, b - a)

            def reach(n, count=count, sel=sel, k=k):
                return list(compress(chain(count[n:], repeat(k)), sel))
            at = reach(0)
            yield r, list(map(sub, compress(range(1, len(sel) + 1), sel), map(off.__getitem__, at))), at, reach

    def exact(self, js, sums, ns, ordered: bool = False) -> AtomSeq:
        """The means (S + n T) / (n D) at the indices js, each with its sum S and
        its n in ns (the tail T / D where S = 0), as ints (``_int_seq``) over M =
        ``common_denominator`` of D and every n D: n D for a Cesàro mean, D times the
        lcm of the peak n's for a maximal one; past the budget, f's or M's, Fractions.
        js are sorted here unless they are ``ordered`` already."""
        js, ns, sums = list(compress(js, sums)), list(compress(ns, sums)), list(filter(None, sums))
        if not ordered and any(map(ge, js, islice(js, 1, None))):
            js, sums, ns = zip(*sorted(zip(js, sums, ns)))
        T, D, each = self.T, self.D, set(ns)
        M = common_denominator([D, *(n * D for n in each)]) if type(T) is int else None
        if M is None:
            return AtomSeq(self.sym.space, tuple((j, Fraction(S + n * T, n * D)) for j, S, n in zip(js, sums, ns)), self.tail)
        if T:
            sums = [S + n * T for S, n in zip(sums, ns)]
        if each != {M // D}:  # k = M / (n D) is 1 for a lone n
            sums = list(map(mul, sums, map({n: M // (n * D) for n in each}.__getitem__, ns)))
        return _int_seq(self.sym.space, js, sums, M, self.tail)

    def means(self, ns: Sequence[int]) -> tuple[tuple[int, AtomSeq], ...]:
        m, s, near = ns[-1], self.sym.shift, self.near(ns[-1])
        js, lines, out = list(near), [], []  # each line's prefix sums, reach, and the first entry at or past q
        for r, qs, at, reach in self.layout(m):
            js += qs if s == 1 else [r + q * s for q in qs]
            lines.append((self.lines[r][1], reach, at))
        for n in ns:
            Ss = [self.walk(j, n) for j in near]
            for sums, reach, at in lines:  # S_n: the sum before the entries past q + n, less the sum before q
                Ss += map(sub, map(sums.__getitem__, reach(n)), map(sums.__getitem__, at))
            out.append((n, _merged_seq(self.sym.space, zip(js, [S * Fraction(1, n) for S in Ss])) if self.floats
                        else self.exact(js, Ss, [n] * len(Ss), ordered=s == 1 and not near)))
        return tuple(out)

    def maximal(self, K: int) -> AtomSeq:
        s, near = self.sym.shift, list(self.near(K))
        js, lines = list(near), list(self.layout(K))
        for r, qs, _, _ in lines:
            js += qs if s == 1 else [r + q * s for q in qs]
        if self.floats:  # hits summed in step order, a nonzero tail at each step between; no hits: the tail
            def steps(hits):
                i = 0
                for h, v in hits:
                    yield from zip(range(i, h), repeat(self.tail))
                    yield h, v
                    i = h + 1
                yield from zip(range(i, K), repeat(self.tail))
            tail, *peaks = [_peak_mean(steps(h) if self.tail else h) for h in [[], *(self.walk(j, K, []) for j in js)]]
            return _merged_seq(self.sym.space, zip(js, peaks), tail)
        Hs, ns = [], []
        for hits in (self.walk(j, K, []) for j in near):  # a line of its own
            self.peak(K, [*(i for i, _ in hits), INF], [*accumulate((v for _, v in hits), initial=0)],
                      [0], [0], [len(hits)], Hs, ns)
        for r, qs, at, reach in lines:
            self.peak(K, *self.lines[r], qs, at, reach(K), Hs, ns)
        return self.exact(js, Hs, ns, ordered=s == 1 and not near)

    @staticmethod
    def peak(K: int, places, sums, qs, at, ahead, Hs: list, ns: list) -> None:
        """Append max_{n<=K} S_n/n over D, as H to Hs and n to ns, for each place q
        in qs, whose orbit meets the entries places[c] for a <= c < b, a in at and b in
        ahead (the first at or past q, and past q + K - 1), with S_n = sums[c + 1] less sums[a].
        Between them S_n stays at H, so H/n peaks at their first n if H >= 0, else at
        their last; ties keep the smaller n."""
        push_H, push_n = Hs.append, ns.append
        for q, a, b in zip(qs, at, ahead):
            before = sums[a]
            if places[a] > q:  # S_1 = 0
                best, best_n = 0, 1
            else:
                best = sums[a + 1] - before
                best_n, a = 1 if best >= 0 else min(places[a + 1] - q, K), a + 1
            for c in range(a, b):
                H = sums[c + 1] - before
                n = places[c] - q + 1 if H >= 0 else min(places[c + 1] - q, K)
                if H * best_n > best * n:
                    best, best_n = H, n
            push_H(best)
            push_n(best_n)


def permutation_limit(sym: AtomicSymbol, f: AtomSeq) -> AtomSeq:
    """The mean-ergodic limit for a finite permutation: orbit averages."""
    _require_permutation(sym)
    _check_acts_on(sym, f)
    values = {}
    for cyc in _cycles(sym):
        avg = sum(f.value_at(j) for j in cyc) * Fraction(1, len(cyc))
        for j in cyc:
            values[j] = avg
    return _merged_seq(sym.space, values.items())


def _require_permutation(sym: Symbol) -> None:
    if not (isinstance(sym, AtomicSymbol) and sym.is_permutation()):
        raise ValueError("needs a bijective table on a finite atomic space")


@dataclass(frozen=True)
class Decomposition:
    """f = kernel_part + range_part with kernel_part sigma-invariant and
    range_part = (I - T) witness."""

    kernel_part: AtomSeq
    range_part: AtomSeq
    witness: AtomSeq
    exact: bool


def decomposition_check(sym: AtomicSymbol, f: AtomSeq) -> Decomposition:
    """Split f against Ker(I - T) ⊕ Ran(I - T), solved cycle-by-cycle.

    The range part has zero cycle averages, so g(sigma(j)) = g(j) - r(j)
    closes up around every cycle when anchored at g(start) = 0."""
    _require_permutation(sym)
    kernel = permutation_limit(sym, f)
    rng = subtract(f, kernel)
    g = {}
    for cyc in _cycles(sym):
        g[cyc[0]] = Fraction(0)
        for j in cyc[:-1]:
            g[sym.image_of(j)] = g[j] - rng.value_at(j)
    witness = _merged_seq(sym.space, g.items())
    exact = (
        apply(sym, kernel) == kernel
        and subtract(witness, apply(sym, witness)) == rng
    )
    return Decomposition(kernel, rng, witness, exact)


# ---------------------------------------------------------------------------
# Truncated maximal operator
# ---------------------------------------------------------------------------


def maximal_truncated(sym: Symbol, f: MeasFn, K: int) -> MeasFn:
    """max_{1<=n<=K} (1/n) S_n with S_n = sum_{i<n} |T^i f|, exact.

    |T^i f| = T^i |f| because T is positive.  An atomic symbol walks the
    orbit lines of |f|: exact values by the peak rule (``_Orbits.peak``),
    float values summed along each orbit in step order.
    An interval symbol with exact values forms the iterates of |f| once and
    sweeps them cell by cell over the union of their cuts; S_n is constant
    between the iterates that are nonzero at a point and S_n/n falls there,
    so only n = i+1 with T^i |f| nonzero are visited.  Ties keep the smaller
    n.  Float values on an interval symbol are the running-sum chain itself:
    S_n by ``add``, each mean by ``scale``, the maximum by ``pointwise_max``."""
    K = as_int(K)
    if K < 1:
        raise ValueError("truncation K must be >= 1")
    _check_acts_on(sym, f)
    if isinstance(sym, AtomicSymbol):
        return _Orbits(sym, f, absolute=True).maximal(K)
    stream = islice(_iterates(sym, abs_fn(f)), K)
    best = running = next(stream)
    V = best._view  # an exact view holds no float
    if V.exact or not any(isinstance(v, float) for v in V.vals):
        return _maximal_interval([best, *stream])
    for n, cur in enumerate(stream, 2):
        running = add(running, cur)
        best = pointwise_max(best, scale(Fraction(1, n), running))
    return best


def _peak_mean(events) -> Real:
    """max over the (i, v) events, in increasing i, of 1/(i+1) times the
    running sum of v; the first maximum wins, and no events give 0."""
    total, best = Fraction(0), None
    for i, v in events:
        total += v
        m = Fraction(1, i + 1) * total
        if best is None or m > best:
            best = m
    return Fraction(0) if best is None else best


def _maximal_interval(iterates: list[StepFn]) -> StepFn:
    """max_n S_n / n for the iterates T^i |f| (exact values), cell by cell
    over the union of their cuts, read off their views over one C
    (``_views``) and one D.  A cell keeps the values of the iterates that
    are nonzero on it; its running sums H of them are ints, and the peak is
    decided as ``_Orbits.peak`` decides it, H n' > H' n, so ties keep the
    smaller n.  The means are ints over D times the lcm of the peak n's (as
    ``_Orbits.exact`` builds them), or one Fraction a cell past the budget."""
    views, _ = _views(iterates)
    D = views[0].exact and common_denominator(V.D for V in views)
    if not D:  # the values themselves, over D = 1
        views, D = [_plain(h) for h in iterates], 1
    # the (iterate, value) switches at each cut; active holds the iterates
    # that are nonzero on the current cell
    switches: dict[Real, list] = {}
    for i, V in enumerate(views):
        k = D // V.D
        for c, v in zip(V.cuts, V.vals[1:]):
            switches.setdefault(c, []).append((i, v * k))
    active = {i: V.vals[0] * (D // V.D) for i, V in enumerate(views) if V.vals[0] != 0}
    cuts = sorted(switches)
    Hs, ns = [], []

    def peak():
        best = total = 0
        best_n = 1
        for i in sorted(active):
            total += active[i]
            if total * best_n > best * (i + 1):
                best, best_n = total, i + 1
        Hs.append(best)
        ns.append(best_n)
    peak()
    for c in cuts:
        for i, v in switches[c]:
            if v == 0:
                del active[i]
            else:
                active[i] = v
        peak()
    M = views[0].exact and common_denominator([D, *(n * D for n in set(ns))])
    if M:
        return _merged_step(iterates[0].space, cuts, [H * (M // (n * D)) for H, n in zip(Hs, ns)],
                            views[0]._replace(D=M))
    return _merged_step(iterates[0].space, cuts, [Fraction(H, n * D) for H, n in zip(Hs, ns)],
                        views[0]._replace(D=1, exact=False))


def weak_type_ratio(
    sym: Symbol,
    f: MeasFn,
    K: int,
    spec: NormSpec,
    s_grid: Sequence[Real],
) -> Real:
    """max over the grid of s · phi_X(mu({T#_K f > s})) / ||f||_X."""
    from .spaces import fundamental_function, norm_eval

    if any(v < 0 for _, v in f.cells()):
        raise ValueError("weak-type ratios are defined for nonnegative f")
    denom = norm_eval(spec, f)
    if denom == 0:
        raise ValueError("zero-norm function")
    if denom == INF:
        raise ValueError("needs a finite-norm function")
    m = maximal_truncated(sym, f, K)
    best: Real = Fraction(0)
    for s in s_grid:
        if not s > 0:
            raise ValueError("levels must be positive")
        mass = distribution_at(m, s)
        if mass == 0:
            continue
        best = max(best, s * fundamental_function(spec, mass) / denom)
    return best


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErgodicReport:
    columns: tuple[str, ...]
    rows: tuple[tuple[Real, ...], ...]

    def to_csv(self) -> str:
        import csv
        import io

        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(self.columns)
        for row in self.rows:
            w.writerow([fmt_real(x) for x in row])
        return buf.getvalue()

    def to_json(self) -> str:
        return jsonio.dumps(jsonio.to_obj(self))

    def column(self, name: str) -> list[Real]:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


def spec_label(spec: Union[NormSpec, XiWeight]) -> str:
    return spec.label


def convergence_report(
    sym: Symbol,
    f: MeasFn,
    specs: Sequence[NormSpec],
    weights: Sequence[XiWeight],
    schedule: Sequence[int],
    limit_oracle: Optional[MeasFn] = None,
    sample_points: Sequence[Real] = (),
) -> ErgodicReport:
    """Norm/seminorm values of C_n f along the schedule, plus distances to a
    supplied limit and pointwise samples; deterministic."""
    return _report(cesaro_schedule(sym, f, schedule).means, specs, weights, limit_oracle, sample_points)


def _report(means: Sequence[tuple[int, MeasFn]], specs: Sequence[NormSpec], weights: Sequence[XiWeight],
            limit_oracle: Optional[MeasFn] = None, sample_points: Sequence[Real] = ()) -> ErgodicReport:
    """``convergence_report``'s rows for means already formed, (n, C_n f) each."""
    from .spaces import norm_eval, xi_seminorm

    cols = ["n"]
    cols += [spec_label(s) for s in specs]
    cols += [f"xi{i}" for i in range(len(weights))]
    if limit_oracle is not None:
        cols += [f"dist[{spec_label(s)}]" for s in specs]
    cols += [f"at[{fmt_real(p)}]" for p in sample_points]
    rows = []
    for n, mean in means:
        row: list[Real] = [Fraction(n)]
        for s in specs:
            row.append(norm_eval(s, mean))
        for w in weights:
            row.append(xi_seminorm(w, mean))
        if limit_oracle is not None:
            diff = subtract(mean, limit_oracle)
            for s in specs:
                row.append(norm_eval(s, diff))
        for p in sample_points:
            row.append(mean.value_at(p))
        rows.append(tuple(row))
    return ErgodicReport(tuple(cols), tuple(rows))
