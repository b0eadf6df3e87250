"""Composition operators T f = f ∘ phi, their Cesàro means, and diagnostics.

Everything is computed exactly on the step/sequence representations:
``apply`` has the symbol pull f back (each symbol family's ``pull_back``
moves the pieces or entries of f through its preimages).  An atomic symbol
reads Cesàro means and the truncated maximal operator off one sweep per line
of its shift, walking orbits only where they meet its table, at a cost set by
the output, not by n or by the size of exact values' denominators; an
interval symbol reads its iterates f, T f, T² f, … off one stream
(``_iterates``), combines them with rational weights, cell by cell, and
its maximal means of float values are the running-sum chain itself.
Limits are only ever produced by oracles (orbit averages for finite
permutations); nothing is extrapolated.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
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
    Exact values are read off f's view (``AtomSeq._view``): ints over one
    denominator D (past its budget, the Fractions themselves over D = 1),
    less f's tail (|f|'s for ``maximal``), listed by line and place with
    prefix sums; one sweep per line (``windows``) serves the indices whose
    steps stay off the table.
    ``walk`` serves the rest: a run is a slice of its line, table rows are
    stepped one by one, m = qL + r steps around a permutation's cycle sum to
    q cycle sums plus a prefix difference, and a shift of 0 holds j fixed.
    Float values are walked as they are."""

    def __init__(self, sym: AtomicSymbol, f: AtomSeq, absolute: bool = False):
        self.sym, s = sym, sym.shift
        self.floats = _has_float(f)
        if self.floats:
            f = abs_fn(f) if absolute else f
            self.vals, self.tail, start = f._values, f.tail, Fraction(0)
        else:
            V = f._view
            ws, T = ([abs(w) for w in V.vals], abs(V.tail)) if absolute else (V.vals, V.tail)
            self.D, self.tail, self.T, start = V.D, f.tail, T, 0
            self.vals = {j: w for j, v in zip(V.indices, ws) if (w := v - T)}
        self.lines = {}  # line -> its entries' places, increasing, and their prefix sums
        for j in sorted(self.vals, reverse=s < 0) if s else ():
            places, sums = self.lines.setdefault(j % s, ([], [0]))
            places.append(j // s)
            sums.append(sums[-1] + self.vals[j])
        self.cycles = {}  # index -> its cycle, its place, the doubled cycle's prefix sums
        for cyc in _cycles(sym) if sym.is_permutation() else ():
            prefix = list(accumulate([self.vals.get(j, self.tail if self.floats else 0) for j in cyc] * 2,
                                     initial=start))
            self.cycles.update((j, (cyc, p, prefix)) for p, j in enumerate(cyc))

    def walk(self, j: int, m: int, hits: Optional[list] = None):
        """The sum over j's first m steps, or hits with each (step, entry) met."""
        sym, s, vals = self.sym, self.sym.shift, self.vals
        acc = i = 0
        while i < m:
            k = sym.steps_to_table(j) if sym.table else None
            if s and k != 0:  # a run along j's line
                run = m - i if k is None or k > m - i else k
                q, r = divmod(j, s)
                places, sums = self.lines.get(r, ((), (0,)))
                a, b = bisect_left(places, q), bisect_left(places, q + run)
                acc += sums[b] - sums[a]
                if hits is not None:
                    hits += [(i + c - q, vals[r + c * s]) for c in places[a:b]]
                j, i = j + run * s, i + run
            elif hits is None and j in self.cycles:
                cyc, p, prefix = self.cycles[j]
                q, r = divmod(m - i, len(cyc))
                return acc + (q * prefix[len(cyc)] + (prefix[p + r] - prefix[p]))
            else:  # a table row, or an index held fixed by a shift of 0
                steps = 1 if k == 0 else m - i
                if j in vals and hits is not None:
                    hits += [(t, vals[j]) for t in range(i, i + steps)]
                acc += steps * vals.get(j, 0)
                j, i = sym.image_of(j) if k == 0 else j, i + steps
        return acc if hits is None else hits

    def near(self, m: int):
        """The indices whose orbit meets an entry within m - 1 steps and that
        ``windows`` does not serve (S_n less n times f's tail is 0 off them)."""
        sym, depth, sweep = self.sym, m - 1, not self.floats and self.sym.shift
        seen = level = set(self.vals) if sym.table or not sweep else set()
        while depth and level:
            level = sym.index_preimage(level) - seen
            seen |= level
            depth -= 1
        return [j for j in seen if (k := sym.steps_to_table(j)) is not None and k < m] if sweep else seen

    def windows(self, m: int):
        """Yield (j, q, a, b, line) for each index j whose m steps stay off the
        table and meet an entry: q is j's place, the line's entries a..b-1 sit
        at [q, q + m).  Cursors run up each line once, on N from its left end."""
        s, left = self.sym.shift, self.sym.space.domain[0]
        for r, line in self.lines.items():
            places, rows = [*line[0], INF], [*self.sym.table_places.get(r, ()), INF]
            lo = -((r - left) // s) if s > 0 and left != -INF else -INF
            a = b = c = 0
            for p in line[0]:
                for q in range(max(p - m + 1, lo), p + 1):
                    while places[a] < q:
                        a += 1
                    while places[b] < q + m:
                        b += 1
                    while rows[c] < q:
                        c += 1
                    if rows[c] >= q + m:
                        yield r + q * s, q, a, b, line
                lo = p + 1

    def exact(self, items, tail: Fraction) -> AtomSeq:
        """The means (S + n T) / (n D) of the items (j, S, n) by j; S = 0 is
        the tail.  They stay ints (``_int_seq``) over M = ``common_denominator``
        of D and every n D: n D for a Cesàro mean, D times the lcm of the peak
        n's for a maximal one.  Past the budget, f's or M's, they are Fractions."""
        items = sorted(item for item in items if item[1])
        T, D, ns = self.T, self.D, {n for _, _, n in items}
        M = common_denominator([D, *(n * D for n in ns)]) if type(T) is int else None
        if M is None:
            return AtomSeq(self.sym.space, tuple((j, Fraction(S + n * T, n * D)) for j, S, n in items), tail)
        k = {n: M // (n * D) for n in ns}
        return _int_seq(self.sym.space, [j for j, _, _ in items], [(S + n * T) * k[n] for _, S, n in items], M, tail)

    def means(self, ns: Sequence[int]) -> tuple[tuple[int, AtomSeq], ...]:
        m, out = ns[-1], []
        js, wins = self.near(m), list(self.windows(m))
        for n in ns:
            if self.floats:  # a finite permutation, rounded as its cycle sums are
                out.append((n, _merged_seq(self.sym.space, [(j, self.walk(j, n) * Fraction(1, n)) for j in js])))
                continue
            items = [(j, self.walk(j, n), n) for j in js]
            items += [(j, sums[b if n == m else bisect_left(places, q + n, a, b)] - sums[a], n)
                      for j, q, a, b, (places, sums) in wins]
            out.append((n, self.exact(items, self.tail or Fraction(0))))
        return tuple(out)

    def maximal(self, K: int) -> AtomSeq:
        walks = [(j, self.walk(j, K, [])) for j in self.near(K)]
        if self.floats:  # summed as they meet the orbit, a nonzero tail at every step
            def peak(hits):
                if self.tail != 0:
                    hits = ({i: self.tail for i in range(K)} | dict(hits)).items()
                return _peak_mean(hits)
            return _merged_seq(self.sym.space, [(j, peak(hits)) for j, hits in walks], peak([(0, self.tail)]))
        peaks = [(j, *self.peak(K, [i for i, _ in hits], list(accumulate((v for _, v in hits), initial=0)),
                                0, len(hits), 0)) for j, hits in walks]
        peaks += [(j, *self.peak(K, places, sums, a, b, q)) for j, q, a, b, (places, sums) in self.windows(K)]
        return self.exact(peaks, Fraction(self.T, self.D))

    @staticmethod
    def peak(K: int, steps, sums, a: int, b: int, q: int) -> tuple[int, int]:
        """max_{n<=K} S_n/n as (H, n) over D where an orbit meets the entries
        a..b-1 at the steps steps[c] - q, with running sums sums[c + 1] -
        sums[a].  Between them S_n stays at H, so H/n peaks at the stretch's
        first n if H >= 0, else at its last; ties keep the smaller n."""
        best, best_n = (0, 1) if a == b or steps[a] > q else (None, 1)
        for c in range(a, b):
            H = sums[c + 1] - sums[a]
            n = steps[c] - q + 1 if H >= 0 else (steps[c + 1] - q if c + 1 < b else K)
            if best is None or H * best_n > best * n:
                best, best_n = H, n
        return best, best_n


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
    orbit lines of |f|, any exact values by the peak rule (``_Orbits.peak``).
    An interval symbol with exact values forms the iterates of |f| once and
    sweeps them cell by cell over the union of their cuts; S_n is constant
    between the iterates that are nonzero at a point and S_n/n falls there,
    so only n = i+1 with T^i |f| nonzero are visited.  Ties keep the smaller
    n.  Float values are rounded as the sum of whole step functions or
    sequences rounds them; on an interval symbol they are that chain itself:
    S_n by ``add``, each mean by ``scale``, the maximum by ``pointwise_max``."""
    K = as_int(K)
    if K < 1:
        raise ValueError("truncation K must be >= 1")
    _check_acts_on(sym, f)
    if isinstance(sym, AtomicSymbol):
        return _Orbits(sym, f, absolute=True).maximal(K)
    stream = islice(_iterates(sym, abs_fn(f)), K)
    best = running = next(stream)
    if not any(isinstance(v, float) for v in best.vals):
        return _maximal_interval([best, *stream])
    for n, cur in enumerate(stream, 2):
        running = add(running, cur)
        best = pointwise_max(best, scale(Fraction(1, n), running))
    return best


def _peak_mean(events) -> Real:
    """max over the (i, v) events, in increasing i, of 1/(i+1) times the
    running sum of v; the first maximum wins, and no events give 0."""
    total: Real = Fraction(0)
    best = None
    for i, v in events:
        total += v
        m = Fraction(1, i + 1) * total
        if best is None or m > best:
            best = m
    return Fraction(0) if best is None else best


def _maximal_interval(iterates: list[StepFn]) -> StepFn:
    # the (iterate, value) switches at each cut; active holds the iterates
    # that are nonzero on the current cell
    switches: dict[Real, list] = {}
    for i, h in enumerate(iterates):
        for c, v in zip(h.cuts, h.vals[1:]):
            switches.setdefault(c, []).append((i, v))
    active = {i: h.vals[0] for i, h in enumerate(iterates) if h.vals[0] != 0}
    cuts = sorted(switches)
    vals = [_peak_mean(sorted(active.items()))]
    for c in cuts:
        for i, v in switches[c]:
            if v == 0:
                del active[i]
            else:
                active[i] = v
        vals.append(_peak_mean(sorted(active.items())))
    return _merged_step(iterates[0].space, cuts, vals)


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
