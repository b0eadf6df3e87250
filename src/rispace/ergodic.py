"""Composition operators T f = f ∘ phi, their Cesàro means, and diagnostics.

Everything is computed exactly on the step/sequence representations:
``apply`` has the symbol pull f back (each symbol family's ``pull_back``
moves the pieces or entries of f through its preimages), Cesàro means
accumulate iterates with rational weights, and the truncated maximal
operator is one sweep over the iterates of |f|, index by index or cell by
cell, that reads each partial average only where it can be the largest.
Limits are only ever produced by oracles (orbit averages for finite
permutations); nothing is extrapolated.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import jsonio
from .num import INF, Real, as_int, fmt_real
from .rearrange import distribution_at
from .spaces import NormSpec, XiWeight, fundamental_function, norm_eval, xi_seminorm
from .stepfn import (
    AtomSeq,
    MeasFn,
    StepFn,
    _merged_seq,
    _merged_step,
    _on_cells,
    abs_fn,
    linear_combine,
    subtract,
)
from .symbols import AtomicSymbol, Symbol


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
    cur = f
    for _ in range(k):
        cur = apply(sym, cur)
    return cur


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
    """C_n f = (1/n) sum_{i<n} T^i f, exact: the one-snapshot schedule, so
    one linear combination of the n iterates with weights 1/n."""
    return cesaro_schedule(sym, f, (n,)).means[0][1]


def cesaro_schedule(sym: Symbol, f: MeasFn, schedule: Sequence[int]) -> CesaroTrajectory:
    """Means C_n f along an increasing schedule, sharing iterates.

    Each snapshot is one linear combination of the previous snapshot C_m (m
    = 0 at the first) and the iterates since it:
    C_n = (m/n) C_m + (1/n) sum_{m<=i<n} T^i f.  Finite permutations take
    the closed form along cycles instead."""
    ns = [as_int(n) for n in schedule]
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])) or ns[0] < 1:
        raise ValueError("schedule must be strictly increasing and positive")
    _check_acts_on(sym, f)
    if _is_finite_permutation(sym):
        means = tuple((n, _permutation_cesaro(sym, f, n)) for n in ns)
        return CesaroTrajectory(sym, f, tuple(ns), means)
    wanted = set(ns)
    out = []
    buffer = [f]
    cur = f
    for n in range(1, ns[-1] + 1):
        if n > 1:
            cur = apply(sym, cur)
            buffer.append(cur)
        if n in wanted:
            w = Fraction(1, n)
            if out:
                m, mean = out[-1]
                mean = linear_combine([m * w] + [w] * len(buffer), [mean] + buffer)
            else:
                mean = linear_combine([w] * n, buffer)
            buffer = []
            out.append((n, mean))
    return CesaroTrajectory(sym, f, tuple(ns), tuple(out))


def _is_finite_permutation(sym: Symbol) -> bool:
    return isinstance(sym, AtomicSymbol) and sym.is_permutation()


def _cycles(sym: AtomicSymbol) -> list[list[int]]:
    seen = set()
    cycles = []
    for start in range(*sym.space.domain):
        if start in seen:
            continue
        cyc = []
        j = start
        while j not in seen:
            seen.add(j)
            cyc.append(j)
            j = sym.image_of(j)
        cycles.append(cyc)
    return cycles


def _permutation_cesaro(sym: AtomicSymbol, f: AtomSeq, n: int) -> AtomSeq:
    """Closed form along cycles: the orbit of j is periodic, so the n-term
    ergodic sum is q full cycle sums plus a prefix (n = qL + r)."""
    values = {}
    for cyc in _cycles(sym):
        L = len(cyc)
        vals = [f.value_at(j) for j in cyc]
        total = sum(vals)
        prefix = [Fraction(0)]
        for v in vals + vals:  # doubled, so any wrap-around prefix is a diff
            prefix.append(prefix[-1] + v)
        q, r = divmod(n, L)
        for m, j in enumerate(cyc):
            s = q * total + (prefix[m + r] - prefix[m])
            values[j] = s * Fraction(1, n)
    return _merged_seq(sym.space, values.items())


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
    if not _is_finite_permutation(sym):
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

    |T^i f| = T^i |f| because T is positive, so the iterates of |f| are
    formed once and swept together: index by index for atom sequences, cell
    by cell over the union of the iterates' cuts for step functions.  As
    |f| >= 0, S_n is constant between the iterates that are nonzero at a
    point and S_n/n falls there, so the maximum is attained at some n = i+1
    with T^i |f| nonzero; only those n are visited (all n where a tail over
    N adds at every step).  Ties keep the smaller n.  Float-valued step
    functions are rounded as the sum of whole step functions rounds them."""
    K = as_int(K)
    if K < 1:
        raise ValueError("truncation K must be >= 1")
    _check_acts_on(sym, f)
    g = abs_fn(f)
    if K == 1:
        return g
    weights = [Fraction(1, n) for n in range(1, K + 1)]
    if isinstance(sym, AtomicSymbol):
        return _maximal_atomic(sym, g, weights)
    iterates = [g]
    for _ in range(K - 1):
        iterates.append(apply(sym, iterates[-1]))
    if any(isinstance(v, float) for v in g.vals):
        return _maximal_interval_float(iterates, weights)
    return _maximal_interval(iterates, weights)


def _peak_mean(events, weights: list[Fraction]) -> Real:
    """max over the (i, v) events, in increasing i, of weights[i] times the
    running sum of v; the first maximum wins, and no events give 0."""
    total: Real = Fraction(0)
    best = None
    for i, v in events:
        total += v
        m = weights[i] * total
        if best is None or m > best:
            best = m
    return Fraction(0) if best is None else best


def _maximal_atomic(sym: AtomicSymbol, g: AtomSeq, weights: list[Fraction]) -> AtomSeq:
    tail = g.tail
    iterates = [g._values]
    for _ in range(len(weights) - 1):
        iterates.append(sym.pull_back_values(iterates[-1]))
    events: dict[int, list] = {}
    if tail == 0:
        for i, it in enumerate(iterates):
            for j, v in it.items():
                events.setdefault(j, []).append((i, v))
    else:
        # a tail over N adds to S_n at every step, so every n counts
        events = {j: [(i, it.get(j, tail)) for i, it in enumerate(iterates)] for j in set().union(*iterates)}
    peaks = {j: _peak_mean(ev, weights) for j, ev in events.items()}
    peak_tail = _peak_mean(((i, tail) for i in range(len(weights))), weights)
    return _merged_seq(sym.space, peaks.items(), peak_tail)


def _maximal_interval(iterates: list[StepFn], weights: list[Fraction]) -> StepFn:
    # the (iterate, value) switches at each cut; active holds the iterates
    # that are nonzero on the current cell
    switches: dict[Real, list] = {}
    for i, h in enumerate(iterates):
        for c, v in zip(h.cuts, h.vals[1:]):
            switches.setdefault(c, []).append((i, v))
    active = {i: h.vals[0] for i, h in enumerate(iterates) if h.vals[0] != 0}
    cuts = sorted(switches)
    vals = [_peak_mean(sorted(active.items()), weights)]
    for c in cuts:
        for i, v in switches[c]:
            if v == 0:
                del active[i]
            else:
                active[i] = v
        vals.append(_peak_mean(sorted(active.items()), weights))
    return _merged_step(iterates[0].space, cuts, vals)


def _maximal_interval_float(iterates: list[StepFn], weights: list[Fraction]) -> StepFn:
    """max_n S_n/n for float values, rounded as the sum of whole step
    functions rounds: on the union of the iterates' cuts, S_n and S_n/n each
    run left to right from their first cell by one jump per cut.  S_n's jump
    adds S_{n-1}'s and the iterate's, skipping a zero one; the mean's is 1/n
    times S_n's."""
    cuts = sorted(dict.fromkeys(c for h in iterates for c in h.cuts))
    running = _on_cells(iterates[0], cuts)
    best = running
    for h, w in zip(iterates[1:], weights[1:]):
        cur = _on_cells(h, cuts)
        total = [running[0] + cur[0]]
        mean = [w * total[0]]
        for k in range(1, len(cuts) + 1):
            ds, dc = running[k] - running[k - 1], cur[k] - cur[k - 1]
            jump = ds + dc if ds and dc else ds or dc
            total.append(total[-1] + jump if jump else total[-1])
            d = total[k] - total[k - 1]
            mean.append(mean[-1] + w * d if d else mean[-1])
        running = total
        best = [max(b, m) for b, m in zip(best, mean)]
    return _merged_step(iterates[0].space, cuts, best)


def weak_type_ratio(
    sym: Symbol,
    f: MeasFn,
    K: int,
    spec: NormSpec,
    s_grid: Sequence[Real],
) -> Real:
    """max over the grid of s · phi_X(mu({T#_K f > s})) / ||f||_X."""
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
    traj = cesaro_schedule(sym, f, schedule)
    cols = ["n"]
    cols += [spec_label(s) for s in specs]
    cols += [f"xi{i}" for i in range(len(weights))]
    if limit_oracle is not None:
        cols += [f"dist[{spec_label(s)}]" for s in specs]
    cols += [f"at[{fmt_real(p)}]" for p in sample_points]
    rows = []
    for n, mean in traj.means:
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
