"""Measurable self-maps of the catalog spaces, with exact preimages.

Two families:

* ``AtomicSymbol`` — a finite lookup table on low indices plus an affine
  index shift ``j -> j + c`` everywhere else.  Preimages are computed by
  counting; only the table disturbs the shift, so preimage counts of powers
  and the powers themselves are read off the table's rows and the indices
  whose shift orbits reach them.

* ``IntervalSymbol`` — finitely many strictly monotone branches whose
  domains partition the carrier.  The branch forms are a closed catalog
  (affine maps, t^n and 1+t^n on the unit interval, the affine tail
  n(t-1)+2, and exp(1-1/t)) with closed-form inverses, so the preimage of a
  half-open interval is again a finite union of intervals with closed-form
  endpoints.  For an order-reversing affine branch the returned half-open
  interval differs from the true preimage by at most two endpoints, a null
  set; all measures are unaffected.

Each family answers for its ``preimage``, its ``pull_back`` (f ∘ phi) and
its ``bound_rows``, and says whether those are ``certified``; the functions
below read these answers and never ask which family they hold.

Iterates are always handled operator-side (apply the preimage n times);
branch forms are never composed symbolically, since the catalog is not
closed under composition.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Union

from .num import INF, Real, as_int, as_real, is_finite, log_real, nth_root, rational_pow
from .space import (
    ATOMIC_FINITE,
    ATOMIC_N,
    AtomicSet,
    IntervalSet,
    MeasureSpace,
    _normalize_intervals,
    interval_set,
)
from .stepfn import AtomSeq, StepFn, _fn_from_pieces, _mapped_pieces, _merged_seq, constant, linear_combine


# ---------------------------------------------------------------------------
# Branch forms
# ---------------------------------------------------------------------------


def _affine_at(alpha: Real, beta: Real, t) -> Real:
    """alpha t + beta, with an infinite t sent to the infinity it tends to."""
    return alpha * t + beta if is_finite(t) else t if alpha > 0 else -t


@dataclass(frozen=True)
class Affine:
    """t -> alpha t + beta, alpha != 0."""

    alpha: Real
    beta: Real

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_real(self.alpha))
        object.__setattr__(self, "beta", as_real(self.beta))
        if not (is_finite(self.alpha) and is_finite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero")

    domain = None  # any interval of the space

    @property
    def coefficients(self) -> tuple[Real, Real]:
        return self.alpha, self.beta

    @property
    def increasing(self) -> bool:
        return self.alpha > 0

    def image(self, lo, hi) -> tuple[Real, Real]:
        a, b = _affine_at(self.alpha, self.beta, lo), _affine_at(self.alpha, self.beta, hi)
        return (a, b) if self.alpha > 0 else (b, a)

    def inverse(self, y) -> Real:
        return (y - self.beta) / self.alpha


class _UnitPower:
    """t -> offset + t^n on [0, 1), n >= 2; the subclass sets the offset."""

    domain = (Fraction(0), Fraction(1))
    coefficients = None
    increasing = True
    density_splits = ()

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("power must be >= 2")

    def image(self, lo, hi) -> tuple[Real, Real]:
        return (Fraction(self.offset), Fraction(self.offset + 1))

    def inverse(self, y) -> Real:
        return nth_root(y - self.offset, self.n)

    def density(self, y) -> Real:
        """|d/dy inverse(y)|, with the limit inf at the bottom of the image."""
        x = y - self.offset
        if x == 0:
            return INF
        return Fraction(1, self.n) * rational_pow(x, Fraction(1 - self.n, self.n))


@dataclass(frozen=True)
class PowerOnUnit(_UnitPower):
    """t -> t^n on [0, 1), n >= 2."""

    n: int
    offset = 0


@dataclass(frozen=True)
class ShiftedPower(_UnitPower):
    """t -> 1 + t^n on [0, 1), n >= 2."""

    n: int
    offset = 1


@dataclass(frozen=True)
class AffineTail:
    """t -> n (t - 1) + 2 on [1, inf), n >= 1."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("slope must be >= 1")

    domain = (Fraction(1), INF)
    increasing = True

    @property
    def coefficients(self) -> tuple[Real, Real]:
        return Fraction(self.n), Fraction(2 - self.n)

    def image(self, lo, hi) -> tuple[Real, Real]:
        return (Fraction(2), INF)

    def inverse(self, y) -> Real:
        return (y - 2) / Fraction(self.n) + 1


@dataclass(frozen=True)
class ExpRecip:
    """t -> exp(1 - 1/t) on [0, 1), with the null convention phi(0) = 0."""

    domain = (Fraction(0), Fraction(1))
    coefficients = None
    increasing = True
    # the inverse derivative falls on (0, 1/e] and rises on [1/e, 1)
    density_splits = (math.exp(-1.0),)

    def image(self, lo, hi) -> tuple[Real, Real]:
        return (Fraction(0), Fraction(1))

    def inverse(self, y) -> Real:
        # invert y = exp(1 - 1/t)
        if y == 0:
            return Fraction(0)
        if y == 1:
            return Fraction(1)
        return 1.0 / (1.0 - log_real(y))

    def density(self, y) -> Real:
        """|d/dy inverse(y)| = 1/(y (1 - log y)^2), with the limit inf at 0."""
        if y == 0:
            return INF
        u = 1.0 - log_real(y)
        return 1.0 / (float(y) * u * u)


BranchForm = Union[Affine, PowerOnUnit, ShiftedPower, AffineTail, ExpRecip]


@dataclass(frozen=True)
class Branch:
    lo: Real
    hi: Real
    form: BranchForm

    def __post_init__(self):
        lo = as_real(self.lo)
        hi = as_real(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if not lo < hi:
            raise ValueError("branch domain is empty")
        pinned = self.form.domain
        if pinned is not None and (lo, hi) != pinned:
            raise ValueError(
                f"{type(self.form).__name__} is defined on [{pinned[0]}, {pinned[1]})"
            )

    def image(self) -> tuple[Real, Real]:
        """Endpoints (lo, hi) of the image interval, null sets ignored."""
        return self.form.image(self.lo, self.hi)

    def inverse_at(self, y) -> Real:
        """The branch's inverse at y (y inside the closed image), clamped to
        its domain [lo, hi] by ``max`` then ``min``."""
        x = self.form.inverse(y) if is_finite(y) else y if self.form.increasing else -y
        return min(max(x, self.lo), self.hi)


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalSymbol:
    space: MeasureSpace
    branches: tuple[Branch, ...]

    def __post_init__(self):
        if self.space.is_atomic:
            raise ValueError("IntervalSymbol needs a Lebesgue space")
        left, right = self.space.domain
        cursor = left
        for br in self.branches:
            if br.lo != cursor:
                raise ValueError("branch domains must partition the space's domain")
            cursor = br.hi
            lo_i, hi_i = br.image()
            if lo_i < left or hi_i > right:
                raise ValueError("branch image leaves the space")
            if not br.form.increasing and hi_i == right and right != INF:
                # a decreasing affine branch attains its sup at the left
                # domain endpoint, and the right space endpoint is excluded
                raise ValueError("branch image leaves the space")
        if cursor != right:
            raise ValueError("branch domains must partition the space's domain")

    @cached_property
    def certified(self) -> bool:
        """True when every branch is affine, so the bound rows are exact."""
        return all(br.form.coefficients for br in self.branches)

    def _pulled(self, pieces) -> list:
        """The preimages (a, b, v) of sorted, disjoint pieces (u, w, v), branch
        by branch: each cut to the branch's image and mapped by its inverse."""
        return [q for br in self.branches if pieces
                for q in _mapped_pieces(pieces, *br.image(), br.inverse_at, br.form.increasing)]

    def preimage(self, E: IntervalSet) -> IntervalSet:
        pieces = self._pulled([(u, v, 1) for u, v in E.intervals])
        return IntervalSet(self.space, _normalize_intervals([p[:2] for p in pieces], allow_overlap=True))

    def pull_back(self, f: StepFn) -> StepFn:
        """f ∘ phi: the preimages of the nonzero pieces of f tile the domain
        up to null sets, so the result is again a step function."""
        return _fn_from_pieces(self.space, self._pulled([p for p in f.pieces() if p[2] != 0]))

    def bound_rows(self, horizon: int):
        """Yield (n, A_n, C_n), n = 1..horizon, with C_n mu(E) <= mu(phi^{-n} E)
        <= A_n mu(E): exact from the n-step transfer density when certified,
        else ratios over the dyadic test family (A_n only a lower estimate)."""
        if self.certified:
            rho = constant(self.space, 1)
            for n in range(1, horizon + 1):
                rho = _transfer_once(self, rho)
                yield n, max(rho.vals), min(rho.vals)
            return
        family = _dyadic_family(self.space)
        sets = family
        for n in range(1, horizon + 1):
            sets = [self.preimage(E) for E in sets]
            a: Real = Fraction(0)
            c: Real = INF
            for E0, En in zip(family, sets):  # bounded sets, with bounded preimages
                r = En.measure() / E0.measure()
                a = max(a, r)
                c = min(c, r)
            yield n, a, c


@dataclass(frozen=True)
class AtomicSymbol:
    space: MeasureSpace
    table: tuple[tuple[int, int], ...]
    shift: int | None = None

    def __post_init__(self):
        if not self.space.is_atomic:
            raise ValueError("AtomicSymbol needs an atomic space")
        tbl = tuple(sorted((as_int(j), as_int(k)) for j, k in self.table))
        object.__setattr__(self, "table", tbl)
        seen = set()
        for j, k in tbl:
            if j in seen:
                raise ValueError(f"duplicate table entry for index {j}")
            seen.add(j)
            if not (self.space.valid_index(j) and self.space.valid_index(k)):
                raise ValueError("table entry outside the index range")
        if self.shift is not None:
            object.__setattr__(self, "shift", as_int(self.shift))
        if self.space.kind == ATOMIC_FINITE:
            if self.shift is not None:
                raise ValueError("finite atomic symbols have no shift rule")
            if len(seen) != self.space.count:
                raise ValueError("table must cover every atom of a finite space")
        else:
            if self.shift is None:
                raise ValueError("need a shift rule off the table window")
            if self.space.kind == ATOMIC_N and self.shift < 0:
                for j in range(-self.shift):
                    if j not in seen:
                        raise ValueError(
                            f"index {j} would map to the negative index {j + self.shift}"
                        )

    certified = True  # preimage counts are exact

    @cached_property
    def _images(self) -> dict[int, int]:
        return dict(self.table)

    def image_of(self, j: int) -> int:
        k = self._images.get(j)
        if k is not None:  # the table holds valid indices only
            return k
        if not self.space.valid_index(j):
            raise ValueError(f"index {j} outside the space's range")
        return j + self.shift

    @cached_property
    def table_places(self) -> dict[int, list[int]]:
        """Line j % shift -> the sorted places j // shift of its table rows."""
        lines = {}
        for j, _ in self.table if self.shift else ():
            lines.setdefault(j % self.shift, []).append(j // self.shift)
        return {r: sorted(places) for r, places in lines.items()}

    def steps_to_table(self, j: int) -> int | None:
        """The steps of the shift rule that take j to a table index: 0 for
        one, None when j's orbit never meets the table again."""
        if not self.shift:
            return 0 if j in self._images else None
        q, r = divmod(j, self.shift)
        rows = self.table_places.get(r, ())
        i = bisect_left(rows, q)
        return rows[i] - q if i < len(rows) else None

    def is_permutation(self) -> bool:
        if self.space.kind != ATOMIC_FINITE:
            return False
        return len({k for _, k in self.table}) == self.space.count

    def preimage(self, E: AtomicSet) -> AtomicSet:
        if E.cofinite:
            return self.preimage(E.complement()).complement()
        return AtomicSet(self.space, frozenset(self.index_preimage(E.atoms)))

    def index_preimage(self, targets) -> set[int]:
        """phi^{-1}(targets) for a finite collection of indices: the table rows
        that land in it, plus j = t - c for each target t whose pullback by the
        shift rule is a valid index off the table."""
        hit = {j for j, k in self.table if k in targets}
        if self.shift is not None:
            images = self._images
            for t in targets:
                j = t - self.shift
                if j not in images and self.space.valid_index(j):
                    hit.add(j)
        return hit

    def pull_back(self, f: AtomSeq) -> AtomSeq:
        """f ∘ phi, off f's tail exactly on the preimage of f's entries."""
        values = f._values
        pulled = {j: values[self.image_of(j)] for j in self.index_preimage(values)}
        return _merged_seq(self.space, pulled.items(), f.tail)

    def bound_rows(self, horizon: int):
        """Yield (n, A_n, C_n), the max and min of the preimage counts of
        phi^n, n = 1..horizon.  The counts less 1 obey
        delta_n = delta_1 + phi_* delta_{n-1}, and delta_1 is nonzero only at
        the table's images, at j + c for each row j, and at the targets off
        the shift's image (0..c-1 over N).  Keyed by t - n*c, an entry moves
        only when it sits on a table row, so one step moves those entries to
        their rows' images and adds delta_1.  The counts average 1 on a
        finite space, and far out on Z and N they are 1, so 1 is always
        between C_n and A_n.  A tally of how many entries hold each value,
        kept as entries change, gives the max and min without a pass over
        the entries."""
        c = self.shift or 0
        delta1 = Counter(k for _, k in self.table)
        delta1.subtract(j + c for j, _ in self.table if self.space.valid_index(j + c))
        delta1.subtract(t for t in range(c) if not self.space.valid_index(t - c))
        added = [(t, v) for t, v in delta1.items() if v]
        delta: dict[int, int] = {}
        held = Counter({0: 1})  # entries of delta per value; the 0 stands for the counts of 1
        for n in range(1, horizon + 1):
            moved = [(k, v) for j, k in self.table if (v := delta.pop(j - (n - 1) * c, 0))]
            for _, v in moved:
                held[v] -= 1
            for t, v in [*moved, *added]:
                u = t - n * c
                if u in delta:
                    held[delta[u]] -= 1
                    v += delta.pop(u)
                if v:
                    delta[u] = v
                    held[v] += 1
            for v in [v for v, m in held.items() if not m]:
                del held[v]
            yield n, Fraction(1 + max(held)), Fraction(1 + min(held))


Symbol = Union[AtomicSymbol, IntervalSymbol]


# ---------------------------------------------------------------------------
# Preimages
# ---------------------------------------------------------------------------


def preimage(sym: Symbol, E):
    """Exact phi^{-1}(E) inside the catalog set class."""
    if E.space != sym.space:
        raise ValueError("set does not belong to the symbol's space")
    return sym.preimage(E)


def preimage_measure(sym: Symbol, E) -> Real:
    return preimage(sym, E).measure()


# ---------------------------------------------------------------------------
# Density bookkeeping for interval symbols
# ---------------------------------------------------------------------------

def _reciprocal(c: Real) -> Real:
    """The least C with mu(E) <= C mu(phi^{-1} E) when c is the largest
    constant with c mu(E) <= mu(phi^{-1} E)."""
    return INF if c == 0 else 1 / c


def measure_bound(sym: Symbol) -> Real:
    """The smallest A with mu(phi^{-1} E) <= A mu(E); +inf when unbounded.

    Certified symbols read A from their first bound row.  Every
    other symbol has a non-affine branch, and each of those catalog forms has
    an inverse derivative that blows up inside its image, so no finite A
    works."""
    if sym.certified:
        return next(sym.bound_rows(1))[1]
    return INF


def lower_bound(sym: Symbol) -> Real:
    """The smallest C with mu(E) <= C mu(phi^{-1} E) over finite-measure E.

    Certified symbols read the density infimum from their first bound row;
    otherwise it is the least density over the regions of
    ``_density_regions``."""
    if sym.certified:
        return _reciprocal(next(sym.bound_rows(1))[2])
    ess_inf: Real = INF
    for x, y, base, special in _density_regions(sym):
        if special is None:
            here: Real = base
        else:
            here = base + min(special.form.density(x), special.form.density(y))
        ess_inf = min(ess_inf, here)
    return _reciprocal(ess_inf)


def _density_regions(sym: IntervalSymbol):
    """Split the domain so each region has a constant affine density plus at
    most one monotone non-affine contribution.

    Yields (x, y, affine_density, non_affine_branch_or_None).  The catalog
    admits at most one non-affine branch per symbol (all three forms claim
    the domain [0, 1)), and each non-affine inverse derivative is monotone on
    the regions produced here (the form's ``density_splits`` are its
    interior turning points), so region infima sit at region endpoints.
    """
    left, right = sym.space.domain
    points = {left, right}
    specials = []
    for br in sym.branches:
        points.update(br.image())
        if br.form.coefficients is None:
            specials.append(br)
            points.update(br.form.density_splits)
    if len(specials) > 1:  # pragma: no cover - unreachable by domain pinning
        raise AssertionError("catalog admits one non-affine branch")
    pts = sorted(p for p in points if left <= p <= right or p == INF)
    for x, y in zip(pts, pts[1:]):
        base: Real = Fraction(0)
        special = None
        for br in sym.branches:
            lo_i, hi_i = br.image()
            if lo_i <= x and y <= hi_i:
                ab = br.form.coefficients
                if ab is not None:
                    base += 1 / abs(ab[0])
                else:
                    special = br
        yield x, y, base, special


# ---------------------------------------------------------------------------
# Power bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerBounds:
    per_n: tuple[tuple[int, Real], ...]
    sup: Real
    certified: bool

    def at(self, n: int) -> Real:
        return dict(self.per_n)[n]


def atomic_power(sym: AtomicSymbol, k: int) -> AtomicSymbol:
    """The k-fold composition phi^k as an explicit atomic symbol.

    An index whose first k steps of the pure shift j -> j + c meet no table
    row goes to j + k*c, so only the indices row - d*c, 0 <= d < k, can
    leave the shift; the power keeps those that do.  A finite space has no
    shift rule, and its rows, every atom, keep their entries.
    """
    if k < 0:
        raise ValueError("power must be >= 0")
    c = None if sym.shift is None else sym.shift * k
    near = {j - d * (sym.shift or 0) for j, _ in sym.table for d in range(max(k, 1))}
    table = []
    for j in filter(sym.space.valid_index, near):
        t = j
        for _ in range(k):
            t = sym.image_of(t)
        if c is None or t != j + c:
            table.append((j, t))
    return AtomicSymbol(sym.space, tuple(table), c)


def _power_bounds(sym: Symbol, horizon: int) -> tuple[PowerBounds, list[Real]]:
    """The A_n column as PowerBounds, and the C_n column, from one pass of
    the symbol's bound rows."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    rows = list(sym.bound_rows(horizon))
    per = tuple((n, a) for n, a, _ in rows)
    return PowerBounds(per, max(a for _, a in per), sym.certified), [c for _, _, c in rows]


def power_measure_bound(sym: Symbol, horizon: int) -> PowerBounds:
    """A_n for n = 1..horizon: the A_n column of the symbol's bound rows.

    Exact for atomic symbols (preimage counts) and for all-affine interval
    symbols (transfer density iteration); otherwise a sampled lower estimate
    of the true A_n from the dyadic test family down to scale 2^-12,
    flagged by certified=False.
    """
    return _power_bounds(sym, horizon)[0]


def _transfer_once(sym: IntervalSymbol, rho: StepFn) -> StepFn:
    """Density of phi^{-(n+1)} from the density rho of phi^{-n}:
    rho'(y) = sum_b rho(inv_b(y)) / |alpha_b| on the image of b."""
    nonzero = [p for p in rho.pieces() if p[2] != 0]
    parts = []
    for br in sym.branches:
        alpha, beta = br.form.coefficients
        w = 1 / abs(alpha)
        moved = _mapped_pieces(nonzero, br.lo, br.hi, partial(_affine_at, alpha, beta), alpha > 0)
        if moved:
            parts.append(_fn_from_pieces(sym.space, [(a, b, w * v) for a, b, v in moved]))
    if not parts:
        return _fn_from_pieces(sym.space, [])
    return linear_combine([1] * len(parts), parts)


# the dyadic test family reaches down to intervals of length 2^-_DYADIC_DEPTH
_DYADIC_DEPTH = 12


def _dyadic_family(sp: MeasureSpace):
    """Test intervals concentrated at the catalog's blow-up points 0 and 1."""
    left, right = sp.domain
    raw = [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))]
    for j in range(_DYADIC_DEPTH + 1):
        h = Fraction(1, 2**j)
        raw.append((Fraction(0), h))
        raw.append((h / 2, h))
        raw.append((1, 1 + h))
        raw.append((1 + h / 2, 1 + h))
    out = []
    seen = set()
    for a, b in raw:
        a2, b2 = max(a, left), min(b, right)
        if a2 < b2 and (a2, b2) not in seen:
            seen.add((a2, b2))
            out.append(interval_set(sp, [(a2, b2)]))
    return out


# ---------------------------------------------------------------------------
# Condition (I) and the full analysis record
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolAnalysis:
    measure_bound: Real
    lower_bound: Real
    power_bounds: PowerBounds
    condition_I1: bool
    condition_I3: bool
    condition_I3_witness: Real
    nonsingular: bool
    strictly_nonsingular: bool
    dilation_B: Real


def check_condition_I(sym: Symbol, horizon: int) -> SymbolAnalysis:
    """Assemble the boundedness diagnostics used by the ergodic estimates.

    One pass of the symbol's bound rows, n = 1..horizon, gives both the power
    bounds A_n and
    the condition (I3) witness min_n C_n, the largest constant C with
    C mu(E) <= mu(phi^{-n} E) for every n up to the horizon (exact from
    counts or the n-step density where the catalog permits, sampled on the
    dyadic test family otherwise).  For a certified symbol the first row is
    the one-step pair (A, C), as in ``measure_bound`` and
    ``lower_bound``; any other symbol has A = inf and C from
    ``lower_bound``.  When ``power_bounds.certified`` is false the A_n are
    sampled lower estimates and the witness is sampled too, so it can
    overstate the true constant: x -> x^2 on [0, 1) reports 0.0848 at
    horizon 4, where C_4 = 1/16.
    """
    pb, cs = _power_bounds(sym, horizon)
    if pb.certified:
        A, C = pb.at(1), _reciprocal(cs[0])
    else:
        A, C = INF, lower_bound(sym)
    witness = min(cs)
    B = Fraction(0) if A == INF else min(Fraction(1), 1 / A)
    return SymbolAnalysis(
        measure_bound=A,
        lower_bound=C,
        power_bounds=pb,
        condition_I1=(A <= 1),
        condition_I3=(witness > 0),
        condition_I3_witness=witness,
        # every catalog branch has an absolutely continuous inverse (and the
        # only atomic null set is empty), so null sets pull back to null sets
        nonsingular=True,
        strictly_nonsingular=is_finite(C),
        dilation_B=B,
    )
