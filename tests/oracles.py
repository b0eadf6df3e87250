"""Independent reference implementations used to cross-check the library.

Everything here is deliberately computed by a *different* algorithm than the
one under test: distribution functions by direct piece scanning, rearranged
values by searching the finite value set, Lp norms by midpoint sampling on a
numpy grid, Lorentz norms by mpmath quadrature, Cesaro averages by dictionary
orbit simulation, atomic preimage counts and powers by sweeping a padded
window, interval preimages, transfer densities and dilations one piece and
one branch at a time.  Slow and dumb on purpose.
"""

from collections import Counter
from fractions import Fraction

import numpy as np

from rispace import INF, AtomicSymbol, AtomSeq, IntervalSet, StepFn, linear_combine, to_float
from rispace.num import is_finite, rational_pow
from rispace.space import _normalize_intervals
from rispace.stepfn import _fn_from_pieces


def dist_oracle(f, s):
    """mu({|f| > s}) by scanning pieces/entries directly."""
    s = abs(s) if s < 0 else s
    if isinstance(f, AtomSeq):
        if abs(f.tail) > s:
            return INF
        n = sum(1 for _, v in f.entries if abs(v) > s)
        return n * f.space.atom_mass
    total = Fraction(0)
    for a, b, v in f.pieces():
        if abs(v) > s:
            if b == INF or a == -INF or a == float("-inf"):
                return INF
            total += b - a
    return total


def rearr_value_oracle(f, t):
    """f*(t) = inf{s >= 0 : dist(s) <= t}, searched over the value set.

    For a simple function the infimum is attained at 0 or at one of the
    finitely many values of |f|.
    """
    if isinstance(f, AtomSeq):
        levels = {abs(v) for _, v in f.entries} | {abs(f.tail), Fraction(0)}
    else:
        levels = {abs(v) for v in f.vals} | {Fraction(0)}
    best = None
    for s in sorted(levels):
        if dist_oracle(f, s) <= t:
            best = s
            break
    assert best is not None, "distribution never drops below t"
    return best


def _abs_levels(f):
    if isinstance(f, AtomSeq):
        return sorted({abs(v) for _, v in f.entries} | {abs(f.tail), Fraction(0)})
    return sorted({abs(v) for v in f.vals} | {Fraction(0)})


def hardy_oracle(f, t):
    """int_0^t f* by the layer-cake formula int_0^inf min(t, mu{|f| > s}) ds.

    Between two consecutive values lo < hi of |f| the distribution is the
    constant dist(lo), so the s-integral is a finite sum over the value set;
    f* itself is never formed.
    """
    levels = _abs_levels(f)
    total = Fraction(0)
    for lo, hi in zip(levels, levels[1:]):
        total += (hi - lo) * min(t, dist_oracle(f, lo))
    return total


def star_cuts_oracle(f):
    """The cuts of f*: the finite positive values of the distribution."""
    return sorted({dist_oracle(f, s) for s in _abs_levels(f)} - {Fraction(0), INF})


def star_tail_oracle(f):
    """f*(inf): the least value s of |f| (or 0) with mu{|f| > s} finite."""
    return min(s for s in _abs_levels(f) if dist_oracle(f, s) != INF)


def lp_grid_oracle(f: StepFn, p, cells=1 << 15):
    """Lp norm by midpoint sampling.  Error ~ (#jumps) * cell / support."""
    lo, hi = _finite_support(f)
    if hi <= lo:
        return 0.0
    xs = np.linspace(to_float(lo), to_float(hi), cells, endpoint=False)
    xs += (to_float(hi) - to_float(lo)) / (2 * cells)
    vals = np.array([abs(to_float(f.value_at(x))) for x in xs])
    dx = (to_float(hi) - to_float(lo)) / cells
    pf = to_float(p)
    return float((vals**pf).sum() * dx) ** (1.0 / pf)


def lorentz_quad_oracle(f: StepFn, rearranged: StepFn, p, q):
    """Lorentz (p,q) norm by numerical quadrature of (t^{1/p} f*(t))^q dt/t.

    The rearrangement's cuts are used only to split the integration range;
    the integrand itself is evaluated pointwise.
    """
    import mpmath

    pf, qf = to_float(p), to_float(q)
    nodes = [0.0] + [to_float(c) for c in rearranged.cuts]
    if rearranged.vals[-1] != 0:
        raise ValueError("needs compactly supported rearrangement")

    def integrand(t):
        t = float(t)
        if t <= 0:
            return 0.0
        v = abs(to_float(rearranged.value_at(t)))
        return (t ** (1.0 / pf) * v) ** qf / t

    total = mpmath.mpf(0)
    for a, b in zip(nodes, nodes[1:]):
        if b > a:
            total += mpmath.quad(integrand, [a, b])
    return float(total) ** (1.0 / qf)


def cesaro_dict_oracle(image_of, f_value_at, indices, n):
    """Brute-force (1/n) sum_{i<n} f(phi^i(j)) for j in indices."""
    out = {}
    for j in indices:
        acc = Fraction(0)
        pos = j
        for _ in range(n):
            acc += f_value_at(pos)
            pos = image_of(pos)
        out[j] = acc / n
    return out


def maximal_dict_oracle(image_of, f_value_at, indices, K):
    """Brute-force max_{n<=K} (1/n) sum_{i<n} |f(phi^i(j))|."""
    out = {}
    for j in indices:
        acc = Fraction(0)
        best = None
        pos = j
        for n in range(1, K + 1):
            acc += abs(f_value_at(pos))
            pos = image_of(pos)
            cur = acc / n
            best = cur if best is None or cur > best else best
        out[j] = best
    return out


def maximal_iterate_oracle(iterates, x):
    """max_n (1/n) sum_{i<n} h_i(x) for the iterates h_i = T^i |f|, each
    evaluated at the point x on its own."""
    acc = Fraction(0)
    best = None
    for n, h in enumerate(iterates, 1):
        acc += h.value_at(x)
        cur = acc / n
        best = cur if best is None or cur > best else best
    return best


def maximal_chain_oracle(sym, f, K):
    """max_{n<=K} S_n/n built from whole functions: S_n = S_{n-1} + T^{n-1}|f|
    by add, each mean by scale, the maximum by pointwise_max.  Its float
    rounding is the one maximal_truncated keeps wherever the tail is 0."""
    from rispace import abs_fn, add, apply, pointwise_max, scale

    best = running = cur = abs_fn(f)
    for n in range(2, K + 1):
        cur = apply(sym, cur)
        running = add(running, cur)
        best = pointwise_max(best, scale(Fraction(1, n), running))
    return best


def refinement_points(fns):
    """A point inside every cell of the common refinement of step functions
    on one space: cell midpoints, and one past the last cut on a ray."""
    lo, hi = fns[0].space.domain
    bounds = [lo, *sorted(set().union(*(f.cuts for f in fns))), hi]
    points = []
    for a, b in zip(bounds, bounds[1:]):
        if a == -INF:
            points.append(Fraction(0) if b == INF else b - 1)
        elif b == INF:
            points.append(a + 1)
        else:
            points.append((a + b) / 2)
    return points


def _finite_support(f: StepFn):
    lo, hi = f.space.domain
    if f.vals[-1] != 0:
        raise ValueError("right tail must vanish")
    if lo == -INF or lo == float("-inf"):
        if f.vals[0] != 0:
            raise ValueError("left tail must vanish")
        lo = f.cuts[0]
    hi = f.cuts[-1] if f.cuts else lo
    return lo, hi


def product_integral_oracle(f, g):
    """The integral of |f g| by evaluating both at one point inside each cell
    of their common refinement: |f g| there times the cell's width, INF for
    a nonzero value on a ray; over atoms, entry by entry."""
    if isinstance(f, AtomSeq):
        if f.tail * g.tail != 0:
            return INF
        indices = {j for j, _ in f.entries} | {j for j, _ in g.entries}
        return sum((abs(f.value_at(j) * g.value_at(j)) for j in indices), Fraction(0)) * f.space.atom_mass
    lo, hi = f.space.domain
    bounds = [lo, *sorted(set(f.cuts) | set(g.cuts)), hi]
    total = Fraction(0)
    for a, b, x in zip(bounds, bounds[1:], refinement_points([f, g])):
        p = abs(f.value_at(x) * g.value_at(x))
        if p == 0:
            continue
        if INF in (abs(a), abs(b)):
            return INF
        total += p * (b - a)
    return total


def xi_oracle(w: StepFn, f):
    """The integral of w f* for a nonincreasing step weight w by summation
    by parts, w = sum of (w_k - w_{k+1}) times the indicator of [0, b_k):
    each step weighs the layer-cake Hardy integral of f up to b_k."""
    total = Fraction(0)
    for b, hi, lo in zip(w.cuts, w.vals, w.vals[1:]):
        total += (hi - lo) * hardy_oracle(f, b)
    if w.vals[-1] != 0:
        total += w.vals[-1] * hardy_oracle(f, INF)
    return total


def _star_plateaus(f):
    """(c, f* just left of c) for each cut c of f*, f* read at the midpoint
    of the plateau that ends at c."""
    cuts = star_cuts_oracle(f)
    return [(c, rearr_value_oracle(f, (a + c) / 2)) for a, c in zip([Fraction(0), *cuts], cuts)]


def weak_lp_oracle(f, p):
    """sup over t > 0 of t^(1/p) f*(t): INF for a nonzero tail of f*, else
    the largest c^(1/p) times f* just left of c over the cuts c of f* (0 for
    f = 0), each power by the library's scalar ``rational_pow``."""
    if star_tail_oracle(f) != 0:
        return INF
    return max([Fraction(0)] + [v * rational_pow(c, 1 / Fraction(p)) for c, v in _star_plateaus(f)])


def marc_weak_oracle(phi, f):
    """sup over t > 0 of Phi(t) f*(t) for a catalog profile Phi: the largest
    Phi(c) times f* just left of c over the cuts c of f*, and the tail of
    f* times Phi at infinity (INF for a nonzero tail under an unbounded
    Phi)."""
    values = [Fraction(0)] + [v * phi.at(c) for c, v in _star_plateaus(f)]
    tail = star_tail_oracle(f)
    if tail != 0:
        values.append(INF if phi.at_inf == INF else tail * phi.at_inf)
    return max(values)


def marc_strong_oracle(phi_at, f):
    """sup over t > 0 of Phi(t) H(t) / t for a power profile Phi with
    Phi(t)/t -> 0, with the layer-cake H: INF for a nonzero tail of f*, else
    the largest value at the cuts of f* (0 for f = 0)."""
    if star_tail_oracle(f) != 0:
        return INF
    return max([Fraction(0)] + [phi_at(t) * hardy_oracle(f, t) / t for t in star_cuts_oracle(f)])


def atomic_window_oracle(sym, horizon):
    """Source range outside which orbits follow the pure shift for the whole
    horizon: the span of the table's indices and images (widened to reach
    0 on the left), padded on each side by horizon * |c| + 2 and clipped to
    the domain.  On a finite space the table covers every atom, so the
    window is the whole space."""
    ends = [j for row in sym.table for j in row]
    pad = horizon * abs(sym.shift or 0) + 2
    left, right = sym.space.domain
    return (max(min(ends + [0]) - pad, left), min(max(ends, default=0) + 1 + pad, right))


def atomic_bound_rows_oracle(sym, horizon):
    """(n, A_n, C_n), n = 1..horizon, by moving every source of the window
    along its orbit and counting every target of a padded range.  Sources
    outside the window follow the pure shift and give one preimage to each
    target they reach, so every valid target beyond the range has exactly
    one; a window that is the whole (finite) space leaves none beyond it."""
    c = sym.shift or 0
    left, right = sym.space.domain
    lo_w, hi_w = atomic_window_oracle(sym, horizon)
    pos = list(range(lo_w, hi_w))
    rows = []
    for n in range(1, horizon + 1):
        pos = [sym.image_of(j) for j in pos]
        hits = Counter(pos)
        pad = n * abs(c) + 1
        counts = [] if (lo_w, hi_w) == (left, right) else [1]
        for t in range(max(lo_w - pad, left), min(hi_w + pad, right)):
            j = t - n * c
            outside = (j < lo_w or j >= hi_w) and sym.space.valid_index(j)
            counts.append(hits[t] + outside)
        rows.append((n, Fraction(max(counts)), Fraction(min(counts))))
    return rows


def atomic_power_oracle(sym, k):
    """phi^k as an atomic symbol: every source of the horizon-k window
    walked k steps, kept where it leaves the shift by k*c (everywhere on a
    finite space, which has no shift)."""
    c = None if sym.shift is None else sym.shift * k
    table = []
    for j in range(*atomic_window_oracle(sym, max(k, 1))):
        t = j
        for _ in range(k):
            t = sym.image_of(t)
        if c is None or t != j + c:
            table.append((j, t))
    return AtomicSymbol(sym.space, tuple(table), c)


def _branch_inverse(br, y):
    """The branch's inverse at y in its closed image, unclamped."""
    if y == INF or y == -INF:
        return y if br.form.increasing else -y
    return br.form.inverse(y)


def preimage_interval_oracle(br, u, v):
    """Preimage of [u, v) within one branch, as (a, b) or None: [u, v) cut to
    the branch's image, both ends inverted (swapped on a decreasing branch),
    then clamped to the branch's domain."""
    img_lo, img_hi = br.image()
    lo_y, hi_y = max(u, img_lo), min(v, img_hi)
    if not lo_y < hi_y:
        return None
    if br.form.increasing:
        a, b = _branch_inverse(br, lo_y), _branch_inverse(br, hi_y)
    else:
        a, b = _branch_inverse(br, hi_y), _branch_inverse(br, lo_y)
    a, b = max(a, br.lo), min(b, br.hi)
    return (a, b) if a < b else None


def _pulled_oracle(sym, u, v):
    """The nonempty preimages (a, b) of [u, v), branch by branch."""
    return [got for br in sym.branches if (got := preimage_interval_oracle(br, u, v))]


def preimage_oracle(sym, E):
    """phi^{-1}(E), interval by interval of E."""
    pieces = [got for u, v in E.intervals for got in _pulled_oracle(sym, u, v)]
    return IntervalSet(sym.space, _normalize_intervals(pieces, allow_overlap=True))


def pull_back_oracle(sym, f):
    """f o phi from the preimage of each nonzero piece of f."""
    pieces = [(a, b, v) for u, w, v in f.pieces() if v != 0 for a, b in _pulled_oracle(sym, u, w)]
    return _fn_from_pieces(sym.space, pieces)


def _affine_image_oracle(alpha, beta, lo, hi):
    """The ends (low, high) of the image of [lo, hi) under t -> alpha t + beta."""
    a, b = (alpha * t + beta if is_finite(t) else t if alpha > 0 else -t for t in (lo, hi))
    return (a, b) if alpha > 0 else (b, a)


def transfer_once_oracle(sym, rho):
    """rho'(y) = sum_b rho(inv_b(y)) / |alpha_b| over an all-affine symbol,
    each piece of rho clipped to each branch's domain and moved on its own."""
    parts = []
    for br in sym.branches:
        alpha, beta = br.form.coefficients
        w = 1 / abs(alpha)
        pieces = []
        for a, b, v in rho.pieces():
            lo, hi = max(a, br.lo), min(b, br.hi)
            if lo < hi and v != 0:
                pieces.append((*_affine_image_oracle(alpha, beta, lo, hi), w * v))
        if pieces:
            parts.append(_fn_from_pieces(sym.space, pieces))
    if not parts:
        return _fn_from_pieces(sym.space, [])
    return linear_combine([1] * len(parts), parts)


def dilate_oracle(f, t):
    """(D_t f)(s) = f(t s) on the half-line: each cut divided by t, and a
    piece that rounds to width 0 dropped."""
    bounds = (Fraction(0), *(c / t for c in f.cuts), INF)
    pieces = [(a, b, v) for a, b, v in zip(bounds, bounds[1:], f.vals) if a < b]
    return _fn_from_pieces(f.space, pieces)
