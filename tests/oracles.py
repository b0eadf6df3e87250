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

from rispace import (INF, AtomicSymbol, AtomSeq, IntervalSet, StepFn, halfline, integrate, interval_set,
                     linear_combine, pointwise_mul, to_float)
from rispace.num import as_real, is_finite, rational_pow
from rispace.space import _normalize_intervals
from rispace.stepfn import _fn_from_pieces, _merged_seq, _merged_step, _plain


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


def maximal_float_walk_oracle(sym, f, indices, K):
    """max_{n<=K} S_n/n at each j in indices, rounded as the float walk of
    an atomic symbol rounds it: j is stepped K times by image_of, and at
    every step when f's tail is nonzero, else at each entry met, |f| there
    is added to a running total that starts at Fraction(0) (an entry whose
    |value| equals |tail| counts as the tail).  Each mean is
    Fraction(1, i + 1) times the total after step i, and the first maximum
    is kept; with no step added, Fraction(0)."""
    tail, at = abs(f.tail), dict(f.entries)
    out = {}
    for j in indices:
        total, best, pos = Fraction(0), None, j
        for i in range(K):
            v = abs(at.get(pos, tail))
            if v == tail:
                v = tail
            if tail or v:
                total += v
                m = Fraction(1, i + 1) * total
                best = m if best is None or m > best else best
            pos = sym.image_of(pos)
        out[j] = Fraction(0) if best is None else best
    return out


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


# ---------------------------------------------------------------------------
# The norms' loops over f*'s own Fraction (or float) cuts and values: what
# each norm computed piece by piece before it read f*'s int view, every power
# by the scalar ``rational_pow`` and every mixed term by Python's Fraction and
# float arithmetic.  Each takes r = f* and raises as the norm did.
# ---------------------------------------------------------------------------


def lp_loop_oracle(p, r):
    """(sum of v^p (b - a))^(1/p) over the pieces of r; the first value for p = inf."""
    if p == INF:
        return r.vals[0]
    total = 0
    for a, b, v in r.pieces():
        if v == 0:
            continue
        if b == INF:
            return INF
        total += rational_pow(v, p) * (b - a)
    if total != total:
        raise ValueError("a term of the Lp norm is out of the double range")
    total = Fraction(total) if type(total) is int else total
    return total if p == 1 else rational_pow(total, 1 / p)


def lorentz_loop_oracle(p, q, r):
    """(sum of v^q (b^rho - a^rho) / rho)^(1/q), rho = q/p, over the pieces of r."""
    rho = q / p
    total = low = Fraction(0)
    for _, b, v in r.pieces():
        if v == 0:
            break
        if b == INF:
            return INF
        high = rational_pow(b, rho)
        total += rational_pow(v, q) * (high - low) / rho
        low = high
    if total != total or total == INF:
        raise ValueError("the Lorentz norm is out of the double range")
    return rational_pow(total, 1 / q)


def weak_lp_loop_oracle(p, r):
    """max(0, v b^(1/p) over the pieces [a, b) of r), the first at the max."""
    best = 0
    for _, b, v in r.pieces():
        if v == 0:
            continue
        if b == INF:
            return INF
        best = max(best, v * rational_pow(b, 1 / p))
    return Fraction(best) if type(best) is int else best


def marc_weak_loop_oracle(phi, r):
    """max(0, v Phi(b) over the pieces [a, b) of r), the first at the max."""
    best = Fraction(0)
    for _, b, v in r.pieces():
        if v == 0:
            continue
        pb = phi.at_inf if b == INF else phi.at(b)
        if pb == INF:
            return INF
        best = max(best, v * pb)
    return best


def marc_strong_loop_oracle(phi, r):
    """max(start, Phi(t) H(t)/t over the cuts of r and the breakpoints of
    Phi), the first at the max in the order of the set of those points,
    with H swept piece by piece (whole pieces, then the partial one) and
    start the limit at infinity."""
    if all(v == 0 for v in r.vals):
        return Fraction(0)
    points = set(r.cuts) | set(phi.breakpoints)
    hs, total, pieces = {}, 0, list(r.pieces())
    for t in sorted(points):
        while pieces and pieces[0][1] <= t:
            a, b, v = pieces.pop(0)
            total += v * (b - a)
        a, _, v = pieces[0]
        hs[t] = total if v == 0 or a == t else total + v * (t - a)
    for a, b, v in pieces[:-1]:  # on to H(inf), for a tail of 0
        total += v * (b - a)
    v_tail = r.vals[-1]
    if v_tail > 0:
        start = INF if phi.at_inf == INF else phi.at_inf * v_tail
    elif phi.final_slope > 0:
        start = phi.final_slope * total
    else:
        start = Fraction(0)
    if start == INF:
        return INF

    def term(t):
        phi_t, H = phi.at(t), hs[t]
        try:
            return phi_t * H / t
        except (OverflowError, ZeroDivisionError):
            return phi_t * to_float(Fraction(H) / Fraction(t))

    return max(start, *map(term, points))


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


def dyadic_family_oracle(sp):
    """The dyadic test family built for one call: the raw intervals at 0 and
    1 down to length 2^-12, each clipped to the domain by ``max`` and ``min``
    and kept once, through ``interval_set``."""
    left, right = sp.domain
    raw = [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))]
    for j in range(13):
        h = Fraction(1, 2**j)
        raw += [(Fraction(0), h), (h / 2, h), (1, 1 + h), (1 + h / 2, 1 + h)]
    out, seen = [], set()
    for a, b in raw:
        a2, b2 = max(a, left), min(b, right)
        if a2 < b2 and (a2, b2) not in seen:
            seen.add((a2, b2))
            out.append(interval_set(sp, [(a2, b2)]))
    return out


def sampled_bound_rows_oracle(sym, horizon):
    """(n, A_n, C_n), n = 1..horizon, of a non-affine interval symbol: the
    largest and least ratio mu(phi^{-n} E) / mu(E) over the dyadic family of
    ``dyadic_family_oracle``, both measures taken by ``measure()`` at every
    row, folded by ``max`` and ``min``."""
    family = dyadic_family_oracle(sym.space)
    sets = family
    for n in range(1, horizon + 1):
        sets = [sym.preimage(E) for E in sets]
        a, c = Fraction(0), INF
        for E0, En in zip(family, sets):
            r = En.measure() / E0.measure()
            a, c = max(a, r), min(c, r)
        yield n, a, c


def plain_combine_oracle(coeffs, fns):
    """sum c_i f_i over step functions, each read at scale 1 (``_plain``):
    one sweep of the jumps c_i (v' - v) as Fractions (floats where a value
    or coefficient is one), keyed by cut as they come, the first cut object
    of each value kept, the cuts in ``sorted``'s order."""
    coeffs = [as_real(c) for c in coeffs]
    views = [_plain(f) for f in fns]
    base = sum(c * V.vals[0] for c, V in zip(coeffs, views))
    jumps = {}
    for c, V in zip(coeffs, views):
        for cut, lo, hi in zip(V.cuts, V.vals, V.vals[1:]):
            jumps[cut] = jumps[cut] + c * (hi - lo) if cut in jumps else c * (hi - lo)
    cuts = sorted(jumps)
    vals = [base]
    for cut in cuts:
        vals.append(vals[-1] + jumps[cut])
    return _merged_step(fns[0].space, cuts, vals)


# ---------------------------------------------------------------------------
# The sequence operations as they ran on the values themselves before they
# read the int view (``SeqView``): Fraction arithmetic entry by entry, floats
# where a value or coefficient is one.
# ---------------------------------------------------------------------------


def plain_seq_combine_oracle(coeffs, fns):
    """sum c_i f_i over sequences: the summed tail, and at each listed index
    the deviations c_i v - c_i tail_i from it summed as they come, an entry
    dropped where its value equals the tail."""
    coeffs = [as_real(c) for c in coeffs]
    tail = sum(c * f.tail for c, f in zip(coeffs, fns))
    acc = {}
    for c, f in zip(coeffs, fns):
        base = c * f.tail
        for j, v in f.entries:
            acc[j] = acc.get(j, Fraction(0)) + c * v - base
    return _merged_seq(fns[0].space, ((j, tail + d) for j, d in acc.items()), tail)


def plain_seq_abs_oracle(f):
    """|f|: |v| at each entry and |tail|, an entry equal to |tail| dropped."""
    return _merged_seq(f.space, ((j, abs(v)) for j, v in f.entries), abs(f.tail))


def plain_seq_leq_oracle(f, g):
    """f <= g at the tails and at every index either lists."""
    fd, gd = dict(f.entries), dict(g.entries)
    return f.tail <= g.tail and all(fd.get(j, f.tail) <= gd.get(j, g.tail) for j in fd.keys() | gd.keys())


def plain_seq_abs_product_oracle(f, g):
    """The integral of |f g|: of the product sequence's |.|, cell by cell."""
    return integrate(plain_seq_abs_oracle(pointwise_mul(f, g)))


def plain_seq_star_oracle(f):
    """f*: the levels of |f| summed from its cells, laid out in decreasing
    order with their measures as widths, a level of measure INF the last."""
    levels = {}
    for m, v in f.cells():
        got = levels.get(abs(v), Fraction(0))
        levels[abs(v)] = INF if m == INF or got == INF else got + m
    cuts, vals, pos = [], [], Fraction(0)
    for v in sorted(levels, reverse=True):
        vals.append(v)
        if levels[v] == INF:
            break
        pos += levels[v]
        cuts.append(pos)
    else:
        vals.append(Fraction(0))
    return _merged_step(halfline(), cuts, vals)


def dilate_oracle(f, t):
    """(D_t f)(s) = f(t s) on the half-line: each cut divided by t (a float
    cut over an exact t whose float is 0 by the Fraction quotient's float,
    which may raise OverflowError), and a piece that rounds to width 0
    dropped."""
    tiny = isinstance(t, Fraction) and float(t) == 0
    bounds = (Fraction(0), *(float(Fraction(c) / t) if tiny and isinstance(c, float) else c / t for c in f.cuts), INF)
    pieces = [(a, b, v) for a, b, v in zip(bounds, bounds[1:], f.vals) if a < b]
    return _fn_from_pieces(f.space, pieces)


def plain_seq_map_oracle(op, f, g):
    """op(f, g) over sequences: op at the tails, and at every index either
    lists, in sorted order, op of the two values there, an entry dropped
    where its value equals the tail."""
    fd, gd = dict(f.entries), dict(g.entries)
    tail = op(f.tail, g.tail)
    pairs = ((j, fd.get(j, f.tail), gd.get(j, g.tail)) for j in sorted(fd.keys() | gd.keys()))
    return _merged_seq(f.space, ((j, op(x, y)) for j, x, y in pairs), tail)
