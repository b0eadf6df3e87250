"""Independent reference results for the benchmark's correctness checks.

Everything here is written against the data fields of rispace's value types
(``cuts``, ``vals``, ``entries``, ``tail``, ``table``, ``shift``) and never
calls the code under test.  Rational quantities are computed with
``fractions.Fraction`` and compared with ``==``; a result that is exact must
also still be a ``Fraction``.  Quantities that are irrational in general
(roots, logarithms) are computed in floating point and compared with the
relative tolerance ``REL_TOL``.

Each ``check_*`` function returns ``None`` when the result is right and a
one-line description of the mismatch otherwise.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

INF = math.inf
REL_TOL = 1e-9

_DOMAINS = {"lebesgue_halfline": (Fraction(0), INF), "lebesgue_line": (-INF, INF)}


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------


def exact(got, want) -> str | None:
    """The result must be a Fraction equal to the reference."""
    if not isinstance(got, Fraction):
        return f"expected the exact value {want}, got {type(got).__name__} {got!r}"
    if got != want:
        return f"expected {want}, got {got}"
    return None


def close(got, want: float) -> str | None:
    """The result must lie within REL_TOL of the float reference."""
    if isinstance(got, bool) or not isinstance(got, (Fraction, float)):
        return f"expected a number near {want!r}, got {got!r}"
    g = float(got)
    if want == INF or g == INF:
        return None if g == want else f"expected {want!r}, got {g!r}"
    if abs(g - want) > REL_TOL * max(abs(want), abs(g)):
        return f"expected {want!r} within {REL_TOL:g}, got {g!r}"
    return None


def _log(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


# ---------------------------------------------------------------------------
# Step functions as piece lists
# ---------------------------------------------------------------------------


def domain(space) -> tuple:
    if space.kind == "lebesgue_interval":
        return (Fraction(0), space.length)
    return _DOMAINS[space.kind]


def pieces(f) -> list[tuple]:
    """[(a, b, v)] over the whole domain of a step function."""
    left, right = domain(f.space)
    bounds = [left, *f.cuts, right]
    return list(zip(bounds, bounds[1:], f.vals))


def value_at(f, x):
    return f.vals[bisect_right(f.cuts, x)]


def rearranged(f) -> tuple[list, list]:
    """(cuts, vals) of the non-increasing rearrangement on the half-line.

    Each nonzero level |v| gets its total measure as a width; the levels are
    laid out from the largest down, and a level of infinite measure fills the
    rest of the half-line.
    """
    width: dict = {}
    if hasattr(f, "entries"):
        for _, v in f.entries:
            if v:
                width[abs(v)] = width.get(abs(v), 0) + f.space.atom_mass
        if f.tail:
            width[abs(f.tail)] = INF
    else:
        for a, b, v in pieces(f):
            if v:
                w = INF if INF in (b, -a) else b - a
                width[abs(v)] = width.get(abs(v), 0) + w
    cuts, vals, pos = [], [], Fraction(0)
    for v in sorted(width, reverse=True):
        vals.append(v)
        if width[v] == INF:
            return cuts, vals
        pos += width[v]
        cuts.append(pos)
    vals.append(Fraction(0))
    return cuts, vals


def _half_pieces(cuts, vals) -> list[tuple]:
    bounds = [Fraction(0), *cuts, INF]
    return list(zip(bounds, bounds[1:], vals))


def overlay(p, q):
    """Walk two piece lists over the same domain: yield (a, b, v, w)."""
    i = j = 0
    a = p[0][0]
    while i < len(p) and j < len(q):
        b = min(p[i][1], q[j][1])
        yield a, b, p[i][2], q[j][2]
        if p[i][1] == b:
            i += 1
        if q[j][1] == b:
            j += 1
        a = b


def integral_of_product(p, q):
    total = Fraction(0)
    for a, b, v, w in overlay(p, q):
        if v * w:
            if INF in (b, -a):
                return INF
            total += abs(v * w) * (b - a)
    return total


def hardy_at(cuts, vals, points):
    """H(t) = integral of f* over [0, t] at sorted points, by one sweep."""
    out, i, x, acc = [], 0, Fraction(0), Fraction(0)
    for t in points:
        while i < len(cuts) and cuts[i] <= t:
            acc += vals[i] * (cuts[i] - x)
            x = cuts[i]
            i += 1
        out.append(acc + vals[i] * (t - x))
    return out


def canonical(cuts, vals) -> tuple[list, list]:
    """Merge adjacent pieces that share a value."""
    out_c, out_v = [], [vals[0]]
    for c, v in zip(cuts, vals[1:]):
        if v != out_v[-1]:
            out_c.append(c)
            out_v.append(v)
    return out_c, out_v


def _same_step(got, cuts, vals) -> str | None:
    if list(got.cuts) != list(cuts) or list(got.vals) != list(vals):
        return f"step function differs from the reference ({len(got.vals)} vs {len(vals)} pieces)"
    if not all(isinstance(x, Fraction) for x in (*got.cuts, *got.vals)):
        return "an exact step function came back with a float in it"
    return None


# ---------------------------------------------------------------------------
# Rearrangement layer
# ---------------------------------------------------------------------------


def check_rearrangement(got, f) -> str | None:
    cuts, vals = rearranged(f)
    err = _same_step(got, cuts, vals)
    if err is None and vals[-1] == 0:
        # the rearrangement preserves the integral of |f|
        mass = integral_of_product(pieces(f), [(domain(f.space)[0], INF, Fraction(1))])
        if mass != integral_of_product(_half_pieces(cuts, vals), [(0, INF, Fraction(1))]):
            err = "rearrangement does not preserve the integral"
    return err


def hlp_leq(f, g) -> bool:
    fc, fv = rearranged(f)
    gc, gv = rearranged(g)
    if fv[-1] > gv[-1]:
        return False
    pts = sorted(set(fc) | set(gc))
    return all(a <= b for a, b in zip(hardy_at(fc, fv, pts), hardy_at(gc, gv, pts)))


def check_bool(got, want: bool) -> str | None:
    return None if got is want else f"expected {want}, got {got!r}"


def hl_pair(f, g) -> tuple:
    lhs = integral_of_product(pieces(f), pieces(g))
    rhs = integral_of_product(_half_pieces(*rearranged(f)), _half_pieces(*rearranged(g)))
    return lhs, rhs


def check_pair(got, want) -> str | None:
    if not isinstance(got, tuple) or len(got) != 2:
        return f"expected a pair, got {got!r}"
    return exact(got[0], want[0]) or exact(got[1], want[1])


def xi(weight, f):
    return integral_of_product(pieces(weight), _half_pieces(*rearranged(f)))


def combined(op, fns) -> tuple[list, list]:
    """Canonical (cuts, vals) of op(values...) on the union partition."""
    cuts = sorted(set().union(*(f.cuts for f in fns)))
    left, _ = domain(fns[0].space)
    vals = [op([value_at(f, x) for f in fns]) for x in [left, *cuts]]
    return canonical(cuts, vals)


def check_step(got, want) -> str | None:
    return _same_step(got, *want)


# ---------------------------------------------------------------------------
# Norms, evaluated on the reference rearrangement
# ---------------------------------------------------------------------------


def _phi_logclip(t) -> float:
    return 1.0 if t >= 1 else 1.0 / (1.0 - _log(t))


def norm(kind: str, f):
    """Reference value of a norm of f; Fraction when exact, else float."""
    cuts, vals = rearranged(f)
    if kind == "lpinf":
        return vals[0]
    p = [(a, b, v) for a, b, v in _half_pieces(cuts, vals) if v]
    if any(b == INF for _, b, _ in p):
        return INF
    if kind == "lp1":
        return sum((v * (b - a) for a, b, v in p), Fraction(0))
    if kind == "lp2":
        return math.sqrt(sum((v * v * (b - a) for a, b, v in p), Fraction(0)))
    if kind == "lorentz21":
        # (int (t^(1/2) f*(t))^1 dt/t) = sum 2 v (sqrt(b) - sqrt(a))
        return sum(2 * float(v) * float(b - a) / (math.sqrt(b) + math.sqrt(a)) for a, b, v in p)
    if kind == "weak1":
        return max((v * b for _, b, v in p), default=Fraction(0))
    if kind == "marcweak_logclip":
        return max((float(v) * _phi_logclip(b) for _, b, v in p), default=0.0)
    points = sorted(set(cuts) | {Fraction(1)})
    h = dict(zip(points, hardy_at(cuts, vals, points)))
    if kind == "marcstrong_sqrt":
        # sup t^(1/2) H(t) / t over the cuts: compare H(t)^2 / t exactly
        return math.sqrt(max((h[t] * h[t] / t for t in cuts), default=Fraction(0)))
    if kind == "marcstrong_logclip":
        return max((_phi_logclip(t) * float(h[t] / t) for t in points), default=0.0)
    raise ValueError(f"no reference for norm {kind!r}")


EXACT_NORMS = ("lp1", "lpinf", "weak1")


def check_norm(kind: str):
    return exact if kind in EXACT_NORMS else close


# ---------------------------------------------------------------------------
# Atomic symbols: brute-force orbits
# ---------------------------------------------------------------------------


def _atomic_map(sym):
    table = dict(sym.table)
    return lambda j: table.get(j, j + sym.shift) if sym.shift is not None else table[j]


def _window(sym, f, steps: int) -> range:
    """Indices whose orbit of the given length can meet f's entries or the table."""
    if sym.space.kind == "atomic_finite":
        return range(sym.space.count)
    idx = [j for j, _ in f.entries] + [j for pair in sym.table for j in pair]
    reach = steps * abs(sym.shift) + 2
    lo = min(idx, default=0) - reach
    if sym.space.kind == "atomic_n":
        lo = max(lo, 0)
    return range(lo, max(idx, default=0) + reach)


def _seq_values(sym, f, steps: int, value) -> dict:
    phi = _atomic_map(sym)
    fv = dict(f.entries)
    out = {}
    for j in _window(sym, f, steps):
        orbit, x = [], j
        for _ in range(steps):
            orbit.append(fv.get(x, f.tail))
            x = phi(x)
        out[j] = value(orbit)
    return out


def orbit_apply(sym, f) -> dict:
    return _seq_values(sym, f, 2, lambda o: o[1])


def orbit_power_apply(sym, f, k: int) -> dict:
    """f composed with the k-th iterate of the symbol: f(phi^k(j))."""
    return _seq_values(sym, f, k + 1, lambda o: o[k])


def orbit_cesaro(sym, f, n: int) -> dict:
    return _seq_values(sym, f, n, lambda o: sum(o, Fraction(0)) / n)


def orbit_maximal(sym, f, k: int) -> dict:
    def best(orbit):
        run, top = Fraction(0), None
        for m, v in enumerate(orbit, 1):
            run += abs(v)
            top = run / m if top is None else max(top, run / m)
        return top

    return _seq_values(sym, f, k, best)


def check_seq(got, want: dict, tail=Fraction(0)) -> str | None:
    """got must equal the window values, and the tail everywhere else."""
    if got.tail != tail:
        return f"tail: expected {tail}, got {got.tail!r}"
    have = dict(got.entries)
    for j, v in want.items():
        g = have.pop(j, got.tail)
        if g != v or not isinstance(g, Fraction):
            return f"entry {j}: expected {v}, got {g!r}"
    if have:
        return f"{len(have)} unexpected entries outside the orbit window"
    return None


PERMUTATION_ANALYSIS = {
    "measure_bound": Fraction(1),
    "lower_bound": Fraction(1),
    "power_bound_sup": Fraction(1),
    "power_certified": True,
    "condition_I1": True,
    "condition_I3": True,
    "condition_I3_witness": Fraction(1),
    "nonsingular": True,
    "strictly_nonsingular": True,
    "dilation_B": Fraction(1),
}


def permutation_analysis(horizon: int) -> dict:
    """A permutation preserves counting measure, so every bound is 1."""
    return {**PERMUTATION_ANALYSIS, "power_bounds": [(n, Fraction(1)) for n in range(1, horizon + 1)]}


# ---------------------------------------------------------------------------
# Interval symbols of the catalog: forward maps and preimages
# ---------------------------------------------------------------------------


def forward(symbol: str, n: int):
    """The symbol's map t -> phi(t); exact on rationals except exp-recip."""
    if symbol == "power":
        return lambda t: t**n
    if symbol == "shifted_power":
        return lambda t: 1 + t**n if t < 1 else n * (t - 1) + 2
    return lambda t: 0.0 if t == 0 else math.exp(1.0 - 1.0 / float(t))


def _inverse_branches(symbol: str, n: int):
    """[(image_lo, image_hi, inverse)] for the increasing branches."""
    root = lambda y: float(y) ** (1.0 / n)
    if symbol == "power":
        return [(0, 1, root)]
    if symbol == "shifted_power":
        return [(1, 2, lambda y: root(y - 1)), (2, INF, lambda y: INF if y == INF else (y - 2) / n + 1)]
    return [(0, 1, lambda y: 0.0 if y == 0 else 1.0 / (1.0 - math.log(float(y))))]


def _preimage(branches, sets):
    out = []
    for u, v in sets:
        for lo, hi, inv in branches:
            a, b = max(u, lo), min(v, hi)
            if a < b:
                out.append((inv(a), inv(b)))
    return out


def _dyadic_family(right, depth: int = 12):
    """The catalog's test family: unit blocks plus dyadic shrinkings at 0 and 1."""
    raw = [(0, 1), (1, 2), (2, 4)]
    for j in range(depth + 1):
        h = Fraction(1, 2**j)
        raw += [(0, h), (h / 2, h), (1, 1 + h), (1 + h / 2, 1 + h)]
    out = []
    for a, b in raw:
        b = min(b, right)
        if a < b and (a, b) not in out:
            out.append((a, b))
    return out


def interval_analysis(symbol: str, n: int, horizon: int) -> dict:
    """measure_bound, lower_bound and the dyadic power bounds of a symbol.

    Each catalog branch here has an inverse derivative that blows up, so the
    measure bound is infinite.  The lower bound is 1 / ess inf of the
    preimage density: n for t^n, 4/e for exp-recip (its minimum sits at
    y = 1/e), and infinite for the shifted power, whose image misses [0, 1).
    """
    right = INF if symbol == "shifted_power" else 1
    family = _dyadic_family(right)
    branches = _inverse_branches(symbol, n)
    sets = [[e] for e in family]
    per_n, witness = [], INF
    for step in range(1, horizon + 1):
        sets = [_preimage(branches, s) for s in sets]
        best = 0.0
        for (a, b), s in zip(family, sets):
            ratio = sum(float(y) - float(x) for x, y in s) / float(b - a)
            best = max(best, ratio)
            witness = min(witness, ratio)
        per_n.append((step, best))
    lower = {"power": Fraction(n), "exp_recip": 4 / math.e, "shifted_power": INF}[symbol]
    return {
        "measure_bound": INF,
        "lower_bound": lower,
        "power_bounds": per_n,
        "power_bound_sup": max(a for _, a in per_n),
        "power_certified": False,
        "condition_I1": False,
        "condition_I3": witness > 0,
        "condition_I3_witness": witness,
        "nonsingular": True,
        "strictly_nonsingular": lower != INF,
        "dilation_B": Fraction(0),
    }


def analysis_fields(ana) -> dict:
    """The fields of a SymbolAnalysis in the layout of the references."""
    pb = ana.power_bounds
    return {
        "measure_bound": ana.measure_bound,
        "lower_bound": ana.lower_bound,
        "power_bounds": list(pb.per_n),
        "power_bound_sup": pb.sup,
        "power_certified": pb.certified,
        "condition_I1": ana.condition_I1,
        "condition_I3": ana.condition_I3,
        "condition_I3_witness": ana.condition_I3_witness,
        "nonsingular": ana.nonsingular,
        "strictly_nonsingular": ana.strictly_nonsingular,
        "dilation_B": ana.dilation_B,
    }


def _same_number(got, want) -> str | None:
    if isinstance(want, bool):
        return check_bool(got, want)
    if isinstance(want, Fraction):
        return exact(got, want)
    return close(got, want)


def check_analysis(got, want: dict) -> str | None:
    fields = analysis_fields(got)
    for key, w in want.items():
        g = fields[key]
        if key == "power_bounds":
            if [n for n, _ in g] != [n for n, _ in w]:
                return "power bounds cover the wrong iterates"
            errs = [_same_number(a, b) for (_, a), (_, b) in zip(g, w)]
            err = next((e for e in errs if e), None)
        else:
            err = _same_number(g, w)
        if err:
            return f"{key}: {err}"
    return None


def check_means(got, f, symbol: str, n: int, schedule) -> str | None:
    """Each mean C_m f must equal (1/m) sum_{i<m} f(phi^i(x)) at the midpoint
    of each of its pieces, with phi^i evaluated independently."""
    if tuple(m for m, _ in got.means) != tuple(schedule):
        return f"schedule {schedule} came back as {[m for m, _ in got.means]}"
    phi = forward(symbol, n)
    for m, mean in got.means:
        for a, b, v in pieces(mean):
            if b - a < 1e-9:
                continue  # too thin to place a float midpoint inside safely
            x = a + 1 if b == INF else (a + b) / 2
            total = Fraction(0)
            for _ in range(m):
                total += value_at(f, x)
                x = phi(x)
            if total / m != v:
                return f"C_{m} f at {float((a + b) / 2) if b != INF else a + 1}: expected {total / m}, got {v}"
    return None
