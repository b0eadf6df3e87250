"""Rearrangement-invariant norms, fundamental functions, and xi-seminorms.

Everything is evaluated through the rearrangement, so rearrangement
invariance is structural rather than asserted.  The catalog:

* ``Lp`` (0 < p <= inf) — piecewise power integral of f*;
* ``Lorentz(p, q)`` — ( integral of (t^{1/p} f*(t))^q dt/t )^{1/q}, the
  convention pinned for this package;
* ``WeakLp`` — sup t^{1/p} f*(t);
* ``MarcWeak(Phi)`` — sup Phi(t) f*(t), the largest quasinormed space with
  fundamental function Phi;
* ``MarcStrong(Phi)`` — sup Phi(t) f**(t) with f**(t) = (1/t) int_0^t f*.

Quasiconcave profiles come from a small closed catalog (powers, the
logarithmic clip 1/(1 - log t), piecewise-linear approximations), which is
what lets the Marcinkiewicz suprema be located analytically: on each piece of
f* crossed with each smooth segment of Phi the objective is quasi-convex, so
the supremum sits on the union grid of cut points plus the limits at 0 and
infinity.  No sampling is involved.

Every norm reads f* on the ints of its view (``stepfn.View``) and forms none
of f*'s Fractions: a power of a cut or a value is ``num.ratio_pow`` of an int
ratio, a float term is taken in doubles and an exact one as ints; past a
float or a budget the same loop reads f*'s own cuts and values.

Each kind answers for itself: a norm spec evaluates itself on f* (``of``),
and a profile gives its value (``at``), its limits at infinity (``at_inf``
and ``final_slope``, the limit of Phi(t)/t), its ``breakpoints`` and its
certificate (``check``); both carry their report ``label``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .num import _POW_BITS, INF, Real, as_real, fmt_real, is_finite, log_real, ratio_pow, rational_pow, to_float, unscaled
from .rearrange import _hardy_sweep, is_rearranged, rearrangement
from .space import AtomicSet, IntervalSet, MeasureSpace, empty_set
from .stepfn import MeasFn, StepFn, View, _integrate_abs_product, _union, _views, indicator


def _pow(x, scale: int, e: Real) -> Real:
    """(x/scale) ** e: x an int of an exact view, by ``ratio_pow``, or a
    value itself at scale 1."""
    return ratio_pow(x, scale, e) if type(x) is int else rational_pow(x, e)


# ---------------------------------------------------------------------------
# Quasiconcave profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Power:
    """Phi(t) = t^alpha with 0 < alpha <= 1."""

    alpha: Real

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_real(self.alpha))
        if not (0 < self.alpha <= 1):
            raise ValueError("alpha must lie in (0, 1]")

    at_inf = INF
    breakpoints = ()

    @property
    def final_slope(self) -> Real:
        return Fraction(1) if self.alpha == 1 else Fraction(0)

    @property
    def label(self) -> str:
        return f"t^{fmt_real(self.alpha)}"

    def at(self, t, d: int = 1) -> Real:
        return _pow(t, d, self.alpha)

    def check(self) -> tuple[bool, str]:
        return True, (
            f"t^alpha with alpha={self.alpha} in (0,1]: nondecreasing, and "
            "Phi(t)/t = t^(alpha-1) is nonincreasing"
        )


@dataclass(frozen=True)
class LogClip:
    """Phi(0) = 0, Phi(t) = 1/(1 - log t) on (0, 1), Phi(t) = 1 on [1, inf)."""

    at_inf = Fraction(1)
    final_slope = Fraction(0)
    breakpoints = (Fraction(1),)
    label = "logclip"

    def at(self, t, d: int = 1) -> Real:
        if t >= d:
            return Fraction(1)
        return 1.0 / (1.0 - log_real(t, d))

    def check(self) -> tuple[bool, str]:
        return True, (
            "1/(1-log t) increases to 1 on (0,1] and stays 1 after; "
            "Phi(t)/t is continuous and nonincreasing on both segments"
        )


@dataclass(frozen=True)
class StepApprox:
    """Piecewise-linear profile through (0,0) and the given knots.

    Beyond the last knot the graph continues with ``final_slope``.
    """

    knots: tuple[tuple[Real, Real], ...]
    final_slope: Real

    def __post_init__(self):
        knots = tuple((as_real(t), as_real(v)) for t, v in self.knots)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "final_slope", as_real(self.final_slope))
        if not knots:
            raise ValueError("need at least one knot")
        if not all(is_finite(t) and is_finite(v) for t, v in knots) or not is_finite(self.final_slope):
            raise ValueError("knots and final_slope must be finite")
        prev = Fraction(0)
        for t, _ in knots:
            if not t > prev:
                raise ValueError("knot abscissae must be strictly increasing and positive")
            prev = t

    @property
    def at_inf(self) -> Real:
        return INF if self.final_slope > 0 else self.knots[-1][1]

    @property
    def breakpoints(self) -> tuple[Real, ...]:
        return tuple(t for t, _ in self.knots)

    @property
    def label(self) -> str:
        return f"steps{len(self.knots)}"

    def at(self, t, d: int = 1) -> Real:
        t = unscaled(t, d)
        prev_t, prev_v = Fraction(0), Fraction(0)
        for kt, kv in self.knots:
            if t <= kt:
                return prev_v + (kv - prev_v) * (t - prev_t) / (kt - prev_t)
            prev_t, prev_v = kt, kv
        return prev_v + self.final_slope * (t - prev_t)

    def check(self) -> tuple[bool, str]:
        """Exact on the grid: a linear segment from (a, Phi(a)) keeps
        Phi(t)/t nonincreasing iff its slope is at most Phi(a)/a."""
        prev_t, prev_v = Fraction(0), Fraction(0)
        for t, v in self.knots:
            if v < 0:
                return False, f"negative value {v} at knot t={t}"
            slope = (v - prev_v) / (t - prev_t)
            if slope < 0:
                return False, f"decreasing segment into knot t={t}"
            if prev_t > 0 and slope > prev_v / prev_t:
                return False, (
                    f"Phi(t)/t increases on the segment from t={prev_t}: "
                    f"slope {slope} exceeds Phi({prev_t})/{prev_t} = {prev_v / prev_t}"
                )
            prev_t, prev_v = t, v
        if self.final_slope < 0:
            return False, "decreasing final ray"
        if self.final_slope > prev_v / prev_t:
            return False, "Phi(t)/t increases on the final ray"
        return True, "grid check passed: nondecreasing and Phi(t)/t nonincreasing"


QuasiconcaveFn = Union[Power, LogClip, StepApprox]


def phi_at(phi: QuasiconcaveFn, t) -> Real:
    """Phi(t), with t = inf giving the limit value."""
    if t == INF:
        return phi.at_inf
    t = as_real(t)
    if t < 0:
        raise ValueError("profiles are defined on [0, inf)")
    if t == 0:
        return Fraction(0)
    return phi.at(t)


def phi_breakpoints(phi: QuasiconcaveFn) -> tuple[Real, ...]:
    """Points where the profile changes analytic form."""
    return phi.breakpoints


def quasiconcave_check(phi: QuasiconcaveFn) -> tuple[bool, str]:
    """Verify Phi nondecreasing with Phi(t)/t nonincreasing: an analytic
    certificate for Power and LogClip, an exact grid check for StepApprox."""
    return phi.check()


# ---------------------------------------------------------------------------
# Norm specifications
# ---------------------------------------------------------------------------


def _whole(e: Real, bits: int) -> int:
    """e as an int if whole, with e-th powers of ``bits``-bit Fractions exact; else 0."""
    if isinstance(e, Fraction) and e.denominator == 1 and e.numerator * bits <= _POW_BITS:
        return e.numerator
    return 0


@dataclass(frozen=True)
class Lp:
    space: MeasureSpace
    p: Real  # in (0, inf]

    def __post_init__(self):
        p = as_real(self.p)
        object.__setattr__(self, "p", p)
        if not p > 0:
            raise ValueError("p must be positive (inf allowed)")

    @property
    def label(self) -> str:
        return f"L{fmt_real(self.p)}"

    def of(self, r: StepFn) -> Real:
        """(sum of v^p (b - a) over the pieces [a, b) of r = f*)^(1/p) on the
        ints of r's view: over D^p C for a whole p, else by ``ratio_pow``."""
        p, V = self.p, r._view
        if p == INF:
            return unscaled(V.vals[0], V.D)
        n = _whole(p, V.vals[0].bit_length() + V.D.bit_length()) if V.exact else 0
        total: Real = 0
        for a, b, v in zip(V.bounds, V.bounds[1:], V.vals):
            if v == 0:
                continue
            if b == INF:
                return INF
            vp = v**n if n else _pow(v, V.D, p)  # over D^n, or the power itself
            total += vp * (b - a) if n else vp * ((b - a) / V.C) if type(vp) is float else vp * unscaled(b - a, V.C)
        if total != total:  # inf * 0.0: a float power met a width below the double range
            raise ValueError("a term of the Lp norm is out of the double range")
        total = unscaled(total, V.D**n * V.C if n else 1)
        return total if p == 1 else rational_pow(total, 1 / p)


@dataclass(frozen=True)
class Lorentz:
    space: MeasureSpace
    p: Real
    q: Real

    def __post_init__(self):
        object.__setattr__(self, "p", as_real(self.p))
        object.__setattr__(self, "q", as_real(self.q))
        if not (self.p > 0 and self.q > 0 and is_finite(self.p) and is_finite(self.q)):
            raise ValueError("Lorentz exponents must be finite and positive")

    @property
    def label(self) -> str:
        return f"Lorentz({fmt_real(self.p)},{fmt_real(self.q)})"

    def of(self, r: StepFn) -> Real:
        """(sum of v^q (b^rho - a^rho) / rho over the pieces [a, b) of r =
        f*)^(1/q), rho = q/p, on the ints of r's view by ``ratio_pow``, each
        cut raised to rho once; a term with a float in doubles, as they mix."""
        q, rho, V = self.q, self.q / self.p, r._view
        n = _whole(q, V.vals[0].bit_length() + V.D.bit_length()) if V.exact else 0
        total: Real = Fraction(0)
        low: Real = Fraction(0)  # 0^rho, at the left end of the first piece
        for b, v in zip(V.bounds[1:], V.vals):
            if v == 0:  # r is nonincreasing: 0 from here on
                break
            if b == INF:
                return INF
            high, vq = _pow(b, V.C, rho), v**n if n else _pow(v, V.D, q)
            if float in (type(high), type(low)):
                total += float(vq / V.D**n) * (float(high) - float(low)) / float(rho)
            else:
                total += unscaled(vq, V.D**n) * (high - low) / rho
            low = high
        if total != total or total == INF:
            # every cut is finite, so a power past the double range met a
            # difference of powers: inf * 0.0 is NaN, and inf * a finite
            # difference is an inf that is not the norm
            raise ValueError("the Lorentz norm is out of the double range")
        return rational_pow(total, 1 / self.q)


@dataclass(frozen=True)
class WeakLp:
    space: MeasureSpace
    p: Real

    def __post_init__(self):
        object.__setattr__(self, "p", as_real(self.p))
        if not self.p > 0:
            raise ValueError("p must be positive")

    @property
    def label(self) -> str:
        return f"weak-L{fmt_real(self.p)}"

    def of(self, r: StepFn) -> Real:
        """The max of v b^(1/p) over the pieces [a, b) of r = f*, on the
        ints of r's view: v b^k over D C^k for a whole 1/p = k, else by ``ratio_pow``."""
        inv_p, V = 1 / self.p, r._view
        k = _whole(inv_p, V.bounds[-2].bit_length() + V.C.bit_length()) if V.exact else 0
        if k:
            best = max((v * b**k for b, v in zip(V.bounds[1:], V.vals) if v), default=0)
            return INF if best == INF else Fraction(best, V.D * V.C**k)
        return _first_max(V, lambda b: INF if b == INF else _pow(b, V.C, inv_p))


def _first_max(V: View, factor) -> Real:
    """The first largest, as ``max`` keeps it, of Fraction(0) and v/D
    factor(b) over the pieces [a, b) of the view V with v > 0 (INF once one
    is): a float term in doubles, as a Fraction times a float rounds, an
    exact one as an int pair."""
    best, n, d, D = None, 0, 1, V.D  # the first largest term, n/d exactly; None while exact
    for b, v in zip(V.bounds[1:], V.vals):
        if v == 0:
            continue
        y = factor(b)
        if y == INF:
            return INF
        if type(y) is float or type(v) is float:
            term = float(v / D) * float(y)
            if term == INF:
                return INF
            tn, td = term.as_integer_ratio()
        else:
            term, tn, td = None, v * y.numerator, D * y.denominator
        if tn * d > n * td:
            best, n, d = term, tn, td
    return Fraction(n, d) if best is None else best


def _check_profile(spec) -> None:
    """The one construction check of MarcWeak and MarcStrong."""
    ok, cert = spec.phi.check()
    if not ok:
        raise ValueError(f"profile is not quasiconcave: {cert}")


@dataclass(frozen=True)
class MarcWeak:
    space: MeasureSpace
    phi: QuasiconcaveFn

    __post_init__ = _check_profile

    @property
    def label(self) -> str:
        return f"m[{self.phi.label}]"

    def of(self, r: StepFn) -> Real:
        """The max of v Phi(b) over the pieces [a, b) of r's view (b > 0): sup
        Phi(t) v on [a, b), as the catalog profiles are continuous and nondecreasing."""
        phi, V = self.phi, r._view
        return _first_max(V, lambda b: phi.at_inf if b == INF else phi.at(b, V.C))


@dataclass(frozen=True)
class MarcStrong:
    space: MeasureSpace
    phi: QuasiconcaveFn

    __post_init__ = _check_profile

    @property
    def label(self) -> str:
        return f"M[{self.phi.label}]"

    def of(self, r: StepFn) -> Real:
        """sup Phi(t) H(t)/t with H(t) = int_0^t r.

        On each piece of r crossed with each analytic segment of Phi the
        objective t -> Phi(t)(c + v t)/t (c, v >= 0) has a derivative with
        at most one sign change (minus to plus), so it is quasi-convex and
        the supremum over the crossing is attained at its endpoints; hence
        the grid of candidates below is exhaustive, together with the limits
        at 0 (always 0) and at infinity: Phi(inf) v for a tail value v > 0,
        else lim Phi(t)/t times H(inf).  One Hardy sweep over the sorted grid
        and t = inf gives every H, as ints over r's view: O(n) for n pieces.
        The grid merges the view's cuts with the scaled breakpoints.  A float
        term is taken by int true divisions, which round as float() of the
        Fractions does; exact terms are compared as int pairs.  The result is
        the first term at the max in the order of the set of candidates (of
        Fractions, f*'s cuts among them), formed only on a float/Fraction tie.
        """
        phi = self.phi
        (V,), ts = _views([r], [*phi.breakpoints, INF])
        if all(v == 0 for v in V.vals):
            return Fraction(0)
        grid = _union(V.cuts, ts[:-1])  # over r's view, with the breakpoints
        *hs, h_inf = _hardy_sweep(V, [*grid, INF])
        C, D = V.C, V.D
        v_tail = V.vals[-1]
        if v_tail > 0:  # INF, not INF * 0.0, for a tail whose float underflows
            start: Real = INF if phi.at_inf == INF else phi.at_inf * unscaled(v_tail, D)
        elif phi.final_slope > 0:
            start = phi.final_slope * unscaled(h_inf, C * D)
        else:
            start = Fraction(0)
        if start == INF:
            return INF

        def terms():
            """Phi(t) H(t)/t over the grid: a float, or exact as (n, d)."""
            for T, H in zip(grid, hs):
                phi_t = phi.at(T, C)  # T > 0
                if float not in (type(phi_t), type(H), type(T)):
                    yield phi_t.numerator * H, phi_t.denominator * T * D
                    continue
                try:
                    yield phi_t * (H / (C * D)) / (T / C)
                except (OverflowError, ZeroDivisionError):
                    # a float Phi(t) met a t or H(t) off the double range; the
                    # mean H(t)/t of r over [0, t) is on it
                    yield phi_t * to_float(Fraction(H) / (Fraction(T) * D))

        top, n, d = -1.0, 0, 1  # the largest float term, and the largest exact one n/d
        for term in terms():
            if type(term) is float:
                top = max(top, term)
            elif term[0] * d > n * term[1]:
                n, d = term
        exact = Fraction(n, d)
        if top == exact > start:  # a float and a Fraction tie: the set order decides
            by_t = dict(zip((unscaled(T, C) for T in grid), terms()))
            return max(start, *(x if type(x) is float else Fraction(*x)
                                for x in map(by_t.get, set(r.cuts) | set(phi.breakpoints))))
        return max(start, top, exact)


NormSpec = Union[Lp, Lorentz, WeakLp, MarcWeak, MarcStrong]


@dataclass(frozen=True)
class XiWeight:
    """An explicit nonincreasing weight w; the seminorm is int_0^inf w f*."""

    weight: StepFn

    def __post_init__(self):
        if not is_rearranged(self.weight):
            raise ValueError("weight must be nonnegative nonincreasing on [0, inf)")
        if all(v == 0 for v in self.weight._view.vals):
            raise ValueError("weight must not vanish identically")

    label = "xi"


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def norm_eval(spec: NormSpec, f: MeasFn) -> Real:
    """Exact norm value; +inf signals divergence.  A float term that meets a
    rational past the double range is a ValueError."""
    if f.space != spec.space:
        raise ValueError("function does not live on the spec's space")
    r = rearrangement(f)
    try:
        return spec.of(r)
    except OverflowError:
        raise ValueError(f"the {spec.label} norm is out of the double range") from None


def fundamental_function(spec: NormSpec, t) -> Real:
    """Norm of an indicator of measure t; errors if no such set exists."""
    t = as_real(t)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return Fraction(0)
    sp = spec.space
    if t > sp.total_measure():
        raise ValueError(f"t={t} exceeds the space's total measure")
    if t == INF:  # the whole space: over atoms, its indicator needs the tail of N
        E = empty_set(sp).complement()
    elif sp.is_atomic:
        k = t / sp.atom_mass
        if not (isinstance(k, Fraction) and k.denominator == 1):
            raise ValueError(f"t={t} is not a multiple of the atom mass")
        E = AtomicSet(sp, frozenset(range(int(k))))
    else:
        E = IntervalSet(sp, ((Fraction(0), t),))
    return norm_eval(spec, indicator(sp, E))


def xi_seminorm(w: XiWeight, f: MeasFn) -> Real:
    """int_0^inf w(t) f*(t) dt, exactly (+inf when both tails persist)."""
    return _integrate_abs_product(w.weight, rearrangement(f))


def logclip_norm_of_log_profile(c0, c1) -> Real:
    """MarcWeak(LogClip) norm of a function on [0,1) whose rearrangement is
    t -> c0 + c1 (1 - log t).

    With u = 1 - log t ranging over [1, inf), the objective is
    (c0 + c1 u)/u = c1 + c0/u, which is monotone in u; hence the supremum is
    c1 + max(c0, 0).  Requires c1 >= 0 and c0 + c1 >= 0 so the profile is
    nonnegative.  This closed form realizes the textbook values: the profile
    (1 - log t) itself has norm 1, and its image under t -> t^n, namely
    n (1 - log t) - (n - 1), has norm n.
    """
    c0, c1 = as_real(c0), as_real(c1)
    if c1 < 0 or c0 + c1 < 0:
        raise ValueError("profile must be nonnegative on (0, 1]")
    return c1 + max(c0, Fraction(0))
