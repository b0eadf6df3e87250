import dataclasses
import math
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rispace import (
    INF,
    LogClip,
    Lorentz,
    Lp,
    MarcStrong,
    MarcWeak,
    Power,
    StepApprox,
    WeakLp,
    XiWeight,
    add,
    atomic_n,
    constant,
    fundamental_function,
    halfline,
    hlp_leq,
    interval,
    line,
    logclip_norm_of_log_profile,
    norm_eval,
    phi_at,
    quasiconcave_check,
    rearrangement,
    scale,
    seq,
    step,
    xi_seminorm,
)

from rispace.num import rational_pow
from rispace.properties import gen_step

from .oracles import (
    hardy_oracle,
    lorentz_loop_oracle,
    lorentz_quad_oracle,
    lp_grid_oracle,
    lp_loop_oracle,
    marc_strong_loop_oracle,
    marc_weak_loop_oracle,
    marc_weak_oracle,
    star_cuts_oracle,
    star_tail_oracle,
    weak_lp_loop_oracle,
    weak_lp_oracle,
)
from .test_rearrange import VIEW_CASES, agree, at_scale_1, deep_fn, has_float

SP = halfline()
F0 = step(SP, [1, 2], [1, 3, 0])  # the house example; |F0|* = 3,1


def test_lp_norms_of_the_house_example():
    assert norm_eval(Lp(SP, 1), F0) == 4
    assert norm_eval(Lp(SP, 2), F0) == pytest.approx(math.sqrt(10), rel=1e-15)
    assert norm_eval(Lp(SP, INF), F0) == 3
    assert norm_eval(Lp(SP, Fraction(1, 2)), F0) == (1 + math.sqrt(3)) ** 2


def test_lp_against_grid_oracle():
    for p in (1, 2, 3):
        got = norm_eval(Lp(SP, p), F0)
        assert float(got) == pytest.approx(lp_grid_oracle(F0, p), rel=1e-3)


def test_norms_of_huge_and_tiny_functions_stay_finite_and_positive():
    # ||10^200 chi[0,2)||_2 = sqrt(2) 10^200 is a finite double, though the
    # integral 2 10^400 is not
    big = step(SP, [2], [Fraction(10**200), 0])
    assert norm_eval(Lp(SP, 2), big) == pytest.approx(math.sqrt(2) * 1e200, rel=1e-15)
    # chi[0, 3 2^-1100) is nonzero, so are its norms
    tiny = step(SP, [Fraction(3, 2**1100)], [1, 0])
    assert norm_eval(Lorentz(SP, 2, 1), tiny) > 0
    assert norm_eval(Lp(SP, 2), tiny) == pytest.approx(math.sqrt(3) * 2.0**-550, rel=1e-15)
    # ||10^350 chi[0,2)||_{3/2} = 2^(2/3) 10^350 is past the double range
    assert norm_eval(Lp(SP, Fraction(3, 2)), step(SP, [2], [Fraction(10**350), 0])) == INF
    # float values whose integer power leaves the double range or is
    # subnormal: the power is taken on the float's exact value, and the root
    # comes back into range
    for p, v in ((2, 1e200), (3, 1e120), (2, 1e-200), (3, 1e-120), (2, 3e-162), (3, 1e-105)):
        got = norm_eval(Lp(SP, p), step(SP, [2], [v, 0]))
        assert got == pytest.approx(2.0 ** (1 / p) * v, rel=1e-15)


def test_lorentz_frozen_and_quadrature():
    chi4 = step(SP, [4], [1, 0])
    assert norm_eval(Lorentz(SP, 2, 1), chi4) == 4
    for p, q in ((2, 1), (Fraction(3, 2), 3), (2, 2)):
        got = norm_eval(Lorentz(SP, p, q), F0)
        want = lorentz_quad_oracle(F0, rearrangement(F0), p, q)
        assert float(got) == pytest.approx(want, rel=1e-8)


def test_lorentz_pq_equals_lp_when_p_is_q():
    # classical coincidence L^{p,p} = L^p
    for p in (1, 2, 3):
        assert float(norm_eval(Lorentz(SP, p, p), F0)) == pytest.approx(
            float(norm_eval(Lp(SP, p), F0)), rel=1e-12
        )


def test_weak_lp():
    chi4 = step(SP, [4], [1, 0])
    assert norm_eval(WeakLp(SP, 2), chi4) == 2
    # t^{1/2} f*(t) maximized at the tail of each plateau
    assert norm_eval(WeakLp(SP, 2), F0) == pytest.approx(3.0, rel=1e-15)
    assert norm_eval(WeakLp(SP, 2), constant(SP, 1)) == INF


def test_marcinkiewicz_weak_and_strong():
    phi = Power(Fraction(1, 2))
    chi4 = step(SP, [4], [1, 0])
    assert norm_eval(MarcWeak(SP, phi), chi4) == 2
    # f** of chi4 beyond t=4 is 4/t, and sqrt(t) * 4/t -> 0; sup stays 2
    assert norm_eval(MarcStrong(SP, phi), chi4) == 2
    # strong always dominates weak
    assert norm_eval(MarcStrong(SP, phi), F0) >= norm_eval(MarcWeak(SP, phi), F0)


def test_marcinkiewicz_logclip_frozen():
    spc = interval(1)
    f = step(spc, [Fraction(1, 2)], [2, 1])
    # sup over t of f*(t)/(1 - log t): plateau ends t=1/2 and t=1
    want = max(2 / (1 - math.log(0.5)), 1.0)
    assert float(norm_eval(MarcWeak(spc, LogClip()), f)) == pytest.approx(want, rel=1e-12)


def test_norm_eval_rejects_space_mismatch():
    with pytest.raises(ValueError):
        norm_eval(Lp(halfline(), 2), step(interval(1), [], [1]))


def test_spec_validation():
    with pytest.raises(ValueError):
        Lp(SP, 0)
    with pytest.raises(ValueError):
        Lorentz(SP, 2, INF)
    with pytest.raises(ValueError):
        MarcWeak(SP, StepApprox(((1, 1), (2, 4)), Fraction(0)))  # not quasiconcave


def test_phi_at_catalog():
    assert phi_at(Power(Fraction(1, 2)), 4) == 2
    assert phi_at(Power(1), Fraction(3, 7)) == Fraction(3, 7)
    assert phi_at(LogClip(), 1) == 1
    assert phi_at(LogClip(), 5) == 1
    assert float(phi_at(LogClip(), math.exp(-1))) == pytest.approx(0.5, rel=1e-12)
    stp = StepApprox(((1, 1), (3, 2)), Fraction(1, 4))
    assert phi_at(stp, 1) == 1
    assert phi_at(stp, 2) == Fraction(3, 2)  # linear between knots
    assert phi_at(stp, 5) == Fraction(5, 2)  # final slope
    assert phi_at(stp, 0) == 0
    assert phi_at(stp, INF) == INF
    # the limits at infinity; a final slope of 0 keeps the last knot value
    assert phi_at(Power(Fraction(1, 2)), INF) == INF
    assert phi_at(Power(1), INF) == INF
    assert phi_at(LogClip(), INF) == 1
    assert phi_at(StepApprox(((1, 1), (3, 2)), 0), INF) == 2


def test_quasiconcave_check():
    ok, _ = quasiconcave_check(Power(Fraction(2, 3)))
    assert ok
    ok, _ = quasiconcave_check(LogClip())
    assert ok
    ok, _ = quasiconcave_check(StepApprox(((1, 1), (3, 2)), Fraction(1, 4)))
    assert ok
    bad, why = quasiconcave_check(StepApprox(((1, 1), (2, 4)), Fraction(0)))
    assert not bad and why
    assert quasiconcave_check(StepApprox(((1, 2), (2, 1)), 0)) == (False, "decreasing segment into knot t=2")
    assert quasiconcave_check(StepApprox(((1, 1),), -1)) == (False, "decreasing final ray")
    assert quasiconcave_check(StepApprox(((1, 1),), 2)) == (False, "Phi(t)/t increases on the final ray")


def test_fundamental_functions():
    assert fundamental_function(Lp(SP, 2), 9) == 3
    assert fundamental_function(Lorentz(SP, 2, 1), 4) == 4
    assert fundamental_function(WeakLp(SP, 3), 8) == 2
    assert fundamental_function(MarcWeak(SP, Power(Fraction(1, 2))), 16) == 4
    assert fundamental_function(Lp(SP, 1), 0) == 0
    spn = atomic_n()
    assert fundamental_function(Lp(spn, 1), 3) == 3
    with pytest.raises(ValueError):
        fundamental_function(Lp(spn, 1), Fraction(1, 2))  # not a whole atom
    with pytest.raises(ValueError):
        fundamental_function(Lp(interval(1), 1), 2)  # exceeds total measure


def test_fundamental_function_of_lorentz_matches_closed_form():
    # ||chi_E||_{p,q} = (p/q)^{1/q} t^{1/p}
    p, q = 2, 2
    t = 9
    assert float(fundamental_function(Lorentz(SP, p, q), t)) == pytest.approx(
        (p / q) ** (1 / q) * t ** (1 / p), rel=1e-12
    )


def test_xi_seminorm():
    w = XiWeight(step(SP, [1], [1, 0]))
    assert xi_seminorm(w, F0) == 3
    w2 = XiWeight(constant(SP, 1))
    assert xi_seminorm(w2, F0) == 4  # same as the L1 norm
    with pytest.raises(ValueError):
        XiWeight(step(SP, [1], [0, 1]))  # weight must be nonincreasing
    with pytest.raises(ValueError):
        XiWeight(constant(SP, 0))  # and not identically zero


def test_logclip_norm_of_log_profile():
    assert logclip_norm_of_log_profile(0, 1) == 1
    assert logclip_norm_of_log_profile(-(3 - 1), 3) == 3
    assert logclip_norm_of_log_profile(Fraction(1, 2), 1) == Fraction(3, 2)
    with pytest.raises(ValueError):
        logclip_norm_of_log_profile(-2, 1)


@st.composite
def _nonneg_fn(draw):
    cuts = sorted(set(draw(st.lists(st.integers(1, 16), min_size=1, max_size=5))))
    vals = draw(st.lists(st.integers(0, 8), min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    vals[-1] = 0
    return step(SP, cuts, vals)


@given(_nonneg_fn(), _nonneg_fn())
@settings(max_examples=60)
def test_lorentz21_triangle_like_bound(f, g):
    # Lorentz(2,1) is a norm (p > q): triangle inequality should hold exactly
    spec = Lorentz(SP, 2, 1)
    lhs = norm_eval(spec, add(f, g))
    rhs = norm_eval(spec, f) + norm_eval(spec, g)
    assert float(lhs) <= float(rhs) * (1 + 1e-12)


@given(_nonneg_fn())
@settings(max_examples=60)
def test_weak_lp_below_lp(f):
    # ||f||_{p,inf} <= ||f||_p always
    for p in (1, 2):
        assert float(norm_eval(WeakLp(SP, p), f)) <= float(norm_eval(Lp(SP, p), f)) + 1e-12


@given(_nonneg_fn(), st.fractions(min_value=1, max_value=8, max_denominator=4))
@settings(max_examples=60)
def test_xi_dominated_by_weight_l1_times_sup(f, c):
    w = XiWeight(step(SP, [c], [1, 0]))
    sup = max(f.vals)
    assert xi_seminorm(w, f) <= c * sup


# each profile with the points where it changes analytic form
_PROFILES = [
    (Power(Fraction(1, 2)), []),
    (Power(1), []),
    (LogClip(), [Fraction(1)]),
    (StepApprox(((Fraction(1, 2), Fraction(1, 2)), (2, Fraction(3, 2))), Fraction(1, 4)),
     [Fraction(1, 2), Fraction(2)]),
    (StepApprox(((1, 1),), 0), [Fraction(1)]),
]


def _marc_strong_oracle(f, phi, knots):
    """max Phi(t) H(t)/t over the cuts of f* and the profile's knots, with H
    from the layer-cake oracle.  For these profiles the limit at infinity
    never exceeds that max (Phi(t)/t only decreases, and f** does too) unless
    a positive tail meets an unbounded profile, where the norm is infinite."""
    if star_tail_oracle(f) > 0 and phi_at(phi, INF) == INF:
        return INF
    grid = set(star_cuts_oracle(f)) | set(knots)
    return max((phi_at(phi, t) * hardy_oracle(f, t) / t for t in grid), default=Fraction(0))


@given(deep_fn(), st.sampled_from(_PROFILES))
def test_marc_strong_matches_layer_cake_oracle(f, profile):
    phi, knots = profile
    assert norm_eval(MarcStrong(f.space, phi), f) == _marc_strong_oracle(f, phi, knots)


@pytest.mark.parametrize("k, kind", [(4, float), (2**59, Fraction)])
def test_marc_strong_logclip_tie_keeps_its_type(k, kind):
    # Phi(t) f**(t) is the float Phi(1/k) at t = 1/k and the same value as a
    # Fraction at t = 1, where Phi = 1; the candidate grid's set order visits
    # 1/4 before 1 but 1 before 2^-59, and the first one visited wins the tie
    t0 = Fraction(1, k)
    x = phi_at(LogClip(), t0)
    b = (Fraction(x) - t0) / (1 - t0)
    f = step(SP, [t0, 1], [1, b, 0])
    got = norm_eval(MarcStrong(SP, LogClip()), f)
    assert got == x and type(got) is kind


def test_marc_strong_logclip_result_type():
    at_quarter = norm_eval(MarcStrong(SP, LogClip()), step(SP, [Fraction(1, 4)], [1, 0]))
    assert type(at_quarter) is float and at_quarter == phi_at(LogClip(), Fraction(1, 4))
    beyond_one = norm_eval(MarcStrong(SP, LogClip()), step(SP, [2], [1, 0]))
    assert type(beyond_one) is Fraction and beyond_one == 1


def test_hardy_sweeps_scale_to_2000_pieces():
    # integrating f* from 0 again for every candidate took 56 s (hlp_leq) and
    # 24 s (MarcStrong) on a 2-core machine; one sweep takes well under 1 s
    n = 2000
    f = step(SP, [Fraction(k, 7) for k in range(1, n)], [Fraction(n - k, 3) for k in range(n - 1)] + [0])
    g = step(SP, f.cuts, [v + Fraction(1, 2**50) for v in f.vals[:-1]] + [0])
    start = time.perf_counter()
    assert hlp_leq(f, g)
    assert time.perf_counter() - start < 10
    start = time.perf_counter()
    assert norm_eval(MarcStrong(SP, Power(Fraction(1, 2))), f) > 0
    assert time.perf_counter() - start < 10


def test_step_approx_parameters_must_be_finite():
    for knots, slope in ((((INF, 1),), 0), (((1, INF),), 0), (((1, 1),), INF)):
        with pytest.raises(ValueError):
            StepApprox(knots, slope)


def test_marc_strong_of_a_tail_below_the_double_range_is_infinite():
    # Phi(inf) v for an unbounded Phi and a tail v > 0 whose float is 0.0
    f = step(SP, [1], [1, Fraction(1, 3**700)])
    assert norm_eval(MarcStrong(SP, Power(Fraction(1, 2))), f) == INF


# ---------------------------------------------------------------------------
# Norms on f*'s int view: the same values as the loops at scale 1
# ---------------------------------------------------------------------------

# a deep-dyadic function whose view is exact: its f* has three plateaus
_DEEP_FN = step(SP, [Fraction(3, 2**40), Fraction(2**61 + 1, 2**45), 2**17],
                [Fraction(7, 2**55), Fraction(2**63 - 1, 2**50), Fraction(5, 3), 0])


def test_whole_exponents_of_lp_and_weak_lp_take_no_power_but_the_last_root():
    specs = [Lp(SP, 1), Lp(SP, 2), WeakLp(SP, 1), WeakLp(SP, Fraction(1, 2))]
    want = [norm_eval(spec, _DEEP_FN) for spec in specs]
    roots = []

    def only_the_root(x, e):
        assert e == Fraction(1, 2), f"a power {e} outside the final root of Lp(2)"
        roots.append(x)
        return rational_pow(x, e)

    with mock.patch("rispace.spaces.rational_pow", only_the_root):
        got = [norm_eval(spec, dataclasses.replace(_DEEP_FN)) for spec in specs]
    assert repr(got) == repr(want) and len(roots) == 1


def _norm_specs(sp):
    phis = [LogClip(), Power(Fraction(1, 2)), Power(1),
            StepApprox(((Fraction(1, 2), Fraction(1, 2)), (2, Fraction(3, 2))), Fraction(1, 4))]
    return [Lp(sp, 1), Lp(sp, 2), Lp(sp, 3), Lp(sp, Fraction(3, 2)), Lp(sp, INF),
            WeakLp(sp, 1), WeakLp(sp, Fraction(1, 2)), WeakLp(sp, 2),
            Lorentz(sp, 2, 1), Lorentz(sp, 1, 2),
            *(MarcWeak(sp, phi) for phi in phis), *(MarcStrong(sp, phi) for phi in phis)]


def _norm_values(f):
    """Each norm of f; an error, which both paths must raise alike, by its text."""
    out = []
    for spec in _norm_specs(f.space):
        try:
            out.append(norm_eval(spec, f))
        except (ValueError, OverflowError) as e:
            out.append(f"{type(e).__name__}: {e}")
    return out


def _same(xs):
    """Fractions by value (their text may be past the 4,300-digit limit),
    everything else by its repr."""
    return [x if isinstance(x, Fraction) else repr(x) for x in xs]


def _logclip_tie(k):
    """The function of ``test_marc_strong_logclip_tie_keeps_its_type``."""
    t0 = Fraction(1, k)
    b = (Fraction(phi_at(LogClip(), t0)) - t0) / (1 - t0)
    return step(SP, [t0, 1], [1, b, 0])


# the first function of each view case (floats, past the budget, rays, an
# interval, a positive tail), and more
NORM_VIEW_CASES = {
    **{name: f for name, (f, _) in VIEW_CASES.items()},
    # Lp(2) and Lp(3) take this value's power in floats (num._POW_BITS)
    "a power past the exact budget": step(SP, [1, 2], [Fraction(2**600_000 + 1), 3, 0]),
    "a deep dyadic": _DEEP_FN,
    "logclip tie, the float first": _logclip_tie(4),
    "logclip tie, the Fraction first": _logclip_tie(2**59),
}


def _check_norm_views(f):
    got = _norm_values(f)
    assert _same(got) == _same(at_scale_1(_norm_values, f))
    for spec, value in zip(_norm_specs(f.space), got):
        if isinstance(spec, WeakLp | MarcWeak) and not isinstance(value, str):
            want = weak_lp_oracle(f, spec.p) if isinstance(spec, WeakLp) else marc_weak_oracle(spec.phi, f)
            assert agree(value, want, isinstance(want, Fraction) and not has_float(f))


@pytest.mark.parametrize("f", NORM_VIEW_CASES.values(), ids=list(NORM_VIEW_CASES))
def test_norms_on_views_agree_with_the_loops_at_scale_1(f):
    _check_norm_views(f)


@given(deep_fn())
def test_norms_of_deep_functions_on_views_agree_with_the_loops_at_scale_1(f):
    _check_norm_views(f)


# ---------------------------------------------------------------------------
# Norms on f*'s int view: repr-equal to the loops over f*'s own values
# ---------------------------------------------------------------------------

_EXTREMES = (1e30, 1e-30, 1e300, 1e-300)


def _loop_specs(sp):
    phis = [LogClip(), Power(Fraction(1, 2)), Power(1), Power(Fraction(2, 3)), Power(0.5), Power(1e-30), Power(1e-300),
            StepApprox(((Fraction(1, 2), Fraction(1, 2)), (2, Fraction(3, 2))), Fraction(1, 4)),
            StepApprox(((0.5, 0.5), (2.0, 1.5)), 0)]
    return [Lp(sp, 1), Lp(sp, 2), Lp(sp, Fraction(3, 2)), Lp(sp, Fraction(1, 2)), Lp(sp, 2.5), Lp(sp, INF),
            *(Lp(sp, a) for a in _EXTREMES[:2]),
            WeakLp(sp, 1), WeakLp(sp, Fraction(1, 2)), WeakLp(sp, 2), WeakLp(sp, Fraction(2, 3)), WeakLp(sp, 1.5),
            Lorentz(sp, 2, 1), Lorentz(sp, 1, 2), Lorentz(sp, 3, 2), Lorentz(sp, Fraction(3, 2), 3), Lorentz(sp, 1.5, 2),
            *(Lorentz(sp, a, 2) for a in _EXTREMES), *(Lorentz(sp, 2, a) for a in _EXTREMES),
            *(MarcWeak(sp, phi) for phi in phis), *(MarcStrong(sp, phi) for phi in phis)]


def _loop_value(spec, r):
    if isinstance(spec, Lp):
        return lp_loop_oracle(spec.p, r)
    if isinstance(spec, Lorentz):
        return lorentz_loop_oracle(spec.p, spec.q, r)
    if isinstance(spec, WeakLp):
        return weak_lp_loop_oracle(spec.p, r)
    loop = marc_weak_loop_oracle if isinstance(spec, MarcWeak) else marc_strong_loop_oracle
    return loop(spec.phi, r)


def _outcome(spec, compute):
    """The value with its type (a Fraction by value: its text may be past
    the 4,300-digit limit), or the error as ``norm_eval`` words it."""
    try:
        v = compute()
    except OverflowError:
        return f"ValueError: the {spec.label} norm is out of the double range"
    except ValueError as e:
        return f"ValueError: {e}"
    return type(v).__name__, v if isinstance(v, Fraction) else repr(v)


def _check_loops(f):
    for spec in _loop_specs(f.space):
        got = _outcome(spec, lambda: norm_eval(spec, dataclasses.replace(f)))
        want = _outcome(spec, lambda: _loop_value(spec, rearrangement(dataclasses.replace(f))))
        assert got == want, (spec, f)


_X = phi_at(LogClip(), Fraction(1, 4))
LOOP_CASES = {
    "exact-square cuts": step(SP, [Fraction(1, 4), Fraction(9, 4), 4], [Fraction(9, 4), 1, Fraction(1, 4), 0]),
    "exact-square cuts and a tail": step(SP, [Fraction(1, 4), Fraction(9, 4), 4], [9, 4, 1, Fraction(1, 9)]),
    "float square cuts": step(SP, [0.25, 2.25, 4.0], [3, 2, 1, 0]),
    "logclip's cut at 1": step(SP, [Fraction(1, 2), 1, 3], [5, Fraction(7, 2), 1, 0]),
    "values that underflow a double": step(SP, [1, 2], [Fraction(1, 3**700), Fraction(1, 3**701), 0]),
    "float values that underflow": step(SP, [1, 2], [1e-300, 5e-324, 0]),
    "a cut below the double range": step(SP, [Fraction(1, 10**400), 1], [2, 1, 0]),
    "a cut past the double range": step(SP, [1, 2**1100], [2, 1, 0]),
    "values past the double range": step(SP, [1, 2], [2**1100, 2**1000, 0]),
    # MarcWeak(LogClip): v Phi(b) is the float x at b = 1/4 and the Fraction x at b = 1
    "a weak tie, the float first": step(SP, [Fraction(1, 4), 1], [1, Fraction(_X), 0]),
    # MarcWeak(t^1/2): 2 v at b = 4 ties the float sqrt(5) at b = 5
    "a weak tie, the Fraction first": step(SP, [4, 5], [Fraction(math.sqrt(5)) / 2, 1, 0]),
    "a strong tie, the float first": _logclip_tie(4),
    "a strong tie, the Fraction first": _logclip_tie(2**59),
    "deep dyadic": _DEEP_FN,
    **{name: f for name, (f, _) in VIEW_CASES.items()},
}


@pytest.mark.parametrize("f", LOOP_CASES.values(), ids=list(LOOP_CASES))
def test_norms_match_their_fraction_loops(f):
    _check_loops(f)


def _wide_fn(rng):
    """A half-line function with wide numerators over mixed denominators, so
    that doubles round the quotients, and exact squares among its cuts."""
    def num():
        return Fraction(rng.getrandbits(rng.randint(1, 90)) + 1, rng.choice((3, 7, 10, 12, 2**40, 3**30)))
    cuts = sorted({num() if rng.random() < 0.8 else num() ** 2 for _ in range(rng.randint(1, 8))})
    return step(SP, cuts, [num() for _ in cuts] + [rng.choice((0, num()))])


@pytest.mark.parametrize("seed", range(60))
def test_norms_of_generated_functions_match_their_fraction_loops(seed):
    rng = random.Random(seed)
    sp = rng.choice((halfline(), interval(Fraction(5, 2)), line()))
    f = gen_step(rng, rng.randint(0, 8), sp, compact=rng.random() < 0.7)
    for g in (f, scale(0.7, f), _wide_fn(rng)):
        _check_loops(g)


def test_no_norm_forms_the_fractions_of_f_star():
    # every spec reads f*'s int view; only MarcStrong's float/Fraction tie
    # (not met here) reads f*'s cuts, and a float breakpoint, which puts
    # MarcStrong's grid at scale 1 as a float in f would
    f = step(SP, [Fraction(1, 3), 2, Fraction(9, 4)], [5, Fraction(7, 2), 1, 0])
    for spec in _loop_specs(SP):
        if isinstance(spec, MarcStrong) and float in map(type, spec.phi.breakpoints):
            continue
        g = dataclasses.replace(f)
        _outcome(spec, lambda: norm_eval(spec, g))
        assert "cuts" not in rearrangement(g).__dict__ and "vals" not in rearrangement(g).__dict__, spec
