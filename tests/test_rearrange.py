import dataclasses
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rispace import (
    INF,
    AtomSeq,
    Lp,
    MarcStrong,
    Power,
    StepFn,
    WeakLp,
    XiWeight,
    abs_fn,
    add,
    atomic_finite,
    atomic_n,
    atomic_z,
    constant,
    dilate,
    distribution_at,
    equimeasurable,
    halfline,
    hardy_integral,
    hardy_littlewood_pair,
    hlp_leq,
    integrate,
    interval,
    is_acr,
    is_rearranged,
    jsonio,
    line,
    norm_eval,
    pointwise_mul,
    rearrangement,
    scale,
    seq,
    step,
    to_float,
    xi_seminorm,
)
from rispace.properties import gen_step

from .oracles import (
    dilate_oracle,
    dist_oracle,
    hardy_oracle,
    marc_strong_oracle,
    product_integral_oracle,
    rearr_value_oracle,
    star_cuts_oracle,
    star_tail_oracle,
    xi_oracle,
)


def test_rearrangement_of_a_two_step_function():
    f = step(halfline(), [1, 2], [1, 3, 0])
    rf = rearrangement(f)
    assert rf.space == halfline()
    assert rf.cuts == (1, 2)
    assert rf.vals == (3, 1, 0)


def test_rearrangement_lives_on_halfline_whatever_the_source():
    f = seq(atomic_z(Fraction(1, 2)), {-4: 3, 9: 1, 2: 3})
    rf = rearrangement(f)
    # two atoms of value 3 (mass 1/2 each), then one of value 1
    assert rf.cuts == (1, Fraction(3, 2))
    assert rf.vals == (3, 1, 0)


def test_rearrangement_uses_absolute_values():
    f = step(interval(2), [1], [-5, 2])
    assert rearrangement(f).vals == (5, 2, 0)


def test_rearrangement_refuses_a_level_narrower_than_float_rounding():
    # the level 2 of width 1 lands at 1e17 + 1, which rounds to 1e17: f*
    # has no float cut for it
    f = step(halfline(), [1.0, 2.0, 1e17], [2, 1, 3, 0])
    with pytest.raises(ValueError, match="narrower than the float rounding of its position"):
        rearrangement(f)
    # a call that raises keeps nothing on f, so the next one raises too
    with pytest.raises(ValueError, match="narrower than the float rounding of its position"):
        rearrangement(f)


def test_distribution_at():
    f = step(halfline(), [1, 2], [1, 3, 0])
    assert distribution_at(f, Fraction(1, 2)) == 2
    assert distribution_at(f, 1) == 1
    assert distribution_at(f, 3) == 0
    assert distribution_at(constant(halfline(), 2), 1) == INF


def test_equimeasurable_across_spaces():
    two_atoms = seq(atomic_n(), {4: 1, 7: 1})
    plateau = step(halfline(), [2], [1, 0])
    assert equimeasurable(two_atoms, plateau)
    assert not equimeasurable(two_atoms, step(halfline(), [3], [1, 0]))


def test_is_rearranged():
    assert is_rearranged(step(halfline(), [1], [2, 0]))
    assert not is_rearranged(step(halfline(), [1], [0, 2]))  # increasing
    assert not is_rearranged(step(line(), [0], [1, 0]))  # wrong space


def test_hardy_integral_frozen_values():
    f = step(halfline(), [1, 2], [3, 1, 0])  # already nonincreasing
    assert hardy_integral(f, Fraction(1, 2)) == Fraction(3, 2)
    assert hardy_integral(f, 2) == 4
    assert hardy_integral(f, 8) == 4  # all the mass


def test_quasi_subadditivity_of_rearrangement():
    sp = halfline()
    f = step(sp, [2], [3, 0])
    g = step(sp, [1, 3], [0, 5, 0])
    s = rearrangement(add(f, g))
    rf, rg = rearrangement(f), rearrangement(g)
    for t in (Fraction(1, 2), 1, 2, 3, 5):
        assert s.value_at(t) <= rf.value_at(t / 2) + rg.value_at(t / 2)


def test_hlp_relation():
    sp = halfline()
    f = step(sp, [2], [1, 0])
    g = step(sp, [1], [2, 0])  # same mass, more concentrated
    assert hlp_leq(f, g)
    assert not hlp_leq(g, f)
    assert hlp_leq(f, f)


def test_hardy_littlewood_pair_frozen():
    sp = halfline()
    f = step(sp, [1, 2], [2, 1, 0])
    g = step(sp, [1, 3], [0, 1, 0])
    lhs, rhs = hardy_littlewood_pair(f, g)
    assert (lhs, rhs) == (1, 3)


def test_hardy_littlewood_equality_for_nonincreasing_pairs():
    sp = halfline()
    f = step(sp, [1, 4], [3, 1, 0])
    g = step(sp, [2], [2, 0])
    lhs, rhs = hardy_littlewood_pair(f, g)
    assert lhs == rhs == 8


def test_dilate():
    f = step(halfline(), [1], [1, 0])
    d = dilate(f, 2)  # s -> f(2s)
    assert d.cuts == (Fraction(1, 2),)
    half = dilate(f, Fraction(1, 2))
    assert half.cuts == (2,)
    # composition D_s D_t = D_{st}
    assert dilate(dilate(f, 3), Fraction(1, 2)) == dilate(f, Fraction(3, 2))
    with pytest.raises(ValueError):
        dilate(f, 0)


def test_dilate_drops_a_piece_that_float_division_closes():
    # f* takes 2 on [0, 3 - 2^-51) and 1 on [3 - 2^-51, 3); both cuts divided
    # by 0.7 round to one float, so no float lies in the piece of value 1
    f = rearrangement(step(halfline(), [Fraction(1, 2**51), 3], [1, 2, 0]))
    d = dilate(f, 0.7)
    assert d == step(halfline(), [3 / 0.7], [2, 0])
    assert norm_eval(Lp(halfline(), INF), d) == 2


def test_dilate_matches_dividing_each_cut():
    # the oracle divides every cut by t and drops the pieces that close
    for seed in range(200):
        rng = random.Random(seed)
        f = gen_step(rng, rng.randint(0, 6), halfline(), compact=rng.random() < 0.5)
        floated = step(halfline(), [float(c) for c in f.cuts], f.vals)
        for g in (f, scale(0.7, f), floated, rearrangement(f)):
            # a float cut over an exact t below the least float divides by 0.0
            tiny = () if g is floated else (Fraction(1, 10**400),)
            for t in (0.3, 1e-300, 1e300, Fraction(3, 2), *tiny):
                assert repr(dilate(g, t)) == repr(dilate_oracle(g, t)), (g, t)


def test_is_acr():
    assert is_acr(step(halfline(), [5], [7, 0]))
    assert not is_acr(constant(halfline(), 1))
    assert is_acr(seq(atomic_n(), {0: 3, 2: 5}))
    assert is_acr(step(interval(4), [1], [2, 5]))  # finite total measure
    assert not is_acr(seq(atomic_n(), {0: 9}, tail=1))


@st.composite
def _any_fn(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        cuts = sorted(set(draw(st.lists(st.fractions(min_value=Fraction(1, 4), max_value=20, max_denominator=8), max_size=5))))
        vals = draw(st.lists(st.integers(-6, 6), min_size=len(cuts) + 1, max_size=len(cuts) + 1))
        vals[-1] = 0
        return step(halfline(), cuts, vals)
    if kind == 1:
        cuts = sorted(set(draw(st.lists(st.integers(1, 11), min_size=1, max_size=4))))
        vals = draw(st.lists(st.integers(-6, 6), min_size=len(cuts) + 1, max_size=len(cuts) + 1))
        return step(interval(12), cuts, vals)
    entries = draw(st.dictionaries(st.integers(-10, 10), st.integers(-6, 6), max_size=6))
    return seq(atomic_z(Fraction(1, 2)), entries)


@given(_any_fn(), st.integers(0, 7))
def test_distribution_matches_oracle(f, snum):
    s = Fraction(snum, 2)
    assert distribution_at(f, s) == dist_oracle(f, s)


@given(_any_fn(), st.fractions(min_value=Fraction(1, 8), max_value=30, max_denominator=8))
def test_rearrangement_matches_value_oracle(f, t):
    rf = rearrangement(f)
    assert rf.value_at(t) == rearr_value_oracle(f, t)


@given(_any_fn())
def test_rearrangement_is_nonincreasing_and_equimeasurable(f):
    rf = rearrangement(f)
    assert is_rearranged(rf)
    assert equimeasurable(f, rf)
    assert equimeasurable(rf, rf)


def _deep(draw):
    """A deep dyadic with a large numerator: n / 2^k, n <= 2^64, k <= 60."""
    return Fraction(draw(st.integers(1, 2**64)), 2 ** draw(st.integers(0, 60)))


@st.composite
def deep_fn(draw, tail=None):
    """A function with deep-dyadic cuts and values on the half-line, an
    interval, N or Z.  Values come from a small pool, so levels repeat
    across pieces; ``tail`` fixes the value at infinity (half-line or N)."""
    pool = [_deep(draw) for _ in range(draw(st.integers(1, 4)))] + [Fraction(0)]

    def val():
        v = draw(st.sampled_from(pool))
        return -v if draw(st.booleans()) else v

    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["halfline", "n"] if tail else ["halfline", "interval", "n", "z"]))
    if kind == "halfline":
        cuts = sorted({_deep(draw) for _ in range(n)})
        return step(halfline(), cuts, [val() for _ in cuts] + [val() if tail is None else tail])
    if kind == "interval":
        length = _deep(draw)
        cuts = sorted({length * Fraction(draw(st.integers(1, 2**20 - 1)), 2**20) for _ in range(n)})
        return step(interval(length), cuts, [val() for _ in range(len(cuts) + 1)])
    if kind == "n":
        entries = {draw(st.integers(0, 12)): val() for _ in range(n)}
        return seq(atomic_n(_deep(draw)), entries, tail=val() if tail is None else tail)
    return seq(atomic_z(_deep(draw)), {draw(st.integers(-12, 12)): val() for _ in range(n)})


@st.composite
def _hlp_pair(draw):
    f = draw(deep_fn())
    how = draw(st.sampled_from(["free", "bumped", "same tail"]))
    if how == "free":
        return f, draw(deep_fn())
    if how == "same tail":
        return f, draw(deep_fn(tail=star_tail_oracle(f)))
    # the same cuts with |g| >= |f| piece by piece: a true pair
    def bump():
        return draw(st.sampled_from([Fraction(0), _deep(draw)]))

    if isinstance(f, StepFn):
        return f, step(f.space, f.cuts, [abs(v) + bump() for v in f.vals])
    entries = {j: abs(v) + bump() for j, v in f.entries}
    return f, seq(f.space, entries, tail=abs(f.tail))


def _hlp_oracle(f, g) -> bool:
    """H_f <= H_g by the layer-cake integral at every cut of either
    rearrangement, inside every piece between them, and one step beyond."""
    if star_tail_oracle(f) > star_tail_oracle(g):
        return False
    cuts = sorted(set(star_cuts_oracle(f)) | set(star_cuts_oracle(g)))
    grid = cuts + [(a + b) / 2 for a, b in zip([0, *cuts], cuts)] + [(cuts or [0])[-1] + 1]
    return all(hardy_oracle(f, t) <= hardy_oracle(g, t) for t in grid)


@given(deep_fn(), st.data())
def test_hardy_integral_matches_layer_cake_oracle(f, data):
    cuts = star_cuts_oracle(f)
    inside = [(a + b) / 2 for a, b in zip([0, *cuts], cuts)] + [(cuts or [0])[-1] + 1]
    anywhere = st.builds(Fraction, st.integers(1, 2**64), st.integers(1, 2**60))
    t = data.draw(st.sampled_from([*cuts, *inside, INF]) | anywhere)
    assert hardy_integral(f, t) == hardy_oracle(f, t)


@given(_hlp_pair())
def test_hlp_leq_matches_layer_cake_oracle(pair):
    f, g = pair
    assert hlp_leq(f, g) == _hlp_oracle(f, g)
    assert hlp_leq(g, f) == _hlp_oracle(g, f)
    assert hlp_leq(f, f)


def _levels_by_piece(f):
    """The level map of a step function by testing every piece for a ray."""
    levels = {}
    for a, b, v in f.pieces():
        if v == 0:
            continue
        width = INF if (b == INF or a == -INF) else b - a
        prev = levels.get(abs(v), Fraction(0))
        levels[abs(v)] = INF if (prev == INF or width == INF) else prev + width
    return levels


@st.composite
def _ray_fn(draw):
    """A step function on the line or the half-line whose rays may carry a
    level that also occurs on bounded pieces."""
    sp = draw(st.sampled_from([line(), halfline()]))
    lo = -8 if sp == line() else 1
    cuts = sorted(set(draw(st.lists(st.integers(lo, 8), max_size=6))))
    vals = draw(st.lists(st.integers(-3, 3), min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    return step(sp, cuts, vals)


@given((deep_fn() | _ray_fn()).filter(lambda f: isinstance(f, StepFn)))
def test_levels_match_the_piece_by_piece_ray_test(f):
    from rispace.rearrange import _levels

    assert list(_levels(f).items()) == list(_levels_by_piece(f).items())


def _wire(f):
    return hash(f), repr(f), jsonio.to_obj(f), jsonio.dumps(jsonio.to_obj(f))


@pytest.mark.parametrize("make", [
    lambda: step(halfline(), [1, Fraction(5, 2)], [2, -3, Fraction(1, 4)]),
    lambda: seq(atomic_n(Fraction(1, 3)), {0: 2, 4: -5}, tail=1),
])
def test_rearrangement_is_kept_on_the_function_and_nowhere_else(make):
    f = make()
    before = _wire(f)
    r = rearrangement(f)
    assert rearrangement(f) is r
    assert f == make() and make() == f
    assert _wire(f) == before == _wire(make())


_XI = XiWeight(step(halfline(), [1, 3], [2, 1, 0]))


@given(deep_fn(), deep_fn())
def test_a_function_with_a_kept_rearrangement_evaluates_like_a_fresh_one(f, g):
    rearrangement(f), rearrangement(g)
    fresh_f, fresh_g = dataclasses.replace(f), dataclasses.replace(g)

    def results(f, g):
        specs = [Lp(f.space, 2), WeakLp(f.space, 1), MarcStrong(f.space, Power(Fraction(1, 2)))]
        return [hlp_leq(f, g), hlp_leq(g, f), xi_seminorm(_XI, f), *(norm_eval(s, f) for s in specs)]

    assert repr(results(f, g)) == repr(results(fresh_f, fresh_g))


# each carrier with its distribution function at some levels and its f*: a
# step function with rays on the line and on the half-line, and sequences on
# a finite space, on Z and on N (a positive tail over a zero entry, and a
# negative tail)
CARRIER_CASES = [
    (step(line(), [-1, 0, 2], [0, -3, 1, 2]),
     {0: INF, 1: INF, 2: 1, 3: 0}, ((1,), (3, 2))),
    (step(halfline(), [1, 3], [-2, 5, 1]),
     {0: INF, 1: 3, 2: 2, 5: 0}, ((2, 3), (5, 2, 1, ))),
    (seq(atomic_finite(4, Fraction(1, 2)), {0: 2, 2: -3}),
     {0: 1, 2: Fraction(1, 2), 3: 0}, ((Fraction(1, 2), 1), (3, 2, 0))),
    (seq(atomic_z(2), {-3: 1, 5: -1, 7: 4}),
     {0: 6, 1: 2, 4: 0}, ((2, 6), (4, 1, 0))),
    (seq(atomic_n(), {0: 5, 1: 0, 3: 1}, tail=2),
     {0: INF, 1: INF, 2: 1, 5: 0}, ((1,), (5, 2))),
    (seq(atomic_n(), {2: 3}, tail=-1),
     {0: INF, Fraction(1, 2): INF, 1: 1, 3: 0}, ((1,), (3, 1))),
]


@pytest.mark.parametrize("f, dist, star", CARRIER_CASES)
def test_each_carrier_gives_its_distribution_and_rearrangement(f, dist, star):
    assert {s: distribution_at(f, s) for s in dist} == dist
    cuts, vals = star
    assert rearrangement(f) == step(halfline(), cuts, vals)


# ---------------------------------------------------------------------------
# Int views: the same answers as the oracles and as the loops at scale 1
# ---------------------------------------------------------------------------

_BIG3, _BIG5 = 3**700, 5**500  # each is past the 1,024-bit budget of a view

# pairs on one space whose views fall back to scale 1, or that carry rays
VIEW_CASES = {
    "past the budget": (
        step(halfline(), [Fraction(2, _BIG5), Fraction(1, _BIG3), 3],
             [Fraction(5, _BIG3), Fraction(-7, _BIG5), 1, 0]),
        step(halfline(), [Fraction(1, _BIG5), 2], [Fraction(2, _BIG5), Fraction(1, _BIG3), 0]),
    ),
    "float cuts and values": (
        step(halfline(), [0.5, 1.25, 3.0], [0.1, 2.5, -0.75, 0]),
        step(halfline(), [Fraction(1, 3), 1.25, 4], [1, Fraction(2, 3), 0.3, 0]),
    ),
    # |f g| holds on [0, 2.17), and summed cell by cell its float rounds
    # otherwise than summed over the merged piece
    "a float run of equal |f g|": (
        step(halfline(), [2.14, 2.81], [0.9, -0.9, 0]),
        step(halfline(), [2.17, 2.81], [0.3, 2, 0]),
    ),
    "both rays of the line": (
        step(line(), [-2, Fraction(1, 3), 4], [1, -3, Fraction(5, 2), 2]),
        step(line(), [-1, 4], [Fraction(1, 2), 3, Fraction(1, 2)]),
    ),
    "an interval": (
        step(interval(Fraction(7, 2)), [Fraction(1, 3), 2], [Fraction(-1, 2), 4, 1]),
        step(interval(Fraction(7, 2)), [1, Fraction(5, 2)], [2, Fraction(1, 5), 3]),
    ),
    "a positive tail": (
        step(halfline(), [1, Fraction(5, 2)], [3, Fraction(1, 7), Fraction(1, 2)]),
        step(halfline(), [Fraction(3, 4)], [5, Fraction(1, 2)]),
    ),
}


def at_scale_1(compute, *fns):
    """compute on fresh copies of fns with every view at scale 1: the same
    loops over the Fractions (or floats) themselves."""
    with mock.patch("rispace.stepfn.scaled", lambda values: (1, list(values))):
        return compute(*(dataclasses.replace(f) for f in fns))


def has_float(*fns) -> bool:
    values = [v for f in fns for v in ((*f.cuts, *f.vals) if isinstance(f, StepFn) else
                                        (*(v for _, v in f.entries), f.tail))]
    return any(isinstance(v, float) for v in values)


def agree(got, want, exact: bool, size=0) -> bool:
    """Equal; or, past a float, equal to 1e-9 relative, or to 1e-12 of a
    size that the float's sum cancelled."""
    if exact:
        return got == want
    return math.isclose(to_float(got), to_float(want), rel_tol=1e-9, abs_tol=1e-12 * to_float(size))


@st.composite
def partner(draw, f):
    """A function on f's space with deep-dyadic cuts or entries of its own."""
    pool = [_deep(draw) for _ in range(draw(st.integers(1, 3)))] + [Fraction(0)]

    def val():
        v = draw(st.sampled_from(pool))
        return -v if draw(st.booleans()) else v

    n = draw(st.integers(0, 6))
    sp = f.space
    if isinstance(f, AtomSeq):
        lo = 0 if sp.has_tail else -12
        return seq(sp, {draw(st.integers(lo, 12)): val() for _ in range(n)}, tail=val() if sp.has_tail else 0)
    if sp == halfline():
        cuts = sorted({_deep(draw) for _ in range(n)})
    else:
        length = sp.domain[1]
        cuts = sorted({length * Fraction(draw(st.integers(1, 2**20 - 1)), 2**20) for _ in range(n)})
    return step(sp, cuts, [val() for _ in range(len(cuts) + 1)])


def _view_results(f, g):
    """Each value that the views serve, for two functions on one space."""
    rf = rearrangement(f)
    ts = [*rf.cuts, *((a + b) / 2 for a, b in zip([0, *rf.cuts], rf.cuts)), (rf.cuts or (0,))[-1] + 1, INF]
    marc = MarcStrong(f.space, Power(Fraction(1, 2)))
    return [rf, [hardy_integral(f, t) for t in ts], hlp_leq(f, g), hlp_leq(g, f),
            hardy_littlewood_pair(f, g), xi_seminorm(_XI, f), norm_eval(marc, f)]


def _check_views(f, g):
    got = _view_results(f, g)
    assert repr(got) == repr(at_scale_1(_view_results, f, g))
    rf, hardy, fg, gf, (lhs, rhs), xi, marc = got
    rg = rearrangement(g)
    products = [integrate(abs_fn(pointwise_mul(f, g))), integrate(pointwise_mul(rf, rg)),
                integrate(pointwise_mul(_XI.weight, rf))]
    assert repr([lhs, rhs, xi]) == repr(products)
    exact = not has_float(f, g)
    cuts = star_cuts_oracle(f)
    assert len(rf.cuts) == len(cuts) and all(agree(a, b, exact) for a, b in zip(rf.cuts, cuts))
    assert agree(rf.vals[-1], star_tail_oracle(f), exact)
    ts = [*rf.cuts, *((a + b) / 2 for a, b in zip([0, *rf.cuts], rf.cuts)), (rf.cuts or (0,))[-1] + 1, INF]
    assert all(agree(h, hardy_oracle(f, t), exact) for h, t in zip(hardy, ts))
    assert (fg, gf) == (_hlp_oracle(f, g), _hlp_oracle(g, f))
    assert agree(lhs, product_integral_oracle(f, g), exact)
    assert agree(rhs, xi_oracle(rg, f), exact)
    assert agree(xi, xi_oracle(_XI.weight, f), exact)
    assert agree(marc, marc_strong_oracle(Power(Fraction(1, 2)).at, f), exact)


@pytest.mark.parametrize("f, g", VIEW_CASES.values(), ids=list(VIEW_CASES))
def test_views_agree_with_the_oracles_and_with_the_loops_at_scale_1(f, g):
    _check_views(f, g)


@given(deep_fn(), st.data())
def test_views_of_deep_functions_agree_with_the_oracles_and_at_scale_1(f, data):
    _check_views(f, data.draw(partner(f)))
