import copy
import dataclasses
import math
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rispace import (
    INF,
    AtomSeq,
    StepFn,
    UndefinedIntegralError,
    abs_fn,
    add,
    apply,
    atomic_finite,
    atomic_n,
    atomic_z,
    constant,
    halfline,
    hardy_integral,
    hlp_leq,
    indicator,
    integrate,
    interval,
    interval_set,
    jsonio,
    line,
    linear_combine,
    pointwise_leq,
    pointwise_max,
    pointwise_mul,
    rearrangement,
    scale,
    seq,
    seq_from_values,
    step,
    subtract,
)
from rispace.examples import exp_recip_symbol, power_symbol, shifted_power_symbol
from rispace.properties import gen_atomic_space, gen_seq, gen_step
from rispace.stepfn import _integrate_abs_product, _mapped_pieces, _union

from .oracles import (
    hardy_oracle,
    plain_combine_oracle,
    plain_seq_abs_oracle,
    plain_seq_abs_product_oracle,
    plain_seq_combine_oracle,
    plain_seq_leq_oracle,
    plain_seq_map_oracle,
    plain_seq_star_oracle,
    refinement_points,
    star_cuts_oracle,
    star_tail_oracle,
)
from .test_rearrange import VIEW_CASES, agree, at_scale_1, deep_fn, has_float, partner


def test_step_canonicalizes_adjacent_equal_values():
    f = step(halfline(), [1, 2, 3], [5, 5, 2, 0])
    assert f.cuts == (2, 3)
    assert f.vals == (5, 2, 0)


def test_step_validation():
    with pytest.raises(ValueError):
        step(halfline(), [2, 1], [1, 2, 0])  # cuts must increase
    with pytest.raises(ValueError):
        step(halfline(), [1, 1], [1, 2, 0])  # ... strictly
    with pytest.raises(ValueError):
        step(halfline(), [1], [1, 2, 3])  # len mismatch
    with pytest.raises(ValueError):
        step(halfline(), [], [])
    with pytest.raises(ValueError):
        step(halfline(), [-1], [1, 0])  # cut outside domain
    with pytest.raises(ValueError):
        step(halfline(), [0], [1, 0])  # a cut at the left end
    with pytest.raises(ValueError):
        step(interval(2), [2], [1, 0])  # a cut at the right end
    with pytest.raises(ValueError):
        step(atomic_n(), [], [1])  # a Lebesgue space only
    with pytest.raises(ValueError):
        step(halfline(), [1], ["inf", 0])  # finite values only
    with pytest.raises(ValueError):
        step(line(), [0], [1, float("nan")])
    # a computed value can still be non-finite: 1e308 * 10.0 is inf, and
    # inf + 1e308 * (0 - 10.0) is NaN
    with pytest.raises(ValueError):
        scale(1e308, step(halfline(), [1], [10.0, 0]))
    with pytest.raises(ValueError):
        scale(1e308, seq(atomic_n(), {0: 10.0}))
    # seq
    with pytest.raises(ValueError):
        seq(halfline(), {0: 1})  # an atomic space only
    with pytest.raises(ValueError):
        seq(atomic_z(), {}, tail=1)  # a nonzero tail only over N
    with pytest.raises(ValueError):
        seq(atomic_finite(3), {0: 2}, tail=1)
    with pytest.raises(ValueError):
        seq(atomic_n(), {-1: 1})  # valid indices only
    with pytest.raises(ValueError):
        seq(atomic_finite(3), {3: 1})
    with pytest.raises(ValueError):
        seq(atomic_n(), [(1, 2), (1, 5)])  # no index twice
    with pytest.raises(ValueError):
        seq(atomic_n(), {0: "-inf"})  # finite values only
    with pytest.raises(ValueError):
        seq(atomic_n(), {}, tail="inf")
    with pytest.raises(ValueError):
        seq_from_values(atomic_finite(2), [1, 2, 3])
    # constant
    with pytest.raises(ValueError):
        constant(atomic_n(), 1)
    with pytest.raises(ValueError):
        constant(halfline(), "inf")


def test_checks_run_on_the_merged_result():
    # what merging drops is never checked: equal values need no cut between
    # them, and an entry equal to the tail is no entry
    one = constant(halfline(), 1)
    assert step(halfline(), [2, 1], [1, 1, 1]) == one
    assert step(halfline(), [-1], [1, 1]) == one
    assert seq(atomic_n(), [(1, 0), (1, 5)]) == seq(atomic_n(), {1: 5})
    assert seq(atomic_n(), {-1: 0, 2: 3}).entries == ((2, 3),)
    assert seq(atomic_n(), [(3, 1), (0, 2)]).entries == ((0, 2), (3, 1))


def test_outside_values_are_coerced_exactly():
    assert repr(constant(halfline(), 2).vals) == "(Fraction(2, 1),)"
    f = step(halfline(), [1], ["1/3", 0])
    assert repr(f) == repr(step(halfline(), [Fraction(1)], [Fraction(1, 3), Fraction(0)]))
    assert repr(seq_from_values(atomic_n(), [4, 0]).entries) == "((0, Fraction(4, 1)),)"


def test_value_at_and_domain_guard():
    f = step(interval(2), [1], [3, 7])
    assert f.value_at(0) == 3
    assert f.value_at(1) == 7  # right-continuous at the cut
    with pytest.raises(ValueError):
        f.value_at(2)


def test_indicator():
    sp = halfline()
    f = indicator(sp, interval_set(sp, [(1, 3)]))
    assert f.value_at(0) == 0 and f.value_at(2) == 1 and f.value_at(3) == 0


@pytest.mark.parametrize(
    "sp, pairs, cuts, vals",
    [
        (halfline(), [], [], [0]),
        (halfline(), [(0, INF)], [], [1]),
        (halfline(), [(0, 1), (2, 3)], [1, 2, 3], [1, 0, 1, 0]),
        (halfline(), [(1, 2), (3, INF)], [1, 2, 3], [0, 1, 0, 1]),
        (interval(4), [], [], [0]),
        (interval(4), [(0, 4)], [], [1]),
        (interval(4), [(0, 1), (3, 4)], [1, 3], [1, 0, 1]),
        (interval(4), [(1, 2)], [1, 2], [0, 1, 0]),
        (line(), [], [], [0]),
        (line(), [(-INF, INF)], [], [1]),
        (line(), [(-INF, -1), (2, INF)], [-1, 2], [1, 0, 1]),
        (line(), [(-INF, 0)], [0], [1, 0]),
        (line(), [(0, INF)], [0], [0, 1]),
        (line(), [(-2, -1), (Fraction(1, 3), 5)], [-2, -1, Fraction(1, 3), 5], [0, 1, 0, 1, 0]),
    ],
)
def test_indicator_of_interval_set_is_step_of_its_cuts(sp, pairs, cuts, vals):
    assert indicator(sp, interval_set(sp, pairs)) == step(sp, cuts, vals)


def test_seq_drops_tail_entries():
    f = seq(atomic_n(), {0: 1, 3: 0, 5: 2})
    assert f.entries == ((0, 1), (5, 2))
    assert f.value_at(3) == 0


@pytest.mark.parametrize("zero", [0, 0.0, -0.0, Fraction(0)])
def test_seq_stores_a_zero_tail_as_the_exact_zero(zero):
    f = seq(atomic_n(), {0: 1}, tail=zero)
    assert type(f.tail) is Fraction and f.tail == 0


def test_seq_from_values():
    f = seq_from_values(atomic_n(), [4, 0, 1])
    assert f.value_at(0) == 4 and f.value_at(1) == 0 and f.value_at(2) == 1


def test_integrate_step():
    f = step(halfline(), [1, 2], [1, 3, 0])
    assert integrate(f) == 4
    g = constant(interval(3), Fraction(1, 2))
    assert integrate(g) == Fraction(3, 2)


def test_integrate_atomic_weighted():
    # frozen: sum of 6,5,4,3,2,1 with unit atoms
    f = seq_from_values(atomic_n(), [6, 5, 4, 3, 2, 1])
    assert integrate(f) == 21
    g = seq(atomic_z(Fraction(1, 2)), {0: 4, -3: 2})
    assert integrate(g) == 3


def test_integrate_undefined_when_both_tails_infinite_mass():
    f = constant(halfline(), 1)
    assert integrate(f) == INF
    g = step(line(), [0], [-1, 1])  # +inf and -inf parts
    with pytest.raises(UndefinedIntegralError):
        integrate(g)


def test_integrate_a_tail_over_n_by_its_sign():
    assert integrate(seq(atomic_n(), {0: -7}, tail=2)) == INF
    assert integrate(seq(atomic_n(), {0: 7}, tail=-2)) == -INF


def test_pointwise_leq_fails_on_a_larger_tail_first():
    f = seq(atomic_n(), {}, tail=2)
    g = seq(atomic_n(), {0: 5}, tail=1)
    assert not pointwise_leq(f, g)
    assert pointwise_leq(g, seq(atomic_n(), {1: 1}, tail=5))


def test_zero_value_pieces_do_not_poison_infinite_domains():
    # Fraction(0) * inf would be NaN if handled carelessly
    f = step(halfline(), [1], [5, 0])
    assert integrate(f) == 5


def test_linear_combine_and_scale():
    sp = interval(2)
    f = step(sp, [1], [1, 0])
    g = step(sp, [1], [0, 1])
    h = linear_combine([2, 3], [f, g])
    assert h.value_at(0) == 2 and h.value_at(1) == 3
    assert scale(Fraction(1, 2), f).value_at(0) == Fraction(1, 2)
    assert add(f, g) == constant(sp, 1)
    assert subtract(f, f) == constant(sp, 0)


def test_pointwise_ops():
    sp = halfline()
    f = step(sp, [2], [3, 0])
    g = step(sp, [1], [1, 2])
    assert pointwise_max(f, g).vals == (3, 2)
    assert pointwise_mul(f, g) == step(sp, [1, 2], [3, 6, 0])
    assert pointwise_leq(f, add(f, g))
    assert not pointwise_leq(g, f)
    assert abs_fn(step(sp, [1], [-4, 0])).vals == (4, 0)


def test_space_mismatch_rejected():
    f = step(halfline(), [1], [1, 0])
    g = step(line(), [1], [1, 0])
    with pytest.raises(ValueError):
        add(f, g)


@st.composite
def _step_pair(draw):
    cuts1 = sorted(set(draw(st.lists(st.integers(1, 12), min_size=0, max_size=4))))
    cuts2 = sorted(set(draw(st.lists(st.integers(1, 12), min_size=0, max_size=4))))
    v1 = draw(st.lists(st.integers(-5, 5), min_size=len(cuts1) + 1, max_size=len(cuts1) + 1))
    v2 = draw(st.lists(st.integers(-5, 5), min_size=len(cuts2) + 1, max_size=len(cuts2) + 1))
    sp = interval(13)
    return step(sp, cuts1, v1), step(sp, cuts2, v2)


@given(_step_pair())
def test_add_is_pointwise(pair):
    f, g = pair
    h = add(f, g)
    for x in list(f.cuts) + list(g.cuts) + [0, Fraction(25, 2)]:
        assert h.value_at(x) == f.value_at(x) + g.value_at(x)


@given(_step_pair())
def test_integrate_is_linear(pair):
    f, g = pair
    assert integrate(add(f, g)) == integrate(f) + integrate(g)
    assert integrate(scale(-3, f)) == -3 * integrate(f)


@st.composite
def _cut_tuples(draw):
    """Two strictly increasing tuples drawn from one pool of small fractions
    and deep dyadics (2^k denominators, k <= 60); a value a float holds
    exactly may be drawn as that float, so the tuples can tie across types."""
    deep = st.builds(lambda n, k: Fraction(n, 2**k), st.integers(-2**64, 2**64), st.integers(0, 60))
    small = st.fractions(min_value=-20, max_value=20, max_denominator=8)
    pool = sorted(draw(st.sets(deep | small, max_size=12)))

    def pick():
        return tuple(float(v) if float(v) == v and draw(st.booleans()) else v
                     for v in pool if draw(st.booleans()))

    return pick(), pick()


@given(_cut_tuples())
@example(((), ()))
@example(((), (1.0, Fraction(3, 2))))
@example(((Fraction(1), 2.0), (1.0, Fraction(2))))
def test_union_merges_like_the_sorted_set_union(pair):
    xs, ys = pair
    got, want = _union(xs, ys), sorted(set(xs) | set(ys))
    assert len(got) == len(want)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]
    # on a tie the element of xs is the one kept
    for v in got:
        tied = [x for x in xs if x == v]
        assert not tied or tied[0] is v


# ---------------------------------------------------------------------------
# Int views: the same answers as the oracles and as the loops at scale 1
# ---------------------------------------------------------------------------

_COEFFS = [Fraction(3, 7), -2, Fraction(5, 2**61)]


def _view_results(f, g, h):
    """Each value that the views serve here, for functions on one space."""
    return [linear_combine(_COEFFS, [f, g, h]), linear_combine([0.5], [g]), subtract(f, f),
            pointwise_leq(f, g), pointwise_leq(g, f), pointwise_leq(f, abs_fn(f))]


def _check_views(f, g, h):
    got = _view_results(f, g, h)
    assert repr(got) == repr(at_scale_1(_view_results, f, g, h))
    combined, halved, zero, fg, gf, f_abs = got
    exact = not has_float(f, g, h)
    assert zero == constant(f.space, 0)
    # a float sum of jumps keeps 1e-12 of the largest value, not of each
    size = max(abs(v) for k in (f, g, h) for v in k.vals) * 4
    for x in refinement_points([f, g, h]):
        want = sum(c * k.value_at(x) for c, k in zip(_COEFFS, (f, g, h)))
        assert agree(combined.value_at(x), want, exact, size)
        assert agree(halved.value_at(x), 0.5 * g.value_at(x), False, size)
    points = refinement_points([f, g])
    assert fg == all(f.value_at(x) <= g.value_at(x) for x in points)
    assert gf == all(g.value_at(x) <= f.value_at(x) for x in points)
    assert f_abs


@pytest.mark.parametrize("f, g", VIEW_CASES.values(), ids=list(VIEW_CASES))
def test_views_agree_with_the_oracles_and_with_the_loops_at_scale_1(f, g):
    _check_views(f, g, scale(Fraction(1, 3), g))
    _check_views(g, f, f)


def test_a_float_point_puts_exact_views_at_scale_1():
    f = step(halfline(), [Fraction(1, 3), 2], [5, Fraction(7, 2), 0])
    ts = [0.75, Fraction(5, 6), 2.5, INF]
    got = [hardy_integral(f, t) for t in ts]
    assert repr(got) == repr(at_scale_1(lambda f: [hardy_integral(f, t) for t in ts], f))
    assert isinstance(got[0], float)
    assert all(agree(h, hardy_oracle(f, t), False) for h, t in zip(got, ts))


@given(deep_fn().filter(lambda f: isinstance(f, StepFn)), st.data())
def test_views_of_deep_functions_agree_with_the_oracles_and_at_scale_1(f, data):
    _check_views(f, data.draw(partner(f)), data.draw(partner(f)))


# ---------------------------------------------------------------------------
# Functions built from ints form their Fractions on first read
# ---------------------------------------------------------------------------


def _copies(r):
    return pickle.loads(pickle.dumps(r)), copy.deepcopy(r)


_READERS = {
    "==": lambda r, want: r == want and want == r and not r != want,
    "hash": lambda r, want: hash(r) == hash(want) and {want: 1}[r] == 1,
    "repr": lambda r, want: repr(r) == repr(want),
    "copies": lambda r, want: all(repr(c) == repr(want) and c == want and hash(c) == hash(want)
                                  for c in _copies(r)),
}

_SEQ_READERS = {
    **_READERS,
    "wire": lambda r, want: jsonio.dumps(jsonio.to_obj(r)) == jsonio.dumps(jsonio.to_obj(want))
    and jsonio.measfn_from_obj(jsonio.to_obj(r)) == want,
}


def _built_from_ints(f, g):
    """Fresh results of the operations that end in an int loop; f* of a copy
    of f, since f keeps its own."""
    return [linear_combine(_COEFFS, [f, g, f]), scale(Fraction(-5, 3), g), rearrangement(dataclasses.replace(f))]


def _check_built_from_ints(f, g):
    wants = [step(r.space, r.cuts, r.vals) for r in _built_from_ints(f, g)]
    for name, agrees in _READERS.items():
        for r, want in zip(_built_from_ints(f, g), wants):
            assert "cuts" not in r.__dict__ and "vals" not in r.__dict__
            assert agrees(r, want), (name, "before the first read")
            assert (r.cuts, r.vals) == (want.cuts, want.vals)
            assert agrees(r, want), (name, "after the first read")


@pytest.mark.parametrize("seed", range(40))
def test_results_built_from_ints_read_as_their_step_twins(seed):
    rng = random.Random(seed)
    sp = rng.choice((halfline(), interval(Fraction(5, 2)), line()))
    size = rng.randint(0, 8)
    _check_built_from_ints(gen_step(rng, size, sp), gen_step(rng, size, sp, compact=False))


@given(deep_fn().filter(lambda f: isinstance(f, StepFn)), st.data())
def test_deep_results_built_from_ints_read_as_their_step_twins(f, data):
    _check_built_from_ints(f, data.draw(partner(f)))


def test_hlp_leq_forms_no_fraction_of_either_rearrangement():
    f = step(halfline(), [Fraction(1, 3), 2], [5, Fraction(7, 2), 0])
    g = step(halfline(), [1, Fraction(9, 4)], [6, 2, 0])
    assert hlp_leq(f, g)
    assert not hlp_leq(g, f)
    for r in (rearrangement(f), rearrangement(g)):
        assert "cuts" not in r.__dict__ and "vals" not in r.__dict__
    assert rearrangement(f) == step(halfline(), [Fraction(1, 3), 2], [5, Fraction(7, 2), 0])


def _mapped_pieces_by_builtins(pieces, lo, hi, g, increasing):
    """``_mapped_pieces`` as written with the builtins ``max``, ``min`` and ``<``."""
    out, last, gb = [], None, None
    for a, b, v in pieces:
        a, b = max(a, lo), min(b, hi)
        if not a < b:
            if a >= hi:
                break
            continue
        ga = gb if a is last else g(a)
        last, gb = b, g(b)
        x, y = (ga, gb) if increasing else (gb, ga)
        if x < y:
            out.append((x, y, v))
    return out


# ends that tie across the two kinds, with ties in both orders
_TYING_ENDS = [0.0, Fraction(0), 0.25, Fraction(1, 4), Fraction(1, 3), 1 / 3, 0.5, Fraction(1, 2), 1.0, Fraction(1),
               math.nextafter(0.5, 1), Fraction(10**400), 2.0, Fraction(2), INF]


@given(st.lists(st.sampled_from(_TYING_ENDS), min_size=1, max_size=9), st.sampled_from(_TYING_ENDS[:-1]),
       st.sampled_from(_TYING_ENDS), st.booleans(), st.booleans())
def test_mapped_pieces_keep_the_objects_of_max_and_min(ends, lo, hi, shared, increasing):
    # sorted ends as pieces, each end shared with the next piece or an equal
    # twin of it; g maps an end object to one object, so is can follow it
    def twin(x):
        return float(repr(x)) if type(x) is float else Fraction(x.numerator, x.denominator)

    ends = sorted(ends)
    pieces = [(a, b if shared else twin(b), v) for v, (a, b) in enumerate(zip(ends, ends[1:]))]
    images = {}

    def g(x):
        return images.setdefault(id(x), x if increasing else -x)

    got = _mapped_pieces(pieces, lo, hi, g, increasing)
    want = _mapped_pieces_by_builtins(pieces, lo, hi, g, increasing)
    assert len(got) == len(want)
    assert all(x is u and y is w and v == z for (x, y, v), (u, w, z) in zip(got, want))


# ---------------------------------------------------------------------------
# Exact values over float cuts: sums as ints, the sweep's cuts and rounding
# ---------------------------------------------------------------------------


def _dyadic_step(rng, sp, width):
    """A step function on [0, width) with 2^-k cuts (10 <= k <= 20) and
    values 0..9, 0 past the end of the half-line."""
    cuts = sorted({width * Fraction(rng.randrange(1, 1 << k), 1 << k)
                   for k in (rng.randint(10, 20) for _ in range(rng.randint(3, 12)))})
    last = Fraction(rng.randint(0, 9)) if sp.length is not None else Fraction(0)
    return step(sp, cuts, [Fraction(rng.randint(0, 9)) for _ in cuts] + [last])


_COMBINED_COEFFS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 4), Fraction(-3, 7), Fraction(5, 2**61), 2]


@pytest.mark.parametrize("seed", range(30))
def test_combinations_of_non_affine_iterates_equal_the_fraction_sweep(seed):
    rng = random.Random(seed)
    sym, width = ((power_symbol(2), 1), (exp_recip_symbol(), 1), (shifted_power_symbol(2), 6))[seed % 3]
    fs = [_dyadic_step(rng, sym.space, width)]
    for _ in range(3):
        fs.append(apply(sym, fs[-1]))
    assert any(type(c) is float for f in fs for c in f.cuts)
    fs.append(_dyadic_step(rng, sym.space, width))
    rng.shuffle(fs)
    for k in range(1, len(fs) + 1):
        cs = [rng.choice(_COMBINED_COEFFS) for _ in fs[:k]]
        assert repr(linear_combine(cs, fs[:k])) == repr(plain_combine_oracle(cs, fs[:k])), (seed, cs)


_SP = interval(1)
_FLOAT_CUTS = step(_SP, [0.5, Fraction(3, 4)], [1, Fraction(2, 3), 3])
_TIED_CUTS = step(_SP, [Fraction(1, 2), 0.75], [Fraction(1, 3), 0, 5])


@pytest.mark.parametrize("coeffs, fns", [
    # a float cut equal to a Fraction cut: the first function's object stays
    ([1, 2], [_FLOAT_CUTS, _TIED_CUTS]),
    ([2, 1], [_TIED_CUTS, _FLOAT_CUTS]),
    # cuts with one double, 1/10 below the double 0.1: the exact order
    ([1, 1], [step(_SP, [0.1], [1, 2]), step(_SP, [Fraction(1, 10)], [3, 5])]),
    ([1, 1], [step(_SP, [Fraction(1, 10), 0.5], [3, 5, 1]), step(_SP, [0.1], [1, 2])]),
    # zero and negative coefficients, down to the zero function
    ([0, -1], [_FLOAT_CUTS, _TIED_CUTS]),
    ([-1, 0], [_FLOAT_CUTS, _TIED_CUTS]),
    ([1, -1], [_FLOAT_CUTS, _FLOAT_CUTS]),
    ([Fraction(-5, 2), Fraction(5, 2)], [_TIED_CUTS, _TIED_CUTS]),
    # a value past the 1,024-bit budget keeps the Fraction sweep
    ([1, 3], [step(_SP, [0.25], [Fraction(1, 3**700), 1]), _TIED_CUTS]),
    ([Fraction(1, 3**700), 1], [_FLOAT_CUTS, _TIED_CUTS]),
    # a float value or coefficient keeps its rounding
    ([1, 1], [step(_SP, [0.25, Fraction(1, 3)], [0.1, Fraction(1, 3), 0.2]), _FLOAT_CUTS]),
    ([0.3, Fraction(1, 3)], [_FLOAT_CUTS, _TIED_CUTS]),
    ([1e-300, 1e300], [_TIED_CUTS, _FLOAT_CUTS]),
])
def test_combinations_over_float_cuts_equal_the_fraction_sweep(coeffs, fns):
    got, want = linear_combine(coeffs, fns), plain_combine_oracle(coeffs, fns)
    assert repr(got) == repr(want)
    assert [type(c) for c in got.cuts] == [type(c) for c in want.cuts]


def test_exact_values_over_float_cuts_are_summed_as_ints(monkeypatch):
    # no jump or running value is a Fraction sum: only the results are Fractions
    fns = [_FLOAT_CUTS, _TIED_CUTS, step(_SP, [0.25, 0.5], [Fraction(1, 7), 2, 0])]
    want = plain_combine_oracle([Fraction(1, 3), -2, Fraction(5, 2)], fns)
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
        op = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda a, b, op=op, name=name: calls.append(name) or op(a, b))
    got = linear_combine([Fraction(1, 3), -2, Fraction(5, 2)], fns)
    monkeypatch.undo()
    assert calls == []
    assert repr(got) == repr(want)


# ---------------------------------------------------------------------------
# Exact sequences: the operations read their views and build with ints
# ---------------------------------------------------------------------------


def _seq_pair(rng, size):
    """Two ``gen_seq`` sequences on one ``gen_atomic_space`` space (N, Z or
    finite, atom mass 1/2, 1 or 2); over N each has a tail most of the time,
    f's some times one that an entry of g equals."""
    sp = gen_atomic_space(rng, size)
    f, g = gen_seq(rng, size, sp), gen_seq(rng, size, sp)
    if sp.has_tail and rng.random() < 0.8:
        g = seq(sp, g.entries, tail=Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))))
    if sp.has_tail and rng.random() < 0.8:
        f = seq(sp, f.entries, tail=g.entries[0][1] if g.entries and rng.random() < 0.4 else rng.randint(-3, 3))
    return f, g


_SEQ_COEFFS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 4), Fraction(-3, 7), Fraction(5, 2**61), 2]


def _seq_results_and_twins(f, g, coeffs):
    """(result, its twin) for each sequence operation that ends in an int
    loop, the twin by the Fraction loops of ``tests.oracles``; f* of a copy
    of f, since f keeps its own."""
    h = plain_seq_combine_oracle(coeffs, [f, g, f])
    return [(linear_combine(coeffs, [f, g, f]), h),
            (add(f, g), plain_seq_combine_oracle([1, 1], [f, g])),
            (subtract(f, g), plain_seq_combine_oracle([1, -1], [f, g])),
            (scale(coeffs[0], g), plain_seq_combine_oracle(coeffs[:1], [g])),
            (abs_fn(f), plain_seq_abs_oracle(f)),
            (abs_fn(linear_combine(coeffs, [f, g, f])), plain_seq_abs_oracle(h)),
            (rearrangement(dataclasses.replace(f)), plain_seq_star_oracle(f)),
            (rearrangement(linear_combine(coeffs, [f, g, f])), plain_seq_star_oracle(h))]


def _check_seq_results(f, g, coeffs):
    for name, agrees in _SEQ_READERS.items():
        for r, want in _seq_results_and_twins(f, g, coeffs):
            assert "entries" not in r.__dict__ and "cuts" not in r.__dict__ and "vals" not in r.__dict__
            assert agrees(r, want), (name, "before the first read")
            assert repr(r) == repr(want)  # the first read forms the fields
            assert agrees(r, want), (name, "after the first read")
    rf = rearrangement(f)
    assert list(rf.cuts) == star_cuts_oracle(f) and rf.vals[-1] == star_tail_oracle(f)
    for a, b in ((f, g), (g, f), (f, f), (abs_fn(f), abs_fn(g))):
        assert pointwise_leq(a, b) is plain_seq_leq_oracle(a, b)
        assert repr(_integrate_abs_product(a, b)) == repr(plain_seq_abs_product_oracle(a, b))


def _seq_case(seed: int):
    rng = random.Random(seed)
    f, g = _seq_pair(rng, rng.randint(0, 8))
    return f, g, [rng.choice(_SEQ_COEFFS) for _ in range(3)]


@pytest.mark.parametrize("seed", range(80))
def test_sequence_results_built_from_ints_read_as_their_fraction_twins(seed):
    _check_seq_results(*_seq_case(seed))


def test_the_sequence_twins_cover_every_space_kind_mass_and_tail():
    drawn = {(f.space.kind, f.space.atom_mass, f.tail != 0 and g.tail != 0)
             for f, g, _ in map(_seq_case, range(80))}
    kinds, masses = (atomic_n().kind, atomic_z().kind, atomic_finite(1).kind), (Fraction(1, 2), 1, 2)
    assert {(k, m) for k, m, _ in drawn} == {(k, m) for k in kinds for m in masses}
    assert {(atomic_n().kind, m, True) for m in masses} <= drawn


@given(deep_fn().filter(lambda f: isinstance(f, AtomSeq)), st.data())
def test_deep_sequence_results_built_from_ints_read_as_their_fraction_twins(f, data):
    coeffs = data.draw(st.lists(st.sampled_from(_SEQ_COEFFS), min_size=3, max_size=3))
    _check_seq_results(f, data.draw(partner(f)), coeffs)


_N = atomic_n(Fraction(1, 2))
_F = seq(_N, {0: Fraction(1, 3), 2: -2, 5: Fraction(7, 4)}, tail=Fraction(1, 2))
_G = seq(_N, {0: 1, 2: Fraction(-5, 6), 6: Fraction(1, 2)}, tail=Fraction(1, 3))


_SEQ_EDGE_CASES = [
    # a float value, a float tail, a float coefficient
    ([1, 2], [seq(_N, {0: 0.1, 3: Fraction(1, 3)}, tail=Fraction(1, 2)), _G]),
    ([1, -1], [seq(_N, {1: 2}, tail=0.5), _G]),
    ([0.5, Fraction(1, 3)], [_F, _G]),
    # a value or a coefficient past the 1,024-bit budget
    ([1, 3], [seq(_N, {0: Fraction(1, 2**1100), 4: 1}), _G]),
    ([Fraction(1, 2**1100), 1], [_F, _G]),
    # zero coefficients, and entries that cancel to the tail
    ([0, 1], [_F, _G]),
    ([0, 0], [_F, _G]),
    ([1, -1], [seq(_N, {0: 3, 1: 2, 4: 5}, tail=1), seq(_N, {0: 1, 1: 1, 4: 4})]),
    ([Fraction(-5, 2), Fraction(5, 2)], [_G, _G]),
    # an exact sequence beside a float one and beside one past the budget,
    # and a float coefficient over exact views
    ([1, 2], [_F, seq(_N, {1: 0.25, 5: Fraction(1, 3), 6: -1.5}, tail=Fraction(1, 3))]),
    ([1, -1], [_G, seq(_N, {0: Fraction(1, 2**1100), 2: -2, 7: 3}, tail=Fraction(1, 2))]),
    ([Fraction(2, 3), -1.5], [_F, _G]),
    # a float value where both tails are 0, so the |f g| integral is finite
    ([1, -1], [seq(_N, {0: 0.1, 3: Fraction(1, 3)}), seq(_N, {0: 2, 3: Fraction(-1, 5), 4: 1})]),
]


@pytest.mark.parametrize("coeffs, fns", _SEQ_EDGE_CASES)
def test_sequence_fallbacks_and_edge_cases_equal_the_fraction_loops(coeffs, fns):
    f, g = fns
    assert repr(linear_combine(coeffs, fns)) == repr(plain_seq_combine_oracle(coeffs, fns))
    assert repr(add(f, g)) == repr(plain_seq_combine_oracle([1, 1], fns))
    assert repr(subtract(f, g)) == repr(plain_seq_combine_oracle([1, -1], fns))
    assert repr(scale(coeffs[0], f)) == repr(plain_seq_combine_oracle(coeffs[:1], [f]))
    h = linear_combine(coeffs, fns)
    for a in (f, h):
        assert repr(abs_fn(a)) == repr(plain_seq_abs_oracle(a))
        assert repr(rearrangement(dataclasses.replace(a))) == repr(plain_seq_star_oracle(a))
    for a, b in ((f, g), (g, f), (h, g), (g, h)):
        assert pointwise_leq(a, b) is plain_seq_leq_oracle(a, b)
        assert repr(_integrate_abs_product(a, b)) == repr(plain_seq_abs_product_oracle(a, b))


def test_a_sequence_on_a_float_mass_keeps_its_fraction_loops():
    sp = atomic_n(0.5)
    f, g = seq(sp, {0: 2, 3: Fraction(-1, 3)}, tail=1), seq(sp, {1: 4}, tail=Fraction(1, 2))
    assert repr(rearrangement(f)) == repr(plain_seq_star_oracle(f))
    f0, g0 = seq(sp, f.entries), seq(sp, g.entries)
    assert repr(_integrate_abs_product(f0, g0)) == repr(plain_seq_abs_product_oracle(f0, g0))
    assert repr(_integrate_abs_product(f, g)) == repr(plain_seq_abs_product_oracle(f, g)) == "inf"


def test_subtract_and_rearrangement_of_exact_sequences_form_no_fraction(monkeypatch):
    # 120 entries in all; the Fractions formed are the two coefficients, their
    # scales c / D and the result's tail, none per entry, and no result forms
    # its fields
    sp = atomic_z(Fraction(1, 2))
    rng = random.Random(5)
    f = seq(sp, {j: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6))) for j in range(-30, 30)})
    g = subtract(f, seq(sp, {j: Fraction(rng.randint(-9, 9), 5) for j in range(0, 60)}))
    assert "entries" not in g.__dict__
    f._view  # f's view is formed from its Fractions before the count starts
    made = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: made.append(args) or new(cls, *args, **kw))
    d = subtract(g, f)
    r = rearrangement(d)
    rf = rearrangement(g)
    monkeypatch.undo()
    assert len(made) <= 5, made
    assert "entries" not in d.__dict__ and "entries" not in g.__dict__
    for s in (r, rf):
        assert "cuts" not in s.__dict__ and "vals" not in s.__dict__
    assert repr(d) == repr(plain_seq_combine_oracle([1, -1], [g, f]))
    assert repr(r) == repr(plain_seq_star_oracle(d))


def _check_seq_maps(a, b):
    """pointwise_max and pointwise_mul of a and b read as the sorted-union
    loop of ``tests.oracles`` does by every reader, the wire included."""
    for r, want in ((pointwise_max(a, b), plain_seq_map_oracle(max, a, b)),
                    (pointwise_mul(a, b), plain_seq_map_oracle(operator.mul, a, b))):
        assert repr(r) == repr(want)
        for name, agrees in _SEQ_READERS.items():
            assert agrees(r, want), name


@pytest.mark.parametrize("coeffs, fns", _SEQ_EDGE_CASES)
def test_sequence_maps_and_orders_of_mixed_pairs_equal_the_sorted_union_loop(coeffs, fns):
    f, g = fns
    h = linear_combine(coeffs, fns)
    for a, b in ((f, g), (g, f), (h, f), (f, h), (h, h)):
        _check_seq_maps(a, b)
        assert pointwise_leq(a, b) is plain_seq_leq_oracle(a, b)
        assert repr(_integrate_abs_product(a, b)) == repr(plain_seq_abs_product_oracle(a, b))
        got, want = linear_combine(coeffs[::-1], [a, b]), plain_seq_combine_oracle(coeffs[::-1], [a, b])
        assert repr(got) == repr(want)
        for name, agrees in _SEQ_READERS.items():
            assert agrees(got, want), name


@pytest.mark.parametrize("seed", range(80))
def test_sequence_maps_equal_the_sorted_union_loop(seed):
    f, g, coeffs = _seq_case(seed)
    for a, b in ((f, g), (g, f), (linear_combine(coeffs, [f, g, f]), g)):
        _check_seq_maps(a, b)


def test_abs_and_hlp_leq_of_lazily_built_step_functions_form_no_fraction(monkeypatch):
    # f and g are built by int loops and hold only their views, as do f* and
    # g*; |f| and both Hardy-Littlewood-Polya tests read those views alone
    rng = random.Random(11)
    sp = halfline()

    def built(n):
        cuts = sorted({Fraction(rng.randint(1, 900), rng.choice((2, 3, 5, 8))) for _ in range(n)})
        h = step(sp, cuts, [Fraction(rng.randint(-9, 9), rng.choice((1, 4, 7))) for _ in cuts] + [0])
        return linear_combine([Fraction(3, 7), Fraction(-1, 2)], [h, scale(Fraction(5, 3), h)])

    f, g = built(30), built(40)
    rearrangement(f), rearrangement(g)
    made = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: made.append(args) or new(cls, *args, **kw))
    r = abs_fn(f)
    fg, gf = hlp_leq(f, g), hlp_leq(g, f)
    monkeypatch.undo()
    assert made == []
    for k in (f, g, r, rearrangement(f), rearrangement(g)):
        assert "cuts" not in k.__dict__ and "vals" not in k.__dict__
    want = step(sp, f.cuts, [abs(v) for v in f.vals])
    for name, agrees in _SEQ_READERS.items():
        assert agrees(r, want), name
    plain_f, plain_g = step(sp, f.cuts, f.vals), step(sp, g.cuts, g.vals)
    assert (fg, gf) == (hlp_leq(plain_f, plain_g), hlp_leq(plain_g, plain_f))
