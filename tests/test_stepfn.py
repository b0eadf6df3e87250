from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rispace import (
    INF,
    UndefinedIntegralError,
    abs_fn,
    add,
    atomic_finite,
    atomic_n,
    atomic_z,
    constant,
    halfline,
    indicator,
    integrate,
    interval,
    interval_set,
    line,
    linear_combine,
    pointwise_leq,
    pointwise_max,
    pointwise_mul,
    scale,
    seq,
    seq_from_values,
    step,
    subtract,
)
from rispace.stepfn import _union


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
