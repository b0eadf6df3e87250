import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rispace import (
    INF,
    Affine,
    AtomicSymbol,
    Branch,
    IntervalSymbol,
    Lp,
    StepFn,
    XiWeight,
    abs_fn,
    apply,
    atomic_finite,
    atomic_n,
    atomic_z,
    cesaro,
    cesaro_schedule,
    convergence_report,
    decomposition_check,
    dilate,
    halfline,
    interval,
    iterate_apply,
    line,
    linear_combine,
    maximal_truncated,
    permutation_limit,
    pointwise_max,
    pointwise_mul,
    rearrangement,
    seq,
    seq_from_values,
    spec_label,
    step,
    weak_type_ratio,
)
from rispace.examples import (
    bilateral_shift,
    nonsurjective_shift,
    power_symbol,
    translation_line,
    unilateral_shift,
)

from .oracles import (
    cesaro_dict_oracle,
    maximal_chain_oracle,
    maximal_dict_oracle,
    maximal_iterate_oracle,
    refinement_points,
)
from .test_rearrange import CARRIER_CASES, _deep, deep_fn
from .test_symbols import _ALL_NEGATIVE_TABLE, _infinite_symbol


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def test_apply_power_symbol():
    f = step(interval(1), [Fraction(1, 4)], [1, 0])
    assert apply(power_symbol(2), f) == step(interval(1), [Fraction(1, 2)], [1, 0])


def test_apply_translation():
    f = step(line(), [0, 1], [0, 1, 0])
    assert apply(translation_line(), f) == step(line(), [1, 2], [0, 1, 0])


def test_apply_shifts():
    e5 = seq(atomic_z(), {5: 1})
    assert apply(bilateral_shift(), e5) == seq(atomic_z(), {4: 1})
    e0 = seq(atomic_n(), {0: 1})
    # unilateral shift never reaches 0 again
    assert apply(unilateral_shift(), e0) == seq(atomic_n(), {})


def test_apply_respects_tails():
    f = seq(atomic_n(), {0: 5}, tail=2)
    g = apply(unilateral_shift(), f)
    assert g.tail == 2 and g.value_at(0) == 2


def test_iterate_apply():
    f = step(line(), [0, 1], [0, 1, 0])
    assert iterate_apply(translation_line(), f, 0) == f
    assert iterate_apply(translation_line(), f, 3) == step(line(), [3, 4], [0, 1, 0])
    with pytest.raises(ValueError):
        iterate_apply(translation_line(), f, -1)


def test_iterate_apply_zero_times_checks_the_space():
    f = step(halfline(), [1, 2], [1, 3, 0])
    with pytest.raises(ValueError, match="different spaces"):
        iterate_apply(unilateral_shift(), f, 0)


_SHIFT_F = seq(atomic_n(), {0: 1, 2: 3})


@pytest.mark.parametrize("call", [
    lambda: seq(atomic_z(), {-1.5: 1}),
    lambda: seq(atomic_n(), {True: 1}),
    lambda: AtomicSymbol(atomic_n(), ((1.5, 2.7),), 1),
    lambda: cesaro(unilateral_shift(), _SHIFT_F, 2.9),
    lambda: cesaro_schedule(unilateral_shift(), _SHIFT_F, [1.5, 2.9]),
    lambda: maximal_truncated(unilateral_shift(), _SHIFT_F, 2.5),
    lambda: maximal_truncated(unilateral_shift(), _SHIFT_F, True),
    lambda: iterate_apply(unilateral_shift(), _SHIFT_F, 1.5),
    lambda: AtomicSymbol(atomic_z(), (), 1.5),
    lambda: AtomicSymbol(atomic_z(), (), True),
])
def test_non_integral_indices_and_counts_are_refused(call):
    with pytest.raises(ValueError, match="expected an integer"):
        call()


def test_whole_numbers_of_another_type_still_count():
    assert seq(atomic_z(), {Fraction(-1): 1, 2.0: 3}) == seq(atomic_z(), {-1: 1, 2: 3})
    assert cesaro(unilateral_shift(), _SHIFT_F, 2.0) == cesaro(unilateral_shift(), _SHIFT_F, 2)
    assert type(AtomicSymbol(atomic_z(), (), 2.0).shift) is int
    assert AtomicSymbol(atomic_z(), (), Fraction(2)) == AtomicSymbol(atomic_z(), (), 2)


# ---------------------------------------------------------------------------
# Cesaro means: frozen rows
# ---------------------------------------------------------------------------


def test_cesaro_translation_spreads_the_box():
    f = step(line(), [0, 1], [0, 1, 0])
    for n in (1, 2, 10):
        m = cesaro(translation_line(), f, n)
        assert m == step(line(), [0, n], [0, Fraction(1, n), 0])


def test_a_float_zero_tail_keeps_cesaro_and_maximal_exact():
    shift_z = AtomicSymbol(atomic_z(), (), 1)
    m = cesaro(shift_z, seq(atomic_z(), {0: 1}, tail=0.0), 2)
    assert m.entries == ((-1, Fraction(1, 2)), (0, Fraction(1, 2)))
    assert all(type(v) is Fraction for _, v in m.entries)
    cycle = AtomicSymbol(atomic_finite(3), ((0, 1), (1, 2), (2, 0)))
    f = seq(atomic_finite(3), {0: 1}, tail=0.0)
    for g in (cesaro(cycle, f, 2), maximal_truncated(cycle, f, 2)):
        assert type(g.tail) is Fraction and all(type(v) is Fraction for _, v in g.entries)


def test_cesaro_three_cycle_reaches_the_average():
    sym = AtomicSymbol(atomic_finite(3), ((0, 1), (1, 2), (2, 0)))
    f = seq_from_values(atomic_finite(3), [1, 2, 6])
    assert cesaro(sym, f, 3) == seq_from_values(atomic_finite(3), [3, 3, 3])


def test_cesaro_unilateral_shift_frozen():
    f = seq(atomic_n(), {j: 1 for j in range(6)})
    for n in (6, 10):
        m = cesaro(unilateral_shift(), f, n)
        for j in range(8):
            assert m.value_at(j) == Fraction(min(n, max(0, 6 - j)), n)


def test_cesaro_nonsurjective_shift_l1_grows():
    e0 = seq(atomic_n(), {0: 1})
    for n in (1, 4, 9):
        m = cesaro(nonsurjective_shift(), e0, n)
        total = sum(v for _, v in m.entries)
        assert total == Fraction(n + 1, 2)


def test_cesaro_indicator_halfline_staircase():
    f = step(line(), [0], [0, 1])  # chi_[0, inf)
    n = 5
    m = cesaro(translation_line(), f, n)
    assert m.value_at(-1) == 0
    for i in range(n - 1):
        assert m.value_at(i) == Fraction(i + 1, n)
    assert m.value_at(n - 1) == 1
    assert m.value_at(100) == 1


def test_cesaro_schedule_rejects_bad_schedules():
    f = step(line(), [0, 1], [0, 1, 0])
    for schedule in ((2, 2), (3, 1), (0, 1), ()):
        with pytest.raises(ValueError):
            cesaro_schedule(translation_line(), f, schedule)
    with pytest.raises(ValueError):
        cesaro(translation_line(), f, 0)


# ---------------------------------------------------------------------------
# permutations: limit, decomposition, rate
# ---------------------------------------------------------------------------


def test_permutation_limit_is_cycle_average():
    sym = AtomicSymbol(atomic_finite(4), ((0, 1), (1, 0), (2, 3), (3, 2)))
    f = seq_from_values(atomic_finite(4), [1, 3, 5, 9])
    assert permutation_limit(sym, f) == seq_from_values(atomic_finite(4), [2, 2, 7, 7])


def test_decomposition_frozen():
    sym = AtomicSymbol(atomic_finite(4), ((0, 1), (1, 0), (2, 3), (3, 2)))
    f = seq_from_values(atomic_finite(4), [1, 3, 5, 9])
    d = decomposition_check(sym, f)
    assert d.exact
    assert d.kernel_part == seq_from_values(atomic_finite(4), [2, 2, 7, 7])
    assert d.range_part == seq_from_values(atomic_finite(4), [-1, 1, -2, 2])
    assert d.witness == seq_from_values(atomic_finite(4), [0, 1, 0, 2])


def test_permutation_limit_requires_a_permutation():
    bad = AtomicSymbol(atomic_finite(2), ((0, 0), (1, 0)))
    with pytest.raises(ValueError):
        permutation_limit(bad, seq_from_values(atomic_finite(2), [1, 2]))


@st.composite
def _permutation_and_fn(draw):
    n = draw(st.integers(2, 10))
    images = draw(st.permutations(list(range(n))))
    vals = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    sym = AtomicSymbol(atomic_finite(n), tuple((j, images[j]) for j in range(n)))
    return sym, seq_from_values(atomic_finite(n), vals)


@given(_permutation_and_fn())
@settings(max_examples=60)
def test_permutation_limit_is_invariant_and_mass_preserving(pair):
    sym, f = pair
    lim = permutation_limit(sym, f)
    assert apply(sym, lim) == lim
    assert sum(lim.value_at(j) for j in range(sym.space.count)) == sum(
        f.value_at(j) for j in range(sym.space.count)
    )


@given(_permutation_and_fn(), st.integers(1, 40))
@settings(max_examples=60)
def test_permutation_mean_rate(pair, n):
    # |C_n f - Tf| <= 2 L ||f||_inf / n with L the longest cycle
    sym, f = pair
    count = sym.space.count
    lim = permutation_limit(sym, f)
    m = cesaro(sym, f, n)
    supf = max(abs(f.value_at(j)) for j in range(count))
    gap = max(abs(m.value_at(j) - lim.value_at(j)) for j in range(count))
    assert gap <= Fraction(2 * count * supf, n)


# ---------------------------------------------------------------------------
# maximal operator and weak type
# ---------------------------------------------------------------------------


def test_maximal_bilateral_delta():
    m = maximal_truncated(bilateral_shift(), seq(atomic_z(), {0: 1}), 4)
    for j in range(4):
        assert m.value_at(-j) == Fraction(1, j + 1)
    assert m.value_at(1) == 0
    assert m.value_at(-4) == 0


def test_maximal_translation_box():
    f = step(line(), [0, 1], [0, 1, 0])
    m = maximal_truncated(translation_line(), f, 2)
    assert m == step(line(), [0, 1, 2], [0, 1, Fraction(1, 2), 0])


def test_maximal_uses_absolute_value_and_K_monotone():
    f = seq(atomic_z(), {0: -2})
    m1 = maximal_truncated(bilateral_shift(), f, 1)
    assert m1.value_at(0) == 2
    m3 = maximal_truncated(bilateral_shift(), f, 3)
    assert all(m3.value_at(j) >= m1.value_at(j) for j in range(-3, 3))


def test_weak_type_frozen_value():
    e0 = seq(atomic_z(), {0: 1})
    spec = Lp(atomic_z(), 1)
    r = weak_type_ratio(bilateral_shift(), e0, 4, spec, [Fraction(1, 2)])
    assert r == Fraction(1, 2)


def test_weak_type_input_guards():
    spec = Lp(atomic_z(), 1)
    with pytest.raises(ValueError):
        weak_type_ratio(bilateral_shift(), seq(atomic_z(), {0: -1}), 2, spec, [1])
    with pytest.raises(ValueError):
        weak_type_ratio(bilateral_shift(), seq(atomic_z(), {}), 2, spec, [1])
    with pytest.raises(ValueError):
        weak_type_ratio(bilateral_shift(), seq(atomic_z(), {0: 1}), 2, spec, [0])


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_convergence_report_shape_and_determinism():
    f = step(line(), [0, 1], [0, 1, 0])
    w = XiWeight(step(halfline(), [1], [1, 0]))
    rep = convergence_report(
        translation_line(),
        f,
        [Lp(line(), 1), Lp(line(), 2)],
        [w],
        (1, 2, 4),
        sample_points=[Fraction(1, 2)],
    )
    assert rep.columns == ("n", "L1", "L2", "xi0", "at[0.5]")
    assert rep.column("n") == [1, 2, 4]
    assert rep.column("L1") == [1, 1, 1]
    rep2 = convergence_report(
        translation_line(),
        f,
        [Lp(line(), 1), Lp(line(), 2)],
        [w],
        (1, 2, 4),
        sample_points=[Fraction(1, 2)],
    )
    assert rep.to_csv() == rep2.to_csv()
    assert rep.to_json() == rep2.to_json()
    assert rep.to_csv().splitlines()[0] == "n,L1,L2,xi0,at[0.5]"


def test_spec_labels():
    from rispace import INF, LogClip, Lorentz, MarcStrong, MarcWeak, Power, StepApprox, WeakLp

    assert spec_label(Lp(line(), 2)) == "L2"
    assert spec_label(Lp(line(), INF)) == "Linf"
    assert spec_label(Lorentz(halfline(), 2, 1)) == "Lorentz(2,1)"
    assert spec_label(WeakLp(halfline(), 3)) == "weak-L3"
    assert spec_label(MarcWeak(halfline(), Power(Fraction(1, 2)))) == "m[t^0.5]"
    assert spec_label(MarcWeak(halfline(), LogClip())) == "m[logclip]"
    assert spec_label(MarcStrong(halfline(), Power(Fraction(1, 2)))) == "M[t^0.5]"
    steps = StepApprox(((1, 1), (3, 2)), Fraction(1, 4))
    assert spec_label(MarcStrong(halfline(), steps)) == "M[steps2]"
    assert spec_label(XiWeight(step(halfline(), [1], [1, 0]))) == "xi"


# ---------------------------------------------------------------------------
# randomized cross-checks against the dictionary oracle
# ---------------------------------------------------------------------------


@st.composite
def _atomic_instance(draw):
    n = draw(st.integers(2, 8))
    images = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    vals = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    sym = AtomicSymbol(atomic_finite(n), tuple((j, images[j]) for j in range(n)))
    return sym, seq_from_values(atomic_finite(n), vals)


@st.composite
def _infinite_instance(draw):
    """A Z or N symbol with a table, and a sequence near its window; over N
    the sequence may have a nonzero tail."""
    sym = draw(_infinite_symbol())
    lo = -8 if sym.space == atomic_z() else 0
    entries = draw(st.dictionaries(st.integers(lo, 8), st.fractions(-6, 6, max_denominator=4), max_size=6))
    tail = 0 if lo else draw(st.sampled_from([0, 0, 1, Fraction(-5, 2), Fraction(1, 3)]))
    return sym, seq(sym.space, entries, tail=tail)


def _oracle_indices(sym, steps):
    """Every atom of a finite space; on Z and N a range past every index whose
    first steps iterates meet the table or f's entries, as orbits move by at
    most 2 a step."""
    if sym.space.count is not None:
        return range(sym.space.count)
    reach = 8 + 2 * steps + 2
    return range(-reach if sym.space == atomic_z() else 0, reach)


@given(_atomic_instance() | _infinite_instance(), st.integers(1, 12))
# a shift of 0, whose indices off the table are fixed points
@example((AtomicSymbol(atomic_z(), ((1, 2), (2, 2)), 0), seq(atomic_z(), {2: 3, -1: 1, 5: -2})), 5)
# a shift of 2: two lines, each met by the table
@example((AtomicSymbol(atomic_z(), ((0, 3), (3, -2)), 2),
          seq(atomic_z(), {-2: 1, 1: 2, 3: Fraction(1, 3), 6: -1})), 7)
# a table that is not injective
@example((AtomicSymbol(atomic_finite(4), ((0, 1), (1, 2), (2, 1), (3, 1))),
          seq_from_values(atomic_finite(4), [1, -2, 5, 3])), 9)
# N with a negative shift and a tail
@example((AtomicSymbol(atomic_n(), ((0, 3), (1, 0)), -2),
          seq(atomic_n(), {2: 1, 5: -3}, tail=Fraction(1, 3))), 9)
@example((_ALL_NEGATIVE_TABLE, seq(atomic_z(), {-5: 2, -4: 1, 3: -1})), 4)
# a permutation at n past its cycle length
@example((AtomicSymbol(atomic_finite(3), ((0, 1), (1, 2), (2, 0))),
          seq_from_values(atomic_finite(3), [1, 2, 5])), 8)
@settings(max_examples=160)
def test_cesaro_matches_dict_oracle(pair, n):
    sym, f = pair
    indices = _oracle_indices(sym, n)
    want = cesaro_dict_oracle(sym.image_of, f.value_at, indices, n)
    got = cesaro(sym, f, n)
    assert all(got.value_at(j) == want[j] for j in indices)
    if sym.space.count is None:
        far = 10**6
        assert got.tail == cesaro_dict_oracle(sym.image_of, f.value_at, [far], n)[far]


@given(_atomic_instance() | _infinite_instance(), st.integers(1, 9))
# |f| below its tail over N: the mean peaks at a stretch's end, 2/3 at index 0 and n = 3
@example((unilateral_shift(), seq(atomic_n(), {0: 0, 3: 5}, tail=1)), 3)
@settings(max_examples=160)
def test_maximal_matches_dict_oracle(pair, K):
    sym, f = pair
    indices = _oracle_indices(sym, K)
    want = maximal_dict_oracle(sym.image_of, f.value_at, indices, K)
    got = maximal_truncated(sym, f, K)
    assert all(got.value_at(j) == want[j] for j in indices)
    if sym.space.count is None:
        far = 10**6
        assert got.tail == maximal_dict_oracle(sym.image_of, f.value_at, [far], K)[far]


@st.composite
def _interval_instance(draw):
    """translation_line or power_symbol(2) with a step function whose cuts
    and values are deep dyadics, rays on the line included."""
    sym = draw(st.sampled_from([translation_line(), power_symbol(2)]))
    pool = [_deep(draw) for _ in range(draw(st.integers(1, 3)))] + [Fraction(0)]
    n = draw(st.integers(0, 5))
    if sym.space == line():
        cuts = sorted({_deep(draw) * draw(st.sampled_from([-1, 1])) for _ in range(n)})
    else:
        cuts = sorted({Fraction(draw(st.integers(1, 2**40 - 1)), 2**40) for _ in range(n)})
    vals = [draw(st.sampled_from(pool)) * draw(st.sampled_from([-1, 1])) for _ in range(len(cuts) + 1)]
    return sym, step(sym.space, cuts, vals)


@given(_interval_instance(), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_maximal_matches_iterate_oracle_on_interval_symbols(pair, K):
    sym, f = pair
    iterates = [iterate_apply(sym, abs_fn(f), i) for i in range(K)]
    got = maximal_truncated(sym, f, K)
    for x in refinement_points([got, *iterates]):
        assert got.value_at(x) == maximal_iterate_oracle(iterates, x)


_FLOAT_SCALES = [0.1, 1 / 3, 0.7, 3e-17, 1e20]


@st.composite
def _float_instance(draw):
    """An atomic or interval instance above with some of its values
    turned into floats, and a zero tail."""
    sym, f = draw(st.one_of(_interval_instance(), _atomic_instance(), _infinite_instance()))

    def fl(v):
        return v * draw(st.sampled_from(_FLOAT_SCALES)) if draw(st.booleans()) else v

    if isinstance(f, StepFn):
        return sym, step(f.space, f.cuts, [fl(v) for v in f.vals])
    return sym, seq(f.space, {j: fl(v) for j, v in f.entries})


@given(_float_instance(), st.integers(1, 8))
@settings(max_examples=120, deadline=None)
def test_maximal_float_values_round_as_the_running_sum_chain(pair, K):
    # repr tells a float from a Fraction and shows every bit of a float
    sym, f = pair
    assert repr(maximal_truncated(sym, f, K)) == repr(maximal_chain_oracle(sym, f, K))


def _mean_reference(sym, f, n):
    """C_n f as one combination of the n iterates, each formed by apply."""
    return linear_combine([Fraction(1, n)] * n, [iterate_apply(sym, f, i) for i in range(n)])


@st.composite
def _float_cut_instance(draw):
    """power_symbol(2) with a step function whose cuts are floats."""
    cuts = sorted(set(draw(st.lists(st.floats(0.001, 0.999), min_size=1, max_size=4))))
    vals = draw(st.lists(st.fractions(-6, 6, max_denominator=4), min_size=len(cuts) + 1,
                         max_size=len(cuts) + 1))
    return power_symbol(2), step(interval(1), cuts, vals)


@given(_atomic_instance() | _infinite_instance() | _interval_instance() | _float_cut_instance(),
       st.sets(st.integers(1, 9), min_size=1, max_size=4))
@example((translation_line(), step(line(), [0, 1], [0, 1, 0])), {1, 2, 4, 8})
@settings(max_examples=150, deadline=None)
def test_cesaro_schedule_matches_single_calls(pair, schedule):
    sym, f = pair
    ns = sorted(schedule)
    traj = cesaro_schedule(sym, f, ns)
    assert tuple(n for n, _ in traj.means) == tuple(ns)
    for n, mean in traj.means:
        assert mean == _mean_reference(sym, f, n)


@given(_float_instance(), st.integers(1, 8))
@settings(max_examples=120, deadline=None)
def test_cesaro_float_values_round_as_one_combination(pair, n):
    # the weights 1/n go on each iterate; repr shows every bit of a float
    sym, f = pair
    assume(not (isinstance(sym, AtomicSymbol) and sym.is_permutation()))
    assert repr(cesaro(sym, f, n)) == repr(_mean_reference(sym, f, n))


def test_cesaro_float_values_round_as_the_cycle_sums_on_a_permutation():
    # q cycle sums plus a prefix difference, then times 1/n; one combination
    # of the iterates rounds the second and third means the other way
    sym = AtomicSymbol(atomic_finite(3), ((0, 1), (1, 2), (2, 0)))
    got = cesaro(sym, seq(atomic_finite(3), {0: 0.7, 1: 0.2, 2: 1e-17}), 5)
    assert repr(got.entries) == "((0, 0.36), (1, 0.21999999999999997), (2, 0.32))"


def test_maximal_scales_to_K_2000_on_the_shift():
    # K running sums built as whole sequences cost O(K^2), about a minute
    # at this K; the sweep is linear in K
    t0 = time.monotonic()
    m = maximal_truncated(bilateral_shift(), seq(atomic_z(), {0: 1}), 2000)
    assert time.monotonic() - t0 < 5
    assert m.value_at(-1999) == Fraction(1, 2000) and m.value_at(-2000) == 0


def test_cesaro_cost_follows_its_output_on_the_shift():
    # the n iterates combined would take about half a minute at this n; the
    # walk reads each mean off two prefix sums along the shift's line
    rng = random.Random(17)
    f = seq(atomic_z(), {j: Fraction(rng.randint(1, 99), rng.choice((1, 2, 3, 8)))
                         for j in rng.sample(range(-900, 900), 600)})
    t0 = time.monotonic()
    m = cesaro(bilateral_shift(), f, 4096)
    assert time.monotonic() - t0 < 5
    sample = rng.sample(range(-900 - 4096, 900), 12) + [-900 - 4096, -900 - 4095, 899, 900]
    want = cesaro_dict_oracle(bilateral_shift().image_of, f.value_at, sample, 4096)
    assert all(m.value_at(j) == want[j] for j in sample)


def test_maximal_of_e0_under_the_n_shift_costs_nothing_in_K():
    e0 = seq(atomic_n(), {0: 1})
    t0 = time.monotonic()
    assert maximal_truncated(unilateral_shift(), e0, 10**6) == e0
    assert time.monotonic() - t0 < 1


# ---------------------------------------------------------------------------
# the producers' results are canonical without a check of their own
# ---------------------------------------------------------------------------


def _assert_canonical(r):
    """r is what step or seq builds from r's own fields, down to the repr."""
    if isinstance(r, StepFn):
        again = step(r.space, r.cuts, r.vals)
    else:
        again = seq(r.space, r.entries, r.tail)
    assert again == r and repr(again) == repr(r)


@given(_atomic_instance() | _infinite_instance() | _interval_instance() | _float_instance()
       | _float_cut_instance(),
       st.sampled_from([Fraction(-3, 2), Fraction(1), 0.7]), st.integers(1, 5), deep_fn())
@settings(max_examples=150, deadline=None)
# dividing the cuts 3 - 2^-51 and 3 of f* by 0.7 rounds them to one float
@example((translation_line(), step(line(), [0, 1], [0, 1, 0])), 0.7, 1,
         step(halfline(), [Fraction(1, 2**51), 3], [1, 2, 0]))
# 0.7 times the zero tail is the float 0.0, which seq stores as the exact 0
@example((AtomicSymbol(atomic_finite(2), ((0, 0), (1, 0))), seq(atomic_finite(2), {})), 0.7, 1,
         step(halfline(), [], [1]))
def test_producers_are_canonical(pair, c, n, deep):
    sym, f = pair
    g = apply(sym, f)
    results = [
        g,
        linear_combine([c, 1], [f, g]),
        linear_combine([c, 1, -c], [f, g, f]),  # f's jumps cancel
        pointwise_max(f, g),
        pointwise_mul(f, g),
        abs_fn(f),
        rearrangement(f),
        rearrangement(deep),
        dilate(rearrangement(deep), abs(c)),
        cesaro(sym, f, n),
        maximal_truncated(sym, f, n),
    ]
    if isinstance(sym, AtomicSymbol) and sym.is_permutation():
        parts = decomposition_check(sym, f)
        results += [permutation_limit(sym, f), parts.kernel_part, parts.range_part, parts.witness]
    for r in results:
        _assert_canonical(r)


_ON_SPACE = {
    line(): translation_line(),
    halfline(): IntervalSymbol(halfline(), (Branch(0, INF, Affine(2, 0)),)),
    atomic_finite(4, Fraction(1, 2)): AtomicSymbol(
        atomic_finite(4, Fraction(1, 2)), ((0, 1), (1, 2), (2, 3), (3, 0))),
    atomic_z(2): AtomicSymbol(atomic_z(2), (), 1),
    atomic_n(): unilateral_shift(),
}


@pytest.mark.parametrize("f", [f for f, _, _ in CARRIER_CASES])
def test_weak_type_ratio_refuses_a_negative_value_on_every_carrier(f):
    sym = _ON_SPACE[f.space]
    spec = Lp(f.space, 1)
    if f == abs_fn(f):
        # nonnegative, and its tail over N has infinite norm
        with pytest.raises(ValueError, match="finite-norm"):
            weak_type_ratio(sym, f, 2, spec, [1])
    else:
        with pytest.raises(ValueError, match="nonnegative f"):
            weak_type_ratio(sym, f, 2, spec, [1])
