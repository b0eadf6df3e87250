import math
import random
import time
from fractions import Fraction
from itertools import accumulate

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
    scale,
    seq,
    seq_from_values,
    spec_label,
    step,
    weak_type_ratio,
)
from rispace import jsonio
from rispace.examples import (
    bilateral_shift,
    nonsurjective_shift,
    power_symbol,
    translation_line,
    unilateral_shift,
)
from rispace.properties import gen_atomic_symbol, gen_interval_symbol, gen_seq, gen_step
from rispace.stepfn import SeqView

from .oracles import (
    cesaro_dict_oracle,
    maximal_chain_oracle,
    maximal_dict_oracle,
    maximal_float_walk_oracle,
    maximal_iterate_oracle,
    refinement_points,
)
from .test_rearrange import CARRIER_CASES, _deep, deep_fn
from .test_stepfn import _SEQ_READERS
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


def test_maximal_refuses_a_truncation_below_one():
    with pytest.raises(ValueError, match="truncation K"):
        maximal_truncated(unilateral_shift(), _SHIFT_F, 0)


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
    most max(2, |shift|) a step."""
    if sym.space.count is not None:
        return range(sym.space.count)
    reach = 8 + max(2, abs(sym.shift)) * steps + 2
    return range(-reach if sym.space == atomic_z() else 0, reach)


def _sweep_examples(test):
    """Cases of the sweep along the shift's lines, for both oracle tests."""
    for pair, n in [
        # s = -1 on Z: the lines run down the indices
        ((AtomicSymbol(atomic_z(), ((-3, 4),), -1), seq(atomic_z(), {-6: 2, -1: Fraction(-1, 3), 0: 5, 5: 1})), 6),
        # s = 3 with table rows on one of its three lines
        ((AtomicSymbol(atomic_z(), ((1, -5), (7, 4)), 3),
          seq(atomic_z(), {-5: 1, -2: 3, 0: -2, 2: Fraction(1, 2), 4: 1, 6: 2})), 7),
        # a table row that is a fixed point
        ((AtomicSymbol(atomic_z(), ((2, 2),), 1), seq(atomic_z(), {-1: 1, 2: -3, 4: 2})), 5),
        # N with a nonzero tail above every |f|
        ((AtomicSymbol(atomic_n(), ((5, 1),), 2), seq(atomic_n(), {0: Fraction(1, 2), 3: -1, 6: 0}, tail=2)), 6),
        # an entry at index 0 under s = 1 on N: the line is cut at the space's left end
        ((unilateral_shift(), seq(atomic_n(), {0: 3, 1: -1, 4: 2})), 9),
    ]:
        test = example(pair, n)(test)
    return test


def _past_budget_examples(test):
    """Cases whose denominators' lcm passes the 1,024-bit budget, for both
    oracle tests: their values are swept as Fractions over D = 1."""
    big, small = Fraction(1, 3**700), Fraction(2, 5**500)
    for pair, n in [
        # a Z-shift with one table row
        ((AtomicSymbol(atomic_z(), ((1, -4),), 1), seq(atomic_z(), {-3: big, 0: -small, 2: 1, 5: small})), 6),
        # N with a tail below every |f|, and with one above it
        ((AtomicSymbol(atomic_n(), ((2, 0),), 1), seq(atomic_n(), {0: 1 + big, 1: -small, 4: 2}, tail=small / 7)), 7),
        ((unilateral_shift(), seq(atomic_n(), {0: big, 2: -small, 3: 1}, tail=Fraction(3, 2) + small)), 5),
        # gaps of 2m - 1 and 2m + 1 on the Z-shift, about the width the layout cuts gaps to
        ((bilateral_shift(), seq(atomic_z(), {0: big, 7: -small, 16: 1})), 4),
    ]:
        test = example(pair, n)(test)
    return test


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
@_sweep_examples
@_past_budget_examples
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


# float values and a float tail over N: the tail is summed at every step off
# the entries, and lifts index 0's mean from 1/3 to 1/2 in the second case
_FLOAT_TAIL = (unilateral_shift(), seq(atomic_n(), {0: 0.5, 1: 0.25, 2: 0.75}, tail=0.125))
_FLOAT_TAIL_ABOVE = (unilateral_shift(), seq(atomic_n(), {0: 0.25, 2: 0.75}, tail=0.5))


@given(_atomic_instance() | _infinite_instance(), st.integers(1, 9))
# |f| below its tail over N: the mean peaks at a stretch's end, 2/3 at index 0 and n = 3
@example((unilateral_shift(), seq(atomic_n(), {0: 0, 3: 5}, tail=1)), 3)
@example(_FLOAT_TAIL, 1)
@example(_FLOAT_TAIL, 2)
@example(_FLOAT_TAIL, 3)
@example(_FLOAT_TAIL, 10)
@example(_FLOAT_TAIL_ABOVE, 4)
@_sweep_examples
@_past_budget_examples
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


def test_maximal_float_values_with_a_tail_over_n_round_near_the_dict_oracle():
    # each running sum is multiplied by 1/n, where the oracle divides it by
    # n, so the tail's mean reads 0.30000000000000004, not 0.3
    sym, f = unilateral_shift(), seq(atomic_n(), {0: 0.1, 3: 1 / 3, 4: 0.7}, tail=0.3)
    got = maximal_truncated(sym, f, 5)
    want = maximal_dict_oracle(sym.image_of, f.value_at, [*range(8), 10**6], 5)
    assert all(got.value_at(j) == pytest.approx(want[j], rel=1e-12) for j in range(8))
    assert got.tail == pytest.approx(want[10**6], rel=1e-12)


# ---------------------------------------------------------------------------
# Means built from ints form their Fractions on first read
# ---------------------------------------------------------------------------


def _means_built_from_ints(sym, f, n: int, K: int):
    """Fresh results of the atomic means that end in an int loop: one mean,
    a schedule's, a maximal (its n per index), and a maximal of a mean."""
    c = cesaro(sym, f, n)
    return [c, *(m for _, m in cesaro_schedule(sym, f, (1, n, n + 3)).means),
            maximal_truncated(sym, f, K), maximal_truncated(sym, c, K)]


def _is_lazy(r) -> bool:
    return "entries" not in r.__dict__


@pytest.mark.parametrize("seed", range(60))
def test_means_built_from_ints_read_as_their_seq_twins(seed):
    rng = random.Random(seed)
    size = rng.randint(0, 8)
    sym = gen_atomic_symbol(rng, size)
    f = gen_seq(rng, size, sym.space)
    if sym.space.has_tail and rng.random() < 0.6:
        f = seq(sym.space, f.entries, tail=Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))))
    n, K = rng.randint(2, 9), rng.randint(1, 9)
    wants = [seq(r.space, r.entries, r.tail) for r in _means_built_from_ints(sym, f, n, K)]
    for name, agrees in _SEQ_READERS.items():
        for r, want in zip(_means_built_from_ints(sym, f, n, K), wants):
            assert _is_lazy(r)
            assert agrees(r, want), (name, "before the first read")
            assert (r.entries, r.tail) == (want.entries, want.tail)
            assert agrees(r, want), (name, "after the first read")


@pytest.mark.parametrize("sym, lo", [(bilateral_shift(), -60), (unilateral_shift(), 0)], ids=["Z", "N"])
def test_orbit_means_form_no_fraction_of_their_entries(sym, lo):
    # cesaro and maximal_truncated as the orbits benchmark calls them, and
    # each chained into the other: every result and every input it read stays
    # ints, and the results still match the dict oracles
    rng = random.Random(1)
    f = seq(sym.space, {j: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6))) for j in range(lo, lo + 120)})
    c, m = cesaro(sym, f, 4), maximal_truncated(sym, f, 4)
    chained = [maximal_truncated(sym, c, 3), cesaro(sym, m, 5)]
    assert all(map(_is_lazy, [c, m, *chained]))
    indices = [j for j in range(lo - 6, lo + 126) if sym.space.valid_index(j)]
    for got, g, n, oracle in [(c, f, 4, cesaro_dict_oracle), (m, f, 4, maximal_dict_oracle),
                              (chained[0], c, 3, maximal_dict_oracle), (chained[1], m, 5, cesaro_dict_oracle)]:
        want = oracle(sym.image_of, g.value_at, indices, n)
        assert all(got.value_at(j) == want[j] for j in indices)


def _peak_steps(sym, f, indices, K: int) -> dict:
    """j -> the first n <= K at which (1/n) sum_{i<n} |f(phi^i(j))| peaks,
    for each j where that peak is not 0."""
    out = {}
    for j in indices:
        orbit = [j]
        while len(orbit) < K:
            orbit.append(sym.image_of(orbit[-1]))
        means = [S / n for n, S in enumerate(accumulate(abs(f.value_at(i)) for i in orbit), 1)]
        if max(means):
            out[j] = means.index(max(means)) + 1
    return out


def test_a_maximal_mean_puts_its_peak_steps_over_one_denominator():
    # the peak means here are over every n from 1 to 6: one view over f's D
    # times their lcm, and a lazy sequence that holds nothing but it
    sym, K = bilateral_shift(), 6
    f = seq(atomic_z(), {0: Fraction(1, 3), 3: 2, 4: Fraction(-1, 2), 9: Fraction(3, 4)})
    indices = range(-8, 12)
    peaks = _peak_steps(sym, f, indices, K)
    assert len(set(peaks.values())) > 2
    got = maximal_truncated(sym, f, K)
    assert set(got.__dict__) == {"space", "tail", "_view"}
    assert isinstance(got._view, SeqView) and got._view.exact
    assert got._view.D == f._view.D * math.lcm(*peaks.values())
    assert got._view.indices == tuple(peaks)
    want = maximal_dict_oracle(sym.image_of, f.value_at, indices, K)
    assert all(got.value_at(j) == want[j] for j in indices)


def test_a_maximal_mean_past_the_budget_on_its_peak_steps_forms_its_fractions():
    # e_0 at K = 800 peaks at every n <= 800, whose lcm has 1,144 bits
    sym, K = bilateral_shift(), 800
    assert math.lcm(*range(1, K + 1)).bit_length() == 1144
    f = seq(atomic_z(), {0: 1})
    got = maximal_truncated(sym, f, K)
    assert not _is_lazy(got)
    # the index -k meets e_0 at step k, so its mean peaks at 1/(k + 1)
    assert got == seq(atomic_z(), {-k: Fraction(1, k + 1) for k in range(K)})
    indices = [*range(-K - 2, 3, 9), -K + 1, -K, -K - 1]
    want = maximal_dict_oracle(sym.image_of, f.value_at, indices, K)
    assert all(got.value_at(j) == want[j] for j in indices)


def test_a_mean_with_no_entries_keeps_its_tail_in_its_view():
    # no entry leaves no n D: the one denominator is still a multiple of the
    # tail's, so a mean chained into another reads the tail 1/3, not 0
    sym, f = unilateral_shift(), seq(atomic_n(), {}, tail=Fraction(1, 3))
    for r in (cesaro(sym, f, 2), maximal_truncated(sym, f, 3)):
        assert _is_lazy(r) and r._view.tail * 3 == r._view.D
        assert maximal_truncated(sym, r, 3) == cesaro(sym, r, 2) == f


def test_a_mean_past_the_budget_is_formed_from_its_fractions():
    # over 3^700 the values are swept as Fractions over D = 1, so the
    # entries are the Fractions themselves, as float values are
    sym = unilateral_shift()
    f = seq(atomic_n(), {0: Fraction(1, 3**700), 2: 1})
    for r in (cesaro(sym, f, 3), maximal_truncated(sym, f, 3)):
        assert not _is_lazy(r)
    assert cesaro(sym, f, 3) == seq(atomic_n(), {0: Fraction(1, 3**701) + Fraction(1, 3), 1: Fraction(1, 3),
                                                 2: Fraction(1, 3)})
    g = seq(atomic_n(), {0: 0.1, 1: 0.2})
    for r in (cesaro(sym, g, 3), maximal_truncated(sym, g, 3)):
        assert not _is_lazy(r) and isinstance(r.value_at(0), float)


# ---------------------------------------------------------------------------
# Runs: the stretches of a shift's line whose steps stay off the table
# ---------------------------------------------------------------------------


def _span(sym, f, m: int) -> range:
    """Every index whose first m steps can meet f's entries or the table
    under a shift, and a few past them on each side."""
    marks = [0, *(j for j, _ in f.entries), *(j for row in sym.table for j in row)]
    reach = abs(sym.shift) * (m + 1) + 4
    return range(max(min(marks) - reach, sym.space.domain[0]), max(marks) + reach)


# (symbol, f, m): each puts a run's end where the sweep could slip by one
_RUN_BOUNDARIES = {
    # entries m places apart share a run; m + 1 apart, the run ends between them
    "m apart": (bilateral_shift(), seq(atomic_z(), {0: 2, 5: Fraction(-1, 3), 10: 4, 11: -4}), 5),
    "m + 1 apart": (bilateral_shift(), seq(atomic_z(), {0: 2, 6: Fraction(-1, 3), 12: 4, 13: -4}), 5),
    # runs far apart keep separate prefix sums
    "far apart": (bilateral_shift(), seq(atomic_z(), {-40: 1, 0: Fraction(3, 2), 1: 2, 45: -1}), 3),
    "s = 2": (AtomicSymbol(atomic_z(), (), 2), seq(atomic_z(), {-3: 1, 0: 2, 1: -1, 7: Fraction(1, 2), 13: 3}), 4),
    "s = 3, a row on one line": (AtomicSymbol(atomic_z(), ((4, -9),), 3),
                                 seq(atomic_z(), {-5: 1, -2: 3, 1: 2, 10: -1, 13: 5, 14: 1}), 4),
    "s = -1": (AtomicSymbol(atomic_z(), (), -1), seq(atomic_z(), {-4: 1, 0: -2, 1: Fraction(2, 3), 6: 3}), 5),
    "s = -2 on N": (AtomicSymbol(atomic_n(), ((0, 5), (1, 0)), -2),
                    seq(atomic_n(), {2: 1, 3: Fraction(-1, 2), 8: 3, 15: 1}, tail=Fraction(1, 3)), 4),
    # a row inside a run, rows at a run's first place and past its last, and
    # rows m + 1 apart, which leave a run of one place between them
    "a row inside a run": (AtomicSymbol(atomic_z(), ((3, -7),), 1), seq(atomic_z(), {0: 1, 2: 2, 4: -3, 6: 1, 9: 2}), 4),
    "rows at a run's ends": (AtomicSymbol(atomic_z(), ((-3, 8), (11, 1)), 1),
                             seq(atomic_z(), {0: 1, 2: 2, 7: 3, 11: -1, 12: 2}), 4),
    "rows m + 1 apart": (AtomicSymbol(atomic_z(), ((0, 0), (5, -20)), 1), seq(atomic_z(), {1: 3, 2: -1, 4: 2, 6: 1}), 4),
    # N's left end with a nonzero tail, on one line and on two
    "N's left end": (unilateral_shift(), seq(atomic_n(), {0: 3, 1: -1, 4: 2, 9: Fraction(1, 2)}, tail=Fraction(1, 3)), 5),
    "N's left end, s = 2": (AtomicSymbol(atomic_n(), ((3, 0),), 2), seq(atomic_n(), {0: 1, 1: 2, 5: -1}, tail=2), 4),
    "N's left end, s = 3": (AtomicSymbol(atomic_n(), ((1, 0),), 3),
                            seq(atomic_n(), {0: 1, 2: -1, 4: 3, 11: 2, 26: 1}, tail=Fraction(1, 2)), 5),
    # gaps of 2m - 2 to 2m + 1, around the width at which the layout cuts a gap short
    "gaps near 2m": (bilateral_shift(), seq(atomic_z(), {0: 2, 6: -1, 13: 3, 21: Fraction(1, 3), 30: -2}), 4),
    "a row at a run's first place": (AtomicSymbol(atomic_z(), ((2, -30),), 1), seq(atomic_z(), {5: 1, 6: 2}), 4),
    "a row at a run's last place": (AtomicSymbol(atomic_z(), ((3, 40),), 1), seq(atomic_z(), {0: 1, 3: 2, 9: 1}), 4),
    # every shift from -3 to 3, with rows on two lines
    **{f"s = {s}, two rows": (AtomicSymbol(atomic_z(), ((4, -7), (-5, 2)), s),
                              seq(atomic_z(), {-9: 1, -4: Fraction(-1, 2), -3: 2, 0: 3, 1: -1, 2: Fraction(1, 3),
                                               5: 1, 8: -2, 12: 4}), 5) for s in range(-3, 4)},
}


def _run_results(sym, f, m: int):
    """(what, oracle, result): the means and peaks at n and K up to m, a
    schedule's (its first means below m), and T f."""
    out = [(n, cesaro_dict_oracle, cesaro(sym, f, n)) for n in (1, m - 1, m)]
    out += [(n, cesaro_dict_oracle, mean) for n, mean in cesaro_schedule(sym, f, (1, 2, m)).means]
    out += [(K, maximal_dict_oracle, maximal_truncated(sym, f, K)) for K in (1, 2, m)]
    return [*out, (None, None, apply(sym, f))]


@pytest.mark.parametrize("sym, f, m", _RUN_BOUNDARIES.values(), ids=list(_RUN_BOUNDARIES))
def test_means_across_run_boundaries_match_the_dict_oracles(sym, f, m):
    indices, far = _span(sym, f, m), 10**6
    for n, oracle, got in _run_results(sym, f, m):
        if oracle is None:  # T f, off its tail at every index
            want = {j: f.value_at(sym.image_of(j)) for j in [*indices, far]}
        else:
            want = oracle(sym.image_of, f.value_at, [*indices, far], n)
        assert all(got.value_at(j) == want[j] for j in indices), n
        assert got.tail == want[far], n
    wants = [seq(r.space, r.entries, r.tail) for _, _, r in _run_results(sym, f, m)]
    for (_, _, r), want in zip(_run_results(sym, f, m), wants):
        assert _is_lazy(r) and repr(r) == repr(want)


def test_the_layout_leaves_out_a_place_whose_window_is_empty():
    # entries m + 1 places apart: the window of m steps from place 1 meets neither
    from rispace import ergodic

    sym, f, m = bilateral_shift(), seq(atomic_z(), {0: 2, 6: 1}), 5
    ((r, qs, _, _),) = ergodic._Orbits(sym, f).layout(m)
    assert (r, qs) == (0, [*range(-4, 1), *range(2, 7)])
    # N's left end and a row at 4 cut the line: the row's places 0..4 go to the walks
    sym, f = AtomicSymbol(atomic_n(), ((4, 9),), 1), seq(atomic_n(), {1: 2, 6: 1, 20: 3})
    ((r, qs, _, _),) = ergodic._Orbits(sym, f).layout(m)
    assert qs == [5, 6, *range(16, 21)]


def test_float_values_on_a_shift_form_no_line_sums():
    # a float and a Fraction past the double range on one line: their sum, which
    # no mean takes, once raised OverflowError from the line's prefix sums
    sym, f, K = AtomicSymbol(atomic_z(), (), 1), seq(atomic_z(), {0: 0.5, 3: Fraction(10**400)}), 3
    got = maximal_truncated(sym, f, K)
    want = maximal_float_walk_oracle(sym, f, range(-5, 6), K)
    assert all(repr(got.value_at(j)) == repr(want[j]) for j in range(-5, 6))
    assert got.tail == 0 and [j for j, _ in got.entries] == [-2, -1, 0, 1, 2, 3]
    assert cesaro(sym, f, 3).value_at(3) == Fraction(10**400, 3)


def test_a_recurring_row_adds_its_cycles_at_once():
    # the row (0, 0) is a fixed point: every index below it walks into it
    sym, e0, n = AtomicSymbol(atomic_z(), ((0, 0),), 1), seq(atomic_z(), {0: 1}), 3000
    t0 = time.monotonic()
    got = cesaro(sym, e0, n)
    assert time.monotonic() - t0 < 2
    assert got == seq(atomic_z(), {j: Fraction(n + j, n) for j in range(1 - n, 1)})
    # a cycle of 3 through the table and a line: 5 -> 0, then 0, 1, ..., 4 by the shift
    sym = AtomicSymbol(atomic_z(), ((5, -1),), 1)
    f = seq(atomic_z(), {-1: 2, 1: Fraction(-1, 3), 3: 1})
    indices = range(-20, 8)
    for n in (1, 5, 6, 7, 40, 41):
        want = cesaro_dict_oracle(sym.image_of, f.value_at, indices, n)
        assert all(cesaro(sym, f, n).value_at(j) == want[j] for j in indices), n


@pytest.mark.parametrize("sym, f", [
    (unilateral_shift(), seq(atomic_n(), {0: Fraction(7, 3), 1: -1, 4: Fraction(1, 2)}, tail=Fraction(1, 6))),
    (AtomicSymbol(atomic_z(), ((0, 4), (2, -3), (5, 5)), 1), seq(atomic_z(), {-3: 2, 1: Fraction(-1, 4), 4: 3, 5: 1})),
    (AtomicSymbol(atomic_n(), ((0, 3), (1, 0)), -2), seq(atomic_n(), {0: 2, 3: Fraction(5, 6), 6: -1}, tail=1)),
    (AtomicSymbol(atomic_finite(4), ((0, 2), (1, 0), (2, 2), (3, 1))),
     seq_from_values(atomic_finite(4), [1, Fraction(1, 3), 0, -2])),
], ids=["N-shift drops the entry at 0", "table", "negative shift on N", "finite"])
def test_apply_on_an_atomic_symbol_is_lazy_and_reads_as_its_seq_twin(sym, f):
    indices = range(sym.space.count) if sym.space.count else _span(sym, f, 1)
    want = seq(sym.space, {j: f.value_at(sym.image_of(j)) for j in indices}, f.tail)
    for name, agrees in _SEQ_READERS.items():
        r = apply(sym, f)
        assert _is_lazy(r)
        assert agrees(r, want), (name, "before the first read")
        assert (r.entries, r.tail) == (want.entries, want.tail)
        assert agrees(r, want), (name, "after the first read")


def _near_oracle(sym, f, m: int, indices) -> set:
    """The indices that a run cannot serve and whose mean is not f's tail
    alone: their first m steps meet both a table row and an entry."""
    def orbit(j):
        for _ in range(m):
            yield j
            j = sym.image_of(j)
    rows = set(sym._images)
    return {j for j in indices if any(i in rows for i in orbit(j)) and any(f.value_at(i) != f.tail for i in orbit(j))}


@given(_infinite_instance(), st.integers(1, 12))
@example((AtomicSymbol(atomic_z(), ((0, 0), (5, -20)), 1), seq(atomic_z(), {1: 3, 2: -1, 4: 2, 6: 1})), 4)
@example((AtomicSymbol(atomic_z(), ((4, -9), (7, 1)), 3), seq(atomic_z(), {-5: 1, 1: 2, 10: -1, 13: 5})), 5)
@settings(max_examples=120)
def test_near_is_the_indices_that_meet_a_row_and_an_entry(pair, m):
    from rispace import ergodic

    sym, f = pair
    assume(sym.shift)
    got = ergodic._Orbits(sym, f).near(m)
    assert len(set(got)) == len(got)
    assert set(got) == _near_oracle(sym, f, m, _span(sym, f, m))


def test_near_takes_no_walk_over_preimages_to_a_far_entry():
    # a preimage walk from the entry, 10^5 levels deep, took 0.19 s of this
    # maximal's 0.6 s; the row's candidates are m - 1 places below it
    from rispace import ergodic

    sym, f, K = AtomicSymbol(atomic_z(), ((0, 5),), 1), seq(atomic_z(), {10**9: 3}), 10**5
    orbits = ergodic._Orbits(sym, f, absolute=True)
    t0 = time.monotonic()
    got = orbits.near(K)
    assert time.monotonic() - t0 < 0.05
    assert list(got) == []


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


_FLOAT_VALUES = [0.1, 1 / 3, -0.7, 0.25, 1.5, 3e-17, 1e20]


@st.composite
def _float_walk_instance(draw):
    """A finite table, or a symbol on Z or N with up to three table rows and
    a shift in -2..3, with float and exact values in [-8, 8]; over N a tail,
    float or exact, that some entries equal in |value| with the other kind."""
    kind = draw(st.sampled_from(["finite", "z", "n"]))
    if kind == "finite":
        sym, f = draw(_atomic_instance())
        sp, tail, lo, hi = sym.space, 0, 0, sym.space.count - 1
    else:
        sp, lo, hi = (atomic_z(), -8, 8) if kind == "z" else (atomic_n(), 0, 8)
        shift = draw(st.integers(-2, 3))
        rows = dict(draw(st.lists(st.tuples(st.integers(lo, 6), st.integers(lo, 6)), max_size=3)))
        if kind == "n" and shift < 0:
            rows |= {j: draw(st.integers(0, 6)) for j in range(-shift) if j not in rows}
        sym = AtomicSymbol(sp, tuple(rows.items()), shift)
        tail = 0 if kind == "z" else draw(st.sampled_from([0, 0, 0.3, 0.125, 2.5, Fraction(5, 2), Fraction(1, 3)]))
    twins = [Fraction(tail), -Fraction(tail), float(tail), -float(tail)] if tail else [0.5]
    value = st.one_of(st.sampled_from(_FLOAT_VALUES), st.sampled_from(twins), st.fractions(-6, 6, max_denominator=4))
    entries = draw(st.dictionaries(st.integers(lo, hi), value, max_size=6))
    entries[draw(st.integers(lo, hi))] = draw(st.sampled_from(_FLOAT_VALUES))  # at least one float
    return sym, seq(sp, entries, tail=tail)


@given(_float_walk_instance(), st.integers(1, 12))
# a Fraction equal to the float tail in |value| counts as the tail: entry 8's mean is 0.3, no Fraction
@example((AtomicSymbol(atomic_n(), ((0, 2),), 2),
          seq(atomic_n(), {2: Fraction(0.3), 4: 2.0, 8: -Fraction(0.3), 10: 0.05}, tail=0.3)), 11)
@example(_FLOAT_TAIL, 10)
@settings(max_examples=150, deadline=None)
def test_maximal_float_values_on_atomic_symbols_round_as_the_float_walk(pair, K):
    sym, f = pair
    far = [] if sym.space.count is not None else [10**6]
    want = maximal_float_walk_oracle(sym, f, [*_oracle_indices(sym, K), *far], K)
    tail = want.pop(10**6, 0)
    assert repr(maximal_truncated(sym, f, K)) == repr(seq(sym.space, want, tail=tail))


_DOUBLING = IntervalSymbol(interval(2), (Branch(0, 1, Affine(2, 0)), Branch(1, 2, Affine(2, -2))))


@st.composite
def _generated_interval_instance(draw):
    """A symbol of ``properties.gen_interval_symbol`` (affine branches, the
    line, a shifted power with an affine tail, exp_recip, ...) or the
    doubling map, with a generated step function on its space and some of
    its values turned into floats."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    sym = draw(st.sampled_from([gen_interval_symbol(rng, 2), _DOUBLING]))
    f = gen_step(rng, 2, sym.space)

    def fl(v):
        return v * draw(st.sampled_from(_FLOAT_SCALES)) if draw(st.booleans()) else v

    return sym, step(f.space, f.cuts, [fl(v) for v in f.vals])


# on (1175/392, 8231/2744) the second mean, the float 3.25, ties |f| = 13/4,
# and the chain's pointwise_max keeps the float there
_TIE_SYMBOL = IntervalSymbol(interval(3), (
    Branch(Fraction(0), Fraction(5, 4), Affine(Fraction(1, 10), Fraction(17, 8))),
    Branch(Fraction(5, 4), Fraction(21, 8), Affine(Fraction(7, 11), Fraction(-13, 44))),
    Branch(Fraction(21, 8), Fraction(3), Affine(Fraction(7), Fraction(-18))),
))
_TIE_F = step(interval(3), [Fraction(1, 8), Fraction(7, 8), Fraction(7, 4), Fraction(17, 8), Fraction(23, 8)],
              [-0.025, -3, 2.275, 3.5, 3, Fraction(13, 4)])


@given(_generated_interval_instance(), st.integers(1, 8))
@example((_TIE_SYMBOL, _TIE_F), 4)
@settings(max_examples=100, deadline=None)
def test_maximal_on_generated_interval_symbols_is_the_chain_or_the_iterate_oracle(pair, K):
    sym, f = pair
    got = maximal_truncated(sym, f, K)
    if any(isinstance(v, float) for v in f.vals):
        assert repr(got) == repr(maximal_chain_oracle(sym, f, K))
        return
    iterates = [iterate_apply(sym, abs_fn(f), i) for i in range(K)]
    for x in refinement_points([got, *iterates]):
        assert got.value_at(x) == maximal_iterate_oracle(iterates, x)


_DOUBLING = IntervalSymbol(interval(1), (Branch(Fraction(0), Fraction(1, 2), Affine(Fraction(2), Fraction(0))),
                                          Branch(Fraction(1, 2), Fraction(1), Affine(Fraction(2), Fraction(-1)))))


@pytest.mark.parametrize("vals", [
    [1, Fraction(-1, 3), 0],  # an exact view
    [Fraction(1, 2**1100), 3, Fraction(-5, 3**700)],  # exact values past the budget, at scale 1
    [0.5, Fraction(1, 3), 0],  # a float value
])
def test_maximal_on_an_interval_symbol_takes_the_chain_only_for_float_values(vals):
    f = step(interval(1), [Fraction(1, 4), Fraction(2, 3)], vals)
    for g in (f, scale(1, f)):  # the second built from its view
        got = maximal_truncated(_DOUBLING, g, 4)
        if any(isinstance(v, float) for v in vals):
            assert repr(got) == repr(maximal_chain_oracle(_DOUBLING, g, 4))
            continue
        iterates = [iterate_apply(_DOUBLING, abs_fn(f), i) for i in range(4)]
        assert not any(isinstance(v, float) for v in got.vals)
        for x in refinement_points([got, *iterates]):
            assert got.value_at(x) == maximal_iterate_oracle(iterates, x)


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
        assert traj.mean(n) == mean


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


def test_cesaro_and_maximal_cost_follow_their_output_under_a_long_table():
    # each step to the table once scanned every table row: about 5 s at
    # n = 16 on this instance; the table's rows are indexed by line
    rng = random.Random(19)
    sym = AtomicSymbol(atomic_z(), tuple((j, rng.randrange(-3000, 3000))
                                         for j in rng.sample(range(-3000, 3000), 2000)), 1)
    f = seq(atomic_z(), {j: Fraction(rng.randint(1, 99), rng.choice((1, 2, 3)))
                         for j in rng.sample(range(-3000, 3000), 500)})
    t0 = time.monotonic()
    means, peaks = cesaro(sym, f, 16), maximal_truncated(sym, f, 16)
    assert time.monotonic() - t0 < 5
    sample = rng.sample(range(-3100, 3000), 40)
    want = cesaro_dict_oracle(sym.image_of, f.value_at, sample, 16)
    assert all(means.value_at(j) == want[j] for j in sample)
    want = maximal_dict_oracle(sym.image_of, f.value_at, sample, 16)
    assert all(peaks.value_at(j) == want[j] for j in sample)


def test_maximal_of_a_far_entry_stays_linear_in_K():
    # the one table row at 0 is far behind every index that meets the entry
    sym = AtomicSymbol(atomic_z(), ((0, 5),), 1)
    t0 = time.monotonic()
    m = maximal_truncated(sym, seq(atomic_z(), {10**9: 3}), 10**5)
    assert time.monotonic() - t0 < 5
    assert len(m.entries) == 10**5
    assert m.value_at(10**9) == 3 and m.value_at(10**9 - 10**5 + 1) == Fraction(3, 10**5)


def test_the_sweep_walks_no_index_under_an_empty_table(monkeypatch):
    from rispace import ergodic

    def refuse(*args):
        raise AssertionError("walked")

    # nothing is walked, and no preimage is taken to find the indices near f
    monkeypatch.setattr(ergodic._Orbits, "walk", refuse)
    monkeypatch.setattr(AtomicSymbol, "index_preimage", refuse)
    for sym, g in ((bilateral_shift(), seq(atomic_z(), {-2: 1, 5: 3})),
                   (unilateral_shift(), seq(atomic_n(), {0: 2, 3: -1, 4: Fraction(1, 3)}, tail=1)),
                   (AtomicSymbol(atomic_z(), (), -2), seq(atomic_z(), {1: 4, 2: -1}))):
        cesaro_schedule(sym, g, (1, 3, 7))
        maximal_truncated(sym, g, 6)


def test_maximal_of_e0_under_the_n_shift_costs_nothing_in_K():
    e0 = seq(atomic_n(), {0: 1})
    t0 = time.monotonic()
    assert maximal_truncated(unilateral_shift(), e0, 10**6) == e0
    assert time.monotonic() - t0 < 1


# two entries whose denominators' lcm is far past the 1,024-bit budget of
# ints over one denominator
_PAST_BUDGET = seq(atomic_n(), {0: Fraction(1, 3**700), 1: Fraction(1, 5**500)}, tail=Fraction(1, 3))


def test_exact_values_past_the_budget_cost_nothing_in_n_and_K():
    # a K-long walk of every index, or the n iterates combined, once took
    # about 6 s and 2 s here; the Fractions are swept over D = 1 like any
    # exact value
    a, b, third, n = Fraction(1, 3**700), Fraction(1, 5**500), Fraction(1, 3), 2 * 10**5
    t0 = time.monotonic()
    m = maximal_truncated(unilateral_shift(), _PAST_BUDGET, n)
    assert time.monotonic() - t0 < 1
    assert m == seq(atomic_n(), {0: third + (a + b - 2 * third) / n, 1: third + (b - third) / n}, tail=third)
    t0 = time.monotonic()
    c = cesaro(unilateral_shift(), _PAST_BUDGET, n)
    assert time.monotonic() - t0 < 1
    assert c == seq(atomic_n(), {0: (a + b + (n - 2) * third) / n, 1: (b + (n - 1) * third) / n}, tail=third)


def test_exact_values_past_the_budget_take_the_exact_path(monkeypatch):
    from rispace import ergodic

    def refuse(*args):
        raise AssertionError("left the exact orbit path")

    # neither iterates, their combination nor the float peak of running sums
    for name in ("linear_combine", "apply", "_peak_mean"):
        monkeypatch.setattr(ergodic, name, refuse)
    big = Fraction(1, 3**700)
    not_a_permutation = AtomicSymbol(atomic_finite(4), ((0, 1), (1, 2), (2, 1), (3, 1)))
    for sym, g in ((unilateral_shift(), _PAST_BUDGET),
                   (AtomicSymbol(atomic_z(), ((0, 3),), -1), seq(atomic_z(), {-2: big, 4: Fraction(-1, 5**500)})),
                   (not_a_permutation, seq_from_values(atomic_finite(4), [big, Fraction(2, 5**500), 0, -1]))):
        cesaro_schedule(sym, g, (1, 3, 7))
        maximal_truncated(sym, g, 6)


def test_float_maximal_on_a_shift_takes_no_preimage_walk_and_no_abs_copy(monkeypatch):
    from rispace import ergodic

    def refuse(*args):
        raise AssertionError("walked preimages or copied |f|")

    # the indices come off the table's places and the runs, |f| off f's view
    monkeypatch.setattr(AtomicSymbol, "index_preimage", refuse)
    monkeypatch.setattr(ergodic, "abs_fn", refuse)
    for sym, g in ((AtomicSymbol(atomic_z(), ((0, 5),), 1), seq(atomic_z(), {-3: 0.5, 4: -1.25, 9: Fraction(1, 3)})),
                   (unilateral_shift(), seq(atomic_n(), {0: -0.5, 3: 0.25, 6: Fraction(-1, 8)}, tail=0.125)),
                   (AtomicSymbol(atomic_n(), ((0, 3),), -1), seq(atomic_n(), {1: 0.5, 5: -0.25}, tail=0.1))):
        maximal_truncated(sym, g, 7)


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
