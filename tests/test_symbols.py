import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rispace import (
    INF,
    Affine,
    AffineTail,
    AtomicSymbol,
    Branch,
    ExpRecip,
    IntervalSymbol,
    PowerOnUnit,
    ShiftedPower,
    apply,
    atomic_finite,
    atomic_n,
    atomic_power,
    atomic_set,
    atomic_z,
    check_condition_I,
    constant,
    halfline,
    integrate,
    interval,
    interval_set,
    line,
    lower_bound,
    measure_bound,
    pointwise_mul,
    power_measure_bound,
    preimage,
    preimage_measure,
    scale,
    step,
)
from rispace.examples import (
    bilateral_shift,
    demo_permutation,
    exp_recip_symbol,
    nonsurjective_shift,
    power_symbol,
    shifted_power_symbol,
    translation_line,
    unilateral_shift,
)
from rispace.properties import gen_interval_symbol, gen_set, gen_step
from rispace.space import ATOMIC_FINITE, ATOMIC_N, ATOMIC_Z
from rispace.symbols import _transfer_once

from .oracles import (
    atomic_bound_rows_oracle,
    atomic_power_oracle,
    preimage_oracle,
    pull_back_oracle,
    transfer_once_oracle,
)


# ---------------------------------------------------------------------------
# catalog construction and validation
# ---------------------------------------------------------------------------


def test_pinned_domains_are_enforced():
    with pytest.raises(ValueError):
        Branch(Fraction(0), Fraction(2), PowerOnUnit(2))
    with pytest.raises(ValueError):
        Branch(Fraction(0), Fraction(1), AffineTail(1))
    with pytest.raises(ValueError):
        PowerOnUnit(1)
    with pytest.raises(ValueError):
        Affine(0, 1)


def test_interval_symbol_rejects_overlapping_branches():
    sp = halfline()
    with pytest.raises(ValueError):
        IntervalSymbol(
            sp,
            (
                Branch(0, 2, Affine(1, 0)),
                Branch(1, 3, Affine(1, 1)),
            ),
        )


def test_atomic_symbol_validation():
    with pytest.raises(ValueError):
        AtomicSymbol(atomic_finite(3), ((0, 1), (0, 2)))  # duplicate key
    with pytest.raises(ValueError):
        AtomicSymbol(atomic_finite(3), ((0, 3),))  # image out of range
    with pytest.raises(ValueError):
        AtomicSymbol(atomic_finite(3), ((0, 1),))  # table must be total
    with pytest.raises(ValueError):
        AtomicSymbol(atomic_n(), ())  # infinite space needs a shift
    with pytest.raises(ValueError):
        AtomicSymbol(atomic_n(), (), shift=-1)  # 0 would leave N


def test_image_of():
    sym = nonsurjective_shift()
    assert sym.image_of(0) == 0
    assert sym.image_of(5) == 4
    assert demo_permutation().is_permutation()
    not_perm = AtomicSymbol(atomic_finite(2), ((0, 0), (1, 0)))
    assert not not_perm.is_permutation()


# ---------------------------------------------------------------------------
# preimages
# ---------------------------------------------------------------------------


def test_preimage_power_symbol_exact():
    sym = power_symbol(2)
    sp = interval(1)
    E = interval_set(sp, [(0, Fraction(1, 4))])
    assert preimage(sym, E) == interval_set(sp, [(0, Fraction(1, 2))])
    assert preimage_measure(sym, E) == Fraction(1, 2)


def test_preimage_translation():
    sym = translation_line()
    sp = line()
    E = interval_set(sp, [(0, 1)])
    assert preimage(sym, E) == interval_set(sp, [(1, 2)])


def test_preimage_reflection():
    sp = line()
    sym = IntervalSymbol(sp, (Branch(-INF, INF, Affine(-1, 0)),))
    E = interval_set(sp, [(1, 3)])
    # preimage of [1,3) under t -> -t is (-3,-1]; half-open convention keeps
    # the measure right even though the endpoint set differs by a null set
    assert preimage_measure(sym, E) == 2


def test_preimage_shifted_power_branches():
    sym = shifted_power_symbol(2)
    sp = halfline()
    assert preimage(sym, interval_set(sp, [(1, Fraction(5, 4))])) == interval_set(
        sp, [(0, Fraction(1, 2))]
    )
    assert preimage(sym, interval_set(sp, [(2, 4)])) == interval_set(sp, [(1, 2)])
    # nothing maps below 1
    assert preimage(sym, interval_set(sp, [(0, 1)])).is_empty()


def test_preimage_exp_recip():
    sym = exp_recip_symbol()
    sp = interval(1)
    E = interval_set(sp, [(0, math.exp(-1.0))])
    m = preimage_measure(sym, E)
    assert float(m) == pytest.approx(0.5, abs=1e-12)


def test_preimage_atomic():
    assert preimage(bilateral_shift(), atomic_set(atomic_z(), [0])) == atomic_set(
        atomic_z(), [-1]
    )
    assert preimage(nonsurjective_shift(), atomic_set(atomic_n(), [0])) == atomic_set(
        atomic_n(), [0, 1]
    )
    # unilateral shift: {0} has no preimage
    assert preimage(unilateral_shift(), atomic_set(atomic_n(), [0])).is_empty()


def test_preimage_cofinite():
    sym = bilateral_shift()
    E = atomic_set(atomic_z(), [3], cofinite=True)
    P = preimage(sym, E)
    assert not P.contains(2) and P.contains(3)


# ---------------------------------------------------------------------------
# measure bounds
# ---------------------------------------------------------------------------


def test_measure_bounds_catalog():
    assert measure_bound(translation_line()) == 1
    assert measure_bound(power_symbol(2)) == INF
    assert measure_bound(power_symbol(3)) == INF
    assert measure_bound(exp_recip_symbol()) == INF
    assert measure_bound(unilateral_shift()) == 1
    assert measure_bound(bilateral_shift()) == 1
    assert measure_bound(nonsurjective_shift()) == 2
    assert measure_bound(demo_permutation()) == 1


def test_lower_bounds_catalog():
    assert lower_bound(translation_line()) == 1
    assert lower_bound(power_symbol(2)) == 2
    assert lower_bound(power_symbol(3)) == 3
    assert float(lower_bound(exp_recip_symbol())) == pytest.approx(4 / math.e, rel=1e-12)
    assert lower_bound(unilateral_shift()) == INF  # {0} has empty preimage
    assert lower_bound(nonsurjective_shift()) == 1
    assert lower_bound(shifted_power_symbol(2)) == INF


def test_scaling_affine_contracts_measure():
    sp = line()
    sym = IntervalSymbol(sp, (Branch(-INF, INF, Affine(2, 0)),))
    assert measure_bound(sym) == Fraction(1, 2)
    assert lower_bound(sym) == 2


def test_power_measure_bound_nonsurjective_shift():
    pb = power_measure_bound(nonsurjective_shift(), 5)
    assert pb.certified
    assert pb.per_n == ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6))
    assert pb.at(5) == 6
    assert pb.sup == 6
    with pytest.raises(KeyError):
        pb.at(7)


def test_power_measure_bound_preserving_symbols():
    for sym in (bilateral_shift(), demo_permutation(), translation_line()):
        pb = power_measure_bound(sym, 6)
        assert pb.certified
        assert pb.sup == 1
        assert all(a == 1 for _, a in pb.per_n)


def test_power_measure_bound_affine_certified():
    sp = line()
    sym = IntervalSymbol(sp, (Branch(-INF, INF, Affine(2, 5)),))
    pb = power_measure_bound(sym, 4)
    assert pb.certified
    assert pb.at(3) == Fraction(1, 8)


@pytest.mark.parametrize("sym, certified", [
    (demo_permutation(), True),
    (nonsurjective_shift(), True),
    (translation_line(), True),
    (shifted_power_symbol(2), False),
    (power_symbol(2), False),
])
def test_power_bounds_say_whether_they_are_certified(sym, certified):
    assert power_measure_bound(sym, 2).certified is certified


@pytest.mark.parametrize("sym, hole, back", [
    (unilateral_shift(), [0, 2], [1]),
    (nonsurjective_shift(), [0, 2], [0, 1, 3]),
])
def test_preimage_of_a_cofinite_set_over_n(sym, hole, back):
    E = atomic_set(sym.space, hole, cofinite=True)
    assert preimage(sym, E) == atomic_set(sym.space, back, cofinite=True)


def test_power_measure_bound_dyadic_probe_uncertified():
    pb = power_measure_bound(power_symbol(2), 2)
    assert not pb.certified
    # the depth-12 dyadic family already sees mu(phi^{-1}[0,2^-12)) = 2^-6
    assert pb.at(1) == 64
    assert pb.at(2) == 512


def test_atomic_power_frozen():
    sq = atomic_power(nonsurjective_shift(), 2)
    assert sq.image_of(0) == 0 and sq.image_of(1) == 0 and sq.image_of(5) == 3
    ident = atomic_power(demo_permutation(), 0)
    assert all(ident.image_of(j) == j for j in range(8))


def test_condition_I_catalog():
    # the witness and the power bounds are pinned for one symbol per sweep
    # path: permutation, counted atomic shift, affine transfer density and
    # the dyadic probe
    perm = check_condition_I(demo_permutation(), 5)
    assert perm.condition_I3_witness == 1
    assert perm.power_bounds.per_n == tuple((n, 1) for n in range(1, 6))
    good = check_condition_I(translation_line(), 5)
    assert good.condition_I1 and good.nonsingular and good.dilation_B == 1
    assert good.condition_I3_witness == 1
    assert good.power_bounds.per_n == tuple((n, 1) for n in range(1, 6))
    bad = check_condition_I(power_symbol(2), 5)
    assert not bad.condition_I1
    assert bad.condition_I3  # lower bound exists even though A = inf
    assert bad.measure_bound == INF and bad.lower_bound == 2
    assert bad.dilation_B == 0
    assert float(bad.condition_I3_witness) == pytest.approx(0.04285587582459982, rel=1e-12)
    assert bad.power_bounds.per_n[:2] == ((1, 64), (2, 512))
    assert [float(a) for _, a in bad.power_bounds.per_n[2:]] == pytest.approx(
        [1448.1546878700494, 2435.4961715255727, 3158.4477704354626], rel=1e-12
    )
    ns = check_condition_I(nonsurjective_shift(), 5)
    assert not ns.condition_I1  # power bounds grow without bound
    assert ns.dilation_B == Fraction(1, 2)
    assert ns.condition_I3_witness == 1
    assert ns.power_bounds.per_n == tuple((n, n + 1) for n in range(1, 6))
    shp = check_condition_I(shifted_power_symbol(2), 5)
    assert not shp.strictly_nonsingular  # [0,1) has an empty preimage


# ---------------------------------------------------------------------------
# randomized cross-checks
# ---------------------------------------------------------------------------


@st.composite
def _finite_symbol(draw):
    n = draw(st.integers(2, 7))
    images = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return AtomicSymbol(atomic_finite(n), tuple((j, images[j]) for j in range(n)))


@st.composite
def _infinite_symbol(draw):
    """Symbols on Z or N with a table in [-6, 6] and a shift in [-2, 2]."""
    on_z = draw(st.booleans())
    sp = atomic_z() if on_z else atomic_n()
    shift = draw(st.integers(-2, 2))
    lo = -6 if on_z else 0
    keys = set(draw(st.lists(st.integers(lo, 6), max_size=5)))
    if not on_z and shift < 0:
        keys |= set(range(-shift))  # 0..-c-1 must not fall off N
    images = draw(st.lists(st.integers(lo, 6), min_size=len(keys), max_size=len(keys)))
    return AtomicSymbol(sp, tuple(zip(sorted(keys), images)), shift)


_atomic_symbol = st.one_of(_finite_symbol(), _infinite_symbol())
_ALL_NEGATIVE_TABLE = AtomicSymbol(atomic_z(), ((-4, -5),), 0)
# the Z-shift that keeps 0 fixed: 0 gathers n + 1 preimages under phi^n and
# 1..n have none, so delta_n's support grows with n
_FIXED_ZERO = AtomicSymbol(atomic_z(), ((0, 0),), 1)


def _indices(sym, reach):
    """Every atom of a finite space; on Z and N the indices below `reach` in
    absolute value, far past the table on each side."""
    if sym.space.kind == ATOMIC_FINITE:
        return range(sym.space.count)
    return range(-reach if sym.space.kind == ATOMIC_Z else 0, reach)


@given(_atomic_symbol, st.integers(0, 5))
@example(_ALL_NEGATIVE_TABLE, 3)
@settings(max_examples=80)
def test_atomic_power_matches_orbit(sym, k):
    pk = atomic_power(sym, k)
    for j in _indices(sym, 50):
        pos = j
        for _ in range(k):
            pos = sym.image_of(pos)
        assert pk.image_of(j) == pos


@given(_finite_symbol())
@settings(max_examples=80)
def test_measure_bound_is_max_preimage_count(sym):
    n = sym.space.count
    counts = [sum(1 for j in range(n) if sym.image_of(j) == t) for t in range(n)]
    assert measure_bound(sym) == max(counts)
    want_lower = INF if 0 in counts else 1
    assert lower_bound(sym) == want_lower


def _test_interval(x, y):
    """[x, y) when it is finite, else a unit interval at its finite end."""
    if x == -INF and y == INF:
        return Fraction(0), Fraction(1)
    if y == INF:
        return x, x + 1
    if x == -INF:
        return y - 1, y
    return x, y


def test_one_step_bounds_of_affine_symbols_match_cell_ratios():
    # the transfer density is constant between consecutive image and domain
    # endpoints, so mu(phi^{-1} E) / mu(E) on one test interval per cell is
    # its exact value there
    for seed in range(300):
        rng = random.Random(seed)
        sym = gen_interval_symbol(rng, rng.randint(1, 5), affine_only=True)
        points = set(sym.space.domain)
        for br in sym.branches:
            points.update(br.image())
        pts = sorted(points)
        ratios = []
        for x, y in zip(pts, pts[1:]):
            a, b = _test_interval(x, y)
            ratios.append(preimage_measure(sym, interval_set(sym.space, [(a, b)])) / (b - a))
        assert measure_bound(sym) == max(ratios)
        assert lower_bound(sym) == (INF if min(ratios) == 0 else 1 / min(ratios))
        analysis = check_condition_I(sym, 1)
        assert (analysis.measure_bound, analysis.lower_bound) == (measure_bound(sym), lower_bound(sym))


def _preimage_counts(pm):
    """#preimages under pm of each target near the table.

    On Z and N the sources reach far enough that these counts are complete,
    and the leading 1 stands for the targets far out, which have exactly one.
    """
    sources = _indices(pm, 60)
    images = [pm.image_of(j) for j in sources]
    if pm.space.kind == ATOMIC_FINITE:
        return [images.count(t) for t in sources]
    return [1] + [images.count(t) for t in _indices(pm, 20)]


@given(_atomic_symbol, st.integers(1, 4))
@example(_ALL_NEGATIVE_TABLE, 3)
@settings(max_examples=60)
def test_power_bound_matches_iterated_preimage(sym, horizon):
    pb = power_measure_bound(sym, horizon)
    assert pb.certified
    witness = INF
    for m in range(1, horizon + 1):
        counts = _preimage_counts(atomic_power(sym, m))
        assert pb.at(m) == max(counts)
        witness = min(witness, min(counts))
    assert check_condition_I(sym, horizon).condition_I3_witness == witness


def _drawn_atomic_symbol(rng):
    """An atomic symbol on Z or N with a shift in -4..4 and a table in
    [-8, 8] (over N, [0, 8], holding 0..-c-1 for a negative shift c), or a
    map of a finite space onto itself, permutation or not."""
    kind = rng.choice((ATOMIC_Z, ATOMIC_N, ATOMIC_FINITE))
    if kind == ATOMIC_FINITE:
        n = rng.randint(1, 8)
        return AtomicSymbol(atomic_finite(n), tuple((j, rng.randrange(n)) for j in range(n)))
    shift = rng.randint(-4, 4)
    lo = -8 if kind == ATOMIC_Z else 0
    keys = set(rng.sample(range(lo, 9), rng.randint(0, 6)))
    if kind == ATOMIC_N and shift < 0:
        keys |= set(range(-shift))
    sp = atomic_z() if kind == ATOMIC_Z else atomic_n()
    return AtomicSymbol(sp, tuple((j, rng.randint(lo, 8)) for j in sorted(keys)), shift)


def test_atomic_rows_and_powers_match_the_window_sweep():
    # the window sweep moves every source near the table and counts every
    # target of a padded range; the library reads the table's rows only
    rngs = [random.Random(seed) for seed in range(400)]
    cases = [(_ALL_NEGATIVE_TABLE, 40), (_FIXED_ZERO, 40)]
    cases += [(_drawn_atomic_symbol(rng), rng.randint(1, 40)) for rng in rngs]
    kinds = {(sym.space.kind, sym.shift) for sym, _ in cases}
    assert {(kind, c) for kind in (ATOMIC_Z, ATOMIC_N) for c in range(-4, 5)} <= kinds
    assert any(sym.space.kind == ATOMIC_FINITE and not sym.is_permutation() for sym, _ in cases)
    for sym, horizon in cases:
        assert list(sym.bound_rows(horizon)) == atomic_bound_rows_oracle(sym, horizon), sym
        for k in range(9):
            assert atomic_power(sym, k) == atomic_power_oracle(sym, k), (sym, k)


def test_rows_of_a_shift_with_a_table_match_the_window_sweep():
    # the symbol of the horizon-4,000 analyze-symbol test in test_cli
    sym = AtomicSymbol(atomic_z(), ((0, 5), (1, 0)), 1)
    assert list(sym.bound_rows(60)) == atomic_bound_rows_oracle(sym, 60)


def test_rows_whose_support_grows_with_the_horizon_stay_fast():
    # 5.6 s when each row took the max and min over every entry of delta_n
    start = time.perf_counter()
    rows = list(_FIXED_ZERO.bound_rows(16_000))
    assert time.perf_counter() - start < 2
    assert rows[-1] == (16_000, 16_001, 0)


def test_atomic_power_rejects_a_negative_power():
    with pytest.raises(ValueError, match="power must be >= 0"):
        atomic_power(bilateral_shift(), -1)


def test_affine_parameters_must_be_finite():
    for alpha, beta in ((INF, 0), (-INF, 0), (1, INF), (1, -INF)):
        with pytest.raises(ValueError):
            Affine(alpha, beta)


# order-reversing affine branches: on [0, 1), and on the half-line beside a
# branch that runs to infinity
_DECREASING = (
    IntervalSymbol(interval(1), (Branch(0, Fraction(1, 2), Affine(2, 0)), Branch(Fraction(1, 2), 1, Affine(-1, 1)))),
    IntervalSymbol(halfline(), (Branch(0, 1, Affine(-1, 2)), Branch(1, INF, Affine(1, 1)))),
)


def test_interval_maps_match_the_per_interval_rule():
    # the oracle pulls back and moves one piece through one branch at a time
    fixed = [*_DECREASING, power_symbol(3), exp_recip_symbol(), shifted_power_symbol(2)]
    for seed in range(300):
        rng = random.Random(seed)
        sym = fixed[seed] if seed < len(fixed) else gen_interval_symbol(rng, rng.randint(1, 4))
        sp = sym.space
        f = gen_step(rng, rng.randint(0, 5), sp, compact=rng.random() < 0.5)
        floated = step(sp, [float(c) for c in f.cuts], f.vals)
        fns = [f, scale(0.7, f), floated, constant(sp, 1)]
        for g in fns:
            assert repr(sym.pull_back(g)) == repr(pull_back_oracle(sym, g)), (sym, g)
        E = gen_set(rng, rng.randint(0, 4), sp)
        for S in (E, interval_set(sp, [(float(a), float(b)) for a, b in E.intervals])):
            assert repr(preimage(sym, S)) == repr(preimage_oracle(sym, S)), (sym, S)
        if sym.certified:
            rho = constant(sp, 1)
            for _ in range(3):
                rho = _transfer_once(sym, rho)
                fns.append(rho)
            for g in fns:
                assert repr(_transfer_once(sym, g)) == repr(transfer_once_oracle(sym, g)), (sym, g)


def test_a_preimage_that_rounds_to_width_0_is_dropped():
    # the float inverse of exp(1 - 1/t) sends both ends of [y, y') to 0.5
    y = math.nextafter(math.exp(-1.0), 0)
    sym = exp_recip_symbol()
    f = step(sym.space, [y, math.nextafter(y, 1)], [1, 2, 3])
    assert sym.pull_back(f) == step(sym.space, [0.5], [1, 3])
    assert repr(sym.pull_back(f)) == repr(pull_back_oracle(sym, f))
    E = interval_set(sym.space, [(y, math.nextafter(y, 1))])
    assert preimage(sym, E).intervals == () == preimage_oracle(sym, E).intervals


def test_composition_and_transfer_are_adjoint():
    # the integral of (f o phi) g equals the integral of f (P g), exactly
    for seed in range(600):
        rng = random.Random(seed)
        sym = gen_interval_symbol(rng, rng.randint(1, 4), affine_only=True)
        f, g = (gen_step(rng, rng.randint(0, 5), sym.space) for _ in range(2))
        lhs = integrate(pointwise_mul(apply(sym, f), g))
        assert lhs == integrate(pointwise_mul(f, _transfer_once(sym, g))), (seed, sym, f, g)
