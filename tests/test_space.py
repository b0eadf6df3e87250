import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rispace import (
    INF,
    NEG_INF,
    Lp,
    atomic_finite,
    atomic_n,
    atomic_set,
    atomic_z,
    empty_set,
    fundamental_function,
    halfline,
    indicator,
    interval,
    interval_set,
    line,
    measure,
    seq,
)
from rispace.properties import gen_set, gen_space, gen_symbol
from rispace.space import AtomicSet, _normalize_intervals
from rispace.symbols import _dyadic_family


def test_space_constructors_and_totals():
    assert halfline().total_measure() == INF
    assert line().total_measure() == INF
    assert interval(Fraction(5, 2)).total_measure() == Fraction(5, 2)
    assert atomic_n().total_measure() == INF
    assert atomic_finite(4, Fraction(1, 2)).total_measure() == 2
    assert atomic_z(3).total_measure() == INF


def test_space_validation():
    with pytest.raises(ValueError):
        interval(0)
    with pytest.raises(ValueError):
        atomic_finite(0)
    with pytest.raises(ValueError):
        atomic_n(atom_mass=0)


def test_valid_index():
    assert atomic_n().valid_index(0)
    assert not atomic_n().valid_index(-1)
    assert atomic_z().valid_index(-5)
    assert atomic_finite(3).valid_index(2)
    assert not atomic_finite(3).valid_index(3)


def test_space_facts_of_every_kind():
    # Lebesgue spaces: the points [left, right) and their total measure
    for sp, domain in ((halfline(), (0, INF)), (line(), (NEG_INF, INF)),
                       (interval(Fraction(5, 2)), (0, Fraction(5, 2)))):
        assert sp.domain == domain and not sp.has_tail
        assert sp.total_measure() == domain[1] - domain[0]
    # atomic spaces: the indices [left, right), the first and last valid
    # index (None when unbounded), and the one kind with a nonzero tail
    for sp, domain, total, first, last in (
            (atomic_n(Fraction(1, 2)), (0, INF), INF, 0, None),
            (atomic_z(3), (NEG_INF, INF), INF, None, None),
            (atomic_finite(4, Fraction(1, 2)), (0, 4), 2, 0, 3)):
        assert sp.domain == domain
        assert sp.has_tail == (sp == atomic_n(Fraction(1, 2)))
        assert sp.total_measure() == total
        if first is None:
            assert sp.valid_index(-10**30)
        else:
            assert sp.valid_index(first) and not sp.valid_index(first - 1)
        if last is None:
            assert sp.valid_index(10**30)
        else:
            assert sp.valid_index(last) and not sp.valid_index(last + 1)
    assert list(range(*atomic_finite(4).domain)) == [0, 1, 2, 3]
    # a nonzero tail, and so a set of infinite measure, only over N
    spn = atomic_n()
    assert seq(spn, {}, tail=1).tail == 1
    assert fundamental_function(Lp(spn, 1), INF) == INF
    assert indicator(spn, atomic_set(spn, [0], cofinite=True)) == seq(spn, {0: 0}, tail=1)
    for sp in (atomic_z(), atomic_finite(3)):
        with pytest.raises(ValueError):
            seq(sp, {}, tail=1)
        with pytest.raises(ValueError):
            fundamental_function(Lp(sp, 1), INF)
    with pytest.raises(ValueError):
        indicator(atomic_z(), atomic_set(atomic_z(), [0], cofinite=True))
    # a cofinite set on a finite space is written out as its members
    fin = atomic_finite(3)
    assert indicator(fin, atomic_set(fin, [0], cofinite=True)) == seq(fin, {1: 1, 2: 1})


def test_interval_set_merging_and_measure():
    sp = halfline()
    E = interval_set(sp, [(0, 1), (1, 2)])  # touching -> merged
    assert len(E.intervals) == 1
    assert E.measure() == 2
    with pytest.raises(ValueError):
        interval_set(sp, [(0, 2), (1, 3)])  # overlapping pairs rejected


def test_interval_set_boolean_ops():
    sp = halfline()
    A = interval_set(sp, [(0, 2), (5, 7)])
    B = interval_set(sp, [(1, 6)])
    assert A.union(B).measure() == 7
    assert A.intersect(B).measure() == 2
    assert A.difference(B).measure() == 2
    # complement within [0, inf)
    C = A.complement()
    assert C.contains(3) and not C.contains(1)
    assert A.union(C).measure() == INF


def test_infinite_ray_measure():
    sp = line()
    E = interval_set(sp, [("-inf", 0)])
    assert E.measure() == INF
    assert E.complement().measure() == INF
    assert E.intersect(interval_set(sp, [(-3, 5)])).measure() == 3


def test_atomic_set_ops_and_cofinite():
    sp = atomic_z()
    E = atomic_set(sp, [0, 1, 5])
    F = atomic_set(sp, [1, 2], cofinite=True)  # Z minus {1, 2}
    assert E.measure() == 3
    assert F.measure() == INF
    assert F.contains(0) and not F.contains(2)
    assert E.intersect(F).measure() == 2  # {0, 5}
    assert E.union(F).complement().measure() == 1  # just {2}
    assert empty_set(sp).is_empty()


def test_measure_dispatch():
    sp = atomic_finite(6, Fraction(1, 3))
    E = atomic_set(sp, [0, 3, 5])
    assert measure(sp, E) == 1
    with pytest.raises(ValueError):
        atomic_set(sp, [7])


@given(
    st.lists(st.integers(-20, 20), max_size=8),
    st.lists(st.integers(-20, 20), max_size=8),
    st.booleans(),
    st.booleans(),
)
def test_atomic_boolean_identities(a, b, ca, cb):
    sp = atomic_z()
    A = atomic_set(sp, a, cofinite=ca)
    B = atomic_set(sp, b, cofinite=cb)
    probe = set(a) | set(b) | {-21, 0, 21}
    for j in probe:
        assert A.union(B).contains(j) == (A.contains(j) or B.contains(j))
        assert A.intersect(B).contains(j) == (A.contains(j) and B.contains(j))
        assert A.complement().contains(j) == (not A.contains(j))
        assert A.difference(B).contains(j) == (A.contains(j) and not B.contains(j))


@given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 6)), max_size=5))
def test_interval_additivity_from_disjoint_pieces(raw):
    # build guaranteed-disjoint intervals, then check measure is additive
    sp = halfline()
    pairs = []
    x = Fraction(0)
    for gap, width in raw:
        lo = x + gap + 1
        pairs.append((lo, lo + width))
        x = lo + width
    E = interval_set(sp, pairs)
    assert E.measure() == sum(b - a for a, b in pairs)


def test_non_finite_space_parameters_are_rejected():
    for build in (lambda: interval(INF), lambda: atomic_n(INF), lambda: atomic_z(INF),
                  lambda: atomic_finite(3, INF)):
        with pytest.raises(ValueError):
            build()


def _normalized_by_builtins(pairs):
    """``_normalize_intervals(pairs, allow_overlap=True)`` as written with
    ``sorted``, ``<``, ``==`` and ``max``."""
    out = []
    for a, b in sorted((a, b) for a, b in pairs):
        assert a < b
        if out and a < out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        elif out and a == out[-1][1]:
            out[-1][1] = b
        else:
            out.append([a, b])
    return tuple((a, b) for a, b in out)


# ends that tie across the two kinds, or share one double (1/10 and 0.1)
_ENDS = [0.0, Fraction(0), Fraction(1, 10), 0.1, 0.25, Fraction(1, 4), 1 / 3, Fraction(1, 3), 0.5, Fraction(1, 2),
         math.nextafter(0.5, 1), 1.0, Fraction(1), Fraction(10**400), INF]


@given(st.lists(st.tuples(st.sampled_from(_ENDS), st.sampled_from(_ENDS)).filter(lambda ab: ab[0] < ab[1]),
                max_size=8))
@example([(0.0, 1.0), (Fraction(1, 4), Fraction(1, 2))])  # nested: the outer end stays
@example([(Fraction(0), 1.0), (0.25, Fraction(1))])  # nested to a tie: max keeps the first
@example([(0.1, 0.5), (Fraction(1, 10), Fraction(1, 3))])  # starts with one double
def test_merged_intervals_keep_the_objects_of_sorted_and_max(pairs):
    got = _normalize_intervals(pairs, allow_overlap=True)
    want = _normalized_by_builtins(pairs)
    assert len(got) == len(want)
    assert all(a is c and b is d for (a, b), (c, d) in zip(got, want))


@pytest.mark.parametrize(
    "build, message",
    [
        # two faults each: the order of the checks decides which is named
        (lambda: atomic_finite(0, 0), "atom_mass must be positive and finite"),
        (lambda: interval_set(atomic_n(), [(1, 0)]), "empty or inverted interval [1, 0)"),
        # one fault each
        (lambda: interval_set(interval(1), [(0, 2)]), "[0, 2) outside the space domain"),
        (lambda: atomic_set(atomic_z(), [True]), "atom indices must be integers"),
        (lambda: atomic_set(atomic_z(), [1.5]), "atom indices must be integers"),
        (lambda: atomic_set(atomic_finite(3), [3]), "index 3 outside the space's range"),
        (lambda: atomic_set(atomic_finite(3), [0], cofinite="no"), "cofinite must be True or False, got 'no'"),
        (lambda: atomic_set(atomic_z(), [0], cofinite=0.5), "cofinite must be True or False, got 0.5"),
        (lambda: atomic_set(atomic_n(), [], cofinite=1), "cofinite must be True or False, got 1"),
        (lambda: atomic_set(atomic_n(), [], cofinite=None), "cofinite must be True or False, got None"),
        # an index fault is named before a cofinite fault
        (lambda: atomic_set(atomic_finite(3), [4], cofinite="no"), "index 4 outside the space's range"),
    ],
)
def test_outside_input_is_refused_by_the_builders(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def _assert_canonical(E):
    """E is what its builder makes of its own intervals or atoms, by ``==``
    and by ``repr``: sorted, disjoint, not touching and inside the domain
    (the builder refuses a piece or an index outside it)."""
    if isinstance(E, AtomicSet):
        built = atomic_set(E.space, E.atoms, E.cofinite)
    else:
        built = interval_set(E.space, E.intervals)
    assert built == E and repr(built) == repr(E)


def test_internal_sets_are_canonical():
    """The set records check nothing themselves, so every set that the set
    algebra, a preimage or the dyadic test family makes must already be in
    the builders' normal form."""
    for seed in range(200):
        rng = random.Random(seed)
        size = rng.randint(1, 4)
        sp = gen_space(rng, size)
        E, F = gen_set(rng, size, sp), gen_set(rng, size, sp)
        others = [F] if sp.is_atomic else [F, interval_set(sp, [(0.1, Fraction(1, 3)), (Fraction(1, 2), 1.0)])]
        for G in others:
            for H in (E.union(G), E.intersect(G), E.difference(G), G.difference(E), G.complement()):
                _assert_canonical(H)
        _assert_canonical(empty_set(sp))
        sym = gen_symbol(rng, size)
        family = [] if sym.space.is_atomic else _dyadic_family(sym.space)
        for G in [gen_set(rng, 4, sym.space), *family]:
            _assert_canonical(G)
            for _ in range(3):
                G = sym.preimage(G)
                _assert_canonical(G)
