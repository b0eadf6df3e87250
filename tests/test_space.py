from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rispace import (
    INF,
    atomic_finite,
    atomic_n,
    atomic_set,
    atomic_z,
    empty_set,
    halfline,
    interval,
    interval_set,
    line,
    measure,
)


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
