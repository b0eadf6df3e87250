import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rispace.num import (
    INF,
    NEG_INF,
    as_real,
    exact_float,
    fmt_real,
    is_finite,
    json_real,
    log_real,
    nth_root,
    to_float,
)


def test_as_real_accepts_the_documented_forms():
    assert as_real(3) == Fraction(3)
    assert as_real(Fraction(2, 7)) == Fraction(2, 7)
    assert as_real("3/4") == Fraction(3, 4)
    assert as_real("inf") == INF
    assert as_real("-inf") == NEG_INF
    assert as_real(1.5) == 1.5
    assert as_real("1.25") == Fraction(5, 4)


def test_as_real_rejects_junk():
    with pytest.raises((TypeError, ValueError)):
        as_real(True)
    with pytest.raises((TypeError, ValueError)):
        as_real(float("nan"))
    with pytest.raises((TypeError, ValueError)):
        as_real("two")


def test_is_finite():
    assert is_finite(Fraction(5))
    assert is_finite(0.0)
    assert not is_finite(INF)
    assert not is_finite(NEG_INF)


@given(st.fractions(max_denominator=10**6))
@example(Fraction(16385, 262144))  # a double whose shortest repr is another decimal
def test_fmt_real_round_trips_fractions(x):
    assert as_real(fmt_real(x)) == x


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_real_round_trips_floats(x):
    back = as_real(fmt_real(x))
    assert to_float(back) == x or (x == 0 and back == 0)


def test_fmt_real_infinities():
    assert fmt_real(INF) == "inf"
    assert fmt_real(NEG_INF) == "-inf"
    assert fmt_real(-0.0) == "0.0"


def test_json_real_uses_numbers_only_when_lossless():
    assert json_real(Fraction(1, 4)) == 0.25
    assert json_real(Fraction(1, 3)) == "1/3"
    assert json_real(Fraction(7)) == 7
    assert json_real(INF) == "inf"
    # 2**53 + 1 is not exactly representable as a double
    assert isinstance(json_real(Fraction(2**53 + 1)), str)


def test_nth_root_exact_on_perfect_powers():
    assert nth_root(Fraction(8, 27), 3) == Fraction(2, 3)
    assert nth_root(Fraction(81), 4) == Fraction(3)
    r = nth_root(Fraction(2), 2)
    assert isinstance(r, float) and math.isclose(r, math.sqrt(2))


def test_log_real_handles_big_fractions():
    # would overflow float(Fraction) if done naively
    big = Fraction(10**400, 3)
    assert math.isclose(log_real(big), 400 * math.log(10) - math.log(3))


def test_exact_float_detection():
    assert exact_float(Fraction(3, 8))
    assert not exact_float(Fraction(1, 3))
