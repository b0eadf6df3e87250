import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rispace.num import (
    INF,
    NEG_INF,
    _int_nth_root,
    _newton_root,
    as_real,
    exact_float,
    fmt_real,
    is_finite,
    json_real,
    log_real,
    nth_root,
    rational_pow,
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


def test_nth_root_of_rationals_outside_the_float_range():
    # 10**401 overflows a double and 10**-401 underflows to 0, but both
    # square roots are ordinary doubles
    big = nth_root(Fraction(10**401), 2)
    assert math.isclose(big, math.sqrt(10) * 1e200, rel_tol=1e-15)
    tiny = nth_root(Fraction(1, 10**401), 2)
    assert tiny != 0
    assert math.isclose(tiny, 1e-200 / math.sqrt(10), rel_tol=1e-15)
    # 3 2^-1100 is below the subnormal range; its cube root is 6^(1/3) 2^-367
    assert math.isclose(nth_root(Fraction(3, 2**1100), 3), math.ldexp(6 ** (1 / 3), -367), rel_tol=1e-15)
    # a root that is itself past the double range stays inf
    assert nth_root(Fraction(2 ** 4100 + 1), 2) == INF


def test_rational_pow_of_a_float_root_past_the_double_range_is_inf():
    # the cube root of 2 10^600 is an ordinary double, its square is not
    assert rational_pow(Fraction(2 * 10**600), Fraction(2, 3)) == INF
    assert rational_pow(Fraction(10**401), Fraction(3, 2)) == INF
    assert rational_pow(Fraction(2 * 10**600), Fraction(-2, 3)) == 0
    assert rational_pow(Fraction(10**401), Fraction(1025, 2)) == INF
    assert math.isclose(rational_pow(Fraction(2 * 10**600), Fraction(1, 3)), 2 ** (1 / 3) * 1e200, rel_tol=1e-15)


def test_nth_root_normal_range_keeps_the_float_power():
    for x in (Fraction(2), Fraction(1, 3), Fraction(10**300 + 1), Fraction(1, 10**300 + 7)):
        for n in (2, 3, 7):
            assert nth_root(x, n) == float(x) ** (1.0 / n)


def test_rational_pow_float_exponent_outside_the_float_range():
    assert math.isclose(rational_pow(Fraction(10**401), 0.5), math.sqrt(10) * 1e200, rel_tol=1e-13)
    assert math.isclose(rational_pow(Fraction(1, 10**401), 0.5), 1e-200 / math.sqrt(10), rel_tol=1e-13)
    assert math.isclose(rational_pow(Fraction(1, 2**1100), -0.25), 2.0**275, rel_tol=1e-13)
    assert rational_pow(Fraction(10**401), INF) == INF and rational_pow(Fraction(1, 10**401), INF) == 0
    assert rational_pow(Fraction(10**401), -INF) == 0 and rational_pow(Fraction(1, 10**401), -INF) == INF
    # inside the range the plain float power is kept
    assert rational_pow(Fraction(1, 3), 0.7) == (1 / 3) ** 0.7


def test_powers_past_the_bit_budget_are_floats():
    # each of these once asked for an exact power with an exponent of 10**30
    assert rational_pow(Fraction(3), Fraction(10**30)) == INF
    assert rational_pow(Fraction(1, 3), Fraction(10**300)) == 0.0
    assert rational_pow(Fraction(1, 3), Fraction(-(10**30))) == INF
    assert math.isclose(rational_pow(Fraction(3), Fraction(1, 10**30)), 1.0)
    assert math.isclose(nth_root(Fraction(10**401), 10**300), 1.0)
    assert math.isclose(nth_root(Fraction(1, 10**401), 10**300), 1.0)
    # a power of 1 stays exact, and so does a power within the budget
    one = rational_pow(Fraction(1), Fraction(10**300))
    assert one == 1 and isinstance(one, Fraction)
    assert rational_pow(Fraction(3, 2), Fraction(1000)) == Fraction(3**1000, 2**1000)
    assert rational_pow(Fraction(9, 4), Fraction(2001, 2)) == Fraction(3**2001, 2**2001)


def test_a_power_of_one_keeps_each_bases_result():
    # an exact base within the bit budget is its own power
    x = Fraction(7, 3)
    assert rational_pow(x, Fraction(1)) is x and rational_pow(x, 1) is x
    assert repr(rational_pow(Fraction(0), 1)) == "Fraction(0, 1)"
    # a float base or exponent keeps its path: a subnormal base comes back
    # as its exact value, a normal one as itself
    assert repr(rational_pow(5e-324, Fraction(1))) == repr(Fraction(5e-324))
    assert repr(rational_pow(2.5, Fraction(1))) == "2.5"
    assert repr(rational_pow(x, 1.0)) == repr(7 / 3)
    # past the bit budget the power is a float
    assert repr(rational_pow(Fraction(3, 2 ** (1 << 20)), 1)) == "0.0"


def test_int_nth_root_of_an_index_past_the_bit_length_is_one():
    assert _int_nth_root(3, 10**30) == 1
    assert _int_nth_root(2**64 - 1, 64) == 1
    assert _int_nth_root(2**64, 64) == 2


@given(st.integers(0, 2**4096))
@example(0)
@example(1)
@example(2)
@example(3)
def test_int_square_root_is_the_newton_loop(a):
    r = _int_nth_root(a, 2)
    assert r == _newton_root(a, 2) and r * r <= a < (r + 1) ** 2


def test_log_real_handles_big_fractions():
    # would overflow float(Fraction) if done naively
    big = Fraction(10**400, 3)
    assert math.isclose(log_real(big), 400 * math.log(10) - math.log(3))


def test_exact_float_detection():
    assert exact_float(Fraction(3, 8))
    assert not exact_float(Fraction(1, 3))
