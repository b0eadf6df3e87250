import math
import random
import time
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
    common_denominator,
    exact_float,
    fmt_real,
    is_finite,
    json_real,
    log_real,
    lt,
    nth_root,
    ratio_pow,
    rational_pow,
    real_key,
    scaled,
    to_float,
)


def primes_from(lo: int, count: int) -> list[int]:
    """The first count primes at or above lo, by a sieve of [lo, lo + 40 count)."""
    hi = lo + 40 * count
    sieve = bytearray([1]) * hi
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(hi - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, hi, p)))
    primes = [p for p in range(lo, hi) if sieve[p]]
    assert len(primes) >= count
    return primes[:count]


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


@given(st.integers(1, 5000).flatmap(lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1)), st.integers(1, 3000))
@example(3**4000, 2000)
@example(3**4000 - 1, 2000)
@example((2**70 + 1) ** 30, 30)
@example((2**70 + 1) ** 30 - 1, 30)
@example(2**5000 - 1, 3)
def test_newton_root_is_the_floor_of_the_root(a, n):
    # past the double range Newton starts from 2^(log2(a)/n)
    r = _newton_root(a, n)
    assert r**n <= a < (r + 1) ** n


_RATIO_EXPONENTS = (Fraction(1, 2), Fraction(1, 3), Fraction(3, 2), Fraction(2, 3), Fraction(-1, 2), 1, 2,
                    Fraction(-3), 0.5, -0.5, 1e-30, 1e30, 0, Fraction(1, 10**30), Fraction(10**30), Fraction(1025, 2))


def test_ratio_pow_is_rational_pow_of_the_ratio_in_lowest_terms_or_not():
    # exact squares and cubes among the ratios, some off the double range
    rng = random.Random(5)
    ratios = [(rng.getrandbits(rng.randint(1, 70)), rng.getrandbits(rng.randint(1, 70)) + 1) for _ in range(150)]
    ratios += [(p**k, q**k) for p, q in ratios[:40] for k in (2, 3)] + [(3, 2**1100), (10**401, 1), (1, 10**401), (0, 5)]
    for n, d in ratios:
        x = Fraction(n, d)
        for e in _RATIO_EXPONENTS:
            want = rational_pow(x, e)
            for s in (1, 6, 2**70):
                got = ratio_pow(n * s, d * s, e)
                # a Fraction by value: its text may be past the 4,300-digit limit
                assert type(got) is type(want) and (got == want if type(want) is Fraction else repr(got) == repr(want))


def test_a_ratio_is_a_perfect_power_exactly_when_its_lowest_terms_are():
    rng = random.Random(6)
    for _ in range(300):
        k = rng.choice((2, 3, 5))
        p, q = rng.randint(1, 50) ** rng.choice((1, k)), rng.randint(1, 50) ** rng.choice((1, k))
        s = rng.choice((1, 4, 12))
        x = Fraction(p, q)
        exact = _int_nth_root(x.numerator, k) ** k == x.numerator and _int_nth_root(x.denominator, k) ** k == x.denominator
        root = ratio_pow(p * s, q * s, Fraction(1, k))
        assert isinstance(root, Fraction) == exact
        assert root ** k == x if exact else root == float(x) ** (1.0 / k)


def test_log_real_handles_big_fractions():
    # would overflow float(Fraction) if done naively
    big = Fraction(10**400, 3)
    assert math.isclose(log_real(big), 400 * math.log(10) - math.log(3))
    # an int ratio is read in lowest terms, as its Fraction is
    assert log_real(6 * 10**400, 18) == log_real(big)


def test_exact_float_detection():
    assert exact_float(Fraction(3, 8))
    assert not exact_float(Fraction(1, 3))


def test_a_common_denominator_of_1024_bits_is_exact_and_one_more_bit_is_not():
    assert common_denominator([2**1023, 2, 1, 2**1023]) == 2**1023
    assert scaled([Fraction(1, 2**1023), Fraction(3, 2)]) == (2**1023, [1, 3 * 2**1022])
    assert common_denominator([2**1024]) is None
    assert common_denominator([3, 2**1024, 5]) is None
    values = [Fraction(1, 2**1024), Fraction(3, 2)]
    assert scaled(values) == (1, values)
    assert common_denominator([]) == 1 and scaled([]) == (1, [])


def test_a_float_puts_every_value_at_scale_1():
    for values in ([0.5], [Fraction(1, 3), 0.5], [0.0, Fraction(2)]):
        D, got = scaled(values)
        assert D == 1 and got == values and list(map(type, got)) == list(map(type, values))


def test_scaled_stops_at_the_budget_on_many_distinct_denominators():
    # 1/p over the first 40,000 primes: their lcm was once formed whole,
    # 691,000 bits, before it was tested, about 9 s; it passes 1,024 bits at
    # the 132nd prime
    values = [Fraction(1, p) for p in primes_from(2, 40_000)]
    start = time.perf_counter()
    got = scaled(values)
    assert time.perf_counter() - start < 1
    assert got == (1, values)


# doubles and Fractions that meet lt's three paths: the doubles of a float
# and a Fraction differ, they tie (the Fraction is a double, or rounds to
# the float), or the Fraction has no double (n / d overflows)
_LT_REALS = st.one_of(
    st.floats(allow_nan=False),
    st.fractions(),
    st.floats(allow_nan=False, allow_infinity=False).map(Fraction),
    st.builds(lambda x, e: Fraction(x) + Fraction(1, 2**e), st.floats(-1e3, 1e3), st.integers(60, 1100)),
    st.builds(lambda sign, e, r: sign * (Fraction(10**e) + r), st.sampled_from((1, -1)), st.integers(308, 500),
              st.fractions()),
    st.sampled_from((INF, NEG_INF, 5e-324, -5e-324, 2.2250738585072014e-308, -0.0, 0.0, 1.7976931348623157e308)),
)


@given(_LT_REALS, _LT_REALS)
@example(0.5, Fraction(1, 2))  # a tie: the Fraction is the double
@example(0.1, Fraction(1, 10))  # the Fraction rounds to the float, which is above it
@example(1.7976931348623157e308, Fraction(10**400))  # no double: n / d overflows
@example(INF, -Fraction(10**400))
@example(NEG_INF, Fraction(10**400))
@example(5e-324, Fraction(1, 10**400))  # rounds to 0.0
@example(-0.0, Fraction(0))
@example(Fraction(1, 3), Fraction(1, 2))  # both exact
@example(0.25, 0.5)
def test_lt_is_less_than_in_both_orders(a, b):
    assert lt(a, b) == (a < b)
    assert lt(b, a) == (b < a)


@given(st.lists(_LT_REALS, max_size=12))
@example([0.5, Fraction(1, 2), 0.5, Fraction(1, 2)])  # equal values of both kinds keep their order
@example([Fraction(1, 2), 0.5])
@example([Fraction(10**400), INF, -Fraction(10**400), NEG_INF, 1.7976931348623157e308])  # no double: +-inf ties
@example([INF, Fraction(10**400), NEG_INF, -Fraction(10**400)])
@example([5e-324, Fraction(1, 10**400), 0.0, -0.0, Fraction(0), -5e-324, -Fraction(1, 10**400)])  # subnormals, zeros
@example([0.1, Fraction(1, 10), Fraction(3602879701896397, 36028797018963968)])  # 1/10 rounds to the float above it
def test_the_real_key_sorts_as_sorted(xs):
    got, want = sorted(xs, key=real_key), sorted(xs)
    assert len(got) == len(want)
    assert all(x is y for x, y in zip(got, want))


# Fractions for lt's cross-product: either sign, equal values reached by
# different numerators and denominators, and numerators of 10^400
_LT_FRACTIONS = st.one_of(
    st.fractions(),
    st.builds(lambda n, d, k: Fraction(n * k, d * k), st.integers(-50, 50), st.integers(1, 50), st.integers(1, 9)),
    st.builds(lambda n, d: Fraction(n, d), st.integers(-10**401, 10**401), st.integers(1, 10**401)),
    st.builds(lambda sign, r: sign * (Fraction(10**400) + r), st.sampled_from((1, -1)), st.fractions()),
)


@given(_LT_FRACTIONS, _LT_FRACTIONS)
@example(Fraction(1, 2), Fraction(2, 4))
@example(Fraction(-1, 3), Fraction(1, 3))
@example(Fraction(-10**400, 3), Fraction(-10**400 + 1, 3))
@example(Fraction(10**400 + 1, 10**400), Fraction(10**400, 10**400 - 1))
@example(Fraction(0), Fraction(0, 7))
def test_lt_of_two_fractions_is_less_than(a, b):
    assert lt(a, b) == (a < b)
    assert lt(b, a) == (b < a)
    assert not lt(a, Fraction(a.numerator * 3, a.denominator * 3))
