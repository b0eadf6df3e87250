"""Scalar arithmetic shared by the whole package.

Numbers are either ``fractions.Fraction`` (exact) or ``float``.  Integers are
coerced to ``Fraction`` on entry so that a value stays exact until an
irrational operation (root, log, exp, fractional power) genuinely forces a
float.  Python's cross-type equality and hashing make the two kinds mix
safely in comparisons and as dict keys.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Union

Real = Union[Fraction, float]

INF = math.inf
NEG_INF = -math.inf

# the most bits an exact power may take, estimated as |n| times the bits of
# its base's numerator and denominator: past it a power is computed in floats,
# so an extreme exponent costs no more than any other
_POW_BITS = 1 << 20


def as_real(x) -> Real:
    """Coerce a number (or an exact string like "3/7" or "0.1") to Real.

    Decimal strings are read exactly: as_real("0.1") == Fraction(1, 10).
    """
    if isinstance(x, bool):
        raise TypeError("booleans are not numbers here")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if math.isnan(x):
            raise ValueError("NaN is not a valid value")
        return x
    if isinstance(x, str):
        s = x.strip()
        if s == "inf":
            return INF
        if s == "-inf":
            return NEG_INF
        return Fraction(s)
    raise TypeError(f"cannot interpret {x!r} as a real number")


def as_int(x) -> int:
    """An index or a count as an int: a boolean, or a number that is not
    whole, is refused rather than truncated."""
    if isinstance(x, bool) or int(x) != x:
        raise ValueError(f"expected an integer, got {x!r}")
    return int(x)


def scaled(values) -> tuple[int, list]:
    """(D, the values as ints over D) for D the lcm of their denominators;
    (1, the values themselves) when one is a float, or past 1024 bits, where
    ints over D outgrow the Fractions themselves.  Loops over ints read their
    input through this, and give their results back by ``unscaled``."""
    values = list(values)
    if any(isinstance(v, float) for v in values):
        return 1, values
    D = math.lcm(*{v.denominator for v in values})
    if D.bit_length() > 1 << 10:
        return 1, values
    return D, [v.numerator * (D // v.denominator) for v in values]


def unscaled(x, D: int) -> Real:
    """x over D, a Fraction, for an int x; a value left at scale 1 is itself."""
    return Fraction(x, D) if type(x) is int else x


def is_finite(x: Real) -> bool:
    """False for a float inf or NaN; a Fraction is always finite."""
    return not (isinstance(x, float) and not math.isfinite(x))


def to_float(x: Real) -> float:
    """Best-effort float image; huge rationals overflow to +-inf."""
    if isinstance(x, float):
        return x
    try:
        return float(x)
    except OverflowError:
        return INF if x > 0 else NEG_INF


def exact_float(x: Real) -> bool:
    """True when float(x) and its shortest text repr(float(x)) both read
    back exactly as x, so x may travel as a float or a decimal."""
    if isinstance(x, float):
        return True
    f = to_float(x)
    if math.isinf(f):
        return False
    return Fraction(f) == x and Fraction(repr(f)) == x


def _int_nth_root(a: int, n: int) -> int:
    """floor(a ** (1/n)) for nonnegative integers, exactly."""
    if a < 0:
        raise ValueError("negative radicand")
    return math.isqrt(a) if n == 2 else _newton_root(a, n)


def _newton_root(a: int, n: int) -> int:
    """floor(a ** (1/n)) for a >= 0 and n >= 1 by Newton's iteration on ints."""
    if a == 0:
        return 0
    if n == 1:
        return a
    if n >= a.bit_length():  # 1 <= a < 2**n
        return 1
    # initial guess from floats, then Newton on integers
    try:
        r = int(round(a ** (1.0 / n)))
    except OverflowError:
        r = 1 << ((a.bit_length() + n - 1) // n)
    r = max(r, 1)
    while True:
        rn = r**n
        if rn == a:
            return r
        if rn < a:
            if (r + 1) ** n > a:
                return r
            r = (r * (n - 1) + a // r ** (n - 1)) // n + 1
        else:
            r = (r * (n - 1) + a // r ** (n - 1)) // n
            if r < 1:
                return 1


def nth_root(x: Real, n: int) -> Real:
    """x ** (1/n) for x >= 0; exact Fraction when x is a perfect n-th power."""
    if n < 1:
        raise ValueError("root index must be >= 1")
    if isinstance(x, float):
        if x < 0:
            raise ValueError("negative radicand")
        return x ** (1.0 / n)
    if x < 0:
        raise ValueError("negative radicand")
    if n == 1:
        return x
    rp = _int_nth_root(x.numerator, n)
    rq = _int_nth_root(x.denominator, n)
    if rp**n == x.numerator and rq**n == x.denominator:
        return Fraction(rp, rq)
    fx = to_float(x)
    if _normal(fx):
        return fx ** (1.0 / n)
    # x overflows or underflows a double, its root need not: take the
    # integer root of x 2^(n k), about 64 bits wide, and scale back by 2^-k
    p, q = x.numerator, x.denominator
    k = 64 - (p.bit_length() - q.bit_length()) // n
    if n * k > _POW_BITS:  # the scale 2^(n k) is over budget
        return _split_pow(x, 1 / n)
    m = (p << n * k) // q if k >= 0 else p // (q << -n * k)
    try:
        return math.ldexp(_int_nth_root(m, n), -k)
    except OverflowError:
        return INF


def _normal(fx: float) -> bool:
    """True for a positive double that is neither subnormal nor inf."""
    return sys.float_info.min <= fx < INF


def rational_pow(x: Real, e: Real) -> Real:
    """x ** e for x >= 0, exact whenever the result is rational and the
    exact power is within budget (see ``_POW_BITS``), a float otherwise.

    e may be a Fraction or float; Fraction exponents attempt exact roots.
    """
    if e == 1 and type(x) is Fraction and type(e) is not float and x.numerator >= 0 \
            and x.numerator.bit_length() + x.denominator.bit_length() <= _POW_BITS:
        return x  # what the chain below returns for it, as x ** 1
    if isinstance(x, float) and math.isinf(x):
        if e == 0:
            return Fraction(1)
        return INF if e > 0 else Fraction(0)
    if x < 0:
        raise ValueError("negative base")
    if e == 0:
        return Fraction(1)
    if x == 0:
        if e < 0:
            return INF
        return Fraction(0)
    if isinstance(e, float):
        return _float_pow(x, e)
    if e < 0:
        inv = rational_pow(x, -e)
        if isinstance(inv, Fraction):
            return 1 / inv
        return 1.0 / inv if inv else INF  # inv underflowed: x^e is past the double range
    if e.denominator != 1:
        root = nth_root(x, e.denominator)
        if not isinstance(root, Fraction):
            try:
                return root ** e.numerator if abs(e.numerator) < 512 else to_float(x) ** to_float(e)
            except OverflowError:
                # e > 0 here: the power is past the double range
                return INF
        x = root
    n = e.numerator
    if isinstance(x, float):
        try:
            p = x**n
        except OverflowError:
            p = 0.0
        # a power past the double range, or subnormal and so short of bits,
        # is the exact power of x's value; a later root brings it back
        if _normal(p):
            return p
        x = Fraction(x)
    if n * (x.numerator.bit_length() + x.denominator.bit_length()) <= _POW_BITS:
        return x**n
    return x if x == 1 else _float_pow(x, n)


def _float_pow(x: Real, e) -> float:
    """x ** e in doubles for x > 0: by ``_split_pow`` when x is off the double
    range, and inf past it."""
    fx = to_float(x)
    if not (isinstance(x, float) or _normal(fx)):
        return _split_pow(x, to_float(e))
    try:
        return fx ** to_float(e)
    except OverflowError:
        return INF


def _split_pow(x: Fraction, e: float) -> float:
    """x ** e for a positive rational x outside the double range: x = y 2^s
    with y in (1/2, 2), so x^e = y^e 2^(s e), where s e is split exactly into
    its integer and fractional parts."""
    s = x.numerator.bit_length() - x.denominator.bit_length()
    if abs(e) > 1000:
        # |s| > 1020, so |s e| > 10^6 (or inf): far past the double range
        return INF if (s > 0) == (e > 0) else 0.0
    y = x.numerator / (x.denominator << s) if s >= 0 else (x.numerator << -s) / x.denominator
    w = s * Fraction(e)
    i = math.floor(w)
    try:
        return math.ldexp(y**e * 2.0 ** float(w - i), i)
    except OverflowError:
        return INF


def log_real(x: Real) -> float:
    """Natural log; handles Fractions with huge numerator/denominator."""
    if x <= 0:
        raise ValueError("log of nonpositive value")
    if isinstance(x, float):
        return math.log(x)
    return math.log(x.numerator) - math.log(x.denominator)


def _refuse_nan(x: float) -> None:
    if math.isnan(x):
        raise ValueError("NaN is not a value; it cannot be written")


def fmt_real(x: Real) -> str:
    """Shortest round-trip text: float repr, exact "p/q" otherwise, "inf".
    NaN has no text here and raises ValueError."""
    if isinstance(x, float):
        _refuse_nan(x)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if x == 0.0:
            return "0.0"
        return repr(x)
    if x.denominator == 1:
        return str(x.numerator)
    if exact_float(x):
        return repr(float(x))
    return f"{x.numerator}/{x.denominator}"


def json_real(x: Real):
    """JSON image: a number when exactly representable, else "p/q" / "inf".
    NaN has no image and raises ValueError."""
    if isinstance(x, float):
        _refuse_nan(x)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return 0.0 if x == 0.0 else x
    if x.denominator == 1 and abs(x.numerator) <= 2**53:
        return int(x.numerator)
    if exact_float(x):
        return float(x)
    return f"{x.numerator}/{x.denominator}"
