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

# the most bits of a common denominator (``common_denominator``)
SCALE_BITS = 1 << 10


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


def common_denominator(ints):
    """The lcm of the positive ints, folded in one distinct int at a time;
    None once it passes ``SCALE_BITS``, where ints over it outgrow the
    Fractions themselves, so no lcm formed is wider than that and one int."""
    D = 1
    for d in set(ints):
        D = math.lcm(D, d)
        if D.bit_length() > SCALE_BITS:
            return None
    return D


def scaled(values) -> tuple[int, list]:
    """(D, the values as ints over D) for D their ``common_denominator``;
    (1, the values themselves) when one is a float, or past the budget.
    Loops over ints read their input through this, and give their results
    back by ``unscaled``."""
    values = list(values)
    floats = any(isinstance(v, float) for v in values)
    D = None if floats else common_denominator(v.denominator for v in values)
    if D is None:
        return 1, values
    return D, [v.numerator * (D // v.denominator) for v in values]


def unscaled(x, D: int) -> Real:
    """x over D, a Fraction, for an int x; a value left at scale 1 is itself."""
    return Fraction(x, D) if type(x) is int else x


def is_finite(x: Real) -> bool:
    """False for a float inf or NaN; a Fraction is always finite."""
    return not (isinstance(x, float) and not math.isfinite(x))


def to_float(x: Real, d: int = 1) -> float:
    """Best-effort float image of x, or of the int ratio x/d (rounded as its
    Fraction's, in lowest terms or not); huge rationals overflow to +-inf."""
    if isinstance(x, float):
        return x
    try:  # a Fraction's own ratio: float(x) takes Rational.__float__'s slower path
        n, m = (x, d) if type(x) is int else x.as_integer_ratio()
        return n / m
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


def lt(a: Real, b: Real) -> bool:
    """a < b, exactly as ``<`` decides it.  Two Fractions are decided by one
    int cross-product (their denominators are positive).  A float against a
    Fraction is decided on the Fraction's correctly rounded double n / d:
    rounding is monotone, so doubles that differ order the two numbers as
    they are, and only a tie or an overflow takes ``Fraction``'s exact
    comparison."""
    try:
        if type(a) is Fraction:
            n, d = a.as_integer_ratio()
            if type(b) is Fraction:
                m, e = b.as_integer_ratio()
                return n * e < m * d
            if type(b) is float and (x := n / d) != b:
                return x < b
        elif type(a) is float and type(b) is Fraction:
            m, e = b.as_integer_ratio()
            if a != (y := m / e):
                return a < y
    except OverflowError:
        pass
    return a < b


def real_key(x: Real) -> tuple:
    """A sort key that orders reals exactly as ``sorted`` orders them: x's
    correctly rounded double (``to_float``, +-inf past the range) first,
    then x itself, compared only where the doubles tie.  Rounding is
    monotone, so the order is ``<``'s, and equal values have equal keys, so
    a stable sort keeps them in the order ``sorted`` keeps them."""
    return to_float(x), x


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
        # past the double range: 2^(log2(a)/n), log2(a) read off a's top 64
        # bits and its length, so that Newton starts near the root and not
        # at 2^ceil(bits/n), from which each step shrinks only by (n-1)/n
        b = a.bit_length() - 64
        e = (math.log2(a >> b) + b) / n
        k = max(int(e) - 60, 0)
        r = round(2.0 ** (e - k)) << k
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
    if x < 0:
        raise ValueError("negative radicand")
    if isinstance(x, float):
        return x ** (1.0 / n)
    return x if n == 1 else _ratio_root(x.numerator, x.denominator, n)


def _ratio_root(p: int, q: int, n: int) -> Real:
    """(p/q) ** (1/n) for ints p >= 0, q > 0, n >= 2, the root rule of every
    rational: the Fraction m/q when p q^(n-1) = m^n (past the budget, when the
    reduced ratio's two roots are exact); else the float root of p / q, or
    off the double range an integer root of p/q scaled by 2^(n k)."""
    if p.bit_length() + (n - 1) * q.bit_length() <= _POW_BITS:
        a = p * q ** (n - 1)
        m = _int_nth_root(a, n)
        if m**n == a:
            return Fraction(m, q)
    else:
        g = math.gcd(p, q)
        rp, rq = _int_nth_root(p // g, n), _int_nth_root(q // g, n)
        if rp**n == p // g and rq**n == q // g:
            return Fraction(rp, rq)
    fx = to_float(p, q)
    if _normal(fx):
        return fx ** (1.0 / n)
    # p/q overflows or underflows a double, its root need not: take the
    # integer root of p/q 2^(n k), about 64 bits wide, and scale back by 2^-k
    g = math.gcd(p, q)
    p, q = p // g, q // g
    k = 64 - (p.bit_length() - q.bit_length()) // n
    if n * k > _POW_BITS:  # the scale 2^(n k) is over budget
        return _split_pow(p, q, 1 / n)
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

    e may be a Fraction or float; Fraction exponents attempt exact roots.  A
    rational base is read as the int ratio of ``ratio_pow``.
    """
    if isinstance(x, float) and math.isinf(x):
        return Fraction(1) if e == 0 else INF if e > 0 else Fraction(0)
    if x < 0:
        raise ValueError("negative base")
    if e == 1 and type(x) is not float and type(e) is not float \
            and x.numerator.bit_length() + x.denominator.bit_length() <= _POW_BITS:
        return x  # what ratio_pow returns for it, as x ** 1
    if not isinstance(x, float) or x == 0 or e == 0:
        return ratio_pow(*x.as_integer_ratio(), e)
    if e < 0 and not isinstance(e, float):  # INF where the inverse underflowed: x^e is past the double range
        inv = rational_pow(x, -e)
        return 1 / inv if isinstance(inv, Fraction) else 1.0 / inv if inv else INF
    try:
        if isinstance(e, float):
            return x**e
        if e.denominator != 1:
            return nth_root(x, e.denominator) ** e.numerator if e.numerator < 512 else x ** to_float(e)
    except OverflowError:
        return INF  # a float e, or e > 0: the power is past the double range
    try:
        p = x**e.numerator
    except OverflowError:
        p = 0.0
    # a power past the double range, or subnormal and so short of bits, is
    # the exact power of x's value; a later root brings it back
    return p if _normal(p) else ratio_pow(*x.as_integer_ratio(), e.numerator)


def ratio_pow(n: int, d: int, e: Real) -> Real:
    """(n/d) ** e for ints n >= 0 and d > 0: what ``rational_pow(Fraction(n,
    d), e)`` returns, the same value, type and float bits, with a Fraction
    formed only for an exact result.  Roots are ``_ratio_root``'s; a whole
    power is exact within budget, and a float otherwise."""
    m = e if isinstance(e, float) else e.numerator  # e's sign
    if m == 0:
        return Fraction(1)
    if n == 0:
        return INF if m < 0 else Fraction(0)
    if isinstance(e, float):
        return _float_pow(n, d, e)
    if m < 0:  # INF where the inverse underflowed: the power is past the double range
        inv = ratio_pow(n, d, -e)
        return 1 / inv if isinstance(inv, Fraction) else 1.0 / inv if inv else INF
    if e.denominator != 1:
        root = _ratio_root(n, d, e.denominator)
        if type(root) is float:
            try:
                return root**m if m < 512 else to_float(n, d) ** to_float(e)
            except OverflowError:
                return INF  # e > 0 here: the power is past the double range
        n, d = root.numerator, root.denominator
    g = math.gcd(n, d)
    n, d = n // g, d // g
    if m * (n.bit_length() + d.bit_length()) <= _POW_BITS:
        return Fraction(n, d) ** m
    return Fraction(1) if n == d else _float_pow(n, d, m)


def _float_pow(n: int, d: int, e) -> float:
    """(n/d) ** e in doubles for ints n, d > 0: by ``_split_pow`` when n/d is
    off the double range, and inf past it."""
    fx = to_float(n, d)
    if not _normal(fx):
        g = math.gcd(n, d)
        return _split_pow(n // g, d // g, to_float(e))
    try:
        return fx ** to_float(e)
    except OverflowError:
        return INF


def _split_pow(p: int, q: int, e: float) -> float:
    """(p/q) ** e for p/q > 0 in lowest terms outside the double range: p/q =
    y 2^s with y in (1/2, 2), so (p/q)^e = y^e 2^(s e), where s e is split
    exactly into its integer and fractional parts."""
    s = p.bit_length() - q.bit_length()
    if abs(e) > 1000:
        # |s| > 1020, so |s e| > 10^6 (or inf): far past the double range
        return INF if (s > 0) == (e > 0) else 0.0
    y = p / (q << s) if s >= 0 else (p << -s) / q
    w = s * Fraction(e)
    i = math.floor(w)
    try:
        return math.ldexp(y**e * 2.0 ** float(w - i), i)
    except OverflowError:
        return INF


def log_real(x: Real, d: int = 1) -> float:
    """Natural log of x, or of the int ratio x/d; handles huge numerators
    and denominators, read in lowest terms as a Fraction keeps them."""
    if x <= 0:
        raise ValueError("log of nonpositive value")
    if isinstance(x, float):
        return math.log(x)
    n, d = x.numerator, x.denominator * d
    g = math.gcd(n, d)
    return math.log(n // g) - math.log(d // g)


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
