"""L-bit floating-point values.

A value is ``mantissa * 2**exponent`` where mantissa and exponent are
Python integers confined to ``[-2**L, 2**L]``.  Arbitrary-precision
integers are plain ``int`` throughout the package; this module only adds
the float layer on top.

Conventions:

- Canonical form: mantissa is odd or the value is exactly zero
  (mantissa 0, exponent 0).  Equality is structural.
- Rounding is round-to-nearest with ties to even on the mantissa.  Every
  op rounds once, so a freshly rounded value sits within a multiplicative
  factor ``e**(2**-L)`` of the exact result of its (rounded) operands.
- Errors compose multiplicatively: k same-sign adds and multiplies
  starting from exact operands land within ``e**(k * 2**-L)`` of the
  exact value.

The representable magnitude range is ``[2**-2**L, 2**2**L]``; results
escaping it raise ``FloatOverflow``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

LESS, EQUAL, GREATER = -1, 0, 1


class FloatOverflow(ArithmeticError):
    """Value left the representable range of L-bit floats."""


class SignMismatch(ValueError):
    """Same-sign addition was handed operands of strictly opposite sign."""


class FloatL:
    """Immutable-by-convention L-bit float; see module docstring.

    A plain __slots__ class rather than a dataclass: these are constructed
    in the innermost accumulation loops.  Equality is structural on the
    canonical (mantissa, exponent, L).
    """

    __slots__ = ("mantissa", "exponent", "L")

    def __init__(self, mantissa, exponent, L):
        self.mantissa = mantissa
        self.exponent = exponent
        self.L = L

    def is_zero(self) -> bool:
        return self.mantissa == 0

    def sign(self) -> int:
        return (self.mantissa > 0) - (self.mantissa < 0)

    def to_fraction(self) -> Fraction:
        """Exact represented value."""
        if self.exponent >= 0:
            return Fraction(self.mantissa * (1 << self.exponent))
        return Fraction(self.mantissa, 1 << -self.exponent)

    def __eq__(self, other):
        return (isinstance(other, FloatL)
                and self.mantissa == other.mantissa
                and self.exponent == other.exponent
                and self.L == other.L)

    def __hash__(self):
        return hash((self.mantissa, self.exponent, self.L))

    def __repr__(self):
        return (f"FloatL(mantissa={self.mantissa}, exponent={self.exponent},"
                f" L={self.L})")

    def __str__(self):
        return format_float2exp(self)


def _round_half_even(num: int, den: int) -> int:
    """Nearest integer to num/den (den > 0), ties to even."""
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    return q


def _canonical(mant: int, exp: int, L: int) -> FloatL:
    if mant == 0:
        return FloatL(0, 0, L)
    if not mant & 1:
        shift = (mant & -mant).bit_length() - 1
        mant >>= shift
        exp += shift
    if abs(exp) > (1 << L) or abs(mant) > (1 << L):
        raise FloatOverflow(f"value 2^{exp}*{mant} outside fl_{L}")
    return FloatL(mant, exp, L)


def _round_to_l(num: int, den: int, shift: int, L: int) -> FloatL:
    """Round the exact rational (num/den) * 2**shift to an L-bit float.

    den > 0.  The result mantissa is normalized into [2^(L-1), 2^L] before
    canonicalization, which makes the rounding a true nearest over the
    whole representable set.
    """
    if num == 0:
        return FloatL(0, 0, L)
    sign = 1 if num > 0 else -1
    n = abs(num)
    if den == 1:
        # integer fast path: the same nearest-even rounding on a bit shift
        e = n.bit_length() - L
        if e <= 0:
            return _canonical(sign * n, shift, L)
        m = n >> e
        r = n & ((1 << e) - 1)
        half = 1 << (e - 1)
        if r > half or (r == half and m & 1):
            m += 1
        return _canonical(sign * m, e + shift, L)
    # choose e with 2^(L-1) <= n / (den * 2^e) < 2^L
    e = n.bit_length() - den.bit_length() - L
    while True:
        if e >= 0:
            q = n // (den << e)
        else:
            q = (n << -e) // den
        if q >> L:
            e += 1
        elif not (q >> (L - 1)):
            e -= 1
        else:
            break
    if e >= 0:
        m = _round_half_even(n, den << e)
    else:
        m = _round_half_even(n << -e, den)
    # m may round up to exactly 2^L; that is still representable
    return _canonical(sign * m, e + shift, L)


def fl_zero(L: int) -> FloatL:
    return FloatL(0, 0, L)


def fl_from_int(x: int, L: int) -> FloatL:
    """Nearest L-bit float to the integer x (exact when it fits)."""
    return fl_from_bigratio(x, 1, L)


def fl_from_bigratio(num: int, den: int, L: int) -> FloatL:
    """Nearest L-bit float to num/den, within factor e^(2^-L) of it."""
    if den == 0:
        raise ZeroDivisionError("fl_from_bigratio: zero denominator")
    if den < 0:
        num, den = -num, -den
    return _round_to_l(num, den, 0, L)


def fl_neg(x: FloatL) -> FloatL:
    return FloatL(-x.mantissa, x.exponent, x.L)


def fl_add_same_sign(x: FloatL, y: FloatL) -> FloatL:
    """x + y for operands of matching sign, in one rounding.

    Zero is sign-neutral and acts as the identity.
    """
    if x.L != y.L:
        raise ValueError("operands carry different L")
    if x.mantissa == 0:
        return y
    if y.mantissa == 0:
        return x
    if (x.mantissa < 0) != (y.mantissa < 0):
        raise SignMismatch("fl_add_same_sign on opposite signs")
    L = x.L
    # |x| lies in [2^(top - 1), 2^top) for top = exponent + bitlen(mantissa)
    gap = (x.exponent + abs(x.mantissa).bit_length()
           - y.exponent - abs(y.mantissa).bit_length())
    if abs(gap) >= L + 2:
        # the smaller is below a quarter ulp of the larger, which is the sum
        return x if gap > 0 else y
    e = min(x.exponent, y.exponent)
    total = (x.mantissa << (x.exponent - e)) + (y.mantissa << (y.exponent - e))
    return _round_to_l(total, 1, e, L)


def fl_add_scaled(x: FloatL, k: int, y: FloatL) -> FloatL:
    """x + k * y for an integer k, any signs, in one rounding at x's L.

    y may carry another L: its value is taken exactly, so the result is
    the nearest x.L-bit float to the exact x + k y.  A zero k y returns x.
    """
    t = k * y.mantissa
    if not t:
        return x
    e = min(x.exponent, y.exponent)
    total = (x.mantissa << (x.exponent - e)) + (t << (y.exponent - e))
    return _round_to_l(total, 1, e, x.L)


def fl_mul(x: FloatL, y: FloatL) -> FloatL:
    """x * y in one rounding."""
    if x.L != y.L:
        raise ValueError("operands carry different L")
    return _round_to_l(x.mantissa * y.mantissa, 1, x.exponent + y.exponent, x.L)


def fl_recip(x: FloatL) -> FloatL:
    """1 / x in one rounding."""
    if x.is_zero():
        raise ZeroDivisionError("fl_recip of zero")
    return _round_to_l(x.sign(), abs(x.mantissa), -x.exponent, x.L)


def fl_div(x: FloatL, y: FloatL) -> FloatL:
    """x / y in one rounding (tighter than mul-by-reciprocal)."""
    if y.is_zero():
        raise ZeroDivisionError("fl_div by zero")
    return _round_to_l(y.sign() * x.mantissa, abs(y.mantissa),
                       x.exponent - y.exponent, x.L)


def fl_sqrt(x: FloatL) -> FloatL:
    """Nearest L-bit float to sqrt(x), x >= 0, in a single exact rounding."""
    if x.mantissa < 0:
        raise ValueError("fl_sqrt of negative value")
    if x.is_zero():
        return x
    L = x.L
    m, e = x.mantissa << 4, x.exponent - 4  # guard bits keep t > 0 below
    # pick es with round(sqrt(m * 2^e) / 2^es) in [2^(L-1), 2^L]
    es = (m.bit_length() + e) // 2 - L
    while True:
        t = e - 2 * es
        v = m << t  # t >= L - 3 > 0 for any canonical mantissa
        s = math.isqrt(v)
        if s >> L:
            es += 1
        elif not (s >> (L - 1)):
            es -= 1
        else:
            break
    # nearest integer to sqrt(v): ties impossible unless v is a square
    if v - s * s > s:
        s += 1
    return _canonical(s, es, L)


def fl_cmp(x: FloatL, y: FloatL) -> int:
    """Exact comparison of represented values: LESS, EQUAL or GREATER."""
    sx, sy = x.sign(), y.sign()
    if sx != sy:
        return GREATER if sx > sy else LESS
    if sx == 0:
        return EQUAL
    # same nonzero sign: compare magnitudes by aligned bit length first
    bx = abs(x.mantissa).bit_length() + x.exponent
    by = abs(y.mantissa).bit_length() + y.exponent
    if bx != by:
        return GREATER if (bx > by) == (sx > 0) else LESS
    gap = x.exponent - y.exponent
    if gap >= 0:
        mx, my = abs(x.mantissa) << gap, abs(y.mantissa)
    else:
        mx, my = abs(x.mantissa), abs(y.mantissa) << -gap
    if mx == my:
        return EQUAL
    return GREATER if (mx > my) == (sx > 0) else LESS


def fl_cmp_fraction(x: FloatL, q: Fraction) -> int:
    """Exact comparison of x against an arbitrary rational."""
    lhs = x.to_fraction()
    if lhs == q:
        return EQUAL
    return GREATER if lhs > q else LESS


# -- text forms --------------------------------------------------------------

def format_float2exp(x) -> str:
    """A FloatL as +m*2^e (canonical mantissa) or a FixedL as
    +scaled*2^-L: the CLI's default form."""
    if isinstance(x, FixedL):
        mant, exp = x.scaled, f"-{x.L}"
    else:
        mant, exp = x.mantissa, x.exponent
    return f"{'-' if mant < 0 else '+'}{abs(mant)}*2^{exp}"


def format_decimal(x, digits: int) -> str:
    """A FloatL or FixedL in decimal with `digits` fractional digits,
    rounded half to even."""
    if isinstance(x, FixedL):
        mant, exp = x.scaled, -x.L
    else:
        mant, exp = x.mantissa, x.exponent
    neg = mant < 0
    mant = abs(mant)
    scaled = mant * 10 ** digits
    if exp >= 0:
        scaled <<= exp
        num, den = scaled, 1
    else:
        num, den = scaled, 1 << -exp
    q = _round_half_even(num, den)
    whole, frac = divmod(q, 10 ** digits)
    body = f"{whole}.{frac:0{digits}d}" if digits else str(whole)
    return ("-" if neg and q != 0 else "") + body


# -- fixed points -------------------------------------------------------------

@dataclass(frozen=True)
class FixedL:
    """Fixed-point value scaled/2^L with additive representation error 2^-L."""

    scaled: int
    L: int

    def to_fraction(self) -> Fraction:
        return Fraction(self.scaled, 1 << self.L)

    def __float__(self):
        return self.scaled / (1 << self.L)


def fixed_from_fraction(q: Fraction, L: int) -> FixedL:
    return FixedL(_round_half_even(q.numerator * (1 << L), q.denominator), L)
