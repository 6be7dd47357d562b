import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lospace.numeric import (
    EQUAL,
    GREATER,
    LESS,
    FixedL,
    FloatL,
    FloatOverflow,
    SignMismatch,
    fixed_from_fraction,
    fl_add_same_sign,
    fl_add_scaled,
    fl_cmp,
    fl_cmp_fraction,
    fl_div,
    fl_from_bigratio,
    fl_from_int,
    fl_mul,
    fl_neg,
    fl_recip,
    fl_sqrt,
    fl_zero,
    format_decimal,
    format_float2exp,
)


def representables(L, max_exp):
    """All canonical values m*2^e with |m| odd <= 2^L, |e| <= max_exp."""
    vals = {Fraction(0)}
    for m in range(1, (1 << L) + 1, 2):
        for e in range(-max_exp, max_exp + 1):
            vals.add(Fraction(m, 1) * Fraction(2) ** e)
            vals.add(Fraction(-m, 1) * Fraction(2) ** e)
    return vals


def nearest(vals, q):
    best = min(vals, key=lambda v: (abs(v - q), abs(v)))
    return best


def test_from_bigratio_zero():
    r = fl_from_bigratio(0, 1, 10)
    assert r.mantissa == 0 and r.exponent == 0


def test_from_bigratio_exact_integer():
    r = fl_from_bigratio(3, 1, 10)
    assert r.to_fraction() == 3


def test_from_bigratio_one_third_L4():
    # enumerate all 4-bit mantissa/exponent pairs and pick the nearest
    r = fl_from_bigratio(1, 3, 4)
    assert (r.mantissa, r.exponent) == (11, -5)
    vals = representables(4, 12)
    assert r.to_fraction() == nearest(vals, Fraction(1, 3))
    assert abs(math.log(float(r.to_fraction() * 3))) <= 2 ** -4


def test_add_exact_and_identity():
    a = fl_from_int(3, 10)
    b = fl_from_int(5, 10)
    assert fl_add_same_sign(a, b).to_fraction() == 8
    z = fl_zero(10)
    assert fl_add_same_sign(a, z) == a
    assert fl_add_same_sign(z, a) == a


def test_add_rounds_half_even_L3():
    a = fl_from_int(7, 3)
    b = fl_from_int(6, 3)
    out = fl_add_same_sign(a, b)
    # 13 rounds to 12 (mantissa 6 chosen over 7 by ties-to-even)
    assert out.to_fraction() == 12
    assert abs(float(out.to_fraction()) - 13) / 13 <= 2 ** -3


def test_add_sign_mismatch():
    a = fl_from_int(3, 8)
    b = fl_from_int(-2, 8)
    with pytest.raises(SignMismatch):
        fl_add_same_sign(a, b)


def test_add_huge_exponent_gap_returns_big_operand():
    big = FloatL(5, 4000, 16)
    small = FloatL(3, -4000, 16)
    assert fl_add_same_sign(big, small) == big


@settings(max_examples=300, deadline=None)
@given(xm=st.integers(-(1 << 12), 1 << 12), xe=st.integers(-40, 40),
       k=st.integers(-(1 << 20), 1 << 20), ym=st.integers(-(1 << 30), 1 << 30),
       ye=st.integers(-40, 40), L=st.integers(7, 12))
def test_add_scaled_is_one_nearest_rounding(xm, xe, k, ym, ye, L):
    """fl_add_scaled(x, k, y) is the nearest x.L-bit float to the exact
    x + k y, ties to even as fl_from_bigratio rounds them, for any signs
    and a y wider than x: one rounding, never two."""
    x = fl_from_bigratio(xm * 2 ** max(xe, 0), 2 ** max(-xe, 0), L)
    y = fl_from_bigratio(ym * 2 ** max(ye, 0), 2 ** max(-ye, 0), 32)
    exact = x.to_fraction() + k * y.to_fraction()
    got = fl_add_scaled(x, k, y)
    assert got == fl_from_bigratio(exact.numerator, exact.denominator, L)
    assert abs(got.to_fraction() - exact) <= abs(exact) * Fraction(1, 2 ** L)


@settings(max_examples=300, deadline=None)
@given(xm=st.integers(1, 1 << 12), xe=st.integers(-40, 40),
       ym=st.integers(1, 1 << 12), ye=st.integers(-40, 40),
       sign=st.sampled_from((1, -1)), L=st.integers(7, 12))
@example(xm=1, xe=30, ym=65535, ye=0, sign=1, L=16)
def test_add_same_sign_is_one_nearest_rounding(xm, xe, ym, ye, sign, L):
    """fl_add_same_sign(x, y) is the nearest L-bit float to the exact
    x + y, ties to even, for same-sign operands whose canonical mantissas
    may be far shorter than L: an operand is dropped only below a quarter
    of the other's ulp, never because its exponent alone is small.  At
    L = 16, 2^30 + 65535 rounded to 2^30 breaks the one-rounding bound."""
    x = fl_from_bigratio(sign * xm * 2 ** max(xe, 0), 2 ** max(-xe, 0), L)
    y = fl_from_bigratio(sign * ym * 2 ** max(ye, 0), 2 ** max(-ye, 0), L)
    exact = x.to_fraction() + y.to_fraction()
    got = fl_add_same_sign(x, y)
    assert got == fl_from_bigratio(exact.numerator, exact.denominator, L)
    assert fl_add_same_sign(y, x) == got


def test_add_scaled_exact_cases():
    x = fl_from_int(5, 8)
    y = FloatL(3, 4, 20)
    assert fl_add_scaled(x, 0, y) is x
    assert fl_add_scaled(x, -1, fl_from_int(5, 20)).is_zero()
    assert fl_add_scaled(fl_zero(8), -2, y).to_fraction() == -96
    assert fl_add_scaled(x, 2, y).to_fraction() == 101
    # 1 + 2^-20 rounds back to 1 at 8 bits, and 255 + 2 to 256
    assert fl_add_scaled(fl_from_int(1, 8), 1, FloatL(1, -20, 4)).to_fraction() == 1
    assert fl_add_scaled(fl_from_int(255, 8), 2, fl_from_int(1, 8)) == FloatL(1, 8, 8)


def test_mul_exact_and_identity():
    a = FloatL(3, 1, 10)
    b = FloatL(5, 2, 10)
    assert fl_mul(a, b).to_fraction() == 15 * 8
    one = fl_from_int(1, 10)
    assert fl_mul(a, one) == a


def test_mul_rounds_L3():
    a = fl_from_int(7, 3)
    out = fl_mul(a, a)
    assert out.to_fraction() == 48
    assert abs(48 - 49) / 49 < 2 ** -3


def test_recip():
    assert fl_recip(fl_from_int(4, 10)).to_fraction() == Fraction(1, 4)
    one = fl_from_int(1, 10)
    assert fl_recip(one) == one
    r = fl_recip(fl_from_int(3, 3))
    assert (r.mantissa, r.exponent) == (5, -4)
    with pytest.raises(ZeroDivisionError):
        fl_recip(fl_zero(8))


def test_cmp_examples():
    assert fl_cmp(FloatL(3, 1, 10), FloatL(5, 0, 10)) == GREATER
    x = FloatL(7, -2, 10)
    assert fl_cmp(x, x) == EQUAL
    for L in (8, 16, 32, 64):
        big = FloatL(1, 100, L)
        other = fl_from_bigratio(1 << L, 1, L)
        assert fl_cmp(big, other) == GREATER
    assert fl_cmp(FloatL(-3, 0, 10), FloatL(1, -5, 10)) == LESS


def test_overflow_domain():
    with pytest.raises(FloatOverflow):
        fl_from_bigratio(1 << 40, 1, 3)  # exponent escapes [-8, 8]
    with pytest.raises(FloatOverflow):
        fl_mul(FloatL(1, 7, 3), FloatL(1, 7, 3))


def test_round_trip_property():
    rnd = random.Random(7)
    for _ in range(300):
        L = rnd.randrange(2, 40)
        m = rnd.randrange(1, (1 << L) + 1) | 1
        if m > (1 << L):
            m -= 2
        if rnd.random() < 0.5:
            m = -m
        e = rnd.randrange(-(1 << min(L, 12)), (1 << min(L, 12)))
        x = FloatL(m, e, L)
        q = x.to_fraction()
        back = fl_from_bigratio(q.numerator, q.denominator, L)
        assert back == x


def test_integer_rounding_matches_ratio_path():
    """Integers round by a bit shift; that must agree with the general
    division path on the same value, exact ties included."""
    rnd = random.Random(13)
    for _ in range(3000):
        L = rnd.randrange(6, 70)  # 2^L bounds the exponent: no overflow
        n = rnd.getrandbits(rnd.randrange(1, 3 * L)) | 1
        k = rnd.randrange(0, L + 2)
        if k:
            # low bits exactly half an ulp about half the time
            n = (n << k) | (rnd.randrange(2) << (k - 1))
        if rnd.random() < 0.5:
            n = -n
        assert fl_from_int(n, L) == fl_from_bigratio(3 * n, 3, L), (n, L)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-10 ** 12, max_value=10 ** 12),
       st.integers(min_value=1, max_value=10 ** 12),
       st.integers(min_value=7, max_value=48))
def test_from_ratio_multiplicative_bound(num, den, L):
    # |num/den| <= 1e12 < 2^(2^7) keeps every case inside fl_L
    r = fl_from_bigratio(num, den, L)
    if num == 0:
        assert r.is_zero()
        return
    ratio = r.to_fraction() / Fraction(num, den)
    assert ratio > 0
    import mpmath
    m = abs(mpmath.log(mpmath.mpf(ratio.numerator) / ratio.denominator))
    assert m <= mpmath.mpf(2) ** -L * (1 + mpmath.mpf(1e-9))


def _random_representable(rnd, L):
    m = rnd.randrange(1, (1 << L) + 1)
    e = rnd.randrange(-40, 40)
    return FloatL(m >> ((m & -m).bit_length() - 1), e + ((m & -m).bit_length() - 1), L)


def test_cmp_agrees_with_rationals():
    rnd = random.Random(11)
    for _ in range(500):
        L = rnd.randrange(2, 24)
        x = _random_representable(rnd, L)
        y = _random_representable(rnd, L)
        if rnd.random() < 0.3:
            x = fl_neg(x)
        if rnd.random() < 0.3:
            y = fl_neg(y)
        want = (x.to_fraction() > y.to_fraction()) - (x.to_fraction() < y.to_fraction())
        assert fl_cmp(x, y) == want
        assert fl_cmp_fraction(x, y.to_fraction()) == want


def test_error_composition_chains():
    """k same-sign adds and multiplies of exact operands, each rounded
    once, land within e^(k 2^-L) of the exact value."""
    import mpmath
    mpmath.mp.prec = 300
    rnd = random.Random(3)
    for trial in range(60):
        L = rnd.choice([12, 16, 24, 32])
        k = rnd.randrange(2, 60)
        val = fl_from_int(rnd.randrange(1, 50), L)
        exact = Fraction(val.to_fraction())
        ops = 0
        for _ in range(k):
            arg = rnd.randrange(1, 9)
            other = fl_from_int(arg, L)
            if rnd.random() < 0.5:
                try:
                    val = fl_add_same_sign(val, other)
                except FloatOverflow:
                    break
                exact = exact + arg
            else:
                try:
                    val = fl_mul(val, other)
                except FloatOverflow:
                    break
                exact = exact * arg
            ops += 1
        ratio = val.to_fraction() / exact
        m = abs(mpmath.log(mpmath.mpf(ratio.numerator) / ratio.denominator))
        bound = mpmath.mpf(ops) * mpmath.mpf(2) ** -L
        assert m <= bound * (1 + mpmath.mpf("1e-20")) + mpmath.mpf("1e-70")


def test_sqrt_and_div():
    rnd = random.Random(5)
    for _ in range(200):
        L = rnd.randrange(6, 40)
        x = _random_representable(rnd, L)
        q = x.to_fraction()
        s = fl_sqrt(x)
        err = abs(float(s.to_fraction()) / math.sqrt(float(q)) - 1)
        assert err <= 2 ** -L * 1.001 + 1e-15
        y = _random_representable(rnd, L)
        d = fl_div(x, y)
        ratio = d.to_fraction() / (q / y.to_fraction())
        assert abs(float(ratio) - 1) <= 2 ** -L * 1.001 + 1e-15


def test_text_forms():
    x = FloatL(-11, -5, 8)
    assert format_float2exp(x) == "-11*2^-5"
    assert format_float2exp(FixedL(-11, 5)) == "-11*2^-5"
    assert format_float2exp(FixedL(3, 0)) == "+3*2^-0"
    assert format_float2exp(FixedL(0, 7)) == "+0*2^-7"
    assert format_decimal(FixedL(-3, 3), 2) == "-0.38"
    assert format_decimal(fl_from_bigratio(1, 2, 20), 8) == "0.50000000"
    assert format_decimal(fl_from_bigratio(3, 4, 20), 8) == "0.75000000"
    assert format_decimal(fl_from_bigratio(-3, 4, 20), 2) == "-0.75"
    assert format_decimal(fl_zero(8), 3) == "0.000"


def test_fixed_point():
    f = fixed_from_fraction(Fraction(1, 3), 10)
    assert abs(f.to_fraction() - Fraction(1, 3)) <= Fraction(1, 1 << 10)
    assert FixedL(3 << 4, 4).to_fraction() == 3
