"""numeric's Wide pairs (f, e), the value f*2**e, against Fraction
arithmetic on the same values: each function within the rounding its
docstring states, at exponents far past float range."""

import decimal
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ratsys.numeric import (shifted, wide, wide_float, wide_log, wide_product,
                            wide_quotient, wide_sum)

ULP = Fraction(1, 2**53)  # one rounding to nearest, relative
TINY = Fraction(1, 2**1074)  # the smallest subnormal

# every positive float, subnormals and the largest included
floats = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
# exponents well past the 1074 of the smallest subnormal either way
exponents = st.integers(min_value=-5000, max_value=5000)
# a positive pair: a float's own, or its mantissa at any exponent
pairs = st.one_of(floats.map(wide),
                  st.tuples(floats.map(lambda x: wide(x)[0]), exponents))
signs = st.sampled_from((1.0, -1.0))


def power(e):
    return Fraction(2) ** e


def value(p):
    """The exact value of a pair."""
    return Fraction(p[0]) * power(p[1])


def normalized(p):
    return 0.5 <= abs(p[0]) < 1


@given(st.one_of(floats, floats.map(lambda x: -x)))
def test_wide_is_exact_and_normalized(x):
    p = wide(x)
    assert value(p) == Fraction(x) and normalized(p)


@settings(max_examples=200)
@given(pairs, pairs, signs)
def test_product_and_quotient_round_once(p, q, sign):
    p = (sign * p[0], p[1])
    for got, exact in ((wide_product(p, q), value(p) * value(q)),
                       (wide_quotient(p, q), value(p) / value(q))):
        assert abs(value(got) - exact) <= ULP * abs(exact)


@settings(max_examples=200)
@given(pairs, pairs)
def test_sum_rounds_once_and_normalizes(p, q):
    got = wide_sum(*p, *q)
    exact = value(p) + value(q)
    # the mantissa moved down rounds too where it leaves the normal range
    assert abs(value(got) - exact) <= ULP * exact + TINY * power(max(p[1], q[1]))
    assert normalized(got)
    assert wide_sum(*q, *p) == got


@settings(max_examples=200)
@given(pairs)
def test_log_is_within_a_few_ulps_of_its_terms(p):
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        exact = decimal.Decimal(p[0]).ln() + p[1] * decimal.Decimal(2).ln()
    size = abs(math.log(p[0])) + abs(p[1]) * math.log(2.0)
    assert abs(Fraction(wide_log(p)) - Fraction(exact)) <= 4 * ULP * Fraction(size)


@settings(max_examples=200)
@given(pairs, signs)
def test_float_rounds_once_and_saturates(p, sign):
    p = (sign * p[0], p[1])
    got, exact = wide_float(p), value(p)
    if abs(exact) > Fraction(1.7976931348623157e308):
        assert got == math.copysign(math.inf, sign)
    else:
        assert got == float(exact)  # 0.0 with f's sign below half the smallest subnormal


@pytest.mark.parametrize("e", [1100, 5000])
def test_float_saturates_on_the_right_side(e):
    for f in (0.5, 0.75, 0.9999999999999999):
        assert wide_float((f, e)) == math.inf
        assert wide_float((-f, e)) == -math.inf
        assert wide_float((f, -e)) == 0.0
        assert math.copysign(1.0, wide_float((-f, -e))) == -1.0
    assert wide_float((0.5, 1025)) == math.inf
    assert wide_float((0.9999999999999999, 1024)) == 1.7976931348623157e308
    assert wide_float((0.5, -1073)) == 5e-324


@settings(max_examples=200)
@given(st.lists(floats, min_size=1, max_size=4), st.integers(-2200, 2200))
def test_shifted_moves_a_group_by_one_power_of_two(values, e):
    for v in values:
        exact = Fraction(v) * power(e)
        if exact > Fraction(1.7976931348623157e308):
            with pytest.raises(OverflowError):
                shifted(v, e)
        else:
            assert shifted(v, e) == float(exact)
