"""Exact simulate: the integer step kernel against plain Fraction iteration."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ratsys import ArithmeticMode, BitGrowthError, PeriodicCoefficients, simulate

from conftest import RANK2_SQUARE

EXACT = ArithmeticMode.EXACT_RATIONAL


def fraction_orbit(params, init, n_max, bit_cap=math.inf):
    """The orbit by Fraction arithmetic, one step at a time, or the fields
    of the BitGrowthError simulate must raise."""
    quads = (tuple(map(Fraction, params.at(0))), tuple(map(Fraction, params.at(1))))
    x, y = Fraction(init[0]), Fraction(init[1])
    states = [(x, y)]
    for n in range(n_max):
        a, b, c, d = quads[n % 2]
        x, y = a / x + b / y, c / x + d / y
        worst = max(x.numerator.bit_length(), x.denominator.bit_length(),
                    y.numerator.bit_length(), y.denominator.bit_length())
        if worst > bit_cap:
            return ("BitGrowthError", n + 1, worst, bit_cap)
        states.append((x, y))
    return states


def exact_orbit(params, init, n_max, bit_cap=1_000_000):
    try:
        return list(simulate(params, init, n_max, EXACT, bit_cap).states)
    except BitGrowthError as exc:
        return ("BitGrowthError", exc.index, exc.bits, exc.cap)


small = st.fractions(min_value=Fraction(1, 12), max_value=Fraction(12),
                     max_denominator=12)
factors = st.sampled_from([Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
                           Fraction(3, 4), Fraction(6), Fraction(1, 6)])


@st.composite
def coefficient_sets(draw):
    """Rank-2 sets, rank-1 sets (one parity matrix singular), and sets whose
    coefficients share factors or repeat values."""
    shape = draw(st.sampled_from(["rank2", "rank1", "shared"]))
    if shape == "shared":
        base = draw(small)
        values = [base * draw(factors) for _ in range(8)]
    else:
        values = [draw(small) for _ in range(8)]
    if shape == "rank1":  # b*c == a*d on one parity
        i = draw(st.sampled_from([0, 4]))
        values[i + 3] = values[i + 1] * values[i + 2] / values[i]
    return PeriodicCoefficients(*values)


@st.composite
def starts(draw):
    """Starts drawn freely, or with a common numerator or denominator."""
    x0, y0 = draw(small), draw(small)
    common = draw(st.sampled_from(["none", "numerator", "denominator", "equal"]))
    if common == "numerator":
        m = draw(st.integers(2, 60))
        x0, y0 = m * x0, m * y0
    elif common == "denominator":
        m = draw(st.integers(2, 60))
        x0, y0 = x0 / m, y0 / m
    elif common == "equal":
        y0 = x0
    return (x0, y0)


@given(params=coefficient_sets(), init=starts(), n_max=st.integers(0, 40))
def test_exact_simulate_equals_fraction_iteration(params, init, n_max):
    got = exact_orbit(params, init, n_max)
    want = fraction_orbit(params, init, n_max)
    assert len(got) == len(want)
    for state, expected in zip(got, want):
        for v, w in zip(state, expected):
            assert type(v) is Fraction
            assert (v.numerator, v.denominator) == (w.numerator, w.denominator)
            assert math.gcd(v.numerator, v.denominator) == 1
            assert hash(v) == hash(Fraction(v.numerator, v.denominator))


@given(params=coefficient_sets(), init=starts(),
       bit_cap=st.integers(8, 400))
def test_bit_growth_error_matches_fraction_iteration(params, init, bit_cap):
    assert exact_orbit(params, init, 60, bit_cap) == fraction_orbit(
        params, init, 60, bit_cap)


def test_bit_growth_error_fields():
    init = (Fraction(12345, 9871), Fraction(777, 13))
    want = fraction_orbit(RANK2_SQUARE, init, 200, 1024)
    assert want[0] == "BitGrowthError"
    with pytest.raises(BitGrowthError) as info:
        simulate(RANK2_SQUARE, init, 200, EXACT, bit_cap=1024)
    assert ("BitGrowthError", info.value.index, info.value.bits,
            info.value.cap) == want
    assert str(info.value) == (
        f"rational state at step {want[1]} needs {want[2]} bits, cap is 1024")


def test_exact_steps_take_no_gcd_of_two_wide_ints(monkeypatch):
    widths = []
    real_gcd = math.gcd

    def spy(*args):
        widths.append(sorted(abs(a).bit_length() for a in args))
        return real_gcd(*args)

    monkeypatch.setattr(math, "gcd", spy)
    params = PeriodicCoefficients(1, 1, 1, 3, 1, 2, 3, 1)
    orbit = simulate(params, (1, 1), 150, EXACT)
    monkeypatch.undo()
    assert widths
    assert all(len(w) < 2 or w[-2] <= 1000 for w in widths)
    x, y = orbit.state(150)
    # the states themselves are far wider than any gcd operand pair
    assert max(x.numerator.bit_length(), x.denominator.bit_length()) > 15_000
    assert orbit.states == tuple(fraction_orbit(params, (1, 1), 150))
