"""The multiplicative transform and its driving matrices."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ratsys import (
    ArithmeticMode,
    DomainError,
    Parity,
    PeriodicCoefficients,
    composed_matrix,
    linear_step,
    parity_matrix,
    rank_decision,
    simulate,
    uv_from_orbit,
)

from conftest import RANK1_BOUNDARY, RANK2_GENERIC

rationals = st.fractions(
    min_value=Fraction(1, 10), max_value=Fraction(10), max_denominator=20
)
coefficient_sets = st.tuples(*([rationals] * 8)).map(
    lambda t: PeriodicCoefficients(*t)
)
inits = st.tuples(rationals, rationals)


def test_parity_matrix_entries():
    p = PeriodicCoefficients(1, 2, 3, 4, 5, 6, 7, 8)
    even = parity_matrix(p, Parity.EVEN)
    assert (even.m11, even.m12, even.m21, even.m22) == (2, 1, 4, 3)
    odd = parity_matrix(p, Parity.ODD)
    assert (odd.m11, odd.m12, odd.m21, odd.m22) == (6, 5, 8, 7)


def test_composed_matrix_frozen_instance():
    m = composed_matrix(RANK2_GENERIC)
    assert (m.m11, m.m12, m.m21, m.m22) == (5, 8, 10, 14)
    assert m.det() == -10


def test_composed_equals_odd_times_even_product():
    p = RANK2_GENERIC.as_floats()
    even = parity_matrix(p, Parity.EVEN)
    odd = parity_matrix(p, Parity.ODD)
    m = composed_matrix(p)
    # bit-for-bit: the composed entries are the same sums of the same
    # products, and IEEE multiplication and addition commute
    assert m.m11 == odd.m11 * even.m11 + odd.m12 * even.m21
    assert m.m12 == odd.m11 * even.m12 + odd.m12 * even.m22
    assert m.m21 == odd.m21 * even.m11 + odd.m22 * even.m21
    assert m.m22 == odd.m21 * even.m12 + odd.m22 * even.m22


@given(params=coefficient_sets)
def test_composed_determinant_factors(params):
    even = parity_matrix(params, Parity.EVEN)
    odd = parity_matrix(params, Parity.ODD)
    assert composed_matrix(params).det() == even.det() * odd.det()


def test_linear_step_applies_matrix():
    m = parity_matrix(PeriodicCoefficients(1, 2, 3, 4, 5, 6, 7, 8), Parity.EVEN)
    assert linear_step(m, (1, 1)) == (3, 7)


@given(params=coefficient_sets, init=inits)
def test_transform_of_orbit_satisfies_linear_recurrence(params, init):
    orbit = simulate(params, init, 16, ArithmeticMode.EXACT_RATIONAL)
    uv = uv_from_orbit(orbit)
    assert (uv[0].u, uv[0].v) == init
    for n in range(16):
        a, b, c, d = params.at(n)
        assert uv[n + 1].u == b * uv[n].u + a * uv[n].v
        assert uv[n + 1].v == d * uv[n].u + c * uv[n].v


@given(params=coefficient_sets, init=inits)
def test_float_transform_logs_track_exact_values(params, init):
    exact = uv_from_orbit(simulate(params, init, 30, ArithmeticMode.EXACT_RATIONAL))
    fl = uv_from_orbit(simulate(params, init, 30, ArithmeticMode.FLOAT64))
    for n in range(31):
        lu = math.log(exact[n].u.numerator) - math.log(exact[n].u.denominator)
        lv = math.log(exact[n].v.numerator) - math.log(exact[n].v.denominator)
        assert abs(fl[n].log_u - lu) <= 1e-10 * (1 + abs(lu))
        assert abs(fl[n].log_v - lv) <= 1e-10 * (1 + abs(lv))


def test_rank_decision_exact():
    assert rank_decision(composed_matrix(RANK1_BOUNDARY.as_fractions())) == 1
    assert rank_decision(composed_matrix(RANK2_GENERIC.as_fractions())) == 2


def test_rank_decision_float_detects_structural_rank_one():
    # the singular family keeps det exactly 0.0 in float arithmetic
    p = PeriodicCoefficients(1.0, 1.0, 1.0, 1.0, 0.5, 1.5, 0.7, 1.3)
    m = composed_matrix(p)
    assert m.det() == 0.0
    assert rank_decision(m) == 1
    assert rank_decision(composed_matrix(RANK2_GENERIC.as_floats())) == 2


def test_rank_decision_rejects_nonfinite():
    p = PeriodicCoefficients(1e200, 1e200, 1e200, 1e200, 1e200, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        rank_decision(composed_matrix(p))


def test_float_uv_saturates_past_float_range():
    orbit = simulate(RANK2_GENERIC, (1.0, 1.0), 1500)
    last = uv_from_orbit(orbit)[-1]
    assert math.isfinite(last.log_u) and math.isfinite(last.log_v)
    assert last.u == math.inf and last.v == math.inf
