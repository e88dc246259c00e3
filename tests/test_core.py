"""Direct iteration: parameter validation, stepping, orbits, log orbits."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ratsys import (
    ArithmeticMode,
    BitGrowthError,
    DomainError,
    PeriodicCoefficients,
    TruncationError,
    limit_cycle,
    log_simulate,
    rank1_solution,
    rank1_solution_sequence,
    rank1_uv,
    rank2_solution,
    rank2_solution_sequence,
    rank2_uv,
    simulate,
    spectral_constants,
    step,
)
from ratsys.core import initial_state

from conftest import RANK1_GROWTH, RANK2_BALANCED, RANK2_GENERIC

rationals = st.fractions(
    min_value=Fraction(1, 10), max_value=Fraction(10), max_denominator=20
)
coefficient_sets = st.tuples(*([rationals] * 8)).map(
    lambda t: PeriodicCoefficients(*t)
)
inits = st.tuples(rationals, rationals)


@pytest.mark.parametrize("bad", [0, -1, -0.5, float("inf"), float("nan")])
def test_coefficients_must_be_positive_finite(bad):
    with pytest.raises(DomainError):
        PeriodicCoefficients(1, 1, 1, bad, 1, 1, 1, 1)


def test_at_cycles_with_period_two():
    p = PeriodicCoefficients(1, 2, 3, 4, 5, 6, 7, 8)
    assert p.at(0) == (1, 2, 3, 4)
    assert p.at(1) == (5, 6, 7, 8)
    assert p.at(2) == p.at(0)
    assert p.at(17) == p.at(1)


def test_strictly_alternating_flag():
    assert PeriodicCoefficients(1, 2, 3, 4, 5, 6, 7, 8).strictly_alternating
    assert not PeriodicCoefficients(1, 2, 3, 4, 1, 6, 7, 8).strictly_alternating
    assert not PeriodicCoefficients(1, 1, 1, 1, 1, 1, 1, 1).strictly_alternating


def test_step_uses_the_parity_of_the_index():
    p = RANK2_GENERIC.as_floats()
    assert step(p, 0, (1.0, 1.0)) == (3.0, 7.0)
    # odd step uses a1, b1, c1, d1
    assert step(p, 1, (1.0, 1.0)) == (3.0, 4.0)
    assert step(p, 2, (1.0, 1.0)) == (3.0, 7.0)


def test_step_rejects_nonpositive_state():
    p = RANK2_GENERIC.as_floats()
    with pytest.raises(DomainError):
        step(p, 0, (0.0, 1.0))
    with pytest.raises(DomainError):
        step(p, 0, (1.0, -2.0))


def test_all_ones_orbit_alternates():
    p = PeriodicCoefficients(1, 1, 1, 1, 1, 1, 1, 1)
    orbit = simulate(p, (Fraction(1), Fraction(1)), 9, ArithmeticMode.EXACT_RATIONAL)
    for n in range(10):
        expected = Fraction(1) if n % 2 == 0 else Fraction(2)
        assert orbit.state(n) == (expected, expected)


def test_orbit_accessors():
    p = RANK2_GENERIC.as_floats()
    orbit = simulate(p, (1.0, 1.0), 7)
    assert len(orbit) == 8
    assert orbit.n_max == 7
    assert [pt.n for pt in orbit] == list(range(8))
    assert orbit.state(0) == (1.0, 1.0)


@given(params=coefficient_sets, init=inits)
def test_orbit_stays_positive(params, init):
    orbit = simulate(params, init, 25, ArithmeticMode.EXACT_RATIONAL)
    for pt in orbit:
        assert pt.x > 0 and pt.y > 0


@given(params=coefficient_sets, init=inits)
def test_float_tracks_exact_iteration(params, init):
    exact = simulate(params, init, 40, ArithmeticMode.EXACT_RATIONAL)
    approx = simulate(params, init, 40, ArithmeticMode.FLOAT64)
    for n in range(41):
        xe, ye = exact.state(n)
        xf, yf = approx.state(n)
        assert abs(xf - float(xe)) <= 1e-10 * float(xe)
        assert abs(yf - float(ye)) <= 1e-10 * float(ye)


def test_float_overflow_raises_truncation_with_prefix():
    p = PeriodicCoefficients(1e308, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(TruncationError) as info:
        simulate(p, (1e-300, 1.0), 10)
    err = info.value
    assert err.index == 1
    assert err.orbit.n_max == 0
    assert err.orbit.state(0) == (1e-300, 1.0)


def test_exact_bit_cap_raises_bit_growth():
    # rank-2 instance: representation size grows without bound
    p = PeriodicCoefficients(1, 1, 1, 2, 1, 3, 4, 1)
    with pytest.raises(BitGrowthError):
        simulate(
            p,
            (Fraction(12345, 9871), Fraction(777, 13)),
            200,
            ArithmeticMode.EXACT_RATIONAL,
            bit_cap=1024,
        )


def test_exact_mode_rejects_float_inputs():
    p = PeriodicCoefficients(1.5, 1, 1, 1, 1, 1, 1, 1)
    with pytest.raises(DomainError):
        simulate(p, (Fraction(1), Fraction(1)), 3, ArithmeticMode.EXACT_RATIONAL)
    q = PeriodicCoefficients(1, 1, 1, 1, 1, 1, 1, 1)
    with pytest.raises(DomainError):
        simulate(q, (0.5, Fraction(1)), 3, ArithmeticMode.EXACT_RATIONAL)


def test_log_simulate_matches_direct_logs():
    p = RANK2_GENERIC.as_floats()
    orbit = simulate(p, (1.25, 0.75), 50)
    logs = log_simulate(p, (1.25, 0.75), 50)
    assert len(logs) == 51
    for n in range(51):
        x, y = orbit.state(n)
        lx, ly = logs[n]
        assert abs(lx - math.log(x)) <= 1e-12 * (1 + n)
        assert abs(ly - math.log(y)) <= 1e-12 * (1 + n)


def test_log_simulate_all_ones_is_exact():
    p = PeriodicCoefficients(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    logs = log_simulate(p, (1.0, 1.0), 8)
    for n, (lx, ly) in enumerate(logs):
        expected = 0.0 if n % 2 == 0 else math.log(2.0)
        assert lx == expected
        assert ly == expected


# Every entry point that takes a start, as (init, n) -> result. rank1_uv
# indexes two-steps from m = 1, so it gets n + 1; spectral_constants and
# limit_cycle take no index.
START_ENTRY_POINTS = {
    "rank1_solution": lambda init, n: rank1_solution(RANK1_GROWTH, init, n),
    "rank1_solution_sequence":
        lambda init, n: rank1_solution_sequence(RANK1_GROWTH, init, n),
    "rank1_uv": lambda init, n: rank1_uv(RANK1_GROWTH, init, n + 1),
    "rank2_solution": lambda init, n: rank2_solution(RANK2_GENERIC, init, n),
    "rank2_solution_sequence":
        lambda init, n: rank2_solution_sequence(RANK2_GENERIC, init, n),
    "rank2_uv": lambda init, n: rank2_uv(RANK2_GENERIC, init, n),
    "spectral_constants": lambda init, n: spectral_constants(RANK2_GENERIC, init),
    "limit_cycle": lambda init, n: limit_cycle(RANK2_BALANCED, init),
    "simulate": lambda init, n: simulate(RANK2_GENERIC, init, n),
    "log_simulate": lambda init, n: log_simulate(RANK2_GENERIC, init, n),
}
BAD_STARTS = [
    (bad, 1.0) if first else (1.0, bad)
    for bad in (0.0, -1.0, float("inf"), float("nan"))
    for first in (True, False)
]


@pytest.mark.parametrize("init", BAD_STARTS, ids=repr)
@pytest.mark.parametrize("entry", sorted(START_ENTRY_POINTS))
def test_every_entry_point_rejects_a_bad_start(entry, init):
    for n in (0, 5):
        with pytest.raises(DomainError):
            START_ENTRY_POINTS[entry](init, n)


def test_initial_state_coerces_to_the_mode():
    assert initial_state((1, Fraction(1, 2)), ArithmeticMode.FLOAT64) == (1.0, 0.5)
    state = initial_state((2, Fraction(1, 3)), ArithmeticMode.EXACT_RATIONAL)
    assert state == (Fraction(2), Fraction(1, 3))
    assert all(type(v) is Fraction for v in state)
    with pytest.raises(DomainError):
        initial_state((0.5, 1), ArithmeticMode.EXACT_RATIONAL)
    # a rational too wide for a double is out of float range, not a crash
    with pytest.raises(DomainError):
        initial_state((Fraction(10) ** 400, 1), ArithmeticMode.FLOAT64)
