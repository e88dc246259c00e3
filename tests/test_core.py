"""Direct iteration: parameter validation, stepping, orbits, log orbits."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ratsys import (
    ArithmeticMode,
    BitGrowthError,
    DomainError,
    classify,
    closed_form_sequence,
    closed_form_states,
    compare,
    OrbitPoint,
    PeriodicCoefficients,
    TruncationError,
    limit_cycle,
    log_simulate,
    prepare,
    rank1_solution,
    rank1_solution_sequence,
    rank2_solution,
    rank2_solution_sequence,
    simulate,
    spectral_constants,
    step,
)
from ratsys.core import initial_state

from ratsys.cli import main

from conftest import (RANK1_GROWTH, RANK2_BALANCED, RANK2_GENERIC, RANK2_SQUARE,
                      decimal_log_orbit)

rationals = st.fractions(
    min_value=Fraction(1, 10), max_value=Fraction(10), max_denominator=20
)
coefficient_sets = st.tuples(*([rationals] * 8)).map(
    lambda t: PeriodicCoefficients(*t)
)
inits = st.tuples(rationals, rationals)


@pytest.mark.parametrize("bad", [0, -1, -1.0, -0.5, float("inf"), float("nan")])
def test_coefficients_must_be_positive_finite(bad):
    values = (1, 1, 1, bad, 1, 1, 1, 1)
    p = PeriodicCoefficients(*[1.0] * 8)
    # a call, _make and _replace all validate
    for build in (lambda: PeriodicCoefficients(*values),
                  lambda: PeriodicCoefficients._make(values),
                  lambda: p._replace(a0=bad)):
        with pytest.raises(DomainError):
            build()


def test_at_cycles_with_period_two():
    p = PeriodicCoefficients(1, 2, 3, 4, 5, 6, 7, 8)
    assert p.at(0) == (1, 2, 3, 4)
    assert p.at(1) == (5, 6, 7, 8)
    assert p.at(2) == p.at(0)
    assert p.at(17) == p.at(1)


def test_step_uses_the_parity_of_the_index():
    p = RANK2_GENERIC.as_floats()
    assert step(p, 0, (1.0, 1.0)) == (3.0, 7.0)
    # odd step uses a1, b1, c1, d1
    assert step(p, 1, (1.0, 1.0)) == (3.0, 4.0)
    assert step(p, 2, (1.0, 1.0)) == (3.0, 7.0)


@pytest.mark.parametrize("mode", list(ArithmeticMode))
def test_step_takes_a_system(mode):
    # as simulate does, step reads a System's coefficients
    system = prepare(RANK2_GENERIC, mode)
    start = initial_state((1, 2), mode)
    for n in (0, 1):
        assert step(system, n, start) == step(system.params, n, start)


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
    assert [(pt.x, pt.y) for pt in orbit] == list(orbit.states)
    assert orbit.state(0) == orbit.states[0] == (1.0, 1.0)


def test_simulate_builds_no_orbit_points(monkeypatch):
    built = []
    original = OrbitPoint.__new__

    def counting(cls, *args):
        built.append(args)
        return original(cls, *args)

    monkeypatch.setattr(OrbitPoint, "__new__", counting)
    orbit = simulate(RANK2_GENERIC, (1.5, 0.5), 500)
    assert built == []
    # iteration builds them on demand, one per state
    assert [pt.n for pt in orbit] == list(range(501))
    assert len(built) == 501


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


def test_truncation_orbit_holds_the_valid_prefix():
    p = RANK2_GENERIC.as_floats()
    with pytest.raises(TruncationError) as info:
        simulate(p, (1.0, 1.0), 10_000)
    err = info.value
    assert err.index > 1000
    assert len(err.orbit.states) == err.index
    assert err.orbit.states == simulate(p, (1.0, 1.0), err.index - 1).states


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


@pytest.mark.parametrize("mode", list(ArithmeticMode))
def test_log_simulate_takes_a_system(mode):
    system = prepare(RANK2_GENERIC, mode)
    assert log_simulate(system, (1, 1), 3) == log_simulate(RANK2_GENERIC, (1, 1), 3)


def test_log_simulate_all_ones_is_exact():
    p = PeriodicCoefficients(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    logs = log_simulate(p, (1.0, 1.0), 8)
    for n, (lx, ly) in enumerate(logs):
        expected = 0.0 if n % 2 == 0 else math.log(2.0)
        assert lx == expected
        assert ly == expected


@pytest.mark.parametrize("coeffs", ["2,1,4,3,1,2,3,1", "1,1,1,1,1,1,2,2"])
def test_log_simulate_stays_on_the_oracle_far_past_float_range(coeffs):
    # both orbits leave float range near step 5,000; a log-sum-exp step
    # rounds at the size of |log x| and was off by 8.5e-9 and 1.8e-8 here
    p = PeriodicCoefficients(*map(float, coeffs.split(",")))
    horizons = (10**3, 10**4, 10**5)
    oracle = decimal_log_orbit(p, (1.0, 1.0), horizons)
    logs = log_simulate(p, (1.0, 1.0), 10**5)
    for n in horizons:
        assert abs(logs[n][0]) > 1000 or n < 10**4  # not vacuous
        assert max(abs(a - b) for a, b in zip(logs[n], oracle[n])) <= 1e-11


HORIZON_ENTRY_POINTS = {
    "simulate": lambda n: simulate(RANK2_GENERIC, (1, 1), n),
    "log_simulate": lambda n: log_simulate(RANK2_GENERIC, (1, 1), n),
    "closed_form_sequence": lambda n: closed_form_sequence(RANK2_GENERIC, (1, 1), n),
    "compare": lambda n: compare(RANK2_GENERIC, (1, 1), n),
    "rank1_solution": lambda n: rank1_solution(RANK1_GROWTH, (1, 1), n),
    "rank2_solution": lambda n: rank2_solution(RANK2_GENERIC, (1, 1), n),
    "rank2_solution_sequence":
        lambda n: rank2_solution_sequence(RANK2_GENERIC, (1, 1), n),
    "cli": lambda n: main(["closed", "--all-ones", "-n", str(n)]),
}


@pytest.mark.parametrize("entry", sorted(HORIZON_ENTRY_POINTS))
def test_every_horizon_check_rejects_a_negative_horizon(entry, capsys):
    if entry == "cli":
        with pytest.raises(SystemExit) as exc:
            HORIZON_ENTRY_POINTS[entry](-1)
        assert exc.value.code == 2
        assert "n must be >= 0, got -1" in capsys.readouterr().err
    else:
        with pytest.raises(DomainError, match=r"must be >= 0, got -1$"):
            HORIZON_ENTRY_POINTS[entry](-1)


@pytest.mark.parametrize("entry", sorted(set(HORIZON_ENTRY_POINTS) - {"cli"}))
@pytest.mark.parametrize("value", [2.5, 3.0, 1e3, True, Fraction(2)])
def test_every_horizon_check_rejects_what_is_not_an_int(entry, value):
    """A float, a bool or a Fraction is refused with DomainError, not left
    to end in TypeError or ValueError or, for True, in a one-step orbit.
    The CLI parses -n as an int."""
    message = f"must be an int >= 0, got {re.escape(repr(value))}$"
    with pytest.raises(DomainError, match=message):
        HORIZON_ENTRY_POINTS[entry](value)
    HORIZON_ENTRY_POINTS[entry](2)


# Every entry point that takes a start, as (init, n) -> result;
# spectral_constants, limit_cycle and classify take no index.
START_ENTRY_POINTS = {
    "closed_form_states":
        lambda init, n: closed_form_states(RANK2_GENERIC, init),
    "compare": lambda init, n: compare(RANK2_GENERIC, init, n),
    "compare_exact": lambda init, n: compare(
        RANK2_SQUARE, init, n, ArithmeticMode.EXACT_RATIONAL),
    "classify_rank1": lambda init, n: classify(RANK1_GROWTH, probe_init=init),
    "classify_rank2": lambda init, n: classify(
        RANK2_GENERIC, probe_init=init, attach_cycle=False),
    "classify_exact": lambda init, n: classify(
        RANK2_SQUARE, ArithmeticMode.EXACT_RATIONAL, probe_init=init),
    "rank1_solution": lambda init, n: rank1_solution(RANK1_GROWTH, init, n),
    "rank1_solution_sequence":
        lambda init, n: rank1_solution_sequence(RANK1_GROWTH, init, n),
    "rank2_solution": lambda init, n: rank2_solution(RANK2_GENERIC, init, n),
    "rank2_solution_sequence":
        lambda init, n: rank2_solution_sequence(RANK2_GENERIC, init, n),
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
    # and so is one too small for a double, though it rounds to 0.0
    with pytest.raises(DomainError, match="within float range"):
        initial_state((Fraction(1, 10**400), 1), ArithmeticMode.FLOAT64)
