"""Geometric closed forms when the composed matrix is singular."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ratsys import (
    ArithmeticMode,
    BranchError,
    DomainError,
    Kind,
    PeriodicCoefficients,
    classify_rank1,
    growth_and_ratio,
    rank1_solution,
    rank1_solution_sequence,
    simulate,
    uv_from_orbit,
)

from conftest import (
    RANK1_BOUNDARY,
    RANK1_DECAY,
    RANK1_GROWTH,
    RANK2_GENERIC,
    random_rational,
)

EXACT = ArithmeticMode.EXACT_RATIONAL

# random members of the singular family a0 = b0 = c0 = d0 = 1
odd_rationals = st.fractions(
    min_value=Fraction(1, 10), max_value=Fraction(10), max_denominator=20
)
rank1_sets = st.tuples(*([odd_rationals] * 4)).map(
    lambda t: PeriodicCoefficients(1, 1, 1, 1, *t)
)
inits = st.tuples(odd_rationals, odd_rationals)

coefficients = st.fractions(
    min_value=Fraction(1, 4), max_value=Fraction(4), max_denominator=8
)


@st.composite
def singular_sets(draw):
    """Rank-1 sets with either parity matrix singular (d = b*c/a)."""
    a, b, c = draw(coefficients), draw(coefficients), draw(coefficients)
    singular = (a, b, c, b * c / a)
    other = draw(st.tuples(*([coefficients] * 4)))
    if draw(st.booleans()):
        return PeriodicCoefficients(*singular, *other)
    return PeriodicCoefficients(*other, *singular)


def test_k_constant_frozen_values():
    assert growth_and_ratio(RANK1_BOUNDARY, EXACT).k == 1
    assert growth_and_ratio(RANK1_GROWTH, EXACT).k == 2
    assert growth_and_ratio(RANK1_DECAY, EXACT).k == Fraction(1, 4)


def test_k_constant_needs_rank_one():
    with pytest.raises(BranchError):
        growth_and_ratio(RANK2_GENERIC, EXACT)


def test_growth_and_ratio_frozen_values():
    d = growth_and_ratio(RANK1_BOUNDARY, EXACT)
    assert (d.k, d.mu, d.rho) == (1, 4, 1)
    d = growth_and_ratio(RANK1_GROWTH, EXACT)
    assert (d.k, d.mu, d.rho) == (2, 6, Fraction(4, 3))
    d = growth_and_ratio(RANK1_DECAY, EXACT)
    assert (d.k, d.mu, d.rho) == (Fraction(1, 4), Fraction(5, 2), Fraction(2, 5))


@given(params=rank1_sets, init=inits)
def test_transformed_pairs_lock_onto_the_ray(params, init):
    # from the first two-step on, v = K*u no matter where the orbit starts
    k = growth_and_ratio(params, EXACT).k
    uv = uv_from_orbit(simulate(params, init, 8, EXACT))
    for m in range(1, 5):
        assert uv[2 * m].v == k * uv[2 * m].u


@given(params=rank1_sets, init=inits)
def test_exact_closed_form_equals_iteration(params, init):
    orbit = simulate(params, init, 24, EXACT)
    for n in range(25):
        assert rank1_solution(params, init, n, EXACT) == orbit.state(n)


@given(params=rank1_sets, init=inits)
def test_float_closed_form_tracks_exact(params, init):
    for n in (0, 1, 2, 3, 7, 12, 20):
        xe, ye = rank1_solution(params, init, n, EXACT)
        xf, yf = rank1_solution(
            params.as_floats(), (float(init[0]), float(init[1])), n
        )
        assert abs(xf - float(xe)) <= 1e-10 * float(xe)
        assert abs(yf - float(ye)) <= 1e-10 * float(ye)


def test_generic_start_is_not_periodic_from_index_zero():
    # x2 differs from x0 off the proportional ray, so no geometric
    # formula anchored at x0 can reproduce the whole orbit
    init = (Fraction(1), Fraction(2))
    orbit = simulate(RANK1_BOUNDARY, init, 4, EXACT)
    assert orbit.state(2)[0] == Fraction(4, 3) != orbit.state(0)[0]
    assert orbit.state(3) == orbit.state(1)
    assert orbit.state(4) == orbit.state(2)


def test_proportional_start_is_periodic_from_index_zero():
    # on the ray y0 = K*x0 the closed form holds from the very start
    k = growth_and_ratio(RANK1_BOUNDARY, EXACT).k
    init = (Fraction(3, 2), k * Fraction(3, 2))
    orbit = simulate(RANK1_BOUNDARY, init, 8, EXACT)
    for n in range(7):
        assert orbit.state(n + 2) == orbit.state(n)


def test_geometric_growth_is_anchored_at_index_two():
    rng = random.Random(42)
    data = growth_and_ratio(RANK1_GROWTH, EXACT)
    for _ in range(5):
        init = (random_rational(rng), random_rational(rng))
        orbit = simulate(RANK1_GROWTH, init, 21, EXACT)
        x2 = orbit.state(2)[0]
        x3 = orbit.state(3)[0]
        for m in range(1, 10):
            assert orbit.state(2 * m)[0] == x2 * data.rho ** (m - 1)
            assert orbit.state(2 * m + 1)[0] == x3 * data.rho ** (1 - m)


def test_classify_rank1_trichotomy():
    assert classify_rank1(RANK1_BOUNDARY, EXACT).kind is Kind.EXACT_TWO_PERIODIC
    assert classify_rank1(RANK1_GROWTH, EXACT).kind is Kind.BLOW_EVEN_VANISH_ODD
    assert classify_rank1(RANK1_DECAY, EXACT).kind is Kind.VANISH_EVEN_BLOW_ODD
    # float mode agrees on the same instances
    assert (
        classify_rank1(RANK1_BOUNDARY.as_floats()).kind is Kind.EXACT_TWO_PERIODIC
    )
    assert classify_rank1(RANK1_GROWTH.as_floats()).kind is Kind.BLOW_EVEN_VANISH_ODD
    assert classify_rank1(RANK1_DECAY.as_floats()).kind is Kind.VANISH_EVEN_BLOW_ODD


def test_classified_decay_actually_decays():
    orbit = simulate(RANK1_DECAY, (Fraction(2), Fraction(3)), 40, EXACT)
    assert orbit.state(20)[0] < orbit.state(10)[0] < orbit.state(2)[0]
    assert orbit.state(21)[0] > orbit.state(11)[0] > orbit.state(3)[0]


@given(
    params=singular_sets(),
    start=st.tuples(coefficients, coefficients),
    on_locus=st.booleans(),
    exact=st.booleans(),
)
def test_sequence_equals_point_queries(params, start, on_locus, exact):
    # bit-identical in float mode, equal rationals in exact mode, both on
    # and off the y0 = K*x0 locus
    mode = EXACT if exact else ArithmeticMode.FLOAT64
    if not exact:
        params, start = params.as_floats(), tuple(map(float, start))
    k = growth_and_ratio(params, mode).k
    init = (start[0], k * start[0]) if on_locus else start
    seq = rank1_solution_sequence(params, init, 300, mode)
    assert len(seq) == 301
    for n, state in enumerate(seq):
        assert state == rank1_solution(params, init, n, mode)


@pytest.mark.parametrize("n_max", [0, 1, 2, 3])
def test_sequence_short_horizons_are_direct_steps(n_max):
    init = (Fraction(1), Fraction(2))
    orbit = simulate(RANK1_GROWTH, init, n_max, EXACT)
    seq = rank1_solution_sequence(RANK1_GROWTH, init, n_max, EXACT)
    assert seq == [orbit.state(n) for n in range(n_max + 1)]
    # no rank-1 constant is needed below index 4, as for rank1_solution
    seq = rank1_solution_sequence(RANK2_GENERIC, init, n_max, EXACT)
    assert seq == [rank1_solution(RANK2_GENERIC, init, n, EXACT)
                   for n in range(n_max + 1)]


def test_sequence_rejects_negative_horizon():
    with pytest.raises(DomainError):
        rank1_solution_sequence(RANK1_GROWTH, (1, 1), -1, EXACT)


@pytest.mark.parametrize("n_max", [4, 5, 40])
def test_sequence_needs_rank_one(n_max):
    # the one exact closed form serves a rank-2 set; float mode refuses it
    orbit = simulate(RANK2_GENERIC, (1, 1), n_max, EXACT)
    assert rank1_solution_sequence(RANK2_GENERIC, (1, 1), n_max, EXACT) \
        == list(orbit.states)
    with pytest.raises(BranchError):
        rank1_solution_sequence(RANK2_GENERIC.as_floats(), (1.0, 1.0), n_max)
