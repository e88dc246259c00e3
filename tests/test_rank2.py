"""Spectral closed forms when the composed matrix is invertible."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from ratsys import (
    ArithmeticMode,
    BranchError,
    DomainError,
    Kind,
    PeriodicCoefficients,
    SignedLog,
    classify_rank2,
    composed_matrix,
    criterion_delta,
    delta_sign_exact,
    eigenvalues,
    limit_cycle,
    rank2_solution,
    rank2_solution_sequence,
    rank2_uv,
    rank_decision,
    simulate,
    spectral_constants,
    uv_from_orbit,
)

from conftest import (
    RANK1_BOUNDARY,
    RANK2_BALANCED,
    RANK2_BLOW,
    RANK2_GENERIC,
    RANK2_SQUARE,
    random_rational_params,
)

EXACT = ArithmeticMode.EXACT_RATIONAL

positive_floats = st.floats(min_value=0.1, max_value=10.0)
float_sets = st.tuples(*([positive_floats] * 8)).map(
    lambda t: PeriodicCoefficients(*t)
)
float_inits = st.tuples(positive_floats, positive_floats)


def test_eigenvalues_frozen_float():
    l1, l2 = eigenvalues(RANK2_GENERIC)
    assert l1 == pytest.approx((19 + math.sqrt(401)) / 2, rel=1e-14)
    assert l2 == pytest.approx((19 - math.sqrt(401)) / 2, rel=1e-12)


def test_eigenvalues_frozen_exact():
    assert eigenvalues(RANK2_SQUARE, EXACT) == (11, -1)


def test_eigenvalues_need_rank_two():
    with pytest.raises(BranchError):
        eigenvalues(RANK1_BOUNDARY, EXACT)


def test_exact_eigenvalues_need_square_discriminant():
    with pytest.raises(DomainError):
        eigenvalues(RANK2_GENERIC, EXACT)


@given(params=float_sets)
def test_eigenpairs_satisfy_the_matrix_equation(params):
    m = composed_matrix(params)
    assume(rank_decision(m) == 2)
    l1, l2 = eigenvalues(params)
    assert abs(l2) < l1
    for lam in (l1, l2):
        v = (m.m12, lam - m.m11)
        norm = math.hypot(*v)
        res = math.hypot(
            m.m11 * v[0] + m.m12 * v[1] - lam * v[0],
            m.m21 * v[0] + m.m22 * v[1] - lam * v[1],
        )
        assert res <= 1e-12 * max(1.0, norm)


def test_spectral_constants_reproduce_the_start():
    sd = spectral_constants(RANK2_SQUARE, (Fraction(2), Fraction(3)), EXACT)
    assert sd.c1 - sd.c2 == 2
    assert sd.c3 - sd.c4 == 3


@given(params=float_sets, init=float_inits)
def test_spectral_constants_reproduce_the_start_float(params, init):
    assume(rank_decision(composed_matrix(params)) == 2)
    sd = spectral_constants(params, init)
    assert sd.c1 - sd.c2 == pytest.approx(init[0], rel=1e-11)
    assert sd.c3 - sd.c4 == pytest.approx(init[1], rel=1e-11)


def test_exact_transformed_pairs_match_orbit_products():
    init = (Fraction(2), Fraction(3))
    orbit = simulate(RANK2_SQUARE, init, 12, EXACT)
    uv = uv_from_orbit(orbit)
    for n in range(13):
        u, v = rank2_uv(RANK2_SQUARE, init, n, EXACT)
        assert u == uv[n].u
        assert v == uv[n].v


@given(params=float_sets, init=float_inits)
def test_float_transformed_pairs_track_orbit_logs(params, init):
    assume(rank_decision(composed_matrix(params)) == 2)
    orbit = simulate(params, init, 24)
    uv = uv_from_orbit(orbit)
    for n in (0, 1, 5, 12, 24):
        su, sv = rank2_uv(params, init, n)
        assert isinstance(su, SignedLog) and su.sign == 1
        assert isinstance(sv, SignedLog) and sv.sign == 1
        assert abs(su.log_abs - uv[n].log_u) <= 1e-10 * (1 + abs(uv[n].log_u))
        assert abs(sv.log_abs - uv[n].log_v) <= 1e-10 * (1 + abs(uv[n].log_v))


def test_ratio_of_transformed_pairs_approaches_q():
    sd = spectral_constants(RANK2_SQUARE, (Fraction(2), Fraction(3)), EXACT)
    u, v = rank2_uv(RANK2_SQUARE, (Fraction(2), Fraction(3)), 40, EXACT)
    # the deviation decays like (lambda2/lambda1)**m = (-1/11)**20
    assert abs(float(u / v) - float(sd.q)) < 1e-14
    # and q does not depend on the start
    other = spectral_constants(RANK2_SQUARE, (Fraction(7, 2), Fraction(1, 9)), EXACT)
    assert other.q == sd.q


def test_exact_closed_form_equals_iteration():
    init = (Fraction(5, 4), Fraction(1, 3))
    orbit = simulate(RANK2_SQUARE, init, 16, EXACT)
    seq = rank2_solution_sequence(RANK2_SQUARE, init, 16, EXACT)
    for n in range(17):
        assert seq[n] == orbit.state(n)
    assert rank2_solution(RANK2_SQUARE, init, 9, EXACT) == orbit.state(9)


@given(params=float_sets, init=float_inits)
def test_float_closed_form_tracks_iteration(params, init):
    assume(rank_decision(composed_matrix(params)) == 2)
    orbit = simulate(params, init, 30)
    seq = rank2_solution_sequence(params, init, 30)
    for n in range(31):
        x_it, y_it = orbit.state(n)
        x_cf, y_cf = seq[n]
        assert abs(x_cf - x_it) <= 1e-9 * x_it
        assert abs(y_cf - y_it) <= 1e-9 * y_it


def test_criterion_delta_frozen_values():
    assert criterion_delta(RANK2_GENERIC) == pytest.approx(
        -3.6678732053675898, rel=1e-12
    )
    assert criterion_delta(RANK2_BLOW) == pytest.approx(0.2, rel=1e-13)
    assert criterion_delta(RANK2_BALANCED) == pytest.approx(0.0, abs=1e-13)


def test_delta_sign_exact_frozen_values():
    assert delta_sign_exact(RANK2_GENERIC) == -1
    assert delta_sign_exact(RANK2_BLOW) == 1
    assert delta_sign_exact(RANK2_BALANCED) == 0


def test_delta_sign_exact_agrees_with_float():
    rng = random.Random(314)
    checked = 0
    while checked < 60:
        params = random_rational_params(rng)
        if composed_matrix(params.as_fractions()).det() == 0:
            continue
        delta = criterion_delta(params.as_floats())
        if abs(delta) < 1e-9:
            continue
        assert delta_sign_exact(params) == (1 if delta > 0 else -1)
        checked += 1


def test_classify_rank2_trichotomy():
    assert classify_rank2(RANK2_GENERIC).kind is Kind.VANISH_EVEN_BLOW_ODD
    assert classify_rank2(RANK2_BLOW).kind is Kind.BLOW_EVEN_VANISH_ODD
    assert classify_rank2(RANK2_BALANCED).kind is Kind.CONVERGES_TO_TWO_PERIODIC
    # exact mode decides the sign without tolerance
    assert classify_rank2(RANK2_GENERIC, EXACT).kind is Kind.VANISH_EVEN_BLOW_ODD
    assert classify_rank2(RANK2_BLOW, EXACT).kind is Kind.BLOW_EVEN_VANISH_ODD
    verdict = classify_rank2(RANK2_BALANCED, EXACT)
    assert verdict.kind is Kind.CONVERGES_TO_TWO_PERIODIC
    assert verdict.witness.delta == 0.0


def test_classified_blow_even_actually_grows():
    orbit = simulate(RANK2_BLOW.as_floats(), (1.0, 1.0), 60)
    assert orbit.state(40)[0] > orbit.state(20)[0] > orbit.state(10)[0]
    assert orbit.state(41)[0] < orbit.state(21)[0] < orbit.state(11)[0]


def test_limit_cycle_needs_the_convergent_case():
    with pytest.raises(BranchError):
        limit_cycle(RANK2_GENERIC, (1.0, 1.0))


def test_limit_cycle_matches_the_orbit():
    cycle = limit_cycle(RANK2_BALANCED, (1.0, 1.0))
    assert cycle.residual < 1e-12
    orbit = simulate(RANK2_BALANCED.as_floats(), (1.0, 1.0), 80)
    assert orbit.state(78)[0] == pytest.approx(cycle.x_even, rel=1e-12)
    assert orbit.state(79)[0] == pytest.approx(cycle.x_odd, rel=1e-12)
    assert orbit.state(78)[1] == pytest.approx(cycle.y_even, rel=1e-12)
    assert orbit.state(79)[1] == pytest.approx(cycle.y_odd, rel=1e-12)


def test_limit_cycle_depends_on_the_start(balanced_instance):
    params, r = balanced_instance
    assert 1e-3 <= r <= 0.9
    a = limit_cycle(params, (1.0, 1.0))
    b = limit_cycle(params, (3.0, 0.5))
    assert a.residual < 1e-9 and b.residual < 1e-9
    assert abs(a.x_even - b.x_even) > 1e-6 * a.x_even


def test_signed_log_value_round_trip():
    assert SignedLog(0, float("-inf")).value == 0.0
    assert SignedLog(1, 0.0).value == 1.0
    assert SignedLog(-1, math.log(2.0)).value == -2.0


@pytest.mark.parametrize("case", ["frozen", "seeded"])
def test_closed_form_tail_agrees_with_the_limit_cycle(case, balanced_instance):
    params = RANK2_BALANCED if case == "frozen" else balanced_instance[0]
    init = (1.5, 0.5)
    # 2000 two-steps is past the terms the cycle needs at r <= 0.9
    seq = rank2_solution_sequence(params, init, 2 * 2000 + 1)
    (x_even, y_even), (x_odd, y_odd) = seq[-2], seq[-1]
    cycle = limit_cycle(params, init)
    for got, want in ((x_even, cycle.x_even), (x_odd, cycle.x_odd),
                      (y_even, cycle.y_even), (y_odd, cycle.y_odd)):
        assert got == pytest.approx(want, rel=1e-9)
