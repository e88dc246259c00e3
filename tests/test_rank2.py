"""Spectral closed forms when the composed matrix is invertible."""

import decimal
import math
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from ratsys import (
    ArithmeticMode,
    BranchError,
    ConvergenceError,
    DomainError,
    Kind,
    PeriodicCoefficients,
    classify,
    classify_rank2,
    composed_matrix,
    criterion_delta,
    delta_sign_exact,
    eigenvalues,
    limit_cycle,
    rank2_solution,
    rank2_solution_sequence,
    rank_decision,
    simulate,
    spectral_constants,
    uv_from_orbit,
)
from ratsys.cli import main
from ratsys.core import COEFF_NAMES

from conftest import (
    RANK1_BOUNDARY,
    RANK2_BALANCED,
    RANK2_BLOW,
    RANK2_GENERIC,
    RANK2_SLOW_99,
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
    # u[2m] = c1*lambda1**m - c2*lambda2**m, v[2m] = c3*lambda1**m - c4*lambda2**m
    init = (Fraction(2), Fraction(3))
    sd = spectral_constants(RANK2_SQUARE, init, EXACT)
    uv = uv_from_orbit(simulate(RANK2_SQUARE, init, 12, EXACT))
    for m in range(7):
        pow1, pow2 = sd.lambda1 ** m, sd.lambda2 ** m
        assert uv[2 * m].u == sd.c1 * pow1 - sd.c2 * pow2
        assert uv[2 * m].v == sd.c3 * pow1 - sd.c4 * pow2


@given(params=float_sets, init=float_inits)
def test_float_transformed_pairs_track_orbit_logs(params, init):
    # the same expansion in logs, lambda1**m factored out
    assume(rank_decision(composed_matrix(params)) == 2)
    sd = spectral_constants(params, init)
    uv = uv_from_orbit(simulate(params, init, 24))
    for m in (0, 1, 6, 12):
        t = (sd.lambda2 / sd.lambda1) ** m
        base = m * math.log(sd.lambda1)
        log_u = base + math.log(sd.c1 - sd.c2 * t)
        log_v = base + math.log(sd.c3 - sd.c4 * t)
        assert abs(log_u - uv[2 * m].log_u) <= 1e-10 * (1 + abs(uv[2 * m].log_u))
        assert abs(log_v - uv[2 * m].log_v) <= 1e-10 * (1 + abs(uv[2 * m].log_v))


def test_ratio_of_transformed_pairs_approaches_q():
    init = (Fraction(2), Fraction(3))
    sd = spectral_constants(RANK2_SQUARE, init, EXACT)
    uv = uv_from_orbit(simulate(RANK2_SQUARE, init, 40, EXACT))[40]
    u, v = uv.u, uv.v
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


def test_delta_sign_exact_where_its_rational_part_is_zero(capsys):
    """On 1,3,2,1,1,2,1,1 delta clears to X + Y*sqrt(disc) with X = 0
    and Y = -16, disc = 80, not a square: the sign is Y's. Exact compare
    runs its closed form all the same, equal to the orbit."""
    params = PeriodicCoefficients(*map(Fraction, (1, 3, 2, 1, 1, 2, 1, 1)))
    assert delta_sign_exact(params) == -1
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        alpha, beta, gamma, delta = map(Decimal, map(int, composed_matrix(params)))
        l1 = (alpha + delta + ((alpha - delta) ** 2 + 4 * beta * gamma).sqrt()) / 2
        q = beta / (l1 - alpha)
        a0, b0, c0, d0 = map(Decimal, map(int, params.at(0)))
        crit = l1 * q - (b0 * q + a0) * (d0 * q + c0)
    want = Decimal("-5.85410196624968454461376050309691435316")
    assert abs(crit - want) < Decimal("1e-38")
    argv = [a for name, v in zip(COEFF_NAMES, params) for a in (f"--{name}", str(v))]
    assert main(["compare", *argv, "--mode", "exact", "-n", "100"]) == 0
    out = capsys.readouterr().out
    assert "max_rel_error_x: 0\nmax_rel_error_y: 0\n" in out
    assert "first_divergence_index: none" in out


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
    with pytest.raises(BranchError, match="classification is VanishEvenBlowOdd"):
        limit_cycle(RANK2_GENERIC, (1.0, 1.0))


def test_limit_cycle_fails_fast_where_the_products_drift():
    # delta/scale = 1.19e-10 is inside tol_class, so the set is convergent,
    # but every log factor tends to log1p(delta/scale): the change per term
    # can never pass the cycle's tol of 1e-11, and 10**6 terms took 2.4 s
    params = PeriodicCoefficients(2, 1, 4, 3, 1, 4.1715627063077, 3, 1)
    verdict = classify(params, attach_cycle=False)
    assert verdict.kind is Kind.CONVERGES_TO_TWO_PERIODIC
    assert 1e-11 < verdict.witness.delta / verdict.witness.scale < 1e-9
    t0 = time.perf_counter()
    with pytest.raises(ConvergenceError, match="cannot meet tol=1e-11"):
        limit_cycle(params, (1.0, 1.0))
    assert time.perf_counter() - t0 < 0.5


def test_limit_cycle_matches_the_orbit():
    cycle = limit_cycle(RANK2_BALANCED, (1.0, 1.0))
    assert cycle.residual < 1e-12
    orbit = simulate(RANK2_BALANCED.as_floats(), (1.0, 1.0), 80)
    assert orbit.state(78)[0] == pytest.approx(cycle.x_even, rel=1e-12)
    assert orbit.state(79)[0] == pytest.approx(cycle.x_odd, rel=1e-12)
    assert orbit.state(78)[1] == pytest.approx(cycle.y_even, rel=1e-12)
    assert orbit.state(79)[1] == pytest.approx(cycle.y_odd, rel=1e-12)


# x0/y0 many orders of magnitude from 1, where the expansion constants
# c1 - c2 and c3 - c4 cancel catastrophically instead of giving x0 and y0
LOPSIDED = [(1e8, 1e-8), (1e-8, 1e8), (1e10, 1e-10), (1e-10, 1e10)]


@pytest.mark.parametrize("init", LOPSIDED)
def test_closed_form_matches_iteration_from_lopsided_starts(init):
    seq = rank2_solution_sequence(RANK2_GENERIC, init, 40)
    orbit = simulate(RANK2_GENERIC, init, 40)
    for (xc, yc), (xi, yi) in zip(seq, orbit.states):
        assert xc == pytest.approx(xi, rel=1e-13)
        assert yc == pytest.approx(yi, rel=1e-13)
    assert rank2_solution(RANK2_GENERIC, init, 3) == seq[3]


@pytest.mark.parametrize("init", LOPSIDED)
def test_limit_cycle_from_lopsided_starts(init):
    cycle = limit_cycle(RANK2_BALANCED, init)
    assert cycle.residual < 1e-12
    orbit = simulate(RANK2_BALANCED, init, 201)
    (x_even, y_even), (x_odd, y_odd) = orbit.state(200), orbit.state(201)
    assert x_even == pytest.approx(cycle.x_even, rel=1e-12)
    assert x_odd == pytest.approx(cycle.x_odd, rel=1e-12)
    assert y_even == pytest.approx(cycle.y_even, rel=1e-12)
    assert y_odd == pytest.approx(cycle.y_odd, rel=1e-12)


def test_exact_closed_form_from_a_lopsided_start():
    init = (Fraction(10**10), Fraction(1, 10**10))
    orbit = simulate(RANK2_SQUARE, init, 20, EXACT)
    assert rank2_solution_sequence(RANK2_SQUARE, init, 20, EXACT) == list(
        orbit.states)


def test_limit_cycle_depends_on_the_start(balanced_instance):
    params, r = balanced_instance
    assert 1e-3 <= r <= 0.9
    a = limit_cycle(params, (1.0, 1.0))
    b = limit_cycle(params, (3.0, 0.5))
    assert a.residual < 1e-9 and b.residual < 1e-9
    assert abs(a.x_even - b.x_even) > 1e-6 * a.x_even


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


def test_limit_cycle_that_does_not_settle_within_max_terms():
    # from (1, 1) Euler's series takes over at term 49: max_terms bounds it
    with pytest.raises(ConvergenceError, match="within 3 terms"):
        limit_cycle(RANK2_SLOW_99, (1.0, 1.0), max_terms=3)
    assert limit_cycle(RANK2_SLOW_99, (1.0, 1.0), max_terms=200).residual < 1e-14


def test_limit_cycle_outside_float_range():
    with pytest.raises(DomainError, match="outside float range"):
        limit_cycle(RANK2_BALANCED, (5e-324, 1.0))
