"""Tests of the reference computations and input generators on values that
can be checked by hand. Run with: python3 -m pytest bench"""

import math
import random
from fractions import Fraction

import inputs
import reference as ref

ALL_ONES = (1,) * 8
SQUARE = (1, 1, 1, 2, 1, 3, 4, 1)  # composed ((5, 4), (9, 5)), disc 144
GENERIC = (2, 1, 4, 3, 1, 2, 3, 1)  # composed ((5, 8), (10, 14)), det -10
BALANCED = (1, 1, 1, 2, 2, 1, 1, 1)  # composed ((5, 3), (3, 2)), delta = 0
BLOW = (1, 1, 1, 2, 1, 1, 2, 1)  # delta = 0.2 > 0
RHO_ONE = tuple(Fraction(v) for v in
                ("1", "1", "1", "1", "1/2", "3/2", "7/10", "13/10"))


def test_all_ones_orbit_alternates_one_two():
    xs, ys = ref.log_orbit(ALL_ONES, (1, 1), 6)
    assert [round(math.exp(v), 12) for v in xs] == [1, 2, 1, 2, 1, 2, 1]
    assert [round(math.exp(v), 12) for v in ys] == [1, 2, 1, 2, 1, 2, 1]


def test_composed_matrix_and_determinant():
    assert ref.composed(GENERIC) == (5, 8, 10, 14)
    assert ref.det(ref.composed(GENERIC)) == -10
    assert ref.composed(SQUARE) == (5, 4, 9, 5)
    assert ref.singular_ratio(RHO_ONE) == 0.0


def test_eigenvalues_eleven_and_minus_one():
    sp = ref.spectrum(SQUARE)
    assert sp.lambda1 == 11.0 and sp.lambda2 == -1.0
    # Q = beta / (lambda1 - alpha) = 4 / 6
    assert math.isclose(sp.q, 2 / 3, rel_tol=1e-15)


def test_delta_vanishes_on_balanced_set():
    sp = ref.spectrum(BALANCED)
    assert abs(sp.delta) <= 1e-14 * sp.scale
    # Q is the golden ratio, so delta = 0 holds only with irrational Q
    assert math.isclose(sp.q, (1 + math.sqrt(5)) / 2, rel_tol=1e-15)
    assert ref.delta_sign(BALANCED) == 0


def test_delta_sign_at_high_precision():
    assert ref.delta_sign(GENERIC) == -1
    assert ref.delta_sign(BLOW) == 1
    assert math.isclose(ref.spectrum(BLOW).delta, 0.2, rel_tol=1e-12)


def test_rho_is_exactly_one():
    k, mu, rho = ref.rank1_constants(RHO_ONE)
    assert (k, mu, rho) == (1, 4, 1)


def test_log_orbit_matches_direct_iteration():
    x, y = 1.0, 1.0
    xs, ys = ref.log_orbit(GENERIC, (x, y), 30)
    for n in range(30):
        a, b, c, d = GENERIC[:4] if n % 2 == 0 else GENERIC[4:]
        x, y = a / x + b / y, c / x + d / y
        assert math.isclose(math.log(x), xs[n + 1], rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(math.log(y), ys[n + 1], rel_tol=1e-12, abs_tol=1e-12)


def test_exact_recurrence_check_finds_a_wrong_row():
    rows = [(Fraction(1), Fraction(1)), (Fraction(2), Fraction(2)),
            (Fraction(1), Fraction(1)), (Fraction(2), Fraction(2))]
    assert ref.first_recurrence_break(ALL_ONES, rows) is None
    rows[2] = (Fraction(1), Fraction(3, 2))
    assert ref.first_recurrence_break(ALL_ONES, rows) == 1


def test_float_matching_saturates_at_the_range_edges():
    assert ref.float_matches_log(math.exp(3.0), 3.0, 1e-9)
    assert not ref.float_matches_log(math.exp(3.1), 3.0, 1e-9)
    assert ref.float_matches_log(math.inf, 800.0, 1e-9)
    assert not ref.float_matches_log(1e300, 800.0, 1e-9)
    assert ref.float_matches_log(0.0, -800.0, 1e-9)
    assert not ref.float_matches_log(math.inf, 700.0, 1e-9)


def test_settled_cycle_satisfies_fixed_point_equations():
    cycle = ref.settled_cycle(BALANCED, (1, 1))
    assert cycle is not None
    assert ref.cycle_defect(BALANCED, cycle) < 1e-12
    assert ref.settled_cycle(GENERIC, (1, 1)) is None


def test_conjugation_keeps_the_verdict():
    s, r = Fraction(3, 2), Fraction(2, 5)
    moved = inputs.conjugate(RHO_ONE, s, r)
    assert ref.det(ref.composed(moved)) == 0
    assert ref.rank1_constants(moved).rho == 1
    assert ref.delta_sign(inputs.conjugate(BALANCED, s, r)) == 0
    assert ref.delta_sign(inputs.conjugate(GENERIC, s, r)) == -1


def test_generators_are_seeded():
    def draw(seed):
        rng = random.Random(seed)
        return (inputs.boundary_float(rng, 0.3, 0.4),
                inputs.square_disc_rational(rng),
                inputs.horizon_instance(rng, 1, (1.0, 1.0), 1500, 3000)[:2])

    assert inputs.digest(draw(1)) == inputs.digest(draw(1))
    assert inputs.digest(draw(1)) != inputs.digest(draw(2))
    p = draw(3)[0]
    sp = ref.spectrum(p)
    assert abs(sp.delta) <= 1e-12 * sp.scale
    assert 0.3 <= abs(sp.lambda2 / sp.lambda1) <= 0.4
