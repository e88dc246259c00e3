"""The settled float rank-2 closed form: point queries whose cost does not
grow with n, checked against a 34-digit decimal iteration."""

import math
import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice

import pytest

import ratsys.rank1
import ratsys.rank2
from ratsys import (
    ArithmeticMode,
    ConvergenceError,
    PeriodicCoefficients,
    eigenvalues,
    limit_cycle,
    prepare,
    rank1_solution,
    rank1_solution_sequence,
    rank2_solution,
    rank2_solution_sequence,
    simulate,
)
from ratsys.core import (ROUNDING, Tail, closed_logs, closed_states, head,
                         log_simulate)
from ratsys.numeric import saturating_exp
from ratsys.rank2 import _balanced, _float_terms, _roots, _settle, float_criterion

from conftest import (
    RANK1_GROWTH,
    RANK2_BALANCED,
    RANK2_GENERIC,
    RANK2_SLOW_90,
    RANK2_SLOW_99,
    RANK2_SQUARE,
    decimal_log_orbit,
    find_balanced,
    log_uniform,
    random_float_params,
    random_rank1_params,
)


def logs_at(params, start, m):
    """The float rank-2 logs at term m, and the settle's Tail if it came
    first."""
    return closed_logs(prepare(params), start, m, _float_terms)


@pytest.fixture
def drawn(monkeypatch):
    """The items of rank2._settle as they are drawn: the logs of term 0,
    the settle term K and the nomes, then one (logs, end) per term."""
    items = []

    def recording(*args, **kwargs):
        for item in _settle(*args, **kwargs):
            items.append(item)
            yield item

    monkeypatch.setattr(ratsys.rank2, "_settle", recording)
    return items


def with_ratio(r, negative, tweak=1.5):
    """Coefficients whose composed matrix has |lambda2/lambda1| = r.

    (t, 1, 1, t, t, 1, 1, t) composes to ((1 + t*t, 2t), (2t, 1 + t*t)),
    with r = ((1 - t)/(1 + t))**2 and lambda2 > 0; (1, t, t, 1, t, 1, 1, t)
    gives the same r with lambda2 < 0. a0 is scaled by tweak, so that delta
    is not 0, and t is bisected until r is hit.
    """
    def make(t):
        v = (tweak, t, t, 1, t, 1, 1, t) if negative else (tweak * t, 1, 1, t, t, 1, 1, t)
        return PeriodicCoefficients(*map(float, v))

    lo, hi = 0.0, 1.0  # r falls as t rises
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        l1, l2 = eigenvalues(make(mid))
        lo, hi = (mid, hi) if abs(l2 / l1) > r else (lo, mid)
    params = make(0.5 * (lo + hi))
    l1, l2 = eigenvalues(params)
    assert (l2 < 0) == negative and abs(l2 / l1) == pytest.approx(r, rel=1e-6)
    return params


# lambda1/(lambda1 - alpha) = 3,460: beta*gamma is small against
# (alpha - delta)**2, so lambda1 - alpha cancels as a plain difference
NEAR_ALPHA = (
    PeriodicCoefficients(
        0.0006117009814842528, 0.9516690129322853, 0.594138409833451,
        0.027521057507401678, 0.009702168442351196, 1.7076784583837543,
        1.4978958966098868, 0.010062009655510884),
    (2.934069201118489, 1.3418003758373804))


def seeded_mix():
    """(params, start): the generic set, seeded random sets, one set of
    each sign of lambda2 whose factors settle after some 40 terms, and a
    set whose lambda1 is close to alpha."""
    rng = random.Random(2027)
    cases = [(RANK2_GENERIC.as_floats(), (1.0, 1.0))]
    while len(cases) < 3:
        params = random_float_params(rng)
        if prepare(params).rank == 2:
            cases.append((params, (log_uniform(rng, 0.5, 2), log_uniform(rng, 0.5, 2))))
    cases += [(with_ratio(0.4, False), (1.5, 0.5)), (with_ratio(0.4, True), (0.7, 2.0))]
    return cases + [NEAR_ALPHA]


# the float r = |lambda2/lambda1| rounds to 1 and delta is exactly 0: the
# factors repeat exactly, and the settle ends on them
R_ONE = PeriodicCoefficients(1e-20, 1, 1, 1e-20, 1e-20, 1, 1, 1e-20)


HORIZONS = (10**3, 10**4, 10**5)


@pytest.mark.parametrize("case", range(6))
def test_logs_agree_with_the_decimal_oracle_within_the_settle_bound(case):
    params, start = seeded_mix()[case]
    oracle = decimal_log_orbit(params, start, HORIZONS)
    for n in HORIZONS:
        m, odd = divmod(n, 2)
        logs, settled = logs_at(params, start, m)
        assert settled is not None and settled.term < m
        bound = settled.error_bound(m)
        want_x, want_y = oracle[n]
        assert abs(logs[odd] - want_x) <= min(bound, 1e-11)
        assert abs(logs[2 + odd] - want_y) <= min(bound, 1e-11)
        assert bound < 1e-9  # not vacuous
        # the point query returns exactly these logs, exponentiated
        assert rank2_solution(params, start, n) == (
            saturating_exp(logs[odd]), saturating_exp(logs[2 + odd]))


def test_generic_set_at_1e5_is_far_closer_than_the_running_sum():
    params, start, n = RANK2_GENERIC.as_floats(), (1.0, 1.0), 10**5
    m = n // 2
    want = decimal_log_orbit(params, start, [n])[n][0]
    settled_x = logs_at(params, start, m)[0][0]
    # the running sum over every factor, as the closed form was evaluated
    # before the settle: _settle with a floor above m, whose term m is its
    # item m + 1, after term 0 and the settle term
    system = prepare(params)
    anchors = head(params, start, ArithmeticMode.FLOAT64)[1]
    terms = _settle(system, _roots(system), start, anchors, m + 1)
    summed_x = next(islice(terms, m + 1, None))[0][0]
    assert abs(summed_x - want) > 1e-9  # the running sum's n**2 rounding
    assert abs(settled_x - want) * 100 <= abs(summed_x - want)
    assert abs(settled_x - want) < 8.5e-11


@pytest.mark.parametrize("case", [False, True, "r-one", "rank1", "exact1", "exact2"])
def test_stream_equals_point_queries_across_the_settle(case):
    """Float rank 2 with either sign of lambda2, or with r rounding to 1,
    past its settle term, float rank 1 past its Tail at term 1, and an
    exact set of each rank: the stream, the point queries and the
    sequence agree at every index, across indices 3 and 4 too."""
    mode, n_max = ArithmeticMode.FLOAT64, 5000
    if case in (False, True, "r-one"):
        params = R_ONE if case == "r-one" else with_ratio(0.3, case)
        start = (1.3, 0.8)
        _, settled = logs_at(params, start, 10**6)
        assert 0 < 2 * settled.term < n_max
    elif case == "rank1":
        params, start = random_rank1_params(random.Random(5)), (1.3, 0.8)
    else:
        params = RANK1_GROWTH if case == "exact1" else RANK2_SQUARE
        start, n_max = (Fraction(3, 7), Fraction(5, 2)), 60
        mode = ArithmeticMode.EXACT_RATIONAL
    system = prepare(params, mode)
    rank = 1 if case in ("rank1", "exact1") else 2
    assert system.rank == rank
    module = ratsys.rank1 if rank == 1 else ratsys.rank2
    point = rank1_solution if rank == 1 else rank2_solution
    sequence = rank1_solution_sequence if rank == 1 else rank2_solution_sequence
    stream = list(islice(closed_states(system, start, module._float_terms),
                         n_max + 1))
    assert stream == [point(params, start, n, mode) for n in range(n_max + 1)]
    assert stream == sequence(params, start, n_max, mode)


@pytest.mark.parametrize("r, negative", [
    *((r, negative) for r in (0.01, 0.1, 0.5, 0.9, 0.99, 0.999)
      for negative in (False, True)),
    pytest.param(1.0, False, id="r-one"),
])
def test_factors_drawn_do_not_grow_with_n(drawn, r, negative):
    params = R_ONE if r == 1.0 else with_ratio(r, negative)
    counts = []
    for n in (10**4, 10**9):
        drawn.clear()
        x, y = rank2_solution(params, (1.5, 0.5), n)
        assert not (math.isnan(x) or math.isnan(y))
        counts.append(len(drawn))
    assert counts[0] == counts[1] < 10**4 // 2
    if r < 1.0:  # term 0, K and the nomes, then terms 1 to K = 20
        assert counts[0] == 2 + drawn[1][0] == 22


# (r, lambda2 < 0): the term from which every later log factor is within
# ROUNDING of +-log g, where the Tail leaves out the rest of the factors'
# distance from it; the closed form ran its factors up to this term before
# the Tail summed that rest in closed form
REST_ROUNDS_AWAY = {
    (0.5, False): 50, (0.5, True): 50,
    (0.9, False): 323, (0.9, True): 322,
    (0.99, False): 3372, (0.99, True): 3364,
    (0.999, False): 33859, (0.999, True): 33775,
}


def test_terms_drawn_are_the_settle_term_from_the_nomes(drawn):
    for (r, negative), rounds_away in REST_ROUNDS_AWAY.items():
        params = with_ratio(r, negative)
        drawn.clear()
        rank2_solution(params, (1.5, 0.5), 10**9)
        # every nome is below 1/2, where Euler's series applies: K is the
        # floor, and terms 1 to K follow term 0 and K itself
        k, nomes = drawn[1]
        assert max(map(abs, nomes)) < 0.5
        assert (k, len(drawn) - 2) == (20, 20), (r, negative)
        tail = logs_at(params, (1.5, 0.5), 10**9)[1]
        assert tail.term + tail._rest()[0] == rounds_away, (r, negative)


def test_settle_term_of_a_nome_near_float_range_comes_from_logs():
    # the nome c2/c1 is -4.4e296: over the closed form's bound on the
    # nomes, 8.9e-16, it passes float range; r is 3.4e-262, so K is the
    # floor
    params = PeriodicCoefficients(
        6.0493745528541244e+116, 5.673266379027651e+34, 4.024884536660013e-154,
        2.4382448613190435e-44, 5.031806022002711e+49, 1.3679474331980943e-146,
        1.4668354698114438e-169, 5.98489421409024e+150)
    _, settled = logs_at(params, (1.0, 1.0), 10**9)
    assert settled.term == 20


@pytest.mark.parametrize("params, start", [
    *seeded_mix(),
    *((with_ratio(r, negative), (1.5, 0.5))
      for r in (0.01, 0.5, 0.9, 0.99) for negative in (False, True)),
])
def test_tail_factors_are_plus_minus_log_g(params, start):
    system = prepare(params)
    log_g = float_criterion(system.matrix, system.params.at(0))[3]
    _, settled = logs_at(params, start, 10**9)
    assert settled.factors == (log_g, -log_g, log_g, -log_g)
    assert settled.slope == ROUNDING * max(1.0, abs(log_g))


def test_rank1_error_bound_holds_past_the_tail():
    """The Tail of rank 1 adds the rounding of log rho per term: its
    bound holds against the decimal iteration at 10**4 and 10**5."""
    rng, start = random.Random(11), (1.3, 0.8)
    for _ in range(12):
        params = random_rank1_params(rng)
        oracle = decimal_log_orbit(params, start, [10**4, 10**5])
        for n, (want_x, want_y) in oracle.items():
            m, odd = divmod(n, 2)
            logs, tail = closed_logs(prepare(params), start, m,
                                     ratsys.rank1._float_terms)
            bound = tail.error_bound(m)
            assert abs(logs[odd] - want_x) <= bound, (params, n)
            assert abs(logs[2 + odd] - want_y) <= bound, (params, n)
            assert bound < 1e-9  # not vacuous


@pytest.mark.parametrize("params, start", [
    *seeded_mix(),
    *((with_ratio(0.999, negative), (1.5, 0.5)) for negative in (False, True)),
])
def test_error_bound_holds_at_every_term_of_the_tail(params, start):
    """Tail.error_bound bounds the error of the logs against the decimal
    iteration at every term from K to K + 500, where the rest of the
    factors' distance from +-log g still counts, and at n = 10**4 and
    10**5."""
    k = logs_at(params, start, 10**9)[1].term
    terms = [*range(k, k + 501), 10**4 // 2, 10**5 // 2]
    oracle = decimal_log_orbit(params, start, [2 * m + odd for m in terms for odd in (0, 1)])
    for m in terms:
        logs, tail = logs_at(params, start, m)
        bound = tail.error_bound(m)
        for odd in (0, 1):
            want_x, want_y = oracle[2 * m + odd]
            assert abs(logs[odd] - want_x) <= bound, (m, odd)
            assert abs(logs[2 + odd] - want_y) <= bound, (m, odd)


# (t, 1, 1, t, t, 1, 1, t) is balanced with r = ((1 - t)/(1 + t))**2 = 0.96
@pytest.mark.parametrize("params", [
    RANK2_BALANCED, PeriodicCoefficients(0.01, 1, 1, 0.01, 0.01, 1, 1, 0.01)])
def test_tail_at_infinity_is_the_limit_cycle(params):
    start = (1.5, 0.5)
    tail = logs_at(params, start, 10**9)[1]
    assert tail.factors == (0.0,) * 4
    cycle = limit_cycle(params, start)
    bound = tail.error_bound(math.inf)
    assert bound < 1e-11  # the cycle's default tolerance
    for got, want in zip(tail.at(math.inf),
                         (cycle.x_even, cycle.x_odd, cycle.y_even, cycle.y_odd)):
        assert abs(got - math.log(want)) <= bound


def test_rest_where_r_times_the_bound_underflows():
    # r*_NEGLIGIBLE rounds to 0 while max|x| does not: the term where the
    # rest is left out comes from logs, and the rest rounds to 0
    tail = Tail(1, (0.5,) * 4, (0.0,) * 4, t=1e-310, xs=(1e-300, -1e-300, 1e-300, -1e-300))
    assert tail.at(math.inf) == tail.at(3) == (0.5,) * 4


@pytest.mark.parametrize("t", [0.05, -0.05, 0.5, -0.5, 0.9, -0.9, 0.99, -0.99])
@pytest.mark.parametrize("z", [-3.0, -0.8, 0.5, 3.0])
def test_euler_series_is_the_sum_of_the_log_factors(t, z):
    # the first term k >= 1 where the series applies, as limit_cycle takes it
    k = 1
    while abs(z) * abs(t) ** k > abs(t) / 2:
        k += 1
    x = z * t**k
    # Euler's S(x) is the y[2m] remainder of a Tail whose only nome is z_u
    got = Tail(k, (0.0,) * 4, (0.0,) * 4, t=t, xs=(x, 0.0, 0.0, 0.0)).at(math.inf)[2]
    ulp = math.ulp(max(1.0, abs(got)))
    terms = [math.log1p(-z * t**i) for i in range(k, k + 10_000)]
    assert abs(got - math.fsum(terms)) <= 4 * ulp
    # the whole series, in 60 digits: within the truncation bound EPSILON/4
    # and the rounding of the float sum
    with localcontext() as ctx:
        ctx.prec = 60
        big_x, big_t, series, n = Decimal(x), Decimal(t), Decimal(0), 1
        while abs(big_x) ** n > Decimal("1e-45"):
            series -= big_x**n / (n * (1 - big_t**n))
            n += 1
        assert abs(Decimal(got) - series) <= Decimal(2.0**-54 + 2 * ulp)


@pytest.mark.parametrize("params", [RANK2_SLOW_90, RANK2_SLOW_99])
@pytest.mark.parametrize("start", [(1.0, 1.0), (1.3, 0.8)])
def test_limit_cycle_where_the_orbit_contracts_slowly(params, start):
    l1, l2 = eigenvalues(params)
    cycle = limit_cycle(params, start)
    assert cycle.residual < 1e-14
    # r**m is below 1e-15 at the index compared
    m = math.ceil(math.log(1e-15) / math.log(abs(l2 / l1)))
    orbit = simulate(params, start, 2 * m + 1)
    (x_even, y_even), (x_odd, y_odd) = orbit.state(2 * m), orbit.state(2 * m + 1)
    for got, want in ((x_even, cycle.x_even), (x_odd, cycle.x_odd),
                      (y_even, cycle.y_even), (y_odd, cycle.y_odd)):
        assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_limit_cycle_refuses_tails_whose_rounding_passes_tol():
    # (t, 1, 1, t, t, 1, 1, t) is balanced with r = ((1 - t)/(1 + t))**2:
    # the tails grow like 1/(1 - r), and so does their rounding
    near_one = PeriodicCoefficients(1e-7, 1, 1, 1e-7, 1e-7, 1, 1, 1e-7)
    t0 = time.perf_counter()
    with pytest.raises(ConvergenceError, match="round by more than tol=1e-11"):
        limit_cycle(near_one, (1.3, 0.8))
    assert time.perf_counter() - t0 < 0.5
    assert limit_cycle(near_one, (1.3, 0.8), tol=1e-9).residual < 1e-9
    # r = 1 - 4e-5: the tails reach 1.5e4, and their rounding stays in tol
    farther = PeriodicCoefficients(1e-5, 1, 1, 1e-5, 1e-5, 1, 1, 1e-5)
    assert limit_cycle(farther, (2.0, 0.5)).residual < 1e-11


def test_limit_cycle_draws_few_terms_where_r_is_099(drawn):
    for start in ((1.0, 1.0), (1.3, 0.8), (1e-8, 1e8)):
        drawn.clear()
        limit_cycle(RANK2_SLOW_99, start)
        assert len(drawn) < 100


@pytest.mark.parametrize("t, message", [
    # r = 1 - 4e-7: K is some 455,000, and the tails round by more than tol
    (1e-7, "round by more than tol=1e-11"),
    # r = 1 - 4e-8: K passes the default max_terms of 10**6
    (1e-8, "did not settle within 1000000 terms"),
])
def test_limit_cycle_refuses_before_drawing_a_factor(drawn, t, message):
    with pytest.raises(ConvergenceError, match=message):
        limit_cycle(PeriodicCoefficients(t, 1, 1, t, t, 1, 1, t), (2.0, 0.5))
    # term 0, the start's own logs, and the settle term with the nomes
    assert len(drawn) == 2 and drawn[1][0] > 400_000


def test_limit_cycle_refuses_factors_that_do_not_repeat_within_max_terms():
    # where r rounds to 1 the cycle is where the factors first repeat,
    # which one term cannot show
    with pytest.raises(ConvergenceError, match="did not settle within 1 terms"):
        limit_cycle(R_ONE, (1.3, 0.8), max_terms=1)


def test_balanced_set_holds_its_cycle_at_1e9():
    params, start = RANK2_BALANCED, (1.5, 0.5)
    _, settled = logs_at(params, start, 10**9)
    assert settled.factors == (0.0, 0.0, 0.0, 0.0) and settled.slope == 0.0
    cycle = limit_cycle(params, start)
    x_even, y_even = rank2_solution(params, start, 10**9)
    x_odd, y_odd = rank2_solution(params, start, 10**9 + 1)
    for got, want in ((x_even, cycle.x_even), (y_even, cycle.y_even),
                      (x_odd, cycle.x_odd), (y_odd, cycle.y_odd)):
        assert got == pytest.approx(want, rel=1e-12, abs=0)
    # the snapped tail does not move
    assert rank2_solution(params, start, 10**3) == (x_even, y_even)


def test_nearly_balanced_float_set_is_not_snapped(balanced_instance):
    # bisected to the float boundary: delta is tiny, but not exactly 0
    params = balanced_instance[0]
    assert not _balanced(params, 1e-12)
    _, settled = logs_at(params, (1.5, 0.5), 10**6)
    assert settled.factors != (0.0, 0.0, 0.0, 0.0)


def test_point_query_at_1e9_takes_under_a_millisecond():
    params = RANK2_GENERIC.as_floats()
    rank2_solution(params, (1.0, 1.0), 10**9)
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        rank2_solution(params, (1.0, 1.0), 10**9)
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3


@pytest.mark.parametrize("seed", range(6))
def test_limit_cycle_stays_on_long_iteration(seed):
    """The cycle of a set on the float boundary lies within 1e-11 in log
    of 20,000 and 20,001 log-space steps."""
    params, _ = find_balanced(random.Random(seed))
    start = (1.3, 0.8)
    cycle = limit_cycle(params, start)
    (x_even, y_even), (x_odd, y_odd) = log_simulate(params, start, 20_001)[-2:]
    for got, want in ((cycle.x_even, x_even), (cycle.y_even, y_even),
                      (cycle.x_odd, x_odd), (cycle.y_odd, y_odd)):
        assert abs(math.log(got) - want) < 1e-11


@pytest.mark.parametrize("coeffs, start", [
    pytest.param((2, 1, 4, 3, 1, 2, 3, 1), (1.0, 1.0), id="divergent"),
    pytest.param((1e-20, 1, 1, 1e-20, 1e-20, 1, 1, 1e-20), (1.5, 0.5), id="balanced"),
    pytest.param((1, 1, 1, 1, 0.5, 1.5, 0.7, 1.3), (1.0, 1.0), id="rank1-boundary"),
])
def test_indices_past_float_range_keep_their_parity_values(coeffs, start):
    """A Tail's term count past 10**309 does not convert to a float; an
    index there gives the values of 10**308 or 10**308 + 1, and its error
    bound is still a number."""
    params = PeriodicCoefficients(*map(float, coeffs))
    solution = rank1_solution if prepare(params).rank == 1 else rank2_solution
    want = [solution(params, start, 10**308 + odd) for odd in (0, 1)]
    for n in (10**309, 10**309 + 1, 10**400, 10**400 + 1):
        assert solution(params, start, n) == want[n % 2]
    module = ratsys.rank1 if prepare(params).rank == 1 else ratsys.rank2
    tail = closed_logs(prepare(params), start, 10**400, module._float_terms)[1]
    assert not math.isnan(tail.error_bound(10**400))
