"""Exact closed forms on integer states: core.ratio_factors against
one-step Fraction iteration, the closed command's text, the integer
equality of exact compare, exact rank-1 point queries as one power
under the bit cap, and sets whose float criterion, spectral split or
closed form leaves float range."""

import contextlib
import io
import json
import random
import time
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

import ratsys.analysis
import ratsys.core
import ratsys.rank1
from ratsys import (
    ArithmeticMode,
    BitGrowthError,
    PeriodicCoefficients,
    classify,
    closed_form_states,
    compare,
    prepare,
    rank1_solution,
    rank2_solution,
    simulate,
)
from ratsys.cli import main
from ratsys.core import COEFF_NAMES

from conftest import (RANK1_BOUNDARY, RANK1_DECAY, RANK1_GROWTH, RANK2_GENERIC,
                      decimal_log_orbit)

EXACT = ArithmeticMode.EXACT_RATIONAL
WIDE = "1,1,1,3,1,2,3,1"


def fraction_orbit(params, start, n_max):
    quads = (params.at(0), params.at(1))
    x, y = map(Fraction, start)
    states = [(x, y)]
    for n in range(n_max):
        a, b, c, d = quads[n % 2]
        x, y = a / x + b / y, c / x + d / y
        states.append((x, y))
    return states


def rank2_set(rng):
    """A rank-2 integer set in 1..6, by rejection sampling; its
    eigenvalues are irrational unless the discriminant is a square."""
    while True:
        p = PeriodicCoefficients(*(Fraction(rng.randint(1, 6)) for _ in range(8)))
        if prepare(p, EXACT).rank == 2:
            return p


def rank1_set(rng):
    """A rank-1 set: the even quadruple is conjugate to all ones."""
    s, r = (Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2))
    odd = (Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(4))
    return PeriodicCoefficients(s * s, s * r, s * r, r * r, *odd)


@st.composite
def exact_cases(draw):
    """(coefficients, start, rank): a rank-2 integer set seen through
    x -> s*x, y -> r*y, so that its coefficients are rationals, or a
    rank-1 set; a rational start."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    rank = draw(st.sampled_from([1, 2]))
    if rank == 1:
        params = rank1_set(rng)
    else:
        s, r = (Fraction(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(2))
        scale = (s * s, s * r, s * r, r * r) * 2
        base = rank2_set(rng)
        params = PeriodicCoefficients(
            *(getattr(base, f) * k for f, k in zip(COEFF_NAMES, scale)))
    start = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2))
    return params, start, rank


@settings(max_examples=60, deadline=None)
@given(exact_cases(), st.integers(0, 60))
def test_exact_closed_form_equals_fraction_iteration(case, n):
    params, start, rank = case
    want = fraction_orbit(params, start, n)
    assert prepare(params, EXACT).rank == rank
    assert list(islice(closed_form_states(params, start, EXACT), n + 1)) == want
    point = rank1_solution if rank == 1 else rank2_solution
    assert point(params, start, n, EXACT) == want[n]


def coeff_flags(values) -> list[str]:
    return [a for name, v in zip(COEFF_NAMES, values.split(","))
            for a in (f"--{name}", v)]


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_closed_csv_is_simulate_csv():
    args = [*coeff_flags(WIDE), "--mode", "exact", "-n", "120", "--format", "csv"]
    closed, simulated = run(["closed", *args]), run(["simulate", *args])
    assert closed[0] == 0 and closed[2] == ""
    assert closed == simulated


@pytest.mark.parametrize("params", [
    pytest.param(PeriodicCoefficients(1, 1, 1, 3, 1, 2, 3, 1), id="rank2"),
    pytest.param(PeriodicCoefficients(1, 1, 1, 1, Fraction(1, 2), Fraction(3, 2), 2, 2),
                 id="rank1"),
])
def test_exact_compare_sees_a_wrong_ratio(monkeypatch, params):
    """The integer equality of exact compare is not vacuous: x[n]*x[n+1]
    one too large at n = 9 puts every later x off the orbit, on a set of
    either rank, both served by the one ratio generator."""
    ratios = ratsys.core._exact_ratios

    def wrong(*args):
        for n, (a, b, c, d) in enumerate(ratios(*args), 3):
            yield (a + b, b, c, d) if n == 9 else (a, b, c, d)

    assert compare(params, (1, 1), 30, EXACT).first_divergence_index is None
    monkeypatch.setattr(ratsys.core, "_exact_ratios", wrong)
    report = compare(params, (1, 1), 30, EXACT)
    assert report.first_divergence_index == 10
    assert report.max_rel_error_x > 0 and report.max_rel_error_y == 0
    code, out, _ = run(["compare", *coeff_flags(
        ",".join(str(getattr(params, f)) for f in COEFF_NAMES)),
        "--mode", "exact", "-n", "30"])
    assert code == 0 and "first_divergence_index: 10" in out


def test_rank1_ratios_stay_small():
    """M = 0 on a rank-1 set, so every term multiplies the generator's
    state by T; the common factor it divides out and the gcd of each pair
    keep the ints of term 200 no larger than those of term 10."""
    params = PeriodicCoefficients(2, 3, 4, 6, Fraction(1, 3), Fraction(5, 2), 7, 2)
    system = prepare(params, EXACT)
    assert system.rank == 1
    ratios = list(islice(ratsys.core._exact_ratios(system, (Fraction(2, 3), Fraction(5))), 201))
    assert max(map(abs, ratios[200])) <= max(map(abs, ratios[10]))


def test_exact_compare_and_closed_hit_the_bit_cap_at_simulate_step(monkeypatch):
    params = PeriodicCoefficients(1, 1, 1, 3, 1, 2, 3, 1)
    with pytest.raises(BitGrowthError) as want:
        simulate(params, (1, 1), 200, EXACT, bit_cap=20_000)
    monkeypatch.setattr(ratsys.analysis, "DEFAULT_BIT_CAP", 20_000)
    with pytest.raises(BitGrowthError) as got:
        compare(params, (1, 1), 200, EXACT)
    assert (got.value.index, got.value.bits) == (want.value.index, want.value.bits)
    code, _, err = run(["compare", *coeff_flags(WIDE), "--mode", "exact", "-n", "200"])
    assert code == 4 and f"step {want.value.index} " in err
    # the closed form stops at the same state
    monkeypatch.setattr(ratsys.core, "DEFAULT_BIT_CAP", 20_000)
    with pytest.raises(BitGrowthError) as got:
        list(islice(closed_form_states(params, (1, 1), EXACT), 201))
    assert (got.value.index, got.value.bits) == (want.value.index, want.value.bits)


def timed(solution, *args):
    """(solution(*args), seconds taken)."""
    start = time.perf_counter()
    value = solution(*args)
    return value, time.perf_counter() - start


RANK1_SETS = {"growth": RANK1_GROWTH, "decay": RANK1_DECAY, "boundary": RANK1_BOUNDARY}


@pytest.mark.parametrize("start", [(1, 2), (1, 1)], ids=["on-locus", "off-locus"])
@pytest.mark.parametrize("name", RANK1_SETS)
def test_exact_rank1_point_queries_are_one_power(name, start):
    """Both entry points answer an exact rank-1 point query by one power
    of rho: each state up to 201 is exact simulate's, and n = 10**5 takes
    no n integer steps. (1, 2) lies on y0 = K*x0 for the growth set."""
    params = RANK1_SETS[name]
    for n, state in enumerate(simulate(params, start, 201, EXACT).states):
        assert rank1_solution(params, start, n, EXACT) == state
        assert rank2_solution(params, start, n, EXACT) == state
    for n in (100_000, 100_001):
        one, one_s = timed(rank1_solution, params, start, n, EXACT)
        two, two_s = timed(rank2_solution, params, start, n, EXACT)
        assert one == two
        assert one_s < 0.05 and two_s < 0.05


@pytest.mark.parametrize("n", [2 * 10**6, 10**400], ids=["2e6", "1e400"])
@pytest.mark.parametrize("solution", [rank1_solution, rank2_solution])
def test_exact_rank1_point_query_past_the_bit_cap_raises_at_once(solution, n):
    """State n has some 2*n bits where rho = 4/3: the bound that heights
    give refuses it before the power is formed, at index n."""
    start = time.perf_counter()
    with pytest.raises(BitGrowthError) as info:
        solution(RANK1_GROWTH, (1, 2), n, EXACT)
    assert time.perf_counter() - start < 0.05
    assert info.value.index == n


@pytest.mark.parametrize("n", [10**400, 10**400 + 1], ids=["even", "odd"])
def test_exact_rank1_boundary_holds_states_2_and_3(n):
    """rho = 1: every index past 3 is state 2 or 3, by parity."""
    want = simulate(RANK1_BOUNDARY, (1, 1), 3, EXACT).state(2 + n % 2)
    for solution in (rank1_solution, rank2_solution):
        got, seconds = timed(solution, RANK1_BOUNDARY, (1, 1), n, EXACT)
        assert got == want and seconds < 0.05


@pytest.mark.parametrize("solution", [rank1_solution, rank2_solution])
def test_exact_rank2_point_query_past_sys_maxsize_stops_at_the_bit_cap(
        monkeypatch, solution):
    """n = 2**63 runs the integer steps as n = 5000 does and raises
    BitGrowthError at the same step, not the ValueError of an islice
    index past sys.maxsize; a low cap keeps the step early."""
    monkeypatch.setattr(ratsys.core, "DEFAULT_BIT_CAP", 2_000)
    with pytest.raises(BitGrowthError) as want:
        simulate(RANK2_GENERIC, (1, 1), 5000, EXACT, bit_cap=2_000)
    for n in (5000, 2**63):
        with pytest.raises(BitGrowthError) as got:
            solution(RANK2_GENERIC, (1, 1), n, EXACT)
        assert (got.value.index, got.value.bits) == (want.value.index, want.value.bits)


# Sets found by a seeded fuzz over coefficients 10**U(-200, 154).
NAN_DELTA = ("3.215140757867557e+20,3.9137600721964556e+62,3.1515355487811333e+81,"
             "4.2403378166164304e+133,8.396445201201166e+61,3.184555481263955e+126,"
             "1.8528950128734928e-190,6.767365762324706e-36")
RHO_PAST_RANGE = ("6.352301223961225e+20,1.7598678312130296e+74,2.823583343511452e+25,"
                  "1.0634669563221475e+55,6.000584729811007e-191,4.448012488053163e-144,"
                  "1.3747353338675953e-44,1.384970222972277e+30")
Q_PAST_RANGE = ("1.8862509368576556e+120,1.0531374290508011e-93,2.4267504172849427e-101,"
                "199717114985762.8,1.458786422594974e+142,1.9093795976631212e-134,"
                "6.159043847547952e-190,8.338723020098333e-160")


def test_a_criterion_past_float_range_is_decided():
    """scale = inf and lambda1*Q = inf: g = 1 + delta/scale comes from the
    scaled parts, so classify and sweep give the exact verdict, and the
    witness's delta, inf - inf in floats, is inf with the verdict's sign
    in both modes."""
    for mode in ("float", "exact"):
        code, out, _ = run(["classify", *coeff_flags(NAN_DELTA), "--mode", mode])
        assert code == 0 and "kind: VanishEvenBlowOdd" in out
        assert "delta: -inf\n" in out and "nan" not in out
        code, out, _ = run(["classify", *coeff_flags(NAN_DELTA), "--mode", mode,
                            "--format", "json"])
        witness = json.loads(out)["witness"]
        assert code == 0 and (witness["delta"], witness["scale"]) == ("-inf", "inf")
    assert exact_kind(NAN_DELTA) == "VanishEvenBlowOdd"
    code, out, _ = run(["sweep", *coeff_flags(NAN_DELTA), "--axis1", "a0:1e20:2e20:2",
                        "--format", "csv"])
    assert code == 0
    assert [row.split(",")[-2:] for row in out.splitlines()[1:]] == [
        ["-inf", "VanishEvenBlowOdd"]] * 2


def exact_kind(values: str) -> str:
    """The verdict of the floats' binary values, decided exactly."""
    params = PeriodicCoefficients(*(Fraction(float(v)) for v in values.split(",")))
    return classify(params, EXACT, attach_cycle=False).kind.value


@pytest.mark.parametrize("values", [
    # rank 1, rho = 1/5: K*mu overflows, so rho was inf
    "1,1,1,1,0.1,0.1,1,1e200",
    # rank 1: K*mu and the row sums pass float range, so rho was nan
    "5.505951615067215e+33,8.444703987751623e-31,1.3680198956123016e-128,"
    "4.356670961292381e-123,7.5484771109797425e-177,1.8045750388235344e-167,"
    "3.966852175544471e-31,1.8995737942945712e+117",
    # rank 1: K*mu overflows while rho is 4e20
    "2.424118589965616e+116,5.9056790386351304e-95,7.265021296637259e-73,"
    "5.6033044998093446e-142,3.788575770116737e-149,1.1467230308473386e-177,"
    "4.798678700831158e-94,31691229048088.504",
    # rank 2: Q = m12/lead1 underflows
    "1.2064226107492176e-184,6.775375122081661e-24,5.849871031286832e-104,"
    "1.6765340783020918e-14,1.393502811484423e-184,2.3746505435525196e-121,"
    "1.3248081026535818e+150,9.311540546856632e+78",
    # rank 2: m11 underflows to 0 and m12*m21 with it, so the unscaled
    # rank test said rank 1
    "9.546851187450316e-101,8.06586513598597e-188,1.0627907539068409e-108,"
    "8.979219137776095e-196,3.441451570415161e-158,3.4272255020168205e-172,"
    "3.4934214851281973e-113,2.109367673554793e-70",
])
def test_a_float_verdict_past_float_range_is_the_exact_one(values):
    code, out, err = run(["classify", *coeff_flags(values)])
    assert (code, err) == (0, "") and "nan" not in out
    assert f"kind: {exact_kind(values)}\n" in out


def tail_logs(params, n):
    """The logs of state n of the float rank-1 closed form, n >= 4."""
    logs = ratsys.core.closed_logs(prepare(params), (1.0, 1.0), n // 2,
                                   ratsys.rank1._float_terms)[0]
    return logs[n % 2], logs[2 + n % 2]


def test_rank1_rho_past_float_range_follows_the_orbit():
    """The row sums multiply past float range: rho comes from the scaled
    parts, and the closed form matches the 34-digit iteration."""
    code, out, err = run(["closed", *coeff_flags(RHO_PAST_RANGE), "-n", "200"])
    assert (code, err) == (0, "")
    code, out, _ = run(["classify", *coeff_flags(RHO_PAST_RANGE)])
    assert code == 0 and "rho: 1.57530766650632" in out
    params = PeriodicCoefficients(*map(float, RHO_PAST_RANGE.split(",")))
    want = decimal_log_orbit(params, (1.0, 1.0), [10, 11, 200, 201])
    for n, logs in want.items():
        assert tail_logs(params, n) == pytest.approx(logs, rel=1e-13)


def test_rank1_rho_below_float_range_comes_from_its_parts():
    """rho = 2e-400 underflows to 0: log rho is taken from K, mu and the
    row sums."""
    params = PeriodicCoefficients(1e100, 1e100, 1e100, 1e100, 1e-300, 1e-300,
                                  1e-100, 1e-100)
    assert ratsys.rank1.growth_and_ratio(params).rho == 0.0
    want = decimal_log_orbit(params, (1.0, 1.0), [40, 41])
    for n, logs in want.items():
        assert tail_logs(params, n) == pytest.approx(logs, rel=1e-13)


@pytest.mark.parametrize("command, values, message", [
    # Q = inf, so c3 = 0
    ("closed", Q_PAST_RANGE, "ratio factors pass float range"),
    # Split.ratio1 = inf, so c1 = nan
    ("closed", "4.995178125978079e-187,6.155382638941536e+140,2.4896953449622337e-116,"
               "2.637114809526673e+49,9.362999612053529e-110,3.945642674551481e+91,"
               "140952411873.41794,7.518178896088163e-97",
     "ratio factors pass float range"),
    # Split.ratio2 = -inf, so c2 = -inf
    ("closed", "7.170900840946942e-175,6.714890435685193e+22,3.916011617450546e+75,"
               "3.1663414406320188e-105,7.063927230307528e-170,5.436400127992731e-83,"
               "1.9185833631226532e+141,2.2199490945138656e+68",
     "ratio factors pass float range"),
    # m21 and m22 underflow to 0, so the float matrix has rank 1 and
    # K = 0, while the exact one has rank 2
    ("classify", "1.3727757083400228e-197,2.643635880662209e-194,9.459155769199622e-244,"
                 "4.5316491610244154e-188,6.381221922900184e+228,3.7933092247282836e-240,"
                 "5.498370682444654e-212,6.68941535970682e-187",
     "matrix entries underflow float range"),
    # a factor's part underflows to 0, whose log has no value
    ("closed", "1.3927239511577423e-18,35220714420.397804,1.5017770366801362e-237,"
               "2.2172025226031573e+86,3.01602987237776e+127,2.420255621030475e-15,"
               "4.672633175410835e+50,1.2884337948567129e+245",
     "ratio factors pass float range"),
    # a factor's p = lambda1*u[2k]/v[2k-2] underflows to 0
    ("closed", "6.487994248597522e+136,5.08202864086445e+120,4.1392046030408377e-140,"
               "1.76037428299502e+187,2.7744989398763455e-71,1.4019091769622886e-222,"
               "3.608504156742189e-261,4.146224291634577e-199",
     "ratio factors pass float range"),
    # the scaled u[2]/lambda1 underflows to 0, so q = 0 has no inverse
    ("closed", "3.0594246476692736e-174,2.80306665501285e-62,4.817947821749009e-229,"
               "4.597819951687994e-214,6.463813613821227e+62,2.6455174735375173e-120,"
               "1.7214828943435176e+249,7.316858962383482e+276",
     "ratio factors pass float range"),
    # m12 underflows to 0 on float_split's path without cancellation
    ("classify", "1.0924105245822408e-150,2.386284877995969e-224,1.417419591271957e-214,"
                 "8.615076834215615e+146,8.320979958354953e-185,1.392967284834819e-200,"
                 "8.612770921629606e+71,2.0450286718784054e-222",
     "matrix entries underflow float range"),
])
def test_constants_past_float_range_are_a_domain_error(command, values, message):
    argv = [command, *coeff_flags(values)] + (["-n", "200"] if command == "closed" else [])
    code, out, err = run(argv)
    assert (code, out) == (3, "") and message in err
