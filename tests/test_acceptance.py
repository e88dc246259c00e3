"""End-to-end acceptance gates.

Each criterion is one test that prints a line

    ACCEPTANCE <id> pass|fail <detail>

so running ``pytest tests/test_acceptance.py -v -s`` shows the whole
scorecard; the embedded asserts make pytest enforce every gate. Random
draws are seeded, so the suite is deterministic.
"""

import math
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from itertools import count
from pathlib import Path

import pytest

import ratsys as rs
from ratsys import ArithmeticMode, Kind, ProductStatus
from ratsys.cli import main

from conftest import (
    RANK1_BOUNDARY,
    find_balanced,
    log_uniform,
    random_float_params,
    random_rank1_params,
    random_rational,
    random_rational_params,
)

EXACT = ArithmeticMode.EXACT_RATIONAL
GOLDEN = Path(__file__).parent / "golden"


def report(cid, ok, detail):
    print(f"ACCEPTANCE {cid} {'pass' if ok else 'fail'} {detail}")
    assert ok, f"{cid}: {detail}"


def test_c1_closed_form_matches_iteration_at_scale():
    rng = random.Random(101)
    worst = 0.0
    for _ in range(500):
        params = random_float_params(rng)
        init = (log_uniform(rng), log_uniform(rng))
        rep = rs.compare(params, init, 40)
        worst = max(worst, rep.max_rel_error_x, rep.max_rel_error_y)
    report(
        "C1",
        worst < 1e-8,
        f"500 random instances, n <= 40, worst relative error {worst:.3e}",
    )


def _c2_inits(n):
    rng = random.Random(202)
    return [(random_rational(rng, 20), random_rational(rng, 20)) for _ in range(n)]


@pytest.mark.xfail(
    strict=True,
    reason=(
        "two-periodicity from index 0 holds only on the ray y0 = K*x0; "
        "a generic start needs one step to land on the periodic set, so "
        "the literal all-n form of this gate cannot hold"
    ),
)
def test_c2_two_periodic_from_index_zero_literal():
    ok = True
    for init in _c2_inits(20):
        orbit = rs.simulate(RANK1_BOUNDARY, init, 202, EXACT)
        for n in range(201):
            if orbit.state(n + 2) != orbit.state(n):
                ok = False
                break
    report(
        "C2-literal",
        ok,
        "x[n+2] = x[n] and y[n+2] = y[n] for every n >= 0, 20 rational starts",
    )


def test_c2_two_periodic_after_one_step():
    k = rs.growth_and_ratio(RANK1_BOUNDARY, EXACT).k
    ok = True
    for init in _c2_inits(20):
        orbit = rs.simulate(RANK1_BOUNDARY, init, 202, EXACT)
        for n in range(1, 201):
            if orbit.state(n + 2) != orbit.state(n):
                ok = False
                break
        on_ray = init[1] == k * init[0]
        if (orbit.state(2) == orbit.state(0)) != on_ray:
            ok = False
    report(
        "C2",
        ok,
        "exact period 2 for every n >= 1; period 2 from n = 0 exactly on "
        "the ray y0 = K*x0 (20 rational starts)",
    )


def test_c3_geometric_growth_rate_slope():
    p = rs.PeriodicCoefficients(1.0, 1.0, 1.0, 1.0, 0.5, 1.5, 2.0, 2.0)
    logs = rs.log_simulate(p, (1.0, 1.0), 400)
    ns = list(range(100, 201))
    slope = statistics.linear_regression(ns, [logs[2 * n][0] for n in ns]).slope
    target = math.log(4.0 / 3.0)
    report(
        "C3",
        abs(slope - target) <= 1e-6,
        f"log x[2n] slope {slope:.12f} vs log(4/3) = {target:.12f}",
    )


def test_c4_both_parity_growth_rates_agree():
    rng = random.Random(404)
    worst = 0.0
    done = 0
    while done < 100:
        p = random_float_params(rng)
        m = rs.composed_matrix(p)
        if rs.rank_decision(m) != 2:
            continue
        l1, _ = rs.eigenvalues(p)
        q = m.m12 / (l1 - m.m11)
        rate_x = math.log(l1 * q) - math.log((p.b0 * q + p.a0) * (p.d0 * q + p.c0))
        rate_y = math.log(l1 / q) - math.log(
            (p.d0 + p.c0 / q) * (p.b0 + p.a0 / q)
        )
        worst = max(worst, abs(rate_x - rate_y) / max(abs(rate_x), abs(rate_y)))
        done += 1
    report(
        "C4",
        worst < 1e-10,
        f"100 rank-2 instances, x and y growth rates agree to {worst:.3e}",
    )


def test_c5_limit_cycles_on_the_boundary():
    rng = random.Random(777)
    worst_residual = 0.0
    worst_rate_gap = 0.0
    for _ in range(5):
        params, r = find_balanced(rng)
        cycle = rs.limit_cycle(params, (1.0, 1.0))
        worst_residual = max(worst_residual, cycle.residual)
        orbit = rs.simulate(params, (1.0, 1.0), 1200)
        errs = [
            abs(orbit.state(2 * k)[0] - cycle.x_even) / cycle.x_even
            for k in range(601)
        ]
        ratios = [
            errs[k + 1] / errs[k]
            for k in range(600)
            if 1e-10 < errs[k] < 1e-2 and errs[k + 1] > 1e-12
        ]
        observed = math.exp(statistics.fmean(math.log(t) for t in ratios))
        worst_rate_gap = max(worst_rate_gap, abs(observed - r) / r)
    report(
        "C5",
        worst_residual < 1e-9 and worst_rate_gap < 0.1,
        f"5 boundary instances: worst cycle residual {worst_residual:.3e}, "
        f"worst contraction-rate mismatch {worst_rate_gap:.2%}",
    )


def test_c6_classification_corroborated_by_long_runs():
    rng = random.Random(606)
    instances = [random_float_params(rng) for _ in range(138)]
    instances += [random_rank1_params(rng) for _ in range(60)]
    instances += [
        rs.PeriodicCoefficients(1.0, 1.0, 1.0, 1.0, 0.5, 1.5, 0.7, 1.3),
        rs.PeriodicCoefficients(1.0, 1.0, 1.0, 1.0, 0.5, 1.5, 1.5, 0.5),
    ]
    expected_of = {
        Kind.VANISH_EVEN_BLOW_ODD: "down",
        Kind.BLOW_EVEN_VANISH_ODD: "up",
        Kind.EXACT_TWO_PERIODIC: "settles",
        Kind.CONVERGES_TO_TWO_PERIODIC: "settles",
    }
    mismatches = 0
    for p in instances:
        verdict = rs.classify(p, attach_cycle=False)
        logs = rs.log_simulate(p, (1.0, 1.0), 4000)
        window = range(1750, 2001)
        xs = [logs[2 * k][0] for k in window]
        if max(xs) - min(xs) < 1e-8:
            observed = "settles"
        else:
            slope = statistics.linear_regression(list(window), xs).slope
            if slope < -1e-6:
                observed = "down"
            elif slope > 1e-6:
                observed = "up"
            else:
                observed = "ambiguous"
        if observed != expected_of[verdict.kind]:
            mismatches += 1
    report(
        "C6",
        mismatches == 0,
        f"{len(instances) - mismatches}/{len(instances)} verdicts "
        "corroborated by 4000-step log-space runs",
    )


def test_c7_eigenpair_residuals():
    rng = random.Random(707)
    worst = 0.0
    ordered = True
    done = 0
    while done < 1000:
        p = random_float_params(rng)
        m = rs.composed_matrix(p)
        if rs.rank_decision(m) != 2:
            continue
        l1, l2 = rs.eigenvalues(p)
        ordered = ordered and abs(l2) < l1
        for lam in (l1, l2):
            v = (m.m12, lam - m.m11)
            norm = math.hypot(*v)
            residual = math.hypot(
                m.m11 * v[0] + m.m12 * v[1] - lam * v[0],
                m.m21 * v[0] + m.m22 * v[1] - lam * v[1],
            )
            worst = max(worst, residual / norm)
        done += 1
    report(
        "C7",
        ordered and worst < 1e-12,
        f"1000 instances: |lambda2| < lambda1 always, worst eigenpair "
        f"residual {worst:.3e}",
    )


def test_c8_product_limits_against_direct_multiplication():
    ok = True
    details = []
    for r in (0.9, 0.5, 0.1):
        rep = rs.product_converges(r ** k for k in count(1))
        direct = 1.0
        for k in range(1, 2000):
            direct *= 1.0 + r ** k
        good = (
            rep.status is ProductStatus.CONVERGES
            and abs(rep.limit - direct) <= 1e-9 * direct
        )
        ok = ok and good
        details.append(f"r={r}: {rep.limit!r} vs {direct!r}")
    const = rs.product_converges(0.5 for _ in count())
    ok = ok and const.status is ProductStatus.DIVERGES_TO_INFINITY
    report(
        "C8",
        ok,
        "geometric deviations converge to the directly multiplied limits; "
        "constant deviations diverge to infinity",
    )


def test_c9_transform_linearizes_exactly():
    rng = random.Random(909)
    ok = True
    for _ in range(50):
        p = random_rational_params(rng)
        init = (random_rational(rng), random_rational(rng))
        uv = rs.uv_from_orbit(rs.simulate(p, init, 30, EXACT))
        for n in range(30):
            a, b, c, d = p.at(n)
            if uv[n + 1].u != b * uv[n].u + a * uv[n].v:
                ok = False
            if uv[n + 1].v != d * uv[n].u + c * uv[n].v:
                ok = False
    report(
        "C9",
        ok,
        "50 rational instances: transformed pairs satisfy the linear "
        "recurrence exactly for n <= 30",
    )


def test_c10_cli_golden_outputs():
    cases = [
        (
            "classify_boundary.txt",
            [
                "classify",
                "--a0", "1", "--b0", "1", "--c0", "1", "--d0", "1",
                "--a1", "0.5", "--b1", "1.5", "--c1", "0.7", "--d1", "1.3",
                "--mode", "exact",
            ],
        ),
        (
            "simulate_all_ones.csv",
            [
                "simulate", "--all-ones", "--x0", "1", "--y0", "1",
                "-n", "4", "--format", "csv",
            ],
        ),
        (
            "compare_generic.txt",
            [
                "compare",
                "--a0", "2", "--b0", "1", "--c0", "4", "--d0", "3",
                "--a1", "1", "--b1", "2", "--c1", "3", "--d1", "1",
                "-n", "40",
            ],
        ),
    ]
    problems = []
    for name, args in cases:
        expected = (GOLDEN / name).read_bytes()
        proc = subprocess.run(
            [sys.executable, "-m", "ratsys", *args], capture_output=True
        )
        if proc.returncode != 0:
            problems.append(f"{name}: exit {proc.returncode}")
        elif proc.stdout != expected:
            problems.append(f"{name}: output differs from golden file")
    # the compare invocation must also show errors under 1e-9
    text = (GOLDEN / "compare_generic.txt").read_text()
    worst = max(
        float(line.split(": ")[1])
        for line in text.splitlines()
        if line.startswith("max_rel_error")
    )
    if worst >= 1e-9:
        problems.append(f"compare golden records error {worst:.3e}")
    report(
        "C10",
        not problems,
        "three CLI invocations byte-identical to golden files"
        if not problems
        else "; ".join(problems),
    )


# Float closed forms past the settle term (index 42 on), with rows
# saturated to inf and 0, and exact ones of both ranks, byte for byte.
CLOSED_GOLDENS = {
    "closed_rank1_float.csv": "--a0 1 --b0 1 --c0 1 --d0 1 --a1 0.001 "
    "--b1 1000 --c1 0.01 --d1 500 --x0 0.3 --y0 7 -n 400",
    "closed_rank2_float.csv": "--a0 2 --b0 1 --c0 4 --d0 3 --a1 0.001 "
    "--b1 2000 --c1 3000 --d1 0.001 --x0 0.3 --y0 7 -n 400",
    "closed_rank1_exact.csv": "--mode exact --a0 2 --b0 3 --c0 4 --d0 6 "
    "--a1 1/3 --b1 5/2 --c1 7 --d1 2 --x0 2/3 --y0 5 -n 120",
    "closed_rank2_square_exact.csv": "--mode exact --a0 1 --b0 1 --c0 1 "
    "--d0 2 --a1 1 --b1 3 --c1 4 --d1 1 --x0 2/3 --y0 5 -n 44",
}


@pytest.mark.parametrize("name", sorted(CLOSED_GOLDENS))
def test_closed_form_golden_outputs(name, capsys):
    argv = ["closed", *CLOSED_GOLDENS[name].split(), "--format", "csv"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
