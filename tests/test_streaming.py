"""Streamed orbits: the closed-form state iterator, the CLI row writer,
saturation past float range, lopsided starts, and exit codes."""

import contextlib
import decimal
import csv
import io
import json
import math
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import ratsys
import ratsys.analysis
import ratsys.core
from ratsys import (
    ArithmeticMode,
    DomainError,
    PeriodicCoefficients,
    TruncationError,
    classify,
    closed_form_sequence,
    closed_form_states,
    compare,
    format_number,
    rank1_solution,
    rank1_solution_sequence,
    rank2_solution,
    rank2_solution_sequence,
    simulate,
)
from ratsys.cli import main, render_json
from ratsys.rank1 import growth_terms

from conftest import (
    RANK1_GROWTH,
    RANK2_SQUARE,
    decimal_log_orbit,
    random_float_params,
    random_rank1_params,
)

NAMES = ("a0", "b0", "c0", "d0", "a1", "b1", "c1", "d1")
EXACT = ArithmeticMode.EXACT_RATIONAL
FLOAT = ArithmeticMode.FLOAT64
# orbits that leave float range within a few hundred steps
FAULT_RANK2 = "2,1,4,3,1,2,3,1"
FAULT_RANK1 = "1,1,1,1,1,1,2,2"
BALANCED = "1,1,1,2,2,1,1,1"
RANK1_EDGE = "1,1,1,1,0.5,1.5,0.7,1.3"


def coeff_flags(values) -> list[str]:
    if isinstance(values, str):
        values = values.split(",")
    out = []
    for name, v in zip(NAMES, values):
        out += [f"--{name}", repr(v) if isinstance(v, float) else str(v)]
    return out


def stdout_of(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


# ------------------------------------------------ reference rendering


def table_text(header, rows) -> str:
    cells = [[format_number(v) if not isinstance(v, str) else v for v in row]
             for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells))
              for i, h in enumerate(header)]
    lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    lines += ["  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in cells]
    return "\n".join(lines) + "\n"


def csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([format_number(v) if not isinstance(v, str) else v
                      for v in row] for row in rows)
    return buf.getvalue()


def points_text(command, mode, states, fmt) -> str:
    rows = [(n, x, y) for n, (x, y) in enumerate(states)]
    if fmt == "json":
        return render_json({
            "command": command,
            "mode": mode.value,
            "n_max": len(states) - 1,
            "points": [{"n": n, "x": x, "y": y} for n, x, y in rows],
        })
    render = csv_text if fmt == "csv" else table_text
    return render(["n", "x", "y"], rows)


def seeded_orbit_cases(seed=2024, count=12):
    """(coefficients, start, horizon, mode) on both ranks and both modes."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        if i % 4 == 3:
            p = PeriodicCoefficients(*(Fraction(rng.randint(1, 9), rng.randint(1, 9))
                                       for _ in range(8)))
            start = (Fraction(rng.randint(1, 5), rng.randint(1, 5)),
                     Fraction(rng.randint(1, 5), rng.randint(1, 5)))
            cases.append((p, start, rng.randint(0, 25), EXACT))
            continue
        p = random_rank1_params(rng) if i % 2 else random_float_params(rng)
        start = (10 ** rng.uniform(-3, 3), 10 ** rng.uniform(-3, 3))
        cases.append((p, start, rng.choice([0, 1, 2, 3, 4, 7, 60, 400]), FLOAT))
    return cases


def start_flags(start) -> list[str]:
    return ["--x0", str(start[0]) if isinstance(start[0], Fraction) else repr(start[0]),
            "--y0", str(start[1]) if isinstance(start[1], Fraction) else repr(start[1])]


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_simulate_and_closed_render_like_the_reference(fmt):
    for p, start, n, mode in seeded_orbit_cases():
        argv = coeff_flags([getattr(p, f) for f in NAMES]) + start_flags(start) + [
            "-n", str(n), "--mode", mode.value, "--format", fmt]
        try:
            orbit = simulate(p, start, n, mode).states
        except ratsys.TruncationError:
            orbit = None
        if orbit is not None:
            assert stdout_of(["simulate", *argv]) == (
                0, points_text("simulate", mode, orbit, fmt))
        closed = closed_form_sequence(p, start, n, mode)
        assert stdout_of(["closed", *argv]) == (
            0, points_text("closed", mode, closed, fmt))


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("axes", [
    ["--axis1", "d1:0.5:2:7"],
    ["--axis1", "b1:0.1:10:6", "--axis2", "a0:0.5:2:4"],
])
def test_sweep_renders_like_the_reference(fmt, axes):
    base = PeriodicCoefficients(2.0, 1.0, 4.0, 3.0, 1.0, 2.0, 3.0, 1.0)
    grids = []
    for name, lo, hi, steps in (a.split(":") for a in axes[1::2]):
        lo, hi, steps = float(lo), float(hi), int(steps)
        grids.append((name, [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]))
    combos = [(v,) for v in grids[0][1]] if len(grids) == 1 else [
        (v1, v2) for v1 in grids[0][1] for v2 in grids[1][1]]
    names = [name for name, _ in grids]
    rows = []
    for combo in combos:
        values = {f: getattr(base, f) for f in NAMES} | dict(zip(names, combo))
        verdict = classify(PeriodicCoefficients(**values), attach_cycle=False)
        w = verdict.witness
        k_or_q, rho_or_delta = (w.k, w.rho) if verdict.rank == 1 else (w.q, w.delta)
        rows.append((*combo, verdict.rank, k_or_q, rho_or_delta, verdict.kind.value))
    header = names + ["rank", "K_or_Q", "rho_or_delta", "kind"]
    if fmt == "json":
        want = render_json({
            "command": "sweep",
            "axes": [{"name": n, "values": v} for n, v in grids],
            "rows": [dict(zip(header, row)) for row in rows],
        })
    else:
        want = (csv_text if fmt == "csv" else table_text)(header, rows)
    argv = ["sweep", *coeff_flags("2,1,4,3,1,2,3,1"), *axes, "--format", fmt]
    assert stdout_of(argv) == (0, want)


def test_golden_files_still_match():
    golden = Path(__file__).parent / "golden"
    code, out = stdout_of(["simulate", "--all-ones", "-n", "4", "--format", "csv"])
    assert code == 0 and out == (golden / "simulate_all_ones.csv").read_text()


# ------------------------------------------------ the state iterator


@st.composite
def systems(draw):
    rank1 = draw(st.booleans())
    exact = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 10**6)))
    if exact:
        params = RANK1_GROWTH if rank1 else RANK2_SQUARE
        start = (Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                 Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        return params, start, EXACT, rank1
    params = random_rank1_params(rng) if rank1 else random_float_params(rng)
    start = (10 ** rng.uniform(-2, 2), 10 ** rng.uniform(-2, 2))
    return params, start, FLOAT, rank1


@given(systems(), st.integers(0, 30))
def test_state_iterator_equals_the_sequences(case, n_max):
    params, start, mode, rank1 = case
    streamed = list(islice(closed_form_states(params, start, mode), n_max + 1))
    sequence = (rank1_solution_sequence if rank1 else rank2_solution_sequence)
    point = rank1_solution if rank1 else rank2_solution
    assert streamed == sequence(params, start, n_max, mode)
    assert streamed == closed_form_sequence(params, start, n_max, mode)
    assert streamed[n_max] == point(params, start, n_max, mode)


def test_state_iterator_checks_the_start_on_the_call():
    with pytest.raises(DomainError, match="x0 must be positive"):
        closed_form_states(RANK2_SQUARE, (-1, 1))


def test_sequence_errors_stay_tied_to_the_horizon():
    # a rank-2 set takes direct steps up to index 3 on the rank-1 path
    for mode in (EXACT, FLOAT):
        states = rank1_solution_sequence(RANK2_SQUARE, (1, 1), 3, mode)
        assert len(states) == 4
        assert rank1_solution(RANK2_SQUARE, (1, 1), 3, mode) == states[3]
    # past it the one exact closed form serves it, and float mode refuses
    orbit = simulate(RANK2_SQUARE, (1, 1), 4, EXACT)
    assert rank1_solution_sequence(RANK2_SQUARE, (1, 1), 4, EXACT) \
        == list(orbit.states)
    assert rank1_solution(RANK2_SQUARE, (1, 1), 4, EXACT) == orbit.state(4)
    with pytest.raises(ratsys.BranchError):
        rank1_solution_sequence(RANK2_SQUARE, (1, 1), 4, FLOAT)
    with pytest.raises(ratsys.BranchError):
        rank1_solution(RANK2_SQUARE, (1, 1), 4, FLOAT)
    # and the rank-2 path needs a rank-2 set from index 1 on
    assert rank2_solution_sequence(RANK1_GROWTH, (1, 1), 0) == [(1.0, 1.0)]
    assert rank2_solution(RANK1_GROWTH, (1, 1), 0) == (1.0, 1.0)
    with pytest.raises(ratsys.BranchError):
        rank2_solution_sequence(RANK1_GROWTH, (1, 1), 1)
    for n in (1, 4, 10**6):
        with pytest.raises(ratsys.BranchError):
            rank2_solution(RANK1_GROWTH, (1, 1), n)


# ------------------------------------------------ saturation and starts


@pytest.mark.parametrize("rank, coeffs", [(2, FAULT_RANK2), (1, FAULT_RANK1)])
def test_closed_forms_saturate_past_float_range(rank, coeffs):
    code, out = stdout_of(["closed", *coeff_flags(coeffs), "-n", "10000",
                           "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 10001
    cells = {cell for row in rows for cell in row[1:]}
    assert {"inf", "0"} <= cells and "nan" not in cells
    params = PeriodicCoefficients(*map(float, coeffs.split(",")))
    point = rank1_solution if rank == 1 else rank2_solution
    for n in (6000, 6001, 10000):
        assert point(params, (1, 1), n) == tuple(map(float, rows[n][1:]))


@pytest.mark.parametrize("start", [(1e78, 1e-78), (1e-78, 1e78),
                                   (1e160, 1e-160), (1e-160, 1e160)])
def test_rank2_closed_form_from_far_lopsided_starts(start):
    params = PeriodicCoefficients(2, 1, 4, 3, 1, 2, 3, 1)
    code, out = stdout_of(["closed", *coeff_flags(FAULT_RANK2), "-n", "3",
                           *start_flags(start)])
    assert code == 0 and "nan" not in out
    report = compare(params, start, 200)
    assert report.max_rel_error_x < 1e-10 and report.max_rel_error_y < 1e-10
    assert report.first_divergence_index is None


def test_compare_counts_a_nan_error_as_divergence(monkeypatch):
    real = ratsys.analysis.closed_form_states

    def with_nan(*args):
        states = real(*args)
        yield next(states)
        yield (math.nan, next(states)[1])
        yield from states

    monkeypatch.setattr(ratsys.analysis, "closed_form_states", with_nan)
    report = compare(PeriodicCoefficients(2, 1, 4, 3, 1, 2, 3, 1), (1, 1), 5)
    assert report.first_divergence_index == 1


# ------------------------------------------------ cost


@pytest.mark.parametrize("coeffs", [FAULT_RANK2, FAULT_RANK1])
def test_closed_output_memory_stays_small(coeffs, tmp_path):
    argv = ["closed", *coeff_flags(coeffs), "-n", "10000",
            "-o", str(tmp_path / "out.txt")]
    assert main(argv) == 0  # imports and the parser, outside the trace
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def test_float_simulate_makes_no_step_call(monkeypatch):
    calls = []
    real = ratsys.core.step
    monkeypatch.setattr(ratsys.core, "step", lambda *a: calls.append(a) or real(*a))
    orbit = simulate(PeriodicCoefficients(2, 1, 4, 3, 1, 2, 3, 1), (1, 1), 50)
    assert len(orbit) == 51 and calls == []


def test_step_error_names_the_component():
    p = PeriodicCoefficients(1, 1, 1, 1, 1, 1, 1, 1)
    with pytest.raises(DomainError, match=r"^y\[7\] must be finite, got inf$"):
        ratsys.step(p, 7, (1.0, math.inf))
    with pytest.raises(DomainError, match=r"^x\[2\] must be positive, got 0$"):
        ratsys.step(p, 2, (0, 1))


# ------------------------------------------------ exit codes

RUN_CALLS = """
import io, json, os, sys
from ratsys.cli import main
codes = []
sink = open(os.devnull, "w")
for argv in json.load(sys.stdin):
    sys.stdout, sys.stderr = sink, io.StringIO()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except BaseException as exc:
        code = f"{type(exc).__name__}: {exc}"
    sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    codes.append(code)
json.dump(codes, sys.stdout)
"""

LOPSIDED = [("1e78", "1e-78"), ("1e-78", "1e78"), ("1e160", "1e-160"),
            ("1e-160", "1e160"), ("1e300", "1e-300"), ("5e-324", "1"),
            ("1.7e308", "1"), ("1e-300", "1e300"), ("1e-310", "1e300"),
            ("5e300", "5e-320")]


def exit_code_argvs() -> list[list[str]]:
    argvs = []
    for coeffs in (FAULT_RANK2, FAULT_RANK1, BALANCED, RANK1_EDGE):
        flags = coeff_flags(coeffs)
        for x0, y0 in [("1", "1")] + LOPSIDED:
            start = ["--x0", x0, "--y0", y0]
            longest = 10**5 if (x0, y0) == ("1", "1") else 10**4
            for n in (0, 1, 2, 3, 4, 5, 100, longest):
                for cmd in ("simulate", "closed", "compare"):
                    argvs.append([cmd, *flags, *start, "-n", str(n)])
            for n in (0, 3, 12):
                for cmd in ("simulate", "closed", "compare"):
                    argvs.append([cmd, *flags, *start, "-n", str(n),
                                  "--mode", "exact", "--format", "csv"])
            argvs.append(["classify", *flags, *start, "--format", "json"])
        argvs.append(["sweep", *flags, "--axis1", "d1:0.5:2:9",
                      "--axis2", "a0:1e-300:1e300:9"])
    # an output path that cannot be opened: missing directory, directory
    here = Path(__file__).resolve().parent
    for path in (here / "missing" / "x.csv", here):
        argvs.append(["simulate", "--all-ones", "-n", "2", "-o", str(path)])
    return argvs


def test_every_subcommand_exits_with_a_documented_code():
    argvs = exit_code_argvs()
    src = str(Path(ratsys.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", RUN_CALLS],
        input=json.dumps(argvs),
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout)
    bad = [(" ".join(a), c) for a, c in zip(argvs, codes) if c not in (0, 2, 3, 4)]
    assert bad == []


def test_a_reader_that_stops_early_ends_the_run_quietly():
    src = str(Path(ratsys.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "ratsys", "simulate", "--all-ones", "-n", "100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={"PYTHONPATH": src})
    assert proc.stdout.readline().split() == [b"n", b"x", b"y"]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")


@pytest.mark.parametrize("coeffs", [FAULT_RANK2, FAULT_RANK1, BALANCED, RANK1_EDGE])
def test_closed_form_from_every_start_stays_on_the_oracle(coeffs):
    # the closed forms take indices 0 to 3 from direct steps, and from
    # log-space steps where those leave the normal float range
    params = PeriodicCoefficients(*map(float, coeffs.split(",")))
    for x0, y0 in [("1", "1")] + LOPSIDED:
        argv = ["closed", *coeff_flags(coeffs), "--x0", x0, "--y0", y0,
                "-n", "200", "--format", "csv"]
        code, out = stdout_of(argv)
        assert code == 0, argv
        oracle = decimal_log_orbit(params, (float(x0), float(y0)), range(201))
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 201
        for row in rows:
            n = int(row[0])
            for value, want in zip(map(float, row[1:]), oracle[n]):
                if sys.float_info.min <= value < math.inf:
                    assert abs(math.log(value) - want) <= 1e-11, (argv, n)


@st.composite
def far_starts(draw):
    """Coefficients log-uniform in [0.1, 10], rank 1 on every third draw
    through d0 = b0*c0/a0, and a start with components from
    10**U(-322, 307)."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    a0, b0, c0, d0, a1, b1, c1, d1 = (10 ** rng.uniform(-1, 1) for _ in range(8))
    if draw(st.integers(0, 2)) == 0:
        d0 = b0 * c0 / a0
    start = tuple(10 ** rng.uniform(-322, 307) for _ in range(2))
    return PeriodicCoefficients(a0, b0, c0, d0, a1, b1, c1, d1), start


@settings(max_examples=60)
@given(far_starts())
def test_closed_forms_take_any_positive_float_start(case):
    params, start = case
    assert len(list(islice(closed_form_states(params, start), 61))) == 61
    try:
        compare(params, start, 60)
    except TruncationError:  # iteration leaves float range
        pass


def test_float_spectrum_of_entries_past_1e154_classifies():
    # the discriminant (alpha - delta)**2 would overflow although every
    # entry of the composed matrix is finite; the roots are taken on the
    # matrix scaled by a power of two
    for a0 in ("1e200", "1e300"):
        argv = ["classify", *coeff_flags([a0, 1, 4, 3, 1, 2, 3, 1])]
        code, out = stdout_of(argv)
        assert code == 0 and "kind: VanishEvenBlowOdd" in out
    params = PeriodicCoefficients(1e200, 1.0, 4.0, 3.0, 1.0, 2.0, 3.0, 1.0)
    l1, l2 = ratsys.eigenvalues(params)
    assert l1 == pytest.approx(1e200, rel=1e-12)


def test_matrix_entries_past_float_range_are_a_domain_error(capsys):
    # the exact verdict of the second set is decided (delta_sign_exact
    # gives +1), but classify forms its float witness from the float
    # coefficients, and their composed entry a0*b1 overflows
    exact = ["1e200", 1, 4, 3, 1, "1e200", 3, 1]
    assert ratsys.delta_sign_exact(PeriodicCoefficients(
        *(Fraction(v) for v in exact))) == 1
    for argv in (["classify", *coeff_flags(["1e308", 1, 4, 3, 1, 2, 3, 1])],
                 ["classify", "--mode", "exact", *coeff_flags(exact)]):
        assert main(argv) == 3
        assert "matrix entries overflow float range" in capsys.readouterr().err


def test_lambda1_past_float_range_is_a_domain_error(capsys):
    # the composed entries (1.5e8, 1.5e308, 1.5e308, 1.5e308) are finite,
    # lambda1 is not. compare stops at -n 3: its direct orbit is inf at
    # step 4 and exits 4 there first
    flags = coeff_flags(["1", "1", "1", "1e-300", "1.5e308", "1", "1", "1.5e308"])
    for argv in (["classify", *flags], ["closed", *flags], ["compare", *flags, "-n", "3"],
                 ["classify", "--mode", "exact", *flags],
                 ["sweep", *flags, "--axis1", "d1:1e308:1.5e308:2"]):
        assert main(argv) == 3, argv
        assert capsys.readouterr().err.endswith(
            "error: matrix entries overflow float range\n"), argv
    for command in ("simulate", "closed", "compare"):
        assert main([command, "--mode", "exact", *flags, "-n", "5"]) == 0, command


def test_a_nan_ratio_factor_is_a_domain_error(capsys):
    # at term 2 the factor's p and b0*q + a0 times d0*q + c0 are both inf
    values = [0.16766254779913992, 7.704193451142962e-79, 3.651129653034631e-80,
              1.3410321017353315e+308, 0.07240342554464047, 1.6769415500289335e+308,
              0.1171084984201599, 0.020526163533661605]
    start = (3.376192529737e-312, 0.024892890496036917)
    argv = ["closed", *coeff_flags(values), "--x0", repr(start[0]),
            "--y0", repr(start[1]), "-n", "12"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert "nan" not in out
    assert err.endswith("error: the closed form's ratio factors pass float range\n")
    for n in (12, 10**9):  # a point query, before and past the settle term
        with pytest.raises(DomainError, match="ratio factors pass float range"):
            rank2_solution(PeriodicCoefficients(*values), start, n)


def test_scaled_roots_are_bit_identical_within_range():
    rng = random.Random(99)
    for _ in range(200):
        params = random_float_params(rng)
        if ratsys.prepare(params).rank != 2:
            continue
        m = ratsys.prepare(params).matrix
        root = math.sqrt((m.m11 - m.m22) ** 2 + 4 * m.m12 * m.m21)
        trace = m.m11 + m.m22
        assert ratsys.eigenvalues(params) == ((trace + root) * 0.5,
                                              (trace - root) * 0.5)


def test_rank2_closed_form_from_a_start_near_the_top_of_float_range():
    start = ["--x0", "1.7e308", "--y0", "1"]
    code, closed = stdout_of(["closed", *coeff_flags(BALANCED), *start,
                              "-n", "40", "--format", "csv"])
    assert code == 0 and "nan" not in closed
    code, simulated = stdout_of(["simulate", *coeff_flags(BALANCED), *start,
                                 "-n", "40", "--format", "csv"])
    assert code == 0
    rows = zip(csv.reader(io.StringIO(closed)), csv.reader(io.StringIO(simulated)))
    next(rows)
    for got, want in rows:
        for a, b in zip(map(float, got[1:]), map(float, want[1:])):
            assert a == pytest.approx(b, rel=1e-12)
    params = PeriodicCoefficients(*map(float, BALANCED.split(",")))
    report = compare(params, (1.7e308, 1.0), 200)
    assert report.first_divergence_index is None


def test_classify_from_a_start_near_the_top_of_float_range():
    code, out = stdout_of(["classify", *coeff_flags(BALANCED),
                           "--x0", "1.7e308", "--y0", "1"])
    assert code == 0 and "nan" not in out
    params = PeriodicCoefficients(*map(float, BALANCED.split(",")))
    cycle = classify(params, probe_init=(1.7e308, 1.0)).cycle
    assert cycle.residual < 1e-12
    # two steps from (1.7e308, 1) the orbit is at (2.5, 1.5), so it has
    # the cycle of that start
    near = classify(params, probe_init=(2.5, 1.5)).cycle
    assert cycle.x_even == pytest.approx(near.x_even, rel=1e-9)


# beta*gamma of the composed matrix underflows, so the float lambda1 is
# alpha itself; b1 = 1.5 and 2 move the set toward and onto the boundary
UNDERFLOW = ["1e-200", 2, 1, "1e-200", "1e-200", 1, 1, "1e-200"]


def test_underflowing_off_diagonal_product_classifies(capsys):
    code, out = stdout_of(["classify", *coeff_flags(UNDERFLOW)])
    assert code == 0 and "nan" not in out
    fields = dict(line.split(": ") for line in out.splitlines())
    assert fields["kind"] == "VanishEvenBlowOdd"
    # Q = (lambda1 - delta)/gamma = (2 - 1)/3e-200
    assert float(fields["Q"]) == pytest.approx(1 / 3e-200, rel=1e-12)
    flags = coeff_flags(UNDERFLOW)
    del flags[10:12]  # b1 is swept
    code, out = stdout_of(["sweep", *flags, "--axis1", "b1:1:2:3"])
    assert code == 0 and "nan" not in out
    assert len(out.splitlines()) == 4


# rank 1 with every even coefficient tiny: K = 1 and rho = 1e200, but the
# product of the row sums b0 + K*a0 and d0 + K*c0 underflows to 0.0
RANK1_UNDERFLOW = ["1e-200"] * 4 + [1] * 4


def test_underflowing_rank1_row_sums_keep_rho(capsys):
    flags = coeff_flags(RANK1_UNDERFLOW)
    for mode, rho in (("float", 1e200), ("exact", 10**200)):
        code, out = stdout_of(["classify", *flags, "--mode", mode])
        assert code == 0
        fields = dict(line.split(": ") for line in out.splitlines())
        assert fields["kind"] == "BlowEvenVanishOdd"
        assert fields["rank"] == "1" and fields["K"] == "1"
        assert float(fields["rho"]) == pytest.approx(rho, rel=1e-15)
    # x2 = 1e200 and x3 = 2e-400: from index 3 the closed form saturates
    code, out = stdout_of(["closed", *flags, "-n", "7", "--format", "csv"])
    assert code == 0
    assert [row[1:] for row in csv.reader(io.StringIO(out))][1:] == [
        ["1", "1"], ["2e-200", "2e-200"],
        ["9.9999999999999997e+199", "9.9999999999999997e+199"],
        ["0", "0"], ["inf", "inf"], ["0", "0"], ["inf", "inf"], ["0", "0"]]
    assert rank1_solution(PeriodicCoefficients(*map(float, RANK1_UNDERFLOW)),
                          (1.0, 1.0), 1001) == (0.0, 0.0)
    del flags[8:10]  # a1 is swept
    code, out = stdout_of(["sweep", *flags, "--axis1", "a1:1:2:3",
                           "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [row[-1] for row in rows] == ["BlowEvenVanishOdd"] * 3
    assert float(rows[0][3]) == pytest.approx(1e200, rel=1e-15)
    # a product of row sums above the smallest normal keeps its bits
    k, mu, rho = growth_terms(5.0, 8.0, 10.0, 16.0, 1.0, 1.0, 1.0, 1.0)[:3]
    assert rho == k * mu / ((1.0 + k) * (1.0 + k))


def test_scaled_rho_below_the_largest_float_is_not_saturated():
    # K*mu overflows and rho = 8.79e307 lies between exp(709) and the
    # largest float: the scaled path gives its value, not inf
    args = (1.0, 1.1 * 2.0**423, 2.0**600, 1.1 * 2.0**1023, 2.0**-603, 1.0, 1.0, 1.0)
    k, mu, rho, log_rho, _ = growth_terms(*args)
    m11, m12, m21, _, a0, b0, c0, d0 = map(Fraction, args)
    k_, mu_ = m21 / m11, m11 + m21 / m11 * m12
    exact = k_ * mu_ / ((b0 + k_ * a0) * (d0 + k_ * c0))
    assert rho == pytest.approx(float(exact), rel=1e-15)
    assert log_rho == math.log(rho)


TINY_DIAGONAL = ["1e-6", 2, 1, "1e-6", "1e-6", 1, 1, "1e-6"]
# the float lambda2 rounds to alpha
LAMBDA2_NEAR_ALPHA = [
    "7.731020285711353e-12", "1.5821012714728953", "4.904839267964394",
    "7.113291871332182e-12", "1.1504532194895387e-11", "0.7667157356238181",
    "2.206989544569091", "9.676311136298773e-12"]


def symmetric(tiny):
    """alpha == delta == 1 and beta == gamma == 2*tiny: beta*gamma is
    below alpha's rounding, so the float eigenvalues coincide. The set
    is exactly balanced: Q = 1 and delta = 0."""
    return [tiny, 1, 1, tiny, tiny, 1, 1, tiny]


@pytest.mark.parametrize("tiny", ["1e-20", "1e-200"])
def test_coinciding_float_eigenvalues_classify_on_the_boundary(tiny, capsys):
    flags = coeff_flags(symmetric(tiny))
    for mode in ("float", "exact"):
        code, out = stdout_of(["classify", *flags, "--mode", mode])
        assert code == 0 and "nan" not in out
        fields = dict(line.split(": ") for line in out.splitlines())
        assert fields["kind"] == "ConvergesToTwoPeriodic"
        assert float(fields["Q"]) == 1 and float(fields["delta"]) == 0
    del flags[10:12]  # b1 is swept
    code, out = stdout_of(["sweep", *flags, "--axis1", "b1:1:2:3",
                           "--format", "csv"])
    assert code == 0
    assert list(csv.reader(io.StringIO(out)))[1] == [
        "1", "2", "1", "0", "ConvergesToTwoPeriodic"]


# Q, scale and delta underflow to 0; log g of the scaled parts gives the
# exact verdict (wide oracle-sweep seed 2, set 485)
DELTA_UNDERFLOW = [
    "2.399561835622176e-130", "6.199068936544247e+37",
    "3.1757234734310614e-221", "1.3003219515980176e-16",
    "7.999474678005418e-83", "1.1986920568984294e-190",
    "6.185479050400371e-50", "1.0953959860965916e+244"]


def test_witness_delta_that_underflows_keeps_the_verdicts_sign():
    flags = coeff_flags(DELTA_UNDERFLOW)
    for mode in ("float", "exact"):
        code, out = stdout_of(["classify", *flags, "--mode", mode])
        fields = dict(line.split(": ") for line in out.splitlines())
        assert code == 0 and fields["kind"] == "BlowEvenVanishOdd"
        assert float(fields["Q"]) == 0 and float(fields["delta"]) == 5e-324
    code, out = stdout_of(["sweep", *flags[2:], "--axis1",
                           f"a0:{DELTA_UNDERFLOW[0]}:{DELTA_UNDERFLOW[0]}:2",
                           "--format", "csv"])
    assert code == 0
    for row in list(csv.reader(io.StringIO(out)))[1:]:
        assert row[3:] == ["4.9406564584124654e-324", "BlowEvenVanishOdd"]


@pytest.mark.parametrize("values", [
    *(UNDERFLOW[:5] + [b1] + UNDERFLOW[6:] for b1 in ("1", "1.5", "2")),
    symmetric("1e-20"),
    symmetric("1e-200"),
    # lambda2 rounds to alpha, lambda1 to delta
    ["1e-200", 1, 2, "1e-200", "1e-200", 1, 1, "1e-200"],
    # beta*gamma below the rounding of alpha == delta == 2, on and off
    # the boundary
    [1, "1e-20", "1e-20", 1, 2, "1e-20", "1e-20", 2],
    [3, "1e-200", "1e-200", 2, 2, "1e-200", "1e-200", 3],
    # beta*gamma is some 1e-12 of (alpha - delta)**2: lambda1 - alpha
    # keeps a handful of digits when it is a plain difference
    TINY_DIAGONAL,
    LAMBDA2_NEAR_ALPHA,
    ["1e-20", 2, 1, "1e-20", "1e-20", "0.6", 1, "1e-20"],
    # the lambda1 mode of v starts some 1e24 below the lambda2 mode, so
    # the factors sit on a plateau long past term 20
    ["1e-25", 2, 1, "1e-25", "1e-25", "1.5", 1, "1e-25"],
], ids=["underflow-b1-1", "underflow-b1-1.5", "underflow-b1-2",
        "symmetric-1e-20", "symmetric-1e-200", "mirror", "diagonal",
        "diagonal-balanced", "tiny-diagonal-1e-6", "lambda2-near-alpha",
        "tiny-diagonal-1e-20", "buried-lambda1-mode"])
@pytest.mark.parametrize("start", [(1.0, 1.0), (3.0, 0.5)])
def test_float_eigenvalues_rounding_together_closed_forms(values, start):
    flags = coeff_flags(values) + ["--x0", repr(start[0]), "--y0", repr(start[1])]
    code, out = stdout_of(["compare", *flags, "-n", "1000"])
    assert code == 0 and "first_divergence_index: none" in out
    fields = dict(line.split(": ") for line in out.splitlines())
    assert float(fields["max_rel_error_x"]) < 1e-11
    assert float(fields["max_rel_error_y"]) < 1e-11
    closed = stdout_of(["closed", *flags, "-n", "30", "--format", "csv"])
    simulated = stdout_of(["simulate", *flags, "-n", "30", "--format", "csv"])
    assert closed[0] == simulated[0] == 0
    rows = zip(csv.reader(io.StringIO(closed[1])),
               csv.reader(io.StringIO(simulated[1])))
    next(rows)
    for got, want in rows:
        for a, b in zip(map(float, got[1:]), map(float, want[1:])):
            assert a == pytest.approx(b, rel=1e-12)
    for mode in ("float", "exact"):
        code, out = stdout_of(["classify", *flags, "--mode", mode])
        assert code == 0 and "nan" not in out
    # settled or not, the point query is the stream's
    params = PeriodicCoefficients(*map(float, values))
    n = 999
    stream = next(islice(closed_form_states(params, start), n, None))
    assert rank2_solution(params, start, n) == stream


moderate = st.floats(min_value=0.2, max_value=5.0)


@settings(max_examples=150, deadline=None)
@given(exponent=st.floats(min_value=-15.0, max_value=-1.0),
       diagonal=st.tuples(moderate, moderate, moderate, moderate),
       off_diagonal=st.tuples(moderate, moderate, moderate, moderate),
       start=st.tuples(st.floats(min_value=-0.5, max_value=0.5),
                       st.floats(min_value=-0.5, max_value=0.5)))
def test_float_compare_holds_where_beta_gamma_is_lost_against_the_diagonal(
        exponent, diagonal, off_diagonal, start):
    # a0, d0, a1, d1 of size 10**exponent make beta*gamma some 1e-2 to
    # 1e-30 of (alpha - delta)**2
    a0, d0, a1, d1 = (10.0 ** exponent * v for v in diagonal)
    b0, c0, b1, c1 = off_diagonal
    params = PeriodicCoefficients(a0, b0, c0, d0, a1, b1, c1, d1)
    assume(ratsys.prepare(params).rank == 2)
    init = (10.0 ** start[0], 10.0 ** start[1])
    try:
        report = compare(params, init, 1000)
    except TruncationError:
        return  # the iteration itself left float range
    assert report.first_divergence_index is None
    assert report.max_rel_error_x <= 1e-10
    assert report.max_rel_error_y <= 1e-10


# a0 too large and too small for a double; the small one rounds to 0.0
EXACT_PAST_RANGE = {"1e400": Fraction(10**400), "1e-400": Fraction(1, 10**400)}


def test_exact_coefficients_past_float_range_are_a_domain_error(capsys):
    for text, a0 in EXACT_PAST_RANGE.items():
        params = PeriodicCoefficients(a0, 1, 4, 3, 1, 2, 3, 1)
        with pytest.raises(DomainError,
                           match=r"^coefficient a0 must lie within float range$"):
            params.as_floats()
        flags = coeff_flags([text, 1, 4, 3, 1, 2, 3, 1])
        for fmt in ("table", "csv", "json"):
            assert main(["classify", *flags, "--mode", "exact", "--format", fmt]) == 3
            assert capsys.readouterr().err == (
                "error: coefficient a0 must lie within float range\n")
        # every other subcommand the input reaches ends in a documented code
        for argv in (["simulate", *flags, "--mode", "exact", "-n", "5"],
                     ["closed", *flags, "--mode", "exact", "-n", "5"],
                     ["compare", *flags, "--mode", "exact", "-n", "5"],
                     ["classify", *flags, "--mode", "exact", "--no-cycle"],
                     ["classify", *flags],
                     ["sweep", *flags[2:], "--axis1", f"a0:{text}:1e401:2"]):
            assert main(argv) in (0, 3)
        capsys.readouterr()


# The composed entries are about (3.4e270, 1.2e134, 1.9e112, 8.6e-18):
# (trace - root)/2 cancels lambda2 to 0.0, and lambda1*Q passes float range
LAMBDA2_CANCELS = [4.51268270996294, 1.2870153637851257e+137,
                   2.0815102312331623e-13, 6.337335801901995e-198,
                   0.2999739437862696, 2.6113153985151867e+133,
                   4.1538463514350106e-05, 1.4886169564190676e-25]
# about (6.9e-94, 2.0e-278, 2.4e127, 9.3e-72): scaled by 2**-423, beta
# is 0 and the discriminant underflows, so the roots come out equal
DISC_UNDERFLOWS = [3.6786635452984243e-178, 9.530839132916856e+20,
                   1.9121824806729605e-144, 4.207075524160201e-12,
                   1.0609454633426104e-134, 7.224627178396913e-115,
                   1.1024957679223285e-178, 2.5311927128358866e+106]
# the trace is far below sqrt(beta*gamma): lambda2/lambda1 rounds to -1
RATIO_ROUNDS_TO_MINUS_ONE = [4.984204452566163, 1.2884481042817926e-171,
                             1.718553253271239, 3.036275320356134e-20,
                             0.12241712508203027, 2.674296399873867e+102,
                             1.9087367514929694e-06, 7.57174519385091e-111]


def decimal_roots(params):
    """The eigenvalues of the float composed matrix, in 60-digit decimal."""
    ctx = decimal.Context(prec=60, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)
    a, b, c, d = map(decimal.Decimal, ratsys.prepare(params).matrix.entries)
    root = ctx.sqrt(ctx.add(ctx.power(a - d, 2), ctx.multiply(4 * b, c)))
    return tuple(float(ctx.divide(ctx.add(a + d, s * root), 2)) for s in (1, -1))


@pytest.mark.parametrize("values", [LAMBDA2_CANCELS, DISC_UNDERFLOWS],
                         ids=["lambda2-cancels", "discriminant-underflows"])
def test_float_split_off_the_plain_path_stays_on_the_oracle(values):
    params = PeriodicCoefficients(*values)
    for got, want in zip(ratsys.eigenvalues(params), decimal_roots(params)):
        assert got == pytest.approx(want, rel=1e-12)
    code, out = stdout_of(["closed", *coeff_flags(values), "-n", "200",
                           "--format", "csv"])
    assert code == 0
    oracle = decimal_log_orbit(params, (1.0, 1.0), range(201))
    in_range = 0
    for row in list(csv.reader(io.StringIO(out)))[1:]:
        n = int(row[0])
        for value, want in zip(map(float, row[1:]), oracle[n]):
            if sys.float_info.min <= value < math.inf:
                in_range += 1
                assert abs(math.log(value) - want) <= 1e-9, n
            else:  # saturated on the side of its log
                assert (value == 0.0) == (want < 0), n
    assert in_range >= 10


def test_ratio_factors_past_float_range_are_a_domain_error(capsys):
    # even coefficients some 1e-255 to 1e-46: x grows past float range in
    # one two-step, so no float holds the factor
    values = [5.6530269028523746e-65, 6.92669504409059e-122,
              4.6066968425436804e-46, 7.805074826683493e-255,
              3.636859991879736e-280, 4.715051039469458e+297,
              9.272424754638151e+157, 2.737085348920887e+140]
    assert main(["closed", *coeff_flags(values), "-n", "200"]) == 3
    assert capsys.readouterr().err == (
        "error: the closed form's ratio factors pass float range\n")


def test_eigenvalue_ratio_rounding_to_minus_one_is_exit_four(capsys):
    flags = coeff_flags(RATIO_ROUNDS_TO_MINUS_ONE)
    assert main(["closed", *flags, "-n", "200"]) == 4
    assert "lambda2/lambda1 rounds to -1" in capsys.readouterr().err
    assert main(["closed", *flags, "-n", "0"]) == 0
    capsys.readouterr()
