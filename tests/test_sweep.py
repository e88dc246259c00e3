"""The sweep: every cell's row equals classify's float verdict bit for
bit, and grids with a bad cell fail as they always have."""

import contextlib
import csv
import io
import json
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from ratsys import ArithmeticMode, PeriodicCoefficients, classify
from ratsys.cli import _parse_axis, _Rows, _serialize, main
from ratsys.core import COEFF_NAMES

EXACT = ArithmeticMode.EXACT_RATIONAL
values = st.floats(min_value=0.1, max_value=10.0)
# delta changes sign at b1 = 1
BALANCED = [1.0, 1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 1.0]


@st.composite
def axis(draw, names):
    return (draw(st.sampled_from(names)), draw(values), draw(values),
            draw(st.integers(1, 6)))


@st.composite
def grids(draw):
    """(base, axes) on four kinds of base: the singular family swept
    over its odd coefficients, a generic set, a boundary set whose
    delta changes sign at b1 = 1, and a dyadic set whose even matrix is
    exactly singular at one d0 of the grid."""
    shape = draw(st.sampled_from(["singular", "generic", "boundary", "dyadic"]))
    if shape == "singular":
        base = [1.0] * 4 + [draw(values) for _ in range(4)]
        first = draw(axis(COEFF_NAMES[4:]))
    elif shape == "generic":
        base = [draw(values) for _ in range(8)]
        first = draw(axis(COEFF_NAMES))
    elif shape == "boundary":
        base = BALANCED
        width = 10 ** draw(st.floats(min_value=-9.0, max_value=-0.3))
        half = draw(st.integers(1, 3))
        first = ("b1", 1.0 - width, 1.0 + width, 2 * half + 1)
    else:
        a0, b0, c0 = (2.0 ** draw(st.integers(-3, 3)) for _ in range(3))
        d0 = b0 * c0 / a0
        base = [a0, b0, c0, d0] + [draw(values) for _ in range(4)]
        h, below, above = d0 / 16, draw(st.integers(0, 4)), draw(st.integers(0, 4))
        first = ("d0", d0 - below * h, d0 + above * h, below + above + 1)
    axes = [first]
    if draw(st.booleans()):
        names = [n for n in COEFF_NAMES if n != first[0]]
        if shape == "singular":
            names = [n for n in names if n in COEFF_NAMES[4:]]
        axes.append(draw(axis(names)))
    return base, axes


def sweep_argv(base, axes, fmt="csv"):
    swept = {name for name, *_ in axes}
    argv = ["sweep"]
    for name, v in zip(COEFF_NAMES, base):
        if name not in swept:
            argv += [f"--{name}", repr(v)]
    for flag, (name, lo, hi, steps) in zip(("--axis1", "--axis2"), axes):
        argv += [flag, f"{name}:{lo!r}:{hi!r}:{steps}"]
    return argv + ["--format", fmt]


def sweep_output(base, axes, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(sweep_argv(base, axes, fmt)) == 0
    return out.getvalue()


def classify_row(cell):
    """classify's (rank, K or Q, rho or delta, kind text) of a dict of
    coefficients."""
    verdict = classify(PeriodicCoefficients(**cell), attach_cycle=False)
    w = verdict.witness
    pair = (w.k, w.rho) if verdict.rank == 1 else (w.q, w.delta)
    return (verdict.rank, *pair, verdict.kind.value)


@settings(max_examples=100)
@given(grid=grids())
# cells at 1.6, 3.1 and 4.7 times the tol_class band from the boundary
@example(grid=(BALANCED, [("b1", 1 - 6e-8, 1 + 6e-8, 7)]))
# beta*gamma lost against (alpha - delta)**2, where Q comes from the
# cancellation-free split; alpha == delta at b1 = 0.5
@example(grid=([1e-6, 2.0, 1.0, 1e-6, 1e-6, 1.0, 1.0, 1e-6], [("b1", 0.5, 2.0, 7)]))
def test_sweep_rows_equal_classify_bit_for_bit(grid):
    base, axes = grid
    rows = list(csv.reader(io.StringIO(sweep_output(base, axes, "csv"))))
    names = [name for name, *_ in axes]
    assert rows[0] == names + ["rank", "K_or_Q", "rho_or_delta", "kind"]
    cells = 1
    for _, _, _, steps in axes:
        cells *= steps
    assert len(rows) == cells + 1
    for row in rows[1:]:
        # 17 significant digits round-trip, so the parsed floats are the
        # very values the sweep computed
        cell = dict(zip(COEFF_NAMES, base)) | dict(
            zip(names, map(float, row[:len(names)])))
        rank, k_or_q, rho_or_delta, kind = row[len(names):]
        assert (int(rank), float(k_or_q), float(rho_or_delta), kind) == classify_row(cell)


@settings(max_examples=50)
@given(grid=grids())
@example(grid=(BALANCED, [("b1", 1 - 6e-8, 1 + 6e-8, 7)]))
def test_sweep_table_and_json_are_its_rows_rendered_from_floats(grid):
    """Every format prints the axis cells as float cells print: table and
    json equal the rows, axis values as plain floats and verdicts from
    classify, rendered by _serialize; json parses, and its axis fields
    are numbers equal to the grid's floats."""
    base, axes = grid
    names = tuple(name for name, *_ in axes)
    grid_values = [_parse_axis(f"{name}:{lo!r}:{hi!r}:{steps}", None)[1]
                   for name, lo, hi, steps in axes]
    combos = list(product(*grid_values))
    rows = [(*combo, *classify_row(dict(zip(COEFF_NAMES, base)) | dict(zip(names, combo))))
            for combo in combos]
    head = (("command", "sweep"), ("axes", [
        {"name": name, "values": values} for name, values in zip(names, grid_values)]))
    want = _Rows(names + ("rank", "K_or_Q", "rho_or_delta", "kind"), rows, head)
    for fmt in ("table", "json"):
        got = sweep_output(base, axes, fmt)
        assert got == "".join(_serialize(want, fmt))
    payload = json.loads(got)
    assert len(payload["rows"]) == len(combos)
    for row, combo in zip(payload["rows"], combos):
        # 17 significant digits print 1.0 as 1, which json reads as an int
        assert all(type(row[name]) in (int, float) for name in names)
        assert tuple(row[name] for name in names) == combo


BASE = ["--a0", "2", "--b0", "1", "--c0", "4", "--d0", "3",
        "--a1", "1", "--b1", "2", "--c1", "3", "--d1", "1"]


@pytest.mark.parametrize("extra, message", [
    (["--axis1", "d1:-1:2:7"], "coefficient d1 must be positive, got -1.0"),
    (["--axis1", "d1:0:2:7"], "coefficient d1 must be positive, got 0.0"),
    (["--axis1", "d1:nan:2:4"], "coefficient d1 must be finite, got nan"),
    # cell 0 is 1 itself, not 1 + 0*inf = nan; cell 1 is inf
    (["--axis1", "d1:1:inf:4"], "coefficient d1 must be finite, got inf"),
    # the bad value comes at the third cell, after valid ones
    (["--axis1", "c1:1:2:4", "--axis2", "d1:2:-1:3"],
     "coefficient d1 must be positive, got -1.0"),
    # both swept values are bad: the first in coefficient order is named
    (["--axis1", "d1:-1:2:4", "--axis2", "c1:-1:1:3"],
     "coefficient c1 must be positive, got -1.0"),
    # at a0 = 1e308, m12 = a0*b1 + a1*c0 is inf
    (["--axis1", "a0:1e300:1e308:2"], "matrix entries overflow float range"),
    # at b1 = 5e159, m12 is inf
    (["--axis1", "a0:1e150:1e160:5", "--axis2", "b1:1e150:1e160:3"],
     "matrix entries overflow float range"),
    (["--axis1", "d1:0.5:2:9", "--eps-rank", "1e300"],
     "rank-1 row ratios disagree beyond tolerance: 1.9 vs 1.625"),
    # an inf endpoint is named as inf, at either end
    (["--axis1", "a0:1:inf:3"], "coefficient a0 must be finite, got inf"),
    (["--axis1", "a0:inf:1:3"], "coefficient a0 must be finite, got inf"),
    # m12 is inf at a0 = 1e308, the last of five cells, whose i*(hi - lo)
    # overflows from cell 2 on
    (["--axis1", "a0:1e300:1e308:5"], "matrix entries overflow float range"),
    # the only bad value is the last of axis1 (3, 1, -1), met after eight
    # valid cells
    (["--axis1", "a1:3:-1:3", "--axis2", "c1:1:2:4"],
     "coefficient a1 must be positive, got -1.0"),
    # the only bad value is the last of axis2 (3, 1, -1), in every row
    (["--axis1", "c1:1:2:4", "--axis2", "d1:3:-1:3"],
     "coefficient d1 must be positive, got -1.0"),
    # a0 is 1e308, then 0: the first cell overflows before a cell with
    # the bad value comes, whether a0 is axis1 or axis2
    (["--axis1", "a0:1e308:0:2", "--axis2", "d1:1:2:2"],
     "matrix entries overflow float range"),
    (["--axis1", "c1:1:2:2", "--axis2", "a0:1e308:-1:2"],
     "matrix entries overflow float range"),
])
def test_error_grids_keep_their_exit_code_and_message(extra, message, capsys):
    assert main(["sweep", *BASE, *extra]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cells_between_finite_endpoints_stay_finite(capsys):
    """i*(hi - lo) overflows from cell 2 on: those cells divide first, and
    every cell lies between the endpoints."""
    assert main(["sweep", *BASE, "--c0", "1e-10", "--a1", "1e-10", "--b1", "1e-10",
                 "--axis1", "a0:1e300:1e308:5", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    cells = [float(row[0]) for row in rows]
    assert len(cells) == 5 and cells[0] == 1e300 and cells[-1] == 1e308
    assert cells == sorted(cells) and all(math.isfinite(float(v))
                                          for row in rows for v in row[:4])


def test_a_grid_of_products_past_float_range_gets_the_exact_verdicts(capsys):
    """m11*m22 and m12*m21 overflow on every cell, while every entry is
    finite: each cell is decided, as the floats' binary values decide it
    exactly."""
    assert main(["sweep", *BASE, "--axis1", "a0:1e150:1e160:5",
                 "--axis2", "d0:1e150:1e160:3", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    assert len(rows) == 15
    cell = [float(v) for v in BASE[1::2]]
    for a0, d0, *_, kind in rows:
        cell[0], cell[3] = float(a0), float(d0)
        exact = PeriodicCoefficients(*map(Fraction, cell))
        assert kind == classify(exact, EXACT, attach_cycle=False).kind.value


def test_a_bad_base_fails_even_where_it_is_swept(capsys):
    assert main(["sweep", "--all-ones", "--d1", "-5", "--axis1", "d1:1:2:3"]) == 3
    assert capsys.readouterr().err == (
        "error: coefficient d1 must be positive, got -5.0\n")
