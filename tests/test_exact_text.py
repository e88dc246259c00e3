"""Exact orbits as text: the decimal rows of exact_orbit_text and of
`simulate --mode exact` against exact_text of the library's Fraction states."""

import contextlib
import decimal
import functools
import io
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ratsys import ArithmeticMode, BitGrowthError, PeriodicCoefficients, simulate
from ratsys import cli, core
from ratsys.core import COEFF_NAMES, exact_orbit_text
from ratsys.numeric import exact_text

from test_exact_orbit import coefficient_sets, exact_orbit, fraction_orbit, starts

EXACT = ArithmeticMode.EXACT_RATIONAL
FORMATS = ("table", "csv", "json")
WIDE = PeriodicCoefficients(1, 1, 1, 3, 1, 2, 3, 1)  # states pass 4300 digits


def argv(params, init, n_max, fmt):
    coeffs = [a for name in COEFF_NAMES
              for a in (f"--{name}", str(Fraction(getattr(params, name))))]
    return (["simulate", "--mode", "exact", *coeffs, "--x0", str(init[0]),
             "--y0", str(init[1]), "-n", str(n_max), "--format", fmt])


def cli_output(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


def library_output(params, init, n_max, fmt):
    """What the command printed when it rendered simulate's Fraction
    states through exact_text."""
    states = simulate(params, init, n_max, EXACT).states
    rows = cli._Rows(
        ("n", "x", "y"),
        [(n, x, y) for n, (x, y) in enumerate(states)],
        (("command", "simulate"), ("mode", "exact"), ("n_max", n_max)),
        "points",
    )
    return "".join(cli._serialize(rows, fmt))


def assert_same_output(params, init, n_max):
    want_rows = [tuple(map(exact_text, s))
                 for s in simulate(params, init, n_max, EXACT).states]
    assert list(exact_orbit_text(params, init, n_max)) == want_rows
    for fmt in FORMATS:
        code, out, err = cli_output(argv(params, init, n_max, fmt))
        assert (code, err) == (0, "")
        assert out == library_output(params, init, n_max, fmt)


@settings(max_examples=60, deadline=None)
@given(params=coefficient_sets(), init=starts(), n_max=st.integers(0, 40))
def test_cli_prints_exact_text_of_the_library_states(params, init, n_max):
    assert_same_output(params, init, n_max)


@pytest.mark.parametrize("init", [(1, 1), (1, Fraction(1, 2)), (3, 5),
                                  (Fraction(6, 5), 4)])
def test_states_with_denominator_one(init):
    ones = PeriodicCoefficients(*[Fraction(1)] * 8)
    rows = list(exact_orbit_text(ones, init, 6))
    assert any("/" not in x or "/" not in y for x, y in rows)
    assert_same_output(ones, init, 6)
    assert_same_output(WIDE, init, 12)


def test_zero_steps():
    assert_same_output(WIDE, (Fraction(2, 3), 5), 0)


def test_states_past_the_digit_limit():
    rows = list(exact_orbit_text(WIDE, (1, 1), 150))
    assert max(len(x) for x, _ in rows) > 4300
    assert_same_output(WIDE, (1, 1), 150)


def text_growth(params, init, n_max, bit_cap):
    try:
        return list(exact_orbit_text(params, init, n_max, bit_cap))
    except BitGrowthError as exc:
        return ("BitGrowthError", exc.index, exc.bits, exc.cap)


@settings(deadline=None)
@given(params=coefficient_sets(), init=starts(), bit_cap=st.integers(8, 400))
def test_bit_growth_error_matches_simulate(params, init, bit_cap):
    want = exact_orbit(params, init, 60, bit_cap)
    got = text_growth(params, init, 60, bit_cap)
    if want[0] == "BitGrowthError":
        assert got == want
    else:
        assert got == [tuple(map(exact_text, s)) for s in want]


# the first set takes its coefficients' denominators out of F (fl > 1)
@pytest.mark.parametrize("params", [
    PeriodicCoefficients(Fraction(1, 3), Fraction(1, 3), Fraction(1, 4), 1,
                         Fraction(3, 2), 2, 4, 1),
    WIDE,
])
def test_every_bit_cap_stops_at_the_state_past_it(params):
    init = (Fraction(5, 6), Fraction(7, 4))
    widths = {max(v.numerator.bit_length(), v.denominator.bit_length())
              for state in fraction_orbit(params, init, 30) for v in state}
    for cap in range(1, max(widths) + 2):
        want = fraction_orbit(params, init, 30, cap)
        assert exact_orbit(params, init, 30, cap) == want
        if want[0] != "BitGrowthError":
            want = [tuple(map(exact_text, s)) for s in want]
        assert text_growth(params, init, 30, cap) == want


def test_cli_exits_4_on_bit_growth(monkeypatch):
    capped = functools.partial(exact_orbit_text, bit_cap=4096)
    monkeypatch.setattr(cli, "exact_orbit_text", capped)
    with pytest.raises(BitGrowthError) as info:
        simulate(WIDE, (1, 1), 200, EXACT, bit_cap=4096)
    for fmt in FORMATS:
        code, out, err = cli_output(argv(WIDE, (1, 1), 200, fmt))
        assert (code, out) == (4, "")
        assert err == f"error: {info.value}\n"
        assert "Traceback" not in err


def test_thread_decimal_context_is_left_alone():
    with decimal.localcontext() as ctx:
        ctx.prec = 5
        ctx.traps[decimal.Inexact] = True
        ctx.flags[decimal.Clamped] = True
        before = (ctx.prec, ctx.Emax, dict(ctx.traps), dict(ctx.flags))
        code, out, _ = cli_output(argv(WIDE, (1, 1), 150, "csv"))
        after = decimal.getcontext()
        assert after is ctx
        assert (after.prec, after.Emax, dict(after.traps),
                dict(after.flags)) == before
    assert code == 0
    assert out == library_output(WIDE, (1, 1), 150, "csv")


def test_library_simulate_does_no_decimal_arithmetic(monkeypatch):
    monkeypatch.setattr(core, "_EXACT_DECIMAL", None)
    orbit = simulate(WIDE, (1, 1), 60, EXACT)
    assert orbit.states == tuple(fraction_orbit(WIDE, (1, 1), 60))
    with pytest.raises(AttributeError):
        list(exact_orbit_text(WIDE, (1, 1), 2))
