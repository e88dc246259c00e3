"""A seeded wide-range sweep of the command line, judged by a 34-digit
decimal iteration.

Each set draws its eight coefficients as 10**U(-200, 154), or as
10**U(-300, 300) in the wide variant, and runs `closed -n 200`,
`compare -n 200` and `classify` from the start (1, 1) through cli.main.
The sweep tallies exit codes and the last stderr line of each command,
and judges every row of an exit-0 `closed` against decimal_orbit's
iteration of the same floats:

- a finite row matches the oracle relative in log within 1e-9, or lies
  within two subnormal ulps of the oracle's decimal value rounded to
  float, which is what a row at or near 0.0 can meet. The subnormal rule
  takes the decimal value, not exp of the oracle's float log: near
  1e-308 that exp is off by hundreds of subnormal ulps;
- a row saturated to inf lies above the largest float.

It judges the verdict of every exit-0 `classify` against the exact
verdict of the floats' binary values: the exact rho against 1 where the
exact composed matrix has rank 1, the sign of delta_crit where it has
rank 2, both from conftest.fraction_verdict's plain Fraction formulas,
so that the sweep does not judge ratsys's integer decision by itself.
A verdict that names a parity must match the exact sign. A boundary
verdict needs an exact sign of 0, or |g - 1| <= 2*tol_class, where g is
the exact rho, or 1 + delta/scale taken in 50-digit decimals.

Every command gets its coefficients as `--a0 <v>`, the plain argv that
cli.main reads without argparse, as the README examples do.

Tier-1 runs a slice of 100 sets. Run as a script, it prints the tally of
a whole seed:

    PYTHONPATH=src python tests/test_oracle_sweep.py --seed 5 [--sets 500] [--wide]

and exits 1 on a traceback, on `nan` in any output, on an exit code
outside {0, 3, 4}, on a wrong verdict, or on a `closed` that misses the
oracle on a set outside KNOWN_MISSES of its seed and variant.
"""

from __future__ import annotations

import argparse
import contextlib
import decimal
import io
import math
import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest

from ratsys import PeriodicCoefficients
from ratsys.cli import main

from conftest import DECIMAL, decimal_orbit, fraction_verdict

N_MAX = 200
RANGES = {"standard": (-200.0, 154.0), "wide": (-300.0, 300.0)}
NAMES = ("a0", "b0", "c0", "d0", "a1", "b1", "c1", "d1")
SUBNORMAL_ULP = 5e-324  # rounds to 2**-1074
LOG_MAX = math.log(sys.float_info.max)
TOL_CLASS = 1e-9  # classify's default band
SIGNS = {"VanishEvenBlowOdd": -1, "BlowEvenVanishOdd": 1}
# Sets judged beside each slice, one per way a float verdict used to go
# wrong or be refused where exact mode decides.
PINNED = {
    "standard": [
        # rank 1 with rho = 1/5: K*mu overflows, so rho was inf
        (1.0, 1.0, 1.0, 1.0, 0.1, 0.1, 1.0, 1e200),
        # seed 5's set 5: the same in a drawn set
        (2.424118589965616e+116, 5.9056790386351304e-95, 7.265021296637259e-73,
         5.6033044998093446e-142, 3.788575770116737e-149, 1.1467230308473386e-177,
         4.798678700831158e-94, 31691229048088.504),
        # seed 5's set 183: rank 2, Q = m12/lead1 underflows
        (1.2064226107492176e-184, 6.775375122081661e-24, 5.849871031286832e-104,
         1.6765340783020918e-14, 1.393502811484423e-184, 2.3746505435525196e-121,
         1.3248081026535818e+150, 9.311540546856632e+78),
        # seed 5's set 188: rank 2, m11*m22 and m12*m21 underflow to 0, so
        # the unscaled rank test said rank 1
        (9.546851187450316e-101, 8.06586513598597e-188, 1.0627907539068409e-108,
         9.753723350213311e-39, 3.441451570415161e-158, 3.4272255020168205e-172,
         3.4934214851281973e-113, 2.109367673554793e-70),
    ],
    "wide": [
        # wide seed 5's set 456: rank 1 with a subnormal row ratio
        # K = m21/m11, so rho must not be formed from K
        (2040825327594706.0, 1.0744827841997084e-25, 4.1959777179270787e+24,
         1.275348522467242e-140, 9.004268672916565, 4.269140509860717e+273,
         4.159958625602705e-174, 1.5581532094501296e-49),
        # wide seed 11's set 362: m21 and m22 underflow to 0, so the float
        # matrix has rank 1 and K = 0, while the exact one has rank 2; the
        # set is refused, where rho = 0 used to give the wrong verdict
        (3.4272708202041583e-233, 1.0157635735551282e-128, 4.007566178695866e-186,
         1.9588013103554859e-233, 2.1451643297475995e-180, 1.6488839759164522e+84,
         7.296144952476293e-200, 1.5260600940123073e-199),
    ],
}


# The sets of seeds 5 and 11 whose exit-0 `closed` misses the oracle, each
# with lambda2/lambda1 within about 2e-10 of -1, where the closed form
# keeps only the digits of 1 + lambda2/lambda1. Any other seed or variant
# is expected to miss on none.
KNOWN_MISSES = {
    (5, "standard"): {121, 129, 194, 238, 264, 366, 375, 392, 421},
    (11, "standard"): {60, 118, 135, 195, 354, 400, 420, 459},
    (11, "wide"): {361},
}


def draw_sets(seed: int, count: int, variant: str = "standard") -> list[tuple]:
    """count coefficient sets of 10**U(lo, hi), from one seeded stream."""
    lo, hi = RANGES[variant]
    rng = random.Random(seed)
    return [tuple(10 ** rng.uniform(lo, hi) for _ in NAMES) for _ in range(count)]


def run(argv: list[str]) -> tuple[object, str, str]:
    """(exit code, stdout, stderr) of cli.main; the exit code is
    "traceback" where main raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a traceback is the finding
            code = "traceback"
            print(f"{type(exc).__name__}: {exc}", file=err)
    return code, out.getvalue(), err.getvalue()


def misses(values: tuple, csv_text: str) -> int:
    """Rows of a `closed --format csv` output that miss the oracle."""
    rows = [line.split(",") for line in csv_text.splitlines()[1:]]
    truth = decimal_orbit(PeriodicCoefficients(*values), (1.0, 1.0),
                          range(N_MAX + 1))
    bad = 0
    for n, *cells in rows:
        for cell, value_t in zip(cells, truth[int(n)]):
            got, log_t = float(cell), float(value_t.ln(DECIMAL))
            if got == math.inf:
                bad += not log_t > LOG_MAX
            elif abs(got - float(value_t)) > 2 * SUBNORMAL_ULP:
                bad += not (got > 0 and abs(math.log(got) - log_t)
                            <= 1e-9 * max(1.0, abs(log_t)))
    return bad


def exact_g(values: tuple) -> tuple[int, object]:
    """(sign of g - 1, g) of the floats' binary values, exactly: g is
    the exact rho in rank 1 and 1 + delta/scale in rank 2, there as a
    50-digit Decimal."""
    rank, (m11, m12, m21, m22), sign, terms = fraction_verdict(values)
    if rank == 1:
        return sign, terms[2]
    with decimal.localcontext(decimal.Context(
            prec=50, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)):
        def dec(f: Fraction) -> decimal.Decimal:
            return decimal.Decimal(f.numerator) / f.denominator
        a0, b0, c0, d0 = map(dec, map(Fraction, values[:4]))
        root = dec((m11 - m22) ** 2 + 4 * m12 * m21).sqrt()
        d = dec(m22 - m11)
        # Q = m12/(lambda1 - m11), in the form that does not cancel
        q = 2 * dec(m12) / (d + root) if d >= 0 else (root - d) / (2 * dec(m21))
        g = (dec(m11 + m22) + root) / 2 * q / ((b0 * q + a0) * (d0 * q + c0))
    return sign, g


def wrong_verdict(values: tuple, kind: str) -> bool:
    """True where a float verdict disagrees with exact_g: a parity with
    another sign, a boundary with g farther than 2*TOL_CLASS from 1."""
    sign, g = exact_g(values)
    if kind in SIGNS:
        return SIGNS[kind] != sign
    return sign != 0 and abs(g - 1) > 2 * TOL_CLASS


def sweep(sets: list[tuple]) -> dict:
    """Exit codes and last stderr lines per command, sets with a missed
    row or a wrong verdict, and the outputs that hold nan."""
    exits, messages = Counter(), Counter()
    missed, wrong, nans = [], [], []
    for i, values in enumerate(sets):
        coefficients = [arg for k, v in zip(NAMES, values) for arg in (f"--{k}", repr(v))]
        for command in ("closed", "compare", "classify"):
            argv = [command, *coefficients]
            if command != "classify":
                argv += ["-n", str(N_MAX)]
            if command == "closed":
                argv += ["--format", "csv"]
            code, out, err = run(argv)
            exits[command, code] += 1
            if err:
                last = err.splitlines()[-1]
                messages[command, re.sub(r"(?<![\w-])-?\d[\w.+-]*", "#", last)] += 1
            if "nan" in out:
                nans.append((i, command))
            if command == "closed" and code == 0 and misses(values, out):
                missed.append(i)
            if command == "classify" and code == 0 and wrong_verdict(
                    values, re.search(r"^kind: (\w+)$", out, re.M)[1]):
                wrong.append(i)
    return {"exits": exits, "messages": messages, "missed": missed,
            "wrong": wrong, "nans": nans}


@pytest.mark.parametrize("variant, count", [("standard", 80), ("wide", 20)])
def test_slice_has_no_traceback_nan_or_miss(variant, count):
    tally = sweep(draw_sets(5, count, variant) + PINNED.get(variant, []))
    assert {code for _, code in tally["exits"]} <= {0, 3, 4}, tally["exits"]
    assert not tally["nans"]
    # none of seed 5's KNOWN_MISSES is in this slice
    assert not tally["missed"]
    assert not tally["wrong"]


def _main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--sets", type=int, default=500)
    parser.add_argument("--wide", action="store_true",
                        help="coefficients 10**U(-300, 300)")
    args = parser.parse_args()
    variant = "wide" if args.wide else "standard"
    tally = sweep(draw_sets(args.seed, args.sets, variant))
    print(f"seed {args.seed}, {args.sets} {variant} sets")
    for (command, code), count in sorted(tally["exits"].items(), key=str):
        print(f"  {command} exit {code}: {count}")
    for (command, line), count in tally["messages"].most_common():
        print(f"  {count:5d}  {command}: {line}")
    unknown = sorted(set(tally["missed"]) - KNOWN_MISSES.get((args.seed, variant), set()))
    print(f"  closed sets missing the oracle: {len(tally['missed'])} {tally['missed']}, "
          f"not known: {unknown}")
    print(f"  classify verdicts the exact one refutes: {len(tally['wrong'])} "
          f"{tally['wrong']}")
    print(f"  outputs with nan: {len(tally['nans'])} {tally['nans']}")
    bad_codes = {code for _, code in tally["exits"]} - {0, 3, 4}
    return 1 if bad_codes or tally["nans"] or tally["wrong"] or unknown else 0


if __name__ == "__main__":
    sys.exit(_main())
