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

Tier-1 runs a slice of 100 sets. Run as a script, it prints the tally of
a whole seed:

    PYTHONPATH=src python tests/test_oracle_sweep.py --seed 5 [--sets 500] [--wide]

and exits 1 on a traceback, on `nan` in any output, or on an exit code
outside {0, 3, 4}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import random
import re
import sys
from collections import Counter

import pytest

from ratsys import PeriodicCoefficients
from ratsys.cli import main

from conftest import DECIMAL, decimal_orbit

N_MAX = 200
RANGES = {"standard": (-200.0, 154.0), "wide": (-300.0, 300.0)}
NAMES = ("a0", "b0", "c0", "d0", "a1", "b1", "c1", "d1")
SUBNORMAL_ULP = 5e-324  # rounds to 2**-1074
LOG_MAX = math.log(sys.float_info.max)
# Sets judged beside each slice: wide seed 5's set 456 has a rank-1
# matrix whose row ratio K = m21/m11 is subnormal, so rho must not be
# formed from K.
PINNED = {"wide": [(2040825327594706.0, 1.0744827841997084e-25,
                    4.1959777179270787e+24, 1.275348522467242e-140,
                    9.004268672916565, 4.269140509860717e+273,
                    4.159958625602705e-174, 1.5581532094501296e-49)]}


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


def sweep(sets: list[tuple]) -> dict:
    """Exit codes and last stderr lines per command, sets with a missed
    row, and the outputs that hold nan."""
    exits, messages = Counter(), Counter()
    missed, nans = [], []
    for i, values in enumerate(sets):
        coefficients = [f"--{k}={v!r}" for k, v in zip(NAMES, values)]
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
    return {"exits": exits, "messages": messages, "missed": missed, "nans": nans}


@pytest.mark.parametrize("variant, count", [("standard", 80), ("wide", 20)])
def test_slice_has_no_traceback_nan_or_miss(variant, count):
    tally = sweep(draw_sets(5, count, variant) + PINNED.get(variant, []))
    assert {code for _, code in tally["exits"]} <= {0, 3, 4}, tally["exits"]
    assert not tally["nans"]
    # the whole of seed 5 misses on 8 sets, each with lambda2/lambda1
    # within 2.1e-10 of -1, where the closed form keeps only the digits
    # of 1 + lambda2/lambda1; none is in this slice
    assert not tally["missed"]


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
    print(f"  closed sets missing the oracle: {len(tally['missed'])} {tally['missed']}")
    print(f"  outputs with nan: {len(tally['nans'])} {tally['nans']}")
    bad_codes = {code for _, code in tally["exits"]} - {0, 3, 4}
    return 1 if bad_codes or tally["nans"] else 0


if __name__ == "__main__":
    sys.exit(_main())
