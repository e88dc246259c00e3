"""The three workloads: seeded operations on ratsys and their output checks.

A workload is a round: a fixed list of operations built from one seed
before timing starts. Every operation is a closed call into ratsys, either
``ratsys.cli.main(argv)`` with the argv a user would type or a library
function the README documents, looked up on the package at call time so
that tracing wrappers take effect. Each operation carries a check that
compares its output with the reference computations in reference.py, or
with a property the method must have, and returns the number of work
items the operation completed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import inputs
import reference as ref

NAMES = ("a0", "b0", "c0", "d0", "a1", "b1", "c1", "d1")
EPS_RANK = 1e-12  # ratsys default --eps-rank
TOL_CLASS = 1e-9  # ratsys default --tol-class
VALUE_REL = 1e-6  # witness values against the reference
ORBIT_REL = 1e-9  # float states against the reference log orbit (in log)
CYCLE_REL = 1e-7  # limit cycle against settled reference iteration
DIGIT_BITS = 14_000  # exact states above ~4300 decimal digits cannot print

POSITIVE = "BlowEvenVanishOdd"
NEGATIVE = "VanishEvenBlowOdd"
NEUTRAL = {1: "ExactTwoPeriodic", 2: "ConvergesToTwoPeriodic"}

# The float closed forms raise OverflowError from math.exp past float range
# instead of saturating to inf/0.0 as the README promises. These operations
# hit that fault on fixed inputs and are counted as failed until it is mended.
FAULT_RANK2 = (2.0, 1.0, 4.0, 3.0, 1.0, 2.0, 3.0, 1.0)
FAULT_RANK1 = (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0)
FAULT_CLOSED_N = 10_000
FAULT_POINT_N = 6_000
KNOWN_FAULT = ("float closed forms raise OverflowError past float range "
               "instead of saturating (rank2_solution_sequence, rank1_solution)")


class CheckFailed(Exception):
    """An operation's output disagrees with the reference."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], int]
    known_fault: bool = False


@dataclass
class Workload:
    ops: list[Op]
    digest: str


# ------------------------------------------------------------ argv helpers


def text(v) -> str:
    """How a user writes a value: repr round-trips floats, p/q for rationals."""
    return repr(v) if isinstance(v, float) else str(v)


def flags(p, skip=()) -> list[str]:
    out = []
    for name, v in zip(NAMES, p):
        if name not in skip:
            out += [f"--{name}", text(v)]
    return out


def init_flags(init) -> list[str]:
    return ["--x0", text(init[0]), "--y0", text(init[1])]


def cli_op(rs, argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = rs.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
        return rc, out.getvalue()
    return run


def ok_output(result) -> str:
    rc, out = result
    require(rc == 0, f"exit code {rc}")
    return out


def kv(out: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in out.splitlines())


# ------------------------------------------------------------ verdict checks


def sign_kinds(rank: int, margin: float, tol: float) -> set[str]:
    """Verdicts allowed for a signed margin: inside tol/2 only the neutral
    one, beyond 2*tol only the signed one, either in between."""
    signed = POSITIVE if margin > 0 else NEGATIVE
    if abs(margin) <= tol / 2:
        return {NEUTRAL[rank]}
    if abs(margin) >= tol * 2:
        return {signed}
    return {signed, NEUTRAL[rank]}


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_float_verdict(p, rank: int, kind: str, k_or_q: float,
                        rho_or_delta: float) -> None:
    """Rank, verdict and witness of a float classification against the
    reference; near the rank tolerance any verdict passes."""
    ratio = ref.singular_ratio(p)
    if EPS_RANK / 10 < ratio < EPS_RANK * 10:
        return
    want_rank = 1 if ratio <= EPS_RANK / 10 else 2
    require(rank == want_rank, f"rank {rank}, reference {want_rank}")
    if rank == 1:
        c = ref.rank1_constants(tuple(float(v) for v in p))
        require(close(k_or_q, c.k, VALUE_REL), f"K {k_or_q} vs {c.k}")
        require(close(rho_or_delta, c.rho, VALUE_REL),
                f"rho {rho_or_delta} vs {c.rho}")
        allowed = sign_kinds(1, c.rho - 1.0, TOL_CLASS)
    else:
        sp = ref.spectrum(p)
        require(close(k_or_q, sp.q, VALUE_REL), f"Q {k_or_q} vs {sp.q}")
        require(abs(rho_or_delta - sp.delta) <= VALUE_REL * sp.scale,
                f"delta {rho_or_delta} vs {sp.delta}")
        allowed = sign_kinds(2, sp.delta / sp.scale, TOL_CLASS)
    require(kind in allowed, f"verdict {kind}, reference allows {allowed}")


def exact_verdict(p) -> tuple[int, str]:
    """Rank and verdict of a rational set, decided exactly (rank 1) or by the
    high-precision sign of delta (rank 2)."""
    if ref.det(ref.composed(p)) == 0:
        rho = ref.rank1_constants(p).rho
        sign = (rho > 1) - (rho < 1)
        rank = 1
    else:
        sign = ref.delta_sign(p)
        rank = 2
    return rank, (NEUTRAL[rank] if sign == 0 else
                  POSITIVE if sign > 0 else NEGATIVE)


def check_cycle(p, init, cycle: dict | None) -> None:
    require(cycle is not None, "no limit cycle attached")
    values = tuple(float(cycle[k]) for k in ("x_even", "x_odd", "y_even", "y_odd"))
    require(ref.cycle_defect(p, values) <= 1e-8,
            f"cycle misses the fixed-point equations: {values}")
    settled = ref.settled_cycle(p, init)
    require(settled is not None, "reference iteration did not settle")
    for got, want in zip(values, settled):
        require(close(got, want, CYCLE_REL), f"cycle {values} vs {settled}")


def classify_check(p, init, exact: bool):
    def check(result) -> int:
        out = json.loads(ok_output(result))
        w = out["witness"]
        if exact:
            rank, kind = exact_verdict(p)
            require(out["rank"] == rank and out["kind"] == kind,
                    f"{out['rank']}/{out['kind']}, reference {rank}/{kind}")
        elif out["rank"] == 1:
            check_float_verdict(p, 1, out["kind"], w["K"], w["rho"])
        else:
            check_float_verdict(p, 2, out["kind"], w["Q"], w["delta"])
        if out["kind"] == NEUTRAL[2]:
            check_cycle(p, init, out["cycle"])
        else:
            require(out["cycle"] is None, "cycle attached off the boundary")
        return 1
    return check


def classify_op(rs, p, init, exact: bool = False) -> Op:
    argv = ["classify"] + flags(p) + init_flags(init) + ["--format", "json"]
    if exact:
        argv += ["--mode", "exact"]
    mode = "exact" if exact else "float"
    return Op(f"classify {mode}", cli_op(rs, argv),
              classify_check(p, init, exact))


# ------------------------------------------------------------ orbit checks


def compare_check(n: int, exact: bool):
    def check(result) -> int:
        rep = kv(ok_output(result))
        require(rep["n_max"] == str(n), f"n_max {rep['n_max']}")
        require(rep["first_divergence_index"] == "none",
                f"diverges at {rep['first_divergence_index']}")
        for key in ("max_rel_error_x", "max_rel_error_y"):
            if exact:
                require(rep[key] == "0", f"exact {key} = {rep[key]}")
            else:
                require(float(rep[key]) <= 1e-8, f"{key} = {rep[key]}")
        return n + 1
    return check


def compare_op(rs, p, init, n: int, exact: bool = False) -> Op:
    argv = ["compare"] + flags(p) + init_flags(init) + ["-n", str(n)]
    if exact:
        argv += ["--mode", "exact"]
    return Op(f"compare {'exact' if exact else 'float'} -n {n}",
              cli_op(rs, argv), compare_check(n, exact))


def closed_check(n: int, xs, ys):
    def check(result) -> int:
        lines = ok_output(result).splitlines()
        require(lines[0].split() == ["n", "x", "y"], "table header")
        require(len(lines) == n + 2, f"{len(lines) - 1} rows for n = {n}")
        for i, line in enumerate(lines[1:]):
            idx, x, y = line.split()
            require(int(idx) == i, f"row {i} has index {idx}")
            require(ref.float_matches_log(float(x), xs[i], ORBIT_REL)
                    and ref.float_matches_log(float(y), ys[i], ORBIT_REL),
                    f"closed form at {i}: ({x}, {y}) vs logs "
                    f"({xs[i]}, {ys[i]})")
        return n + 1
    return check


def closed_op(rs, p, init, n: int, xs, ys, known_fault=False) -> Op:
    argv = ["closed"] + flags(p) + init_flags(init) + ["-n", str(n)]
    return Op(f"closed -n {n}", cli_op(rs, argv), closed_check(n, xs, ys),
              known_fault)


def point_op(rs, rank: int, p, init, n: int, xs, ys, known_fault=False) -> Op:
    """Library point query rank1_solution / rank2_solution at index n."""
    name = f"rank{rank}_solution"
    params = rs.PeriodicCoefficients(*p)

    def run():
        return getattr(rs, name)(params, init, n)

    def check(state) -> int:
        require(ref.float_matches_log(state[0], xs[n], ORBIT_REL)
                and ref.float_matches_log(state[1], ys[n], ORBIT_REL),
                f"{name}({n}) = {state} vs logs ({xs[n]}, {ys[n]})")
        return 1

    return Op(f"{name} n={n}", run, check, known_fault)


def exact_point_op(rs, p, init, n: int) -> Op:
    """Exact rank2_solution at index n, against exact one-step iteration."""
    params = rs.PeriodicCoefficients(*p)
    mode = rs.ArithmeticMode.EXACT_RATIONAL
    quads = (p[:4], p[4:])
    want = (Fraction(init[0]), Fraction(init[1]))
    for i in range(n):
        a, b, c, d = quads[i % 2]
        want = (a / want[0] + b / want[1], c / want[0] + d / want[1])

    def run():
        return rs.rank2_solution(params, init, n, mode)

    def check(state) -> int:
        require(tuple(state) == want, f"exact rank2_solution({n}) differs")
        return 1

    return Op(f"rank2_solution exact n={n}", run, check)


def simulate_exact_op(rs, p, init, n: int) -> Op:
    argv = (["simulate"] + flags(p) + init_flags(init)
            + ["-n", str(n), "--mode", "exact", "--format", "csv"])

    def check(result) -> int:
        rows = list(csv.reader(io.StringIO(ok_output(result))))
        require(rows[0] == ["n", "x", "y"], "csv header")
        require(len(rows) == n + 2, f"{len(rows) - 1} rows for n = {n}")
        states = [(Fraction(x), Fraction(y)) for _, x, y in rows[1:]]
        require(states[0] == (Fraction(init[0]), Fraction(init[1])),
                "initial state")
        broken = ref.first_recurrence_break(p, states)
        require(broken is None, f"recurrence fails at step {broken}")
        return n + 1

    return Op(f"simulate exact -n {n}", cli_op(rs, argv), check)


# ------------------------------------------------------------ workloads


def classify_sweep(rs, rng) -> Workload:
    """Sweeps over 400-cell grids on three kinds of base, and classify with
    the limit cycle attached on boundary sets with contraction rates
    |lambda2/lambda1| spread over [0.02, 0.95]."""
    ops, made = [], []

    def sweep(p, axes):
        argv = ["sweep"] + flags(p, skip=[a[0] for a in axes])
        for flag, (name, lo, hi, steps) in zip(("--axis1", "--axis2"), axes):
            argv += [flag, f"{name}:{text(lo)}:{text(hi)}:{steps}"]
        argv += ["--format", "csv"]
        made.append(argv)
        ops.append(Op(f"sweep {axes[0][0]}x{axes[1][0]}", cli_op(rs, argv),
                      sweep_check(p, axes)))

    def around(p, name, lo_f, hi_f, steps):
        v = p[NAMES.index(name)]
        return (name, v * lo_f, v * hi_f, steps)

    for _ in range(4):
        p = inputs.singular_family(rng)
        n1, n2 = rng.sample(NAMES[4:], 2)
        sweep(p, [around(p, n1, 0.5, 2.0, 20), around(p, n2, 0.5, 2.0, 20)])
    for _ in range(4):
        p = inputs.generic(rng)
        n1, n2 = rng.sample(NAMES, 2)
        sweep(p, [around(p, n1, 0.5, 2.0, 20), around(p, n2, 0.5, 2.0, 20)])
    for _ in range(2):
        # axis1 is centred on the b1 where delta changes sign
        p = inputs.boundary_float(rng, 0.05, 0.9)
        n2 = rng.choice([n for n in NAMES if n != "b1"])
        sweep(p, [around(p, "b1", 0.8, 1.2, 21), around(p, n2, 0.9, 1.1, 19)])
    for _ in range(2):
        # axis1 steps through d0 = b0*c0/a0 exactly, on dyadic grid values
        even = inputs.dyadic_singular_even(rng)
        p = even + tuple(inputs.log_uniform(rng, 0.1, 10.0) for _ in range(4))
        h = 2.0 ** math.floor(math.log2(even[3] / 16))
        lo = even[3] - rng.randint(4, 10) * h
        n2 = rng.choice(NAMES[4:])
        sweep(p, [("d0", lo, lo + 20 * h, 21), around(p, n2, 0.5, 2.0, 19)])

    # each boundary set is classified from four starts, which give four cycles
    boundary = [inputs.boundary_float(rng, lo, hi)
                for lo, hi in inputs.stratified(rng, 0.02, 0.95, 24)]
    for p in boundary * 4:
        init = (inputs.log_uniform(rng, 0.5, 2.0), inputs.log_uniform(rng, 0.5, 2.0))
        ops.append(classify_op(rs, p, init))
        made.append((p, init))

    # One small call into each remaining layer, so that no traced layer
    # is empty on this workload: iteration, both closed forms and the exact
    # sign decision.
    rank1_base, rank2_base = inputs.singular_family(rng), inputs.generic(rng)
    ops.append(compare_op(rs, rank1_base, (1.0, 1.0), 40))
    ops.append(compare_op(rs, rank2_base, (1.0, 1.0), 40))
    xs, ys = ref.log_orbit(rank2_base, (1.0, 1.0), 40)
    ops.append(point_op(rs, 2, rank2_base, (1.0, 1.0), 40, xs, ys))
    exact_p = inputs.exact_boundary(rng, 2)
    ops.append(classify_op(rs, exact_p, (1, 1), exact=True))
    made += [rank1_base, rank2_base, exact_p]
    return Workload(ops, inputs.digest(made))


def sweep_check(p, axes):
    (n1, lo1, hi1, s1), (n2, lo2, hi2, s2) = axes
    i1, i2 = NAMES.index(n1), NAMES.index(n2)

    def check(result) -> int:
        rows = list(csv.reader(io.StringIO(ok_output(result))))
        require(rows[0] == [n1, n2, "rank", "K_or_Q", "rho_or_delta", "kind"],
                f"csv header {rows[0]}")
        require(len(rows) == s1 * s2 + 1, f"{len(rows) - 1} cells")
        cell = list(p)
        for j, row in enumerate(rows[1:]):
            v1, v2 = float(row[0]), float(row[1])
            g1 = lo1 + (j // s2) * (hi1 - lo1) / (s1 - 1)
            g2 = lo2 + (j % s2) * (hi2 - lo2) / (s2 - 1)
            require(close(v1, g1, 1e-12) and close(v2, g2, 1e-12),
                    f"cell {j} at ({v1}, {v2}), grid ({g1}, {g2})")
            cell[i1], cell[i2] = v1, v2
            check_float_verdict(tuple(cell), int(row[2]), row[5],
                                float(row[3]), float(row[4]))
        return s1 * s2
    return check


def orbit_horizon(rs, rng) -> Workload:
    """Float compare and closed from a few hundred steps up to each orbit's
    float-range limit, plus single-index point queries, on rank-1 and
    rank-2 sets; and the operations that hit the overflow fault."""
    ops, made = [], []
    # Limits, short horizons and query indices sit in narrow slots per rank,
    # so every seed gives the same mix of sizes and only the values change.
    for i in range(16):
        rank, j = 1 + i % 2, i // 2
        init = (inputs.log_uniform(rng, 0.5, 2.0), inputs.log_uniform(rng, 0.5, 2.0))
        n_lo = 1000 + 125 * j
        p, limit, xs, ys = inputs.horizon_instance(rng, rank, init, n_lo, n_lo + 20)
        short = 200 + 25 * j + rng.randrange(5)
        points = [int(limit * (q + (j + 0.5) / 8) / 4) for q in range(3)]
        ops += [
            compare_op(rs, p, init, short),
            compare_op(rs, p, init, limit),
            closed_op(rs, p, init, limit, xs, ys),
        ] + [point_op(rs, rank, p, init, n, xs, ys) for n in points + [limit]]
        made.append((p, init, short, points, limit))

    for rank, p in ((2, FAULT_RANK2), (1, FAULT_RANK1)):
        xs, ys = ref.log_orbit(p, (1.0, 1.0), FAULT_CLOSED_N)
        ops.append(closed_op(rs, p, (1.0, 1.0), FAULT_CLOSED_N, xs, ys,
                             known_fault=True))
        ops.append(point_op(rs, rank, p, (1.0, 1.0), FAULT_POINT_N, xs, ys,
                            known_fault=True))

    # One small call into each classification layer, so that no traced
    # layer is empty on this workload.
    r1, r2 = made[0][0], made[1][0]
    boundary = inputs.boundary_float(rng, 0.1, 0.5)
    ops += [classify_op(rs, r1, (1.0, 1.0)), classify_op(rs, r2, (1.0, 1.0)),
            classify_op(rs, boundary, (1.0, 1.0)),
            classify_op(rs, tuple(Fraction(text(v)) for v in r2), (1, 1),
                        exact=True)]
    made.append(boundary)
    return Workload(ops, inputs.digest(made))


def exact_rational(rs, rng) -> Workload:
    """--mode exact simulate, compare and classify on rational sets."""
    ops, made = [], []

    def rational_init():
        return (Fraction(rng.randint(1, 5), rng.randint(1, 5)),
                Fraction(rng.randint(1, 5), rng.randint(1, 5)))

    # Exact cost follows the bits of the states, so each slot fixes a bit
    # budget and the horizon is the step where the reference orbit reaches
    # it; rank-1 sets grow linearly and keep fixed horizons. Every seed then
    # gives the same mix of costs.
    budgets = range(4000, 14001, 2000)
    for make in (inputs.random_rational, inputs.square_disc_rational):
        for bits in budgets:
            p, init = make(rng), rational_init()
            n = ref.exact_bits_limit(p, init, 200, bits)
            ops.append(simulate_exact_op(rs, p, init, n))
            made.append((p, init, n))
    for n in range(100, 201, 20):
        p, init = inputs.rank1_rational(rng), rational_init()
        # capped where states would pass the digit limit of int-to-str
        n = ref.exact_bits_limit(p, init, n, DIGIT_BITS)
        ops.append(simulate_exact_op(rs, p, init, n))
        made.append((p, init, n))

    for n in range(60, 201, 20):
        p, init = inputs.rank1_rational(rng), rational_init()
        ops.append(compare_op(rs, p, init, n, exact=True))
        made.append((p, init, n))
    for bits in range(2000, 12000, 1400):
        p, init = inputs.square_disc_rational(rng), rational_init()
        n = ref.exact_bits_limit(p, init, 200, bits)
        ops.append(compare_op(rs, p, init, n, exact=True))
        made.append((p, init, n))

    sets = ([inputs.random_rational(rng) for _ in range(50)]
            + [inputs.rank1_rational(rng) for _ in range(6)]
            + [inputs.exact_boundary(rng, 1 + i % 2) for i in range(14)])
    for p in sets:
        init = rational_init()
        ops.append(classify_op(rs, p, init, exact=True))
        made.append((p, init))

    # exact point queries, the only library calls here
    for n in range(20, 71, 10):
        p, init = inputs.square_disc_rational(rng), rational_init()
        ops.append(exact_point_op(rs, p, init, n))
        made.append((p, init, n))
    return Workload(ops, inputs.digest(made))


WORKLOADS = {
    "classify-sweep": classify_sweep,
    "orbit-horizon": orbit_horizon,
    "exact-rational": exact_rational,
}


def build(name: str, seed: int, rs) -> Workload:
    return WORKLOADS[name](rs, random.Random(f"{name}:{seed}"))
