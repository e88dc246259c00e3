"""Shared instances and generators for the suite.

Frozen coefficient sets live here so every module exercises the same
well-understood examples; the generator helpers produce reproducible
random instances from a caller-supplied random.Random.
"""

import decimal
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from ratsys import PeriodicCoefficients, criterion_delta, eigenvalues
from ratsys.numeric import exact_text

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# first parity matrix is singular; K = 1, mu = 4, rho = 1, so orbits
# become exactly two-periodic (from the start only when y0 = x0)
RANK1_BOUNDARY = PeriodicCoefficients(
    1, 1, 1, 1, Fraction(1, 2), Fraction(3, 2), Fraction(7, 10), Fraction(13, 10)
)

# same singular first parity matrix; K = 2, mu = 6, rho = 4/3
RANK1_GROWTH = PeriodicCoefficients(1, 1, 1, 1, Fraction(1, 2), Fraction(3, 2), 2, 2)

# K = 1/4, mu = 5/2, rho = 2/5
RANK1_DECAY = PeriodicCoefficients(
    1, 1, 1, 1, Fraction(3, 2), Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)
)

# composed matrix ((5, 8), (10, 14)), det -10, irrational eigenvalues
# (19 +- sqrt(401))/2, delta_crit < 0
RANK2_GENERIC = PeriodicCoefficients(2, 1, 4, 3, 1, 2, 3, 1)

# composed matrix ((5, 4), (9, 5)), discriminant 144: eigenvalues 11 and
# -1 are rational, so the exact spectral path works end to end
RANK2_SQUARE = PeriodicCoefficients(1, 1, 1, 2, 1, 3, 4, 1)

# delta_crit = 0.2 > 0: even subsequences blow up, odd ones vanish
RANK2_BLOW = PeriodicCoefficients(1, 1, 1, 2, 1, 1, 2, 1)

# composed matrix ((5, 3), (3, 2)): the trichotomy quantity vanishes
# identically (the limit ratio Q is the golden ratio), so every orbit
# converges to a positive two-cycle; rational witness for the exact path
RANK2_BALANCED = PeriodicCoefficients(1, 1, 1, 2, 2, 1, 1, 1)

# convergent float sets near the boundary whose lambda2/lambda1 is
# -0.9015 and -0.9905: the orbit contracts onto its cycle slowly
RANK2_SLOW_90 = PeriodicCoefficients(
    8.012604121001472, 0.2996268934941071, 0.19461131698189862,
    9.524807846982636, 0.17163735862173485, 12.795996152647415,
    6.121847759096592, 0.16880281577528497)
RANK2_SLOW_99 = PeriodicCoefficients(
    36.6752588828984, 0.02313408774694166, 0.022032818964099758,
    20.95598358974343, 0.13250871729194508, 172.40691922036302,
    4.462764837919797, 0.013015970498373433)


def log_uniform(rng, lo=0.1, hi=10.0):
    return 10 ** rng.uniform(math.log10(lo), math.log10(hi))


def random_float_params(rng):
    """Coefficients drawn log-uniformly from [0.1, 10]."""
    return PeriodicCoefficients(*(log_uniform(rng) for _ in range(8)))


def random_rank1_params(rng):
    """Random member of the singular family a0 = b0 = c0 = d0 = 1."""
    return PeriodicCoefficients(
        1.0, 1.0, 1.0, 1.0, *(log_uniform(rng) for _ in range(4))
    )


def random_rational(rng, hi=12):
    return Fraction(rng.randint(1, hi), rng.randint(1, hi))


def random_rational_params(rng, hi=12):
    return PeriodicCoefficients(*(random_rational(rng, hi) for _ in range(8)))


def fraction_matrix(values):
    """The composed matrix (m11, m12, m21, m22) of eight rationals in
    plain Fraction arithmetic, the reference for the integer composition."""
    a0, b0, c0, d0, a1, b1, c1, d1 = map(Fraction, values)
    return (a1 * d0 + b0 * b1, a0 * b1 + a1 * c0,
            b0 * d1 + c1 * d0, a0 * d1 + c0 * c1)


def fraction_verdict(values):
    """(rank, matrix, sign, rank-1 terms) of eight rationals by the plain
    Fraction formulas that ratsys once decided with, the reference for its
    integer decision: rank 1 where det = 0, with sign that of rho - 1 and
    terms (K, mu, rho); else sign that of x + y*sqrt(disc), delta_crit
    times a positive factor, and terms None."""
    m11, m12, m21, m22 = m = fraction_matrix(values)
    a0, b0, c0, d0 = map(Fraction, values[:4])
    if m11 * m22 - m12 * m21 == 0:
        k = m21 / m11
        mu = m11 + k * m12
        rho = k * mu / ((b0 + k * a0) * (d0 + k * c0))
        return 1, m, (rho > 1) - (rho < 1), (k, mu, rho)
    x, y, disc = fraction_criterion(m, (a0, b0, c0, d0))
    if y == 0:
        ref = x
    elif x == 0:
        ref = y
    elif (x > 0) == (y > 0):
        ref = x
    else:
        cmp = x * x - y * y * disc
        ref = cmp if x > 0 else -cmp
    return 2, m, (ref > 0) - (ref < 0), None


def fraction_criterion(m, even):
    """(x, y, disc) of delta_crit = (x + y*sqrt(disc)) times a positive
    factor, for the matrix [[alpha, beta], [gamma, delta]] and the even
    coefficients, in Fractions."""
    alpha, beta, gamma, delta = m
    a0, b0, c0, d0 = even
    disc = (alpha - delta) ** 2 + 4 * beta * gamma
    diff = delta - alpha
    g = (alpha + delta) - 2 * (b0 * c0 + a0 * d0)
    x = beta * (diff * g + disc) - 4 * b0 * d0 * beta**2 \
        - a0 * c0 * (diff**2 + disc)
    y = beta * g + (beta - 2 * a0 * c0) * diff
    return x, y, disc


def find_balanced(rng, r_lo=1e-3, r_hi=0.9):
    """Random coefficients sitting on the convergence boundary.

    Draws seven coefficients, then bisects b1 to the sign change of the
    trichotomy quantity. Returns (params, r) where r = |lambda2/lambda1|
    is kept inside [r_lo, r_hi] so tests see a usable contraction rate;
    draws without a sign change or with extreme r are rejected.
    """
    while True:
        a0, b0, c0, d0, a1, c1, d1 = (log_uniform(rng) for _ in range(7))

        def delta_at(b1):
            p = PeriodicCoefficients(a0, b0, c0, d0, a1, b1, c1, d1)
            return criterion_delta(p)

        grid = [10 ** (e / 4) for e in range(-12, 13)]
        signs = [delta_at(b) > 0 for b in grid]
        bracket = None
        for i in range(len(grid) - 1):
            if signs[i] != signs[i + 1]:
                bracket = (grid[i], grid[i + 1])
                break
        if bracket is None:
            continue
        lo, hi = bracket
        lo_sign = delta_at(lo) > 0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (delta_at(mid) > 0) == lo_sign:
                lo = mid
            else:
                hi = mid
        b1 = 0.5 * (lo + hi)
        params = PeriodicCoefficients(a0, b0, c0, d0, a1, b1, c1, d1)
        l1, l2 = eigenvalues(params)
        r = abs(l2 / l1)
        if r_lo <= r <= r_hi:
            return params, r


# 34 digits, and an exponent range of 10**18, which no orbit of interest
# leaves
def _reference_jstr(s):
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def reference_jval(v, level):
    """The recursive isinstance chain the CLI rendered JSON values with,
    kept as the reference its table-driven renderer must match byte for
    byte."""
    pad = "  " * (level + 1)
    end = "  " * level
    if v is None:
        return "null"
    if isinstance(v, str):
        return _reference_jstr(v)
    if isinstance(v, Fraction):
        return _reference_jstr(exact_text(v))
    if isinstance(v, float):
        return f"{v:.17g}" if math.isfinite(v) else _reference_jstr(repr(v))
    if isinstance(v, int):
        return str(v)
    if isinstance(v, dict):
        items = [f"{pad}{_reference_jstr(k)}: {reference_jval(x, level + 1)}"
                 for k, x in v.items()]
        return "{\n" + ",\n".join(items) + "\n" + end + "}"
    if isinstance(v, (list, tuple)):
        items = [f"{pad}{reference_jval(x, level + 1)}" for x in v]
        return "[\n" + ",\n".join(items) + "\n" + end + "]"
    raise TypeError(f"cannot render {type(v).__name__} as JSON")


DECIMAL = decimal.Context(prec=34, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def decimal_orbit(params, init, indices):
    """{n: (x[n], y[n])} as Decimals, by direct iteration in DECIMAL.

    The test suite's reference for float closed forms at long horizons.
    Coefficients and start enter as the exact values of their floats, so
    it iterates the very system the float code does. About 4 us a step.
    """
    ctx = DECIMAL
    quads = [tuple(decimal.Decimal(float(v)) for v in params.at(i)) for i in (0, 1)]
    x, y = (decimal.Decimal(float(v)) for v in init)
    wanted, out = set(indices), {}
    for n in range(max(indices) + 1):
        if n in wanted:
            out[n] = (x, y)
        a, b, c, d = quads[n & 1]
        x, y = (ctx.add(ctx.divide(a, x), ctx.divide(b, y)),
                ctx.add(ctx.divide(c, x), ctx.divide(d, y)))
    return out


def decimal_log_orbit(params, init, indices):
    """{n: (log x[n], log y[n])} of decimal_orbit, as floats."""
    return {n: (float(x.ln(DECIMAL)), float(y.ln(DECIMAL)))
            for n, (x, y) in decimal_orbit(params, init, indices).items()}


@pytest.fixture
def rank1_boundary():
    return RANK1_BOUNDARY


@pytest.fixture
def rank2_generic():
    return RANK2_GENERIC


@pytest.fixture
def rank2_square():
    return RANK2_SQUARE


@pytest.fixture
def balanced_instance():
    """One deterministic boundary instance (seeded)."""
    return find_balanced(random.Random(777))
