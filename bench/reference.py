"""Reference computations for checking ratsys, written from the paper's
formulas and importing nothing from ratsys.

Coefficients travel as an 8-tuple (a0, b0, c0, d0, a1, b1, c1, d1) of
floats, ints or Fractions. The system is

    x[n+1] = a[n]/x[n] + b[n]/y[n],   y[n+1] = c[n]/x[n] + d[n]/y[n]

with the even quadruple used at even n. Its two-step transfer matrix
acting on the cumulative products (u, v) is

    [[alpha, beta], [gamma, delta]] = [[a1*d0 + b0*b1, a0*b1 + a1*c0],
                                       [b0*d1 + c1*d0, a0*d1 + c0*c1]].
"""

from __future__ import annotations

import math
import sys
from array import array
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple

LOG_MAX = math.log(sys.float_info.max)  # above this a float overflows
LOG_MIN_NORMAL = math.log(sys.float_info.min)  # below this precision drops
LOG_ZERO = math.log(5e-324) - 1  # below this a float is 0.0


def composed(p):
    """(alpha, beta, gamma, delta) of the two-step matrix, in p's type."""
    a0, b0, c0, d0, a1, b1, c1, d1 = p
    return (a1 * d0 + b0 * b1, a0 * b1 + a1 * c0,
            b0 * d1 + c1 * d0, a0 * d1 + c0 * c1)


def det(m):
    alpha, beta, gamma, delta = m
    return alpha * delta - beta * gamma


def singular_ratio(p) -> float:
    """|det| / (|alpha*delta| + |beta*gamma|), computed exactly.

    Float coefficients are taken at their exact binary values, so the
    ratio is 0 exactly on the singular locus and rounding plays no part.
    """
    m = composed(tuple(Fraction(v) for v in p))
    alpha, beta, gamma, delta = m
    return float(abs(det(m)) / (abs(alpha * delta) + abs(beta * gamma)))


class Rank1(NamedTuple):
    k: object
    mu: object
    rho: object


def rank1_constants(p) -> Rank1:
    """Row ratio K, two-step growth mu and orbit ratio rho of a rank-1 set.

    Exact for Fraction input, float otherwise.
    """
    a0, b0, c0, d0 = p[:4]
    alpha, beta, gamma, _ = composed(p)
    k = gamma / alpha
    mu = alpha + k * beta
    rho = k * mu / ((b0 + k * a0) * (d0 + k * c0))
    return Rank1(k, mu, rho)


class Spectrum(NamedTuple):
    lambda1: float
    lambda2: float
    q: float
    delta: float
    scale: float


def spectrum(p) -> Spectrum:
    """Eigenvalues, limit ratio Q, criterion delta and its scale, in float.

    lambda1 - alpha is formed without cancellation, as
    2*beta*gamma / (sqrt(disc) + alpha - delta) when alpha > delta.
    """
    p = tuple(float(v) for v in p)
    a0, b0, c0, d0 = p[:4]
    alpha, beta, gamma, delta = composed(p)
    root = math.sqrt((alpha - delta) ** 2 + 4 * beta * gamma)
    l1 = (alpha + delta + root) / 2
    l2 = (alpha + delta - root) / 2
    if alpha > delta:
        gap = 2 * beta * gamma / (root + alpha - delta)
    else:
        gap = (root + delta - alpha) / 2
    q = beta / gap
    scale = (b0 * q + a0) * (d0 * q + c0)
    return Spectrum(l1, l2, q, l1 * q - scale, scale)


def delta_sign(p, digits: int = 60) -> int:
    """Sign of the criterion delta in decimal at high precision.

    Every coefficient enters at its exact value. A |delta| below
    10**-digits times its scale counts as zero, which is how an exactly
    balanced rational set (irrational Q, delta = 0) shows up.
    """
    with localcontext() as ctx:
        ctx.prec = digits + 40
        vals = []
        for v in p:
            f = Fraction(v)
            vals.append(Decimal(f.numerator) / Decimal(f.denominator))
        a0, b0, c0, d0 = vals[:4]
        alpha, beta, gamma, delta = composed(vals)
        root = ((alpha - delta) ** 2 + 4 * beta * gamma).sqrt()
        l1 = (alpha + delta + root) / 2
        q = beta / (l1 - alpha)
        scale = (b0 * q + a0) * (d0 * q + c0)
        crit = l1 * q - scale
        if abs(crit) <= scale * Decimal(10) ** -digits:
            return 0
        return 1 if crit > 0 else -1


def _log_add_exp(p: float, q: float) -> float:
    if p < q:
        p, q = q, p
    return p + math.log1p(math.exp(q - p))


def log_orbit(p, init, n_max: int) -> tuple[array, array]:
    """(log x[n], log y[n]) for n = 0 .. n_max by plain log-space iteration.

    Every quantity stays bounded, so the iteration runs far past the
    range of IEEE doubles.
    """
    logs = [tuple(math.log(float(v)) for v in p[:4]),
            tuple(math.log(float(v)) for v in p[4:])]
    lx, ly = math.log(float(init[0])), math.log(float(init[1]))
    xs, ys = array("d", [lx]), array("d", [ly])
    for n in range(n_max):
        la, lb, lc, ld = logs[n % 2]
        lx, ly = _log_add_exp(la - lx, lb - ly), _log_add_exp(lc - lx, ld - ly)
        xs.append(lx)
        ys.append(ly)
    return xs, ys


def float_range_limit(xs: array, ys: array, margin: float = 8.0) -> int:
    """Last index up to which every |log| stays margin inside normal range."""
    hi, lo = LOG_MAX - margin, LOG_MIN_NORMAL + margin
    for n, (lx, ly) in enumerate(zip(xs, ys)):
        if not (lo < lx < hi and lo < ly < hi):
            return n - 1
    return len(xs) - 1


def float_matches_log(value: float, ref_log: float, rel: float) -> bool:
    """Does a float closed-form value agree with a reference log value?

    Inside normal range the value must match exp(ref_log) to relative
    tolerance rel. Past the top of float range it must saturate to inf;
    well below the smallest subnormal, to 0.0. At the top edge, where
    rounding decides, inf is accepted too; in the subnormal range, where
    precision runs out, any value from 0.0 to the smallest normal is.
    """
    top, bottom = LOG_MAX * (1 - rel), LOG_MIN_NORMAL * (1 - rel)
    if ref_log > LOG_MAX * (1 + rel):
        return value == math.inf
    if ref_log < LOG_ZERO:
        return value == 0.0
    if value == math.inf:
        return ref_log > top
    if ref_log < bottom:
        return 0.0 <= value <= sys.float_info.min
    if not value > 0.0:
        return False
    return abs(math.log(value) - ref_log) <= rel * max(1.0, abs(ref_log))


def first_recurrence_break(p, rows) -> int | None:
    """First n at which exact rows fail x[n+1] = a/x[n] + b/y[n] (and y).

    Returns None when every step of the Fraction orbit holds exactly.
    """
    quads = (tuple(Fraction(v) for v in p[:4]),
             tuple(Fraction(v) for v in p[4:]))
    for n in range(len(rows) - 1):
        a, b, c, d = quads[n % 2]
        x, y = rows[n]
        if rows[n + 1] != (a / x + b / y, c / x + d / y):
            return n
    return None


def exact_bits_limit(p, init, n_max: int, cap_bits: int) -> int:
    """Largest n <= n_max whose exact states keep numerator and denominator
    within cap_bits bits, by exact one-step iteration."""
    quads = (tuple(Fraction(v) for v in p[:4]),
             tuple(Fraction(v) for v in p[4:]))
    x, y = Fraction(init[0]), Fraction(init[1])
    for n in range(n_max):
        a, b, c, d = quads[n % 2]
        x, y = a / x + b / y, c / x + d / y
        bits = max(x.numerator.bit_length(), x.denominator.bit_length(),
                   y.numerator.bit_length(), y.denominator.bit_length())
        if bits > cap_bits:
            return n
    return n_max


def settled_cycle(p, init, tol: float = 1e-14, max_steps: int = 200_000):
    """(x_even, x_odd, y_even, y_odd) reached by direct float iteration.

    Iterates two steps at a time until no component moves by more than
    tol relative; returns None if that never happens within max_steps.
    """
    p = tuple(float(v) for v in p)
    a0, b0, c0, d0, a1, b1, c1, d1 = p
    xe, ye = float(init[0]), float(init[1])
    xo, yo = a0 / xe + b0 / ye, c0 / xe + d0 / ye
    for _ in range(max_steps // 2):
        nxe, nye = a1 / xo + b1 / yo, c1 / xo + d1 / yo
        nxo, nyo = a0 / nxe + b0 / nye, c0 / nxe + d0 / nye
        moved = max(abs(nxe - xe) / xe, abs(nye - ye) / ye,
                    abs(nxo - xo) / xo, abs(nyo - yo) / yo)
        xe, ye, xo, yo = nxe, nye, nxo, nyo
        if not 0.0 < min(xe, ye, xo, yo) <= max(xe, ye, xo, yo) < math.inf:
            return None
        if moved <= tol:
            return (xe, xo, ye, yo)
    return None


def cycle_defect(p, cycle) -> float:
    """Largest relative defect of the two-periodic fixed-point equations."""
    a0, b0, c0, d0, a1, b1, c1, d1 = (float(v) for v in p)
    xe, xo, ye, yo = cycle
    return max(
        abs(xo - (a0 / xe + b0 / ye)) / xo,
        abs(xe - (a1 / xo + b1 / yo)) / xe,
        abs(yo - (c0 / xe + d0 / ye)) / yo,
        abs(ye - (c1 / xo + d1 / yo)) / ye,
    )
