"""Closed forms when the composed transfer matrix has rank 2.

A positive 2x2 matrix with nonzero determinant has two real eigenvalues
lambda1 > |lambda2|, lambda1 positive and strictly larger than either
diagonal entry. Writing the matrix as [[alpha, beta], [gamma, delta]],

    lambda = ((alpha + delta) +- sqrt(disc)) / 2,
    disc = (alpha - delta)**2 + 4*beta*gamma > 0.

Diagonalizing gives the transformed pairs as eigenvalue-power combinations
with constants C1..C4 fixed by (u0, v0) = (x0, y0). The orbit itself comes
back through telescoping products of the bounded ratios

    p[k] = u[2k]/v[2k-2],  q[k] = u[2k]/v[2k],
    r[k] = v[2k]/u[2k-2],  s[k] = v[2k]/u[2k] = 1/q[k],

whose limits exist because q[k] -> Q = beta/(lambda1 - alpha), a quantity
that does not depend on the initial values. The sign of

    delta_crit = lambda1*Q - (b0*Q + a0)*(d0*Q + c0)

decides the trichotomy: negative means even subsequences vanish and odd
ones blow up, positive the reverse, zero means convergence to a positive
two-cycle. Per-factor deviations decay geometrically at rate
|lambda2/lambda1|, which drives both the truncation rule for the infinite
products and the observed contraction toward the cycle.

Every function takes the coefficients either as PeriodicCoefficients or
as a System from transfer.prepare, as in the rank-1 module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple

from .classification import Classification, Kind, kind_from_sign
from .core import PeriodicCoefficients, initial_state, step
from .errors import BranchError, ConvergenceError, DomainError
from .numeric import ArithmeticMode, Number, exact_sqrt
from .transfer import System, TransferMatrix, prepare

DEFAULT_CYCLE_TOL = 1e-11
DEFAULT_MAX_TERMS = 1_000_000


@dataclass(frozen=True, slots=True)
class SpectralData:
    """Eigenvalues and the init-dependent expansion constants.

    u[2m] = c1*lambda1**m - c2*lambda2**m and
    v[2m] = c3*lambda1**m - c4*lambda2**m. q is the init-free limit of
    u[2m]/v[2m], computed from its closed form, never as c1/c3.
    """

    lambda1: Number
    lambda2: Number
    c1: Number
    c2: Number
    c3: Number
    c4: Number
    q: Number


@dataclass(frozen=True, slots=True)
class Rank2Witness:
    """Initial-value-free quantities that justify a rank-2 verdict."""

    lambda1: float
    lambda2: float
    q: float
    delta: float
    scale: float


@dataclass(frozen=True, slots=True)
class LimitCycle:
    """Limits of the four subsequences in the convergent case.

    The pairs satisfy the two-periodic fixed-point equations
    x_odd = a0/x_even + b0/y_even, x_even = a1/x_odd + b1/y_odd and the
    y counterparts; residual is the largest relative defect observed when
    plugging the computed limits back in.
    """

    x_even: float
    x_odd: float
    y_even: float
    y_odd: float
    residual: float


class SignedLog(NamedTuple):
    """A real number as (sign, log of magnitude); sign 0 encodes zero."""

    sign: int
    log_abs: float

    @property
    def value(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_abs)


def _signed_log(x: float) -> SignedLog:
    if x == 0:
        return SignedLog(0, float("-inf"))
    return SignedLog(1 if x > 0 else -1, math.log(abs(x)))


def _rank2(
    params: PeriodicCoefficients | System,
    mode: ArithmeticMode,
    eps_rank: float,
) -> System:
    system = prepare(params, mode, eps_rank)
    if system.rank != 2:
        raise BranchError(
            "composed matrix has rank 1; the spectral split is degenerate, "
            "use the rank-1 closed forms"
        )
    return system


def _roots(m: TransferMatrix, exact: bool) -> tuple[Number, Number]:
    """Eigenvalues of a positive 2x2 matrix, dominant first."""
    alpha, beta, gamma, delta = m.m11, m.m12, m.m21, m.m22
    disc = (alpha - delta) ** 2 + 4 * beta * gamma
    if exact:
        root = exact_sqrt(Fraction(disc))
        if root is None:
            raise DomainError(
                f"discriminant {disc} has no rational square root; "
                "exact spectral evaluation is unavailable for these "
                "coefficients, use float mode"
            )
    else:
        root = math.sqrt(disc)
    trace = alpha + delta
    half = Fraction(1, 2) if exact else 0.5
    return ((trace + root) * half, (trace - root) * half)


def eigenvalues(
    params: PeriodicCoefficients | System,
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    eps_rank: float = 1e-12,
) -> tuple[Number, Number]:
    """(lambda1, lambda2) of the composed matrix, lambda1 dominant.

    Exact mode needs the discriminant to be a perfect rational square;
    otherwise the eigenvalues are irrational and a DomainError says so.
    """
    system = _rank2(params, mode, eps_rank)
    return _roots(system.matrix, mode is ArithmeticMode.EXACT_RATIONAL)


def _criterion(system: System) -> tuple[Number, Number, Number, Number, Number]:
    """(lambda1, lambda2, Q, scale, delta) of a rank-2 System.

    Q = beta/(lambda1 - alpha) is the init-free limit of u[2m]/v[2m],
    scale = (b0*Q + a0)*(d0*Q + c0) is positive, and
    delta = lambda1*Q - scale. All in the System's arithmetic.
    """
    wp, m = system.params, system.matrix
    l1, l2 = _roots(m, system.mode is ArithmeticMode.EXACT_RATIONAL)
    q = m.m12 / (l1 - m.m11)
    scale = (wp.b0 * q + wp.a0) * (wp.d0 * q + wp.c0)
    return l1, l2, q, scale, l1 * q - scale


def spectral_constants(
    params: PeriodicCoefficients | System,
    init: tuple[Number, Number],
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    eps_rank: float = 1e-12,
) -> SpectralData:
    """Expansion constants for the start (u0, v0) = (x0, y0)."""
    system = _rank2(params, mode, eps_rank)
    l1, l2, q, _, _ = _criterion(system)
    m = system.matrix
    alpha, beta, gamma = m.m11, m.m12, m.m21
    u0, v0 = initial_state(init, mode)
    gap = l1 - l2
    c1 = beta / gap * (gamma / (l1 - alpha) * u0 + v0)
    c2 = beta / gap * (gamma / (l2 - alpha) * u0 + v0)
    c3 = (gamma * u0 + (l1 - alpha) * v0) / gap
    c4 = (gamma * u0 + (l2 - alpha) * v0) / gap
    return SpectralData(lambda1=l1, lambda2=l2, c1=c1, c2=c2, c3=c3, c4=c4, q=q)


def rank2_uv(
    params: PeriodicCoefficients | System,
    init: tuple[Number, Number],
    n: int,
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    eps_rank: float = 1e-12,
) -> tuple[Number, Number] | tuple[SignedLog, SignedLog]:
    """Transformed pair (u[n], v[n]) from the eigenvalue powers.

    Float mode returns SignedLog values (the powers outgrow float range,
    and the lambda2 contribution alternates sign when lambda2 < 0); exact
    mode returns Fractions and needs a rational eigenvalue gap.
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    system = prepare(params, mode, eps_rank)
    wp = system.params
    sd = spectral_constants(system, init, mode, eps_rank)
    m, odd = divmod(n, 2)
    if odd:
        e1 = wp.b0 * sd.c1 + wp.a0 * sd.c3
        e2 = wp.b0 * sd.c2 + wp.a0 * sd.c4
        f1 = wp.d0 * sd.c1 + wp.c0 * sd.c3
        f2 = wp.d0 * sd.c2 + wp.c0 * sd.c4
    else:
        e1, e2, f1, f2 = sd.c1, sd.c2, sd.c3, sd.c4
    if mode is ArithmeticMode.EXACT_RATIONAL:
        pow1, pow2 = sd.lambda1 ** m, sd.lambda2 ** m
        return (e1 * pow1 - e2 * pow2, f1 * pow1 - f2 * pow2)
    t_m = (sd.lambda2 / sd.lambda1) ** m
    base = m * math.log(sd.lambda1)
    su = _signed_log(e1 - e2 * t_m)
    sv = _signed_log(f1 - f2 * t_m)
    return (
        SignedLog(su.sign, su.log_abs + base),
        SignedLog(sv.sign, sv.log_abs + base),
    )


def _products(
    wp: PeriodicCoefficients,
    sd: SpectralData,
    s0: tuple[Number, Number],
    s1: tuple[Number, Number],
    exact: bool,
) -> Iterator[tuple[Number, Number, Number, Number]]:
    """Running (x[2k], x[2k+1], y[2k], y[2k+1]) for k = 0, 1, 2, ...

    Exact mode yields the products themselves, float mode their natural
    logs. Each step multiplies in one factor per product,
    x[2k] = x[2k-2] * gx_even[k] and likewise for the other three.
    Every factor is a ratio of bounded positive quantities: the
    eigenvalue powers are carried only through t**k with t = l2/l1,
    |t| < 1, so nothing here can overflow.
    """
    t = sd.lambda2 / sd.lambda1
    c1, c2, c3, c4 = sd.c1, sd.c2, sd.c3, sd.c4
    start = (s0[0], s1[0], s0[1], s1[1])
    x_e, x_o, y_e, y_o = start if exact else map(math.log, start)
    yield (x_e, x_o, y_e, y_o)
    tk = Fraction(1) if exact else 1.0  # t**k
    num_u, num_v = c1 - c2 * tk, c3 - c4 * tk  # u[2k], v[2k] / lambda1**k
    q_cur = num_u / num_v
    s_cur = 1 / q_cur
    while True:
        tk *= t
        num_u_prev, num_v_prev, q_prev, s_prev = num_u, num_v, q_cur, s_cur
        num_u, num_v = c1 - c2 * tk, c3 - c4 * tk
        q_cur = num_u / num_v
        s_cur = 1 / q_cur
        p_cur = sd.lambda1 * num_u / num_v_prev
        r_cur = sd.lambda1 * num_v / num_u_prev
        gx_even = p_cur / ((wp.b0 * q_prev + wp.a0) * (wp.d0 * q_prev + wp.c0))
        gx_odd = (wp.b0 * q_cur + wp.a0) * (wp.d0 * q_prev + wp.c0) / p_cur
        gy_even = r_cur / ((wp.d0 + wp.c0 * s_prev) * (wp.b0 + wp.a0 * s_prev))
        gy_odd = (wp.d0 + wp.c0 * s_cur) * (wp.b0 + wp.a0 * s_prev) / r_cur
        if exact:
            x_e, x_o = x_e * gx_even, x_o * gx_odd
            y_e, y_o = y_e * gy_even, y_o * gy_odd
        else:
            x_e, x_o = x_e + math.log(gx_even), x_o + math.log(gx_odd)
            y_e, y_o = y_e + math.log(gy_even), y_o + math.log(gy_odd)
        yield (x_e, x_o, y_e, y_o)


def rank2_solution_sequence(
    params: PeriodicCoefficients | System,
    init: tuple[Number, Number],
    n_max: int,
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    eps_rank: float = 1e-12,
) -> list[tuple[Number, Number]]:
    """Closed-form states for n = 0 .. n_max, one bounded factor per step.

    Float mode accumulates the products in log space and exponentiates
    per index; values beyond float range saturate to inf or 0.0.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    system = prepare(params, mode, eps_rank)
    wp = system.params
    s0 = initial_state(init, mode)
    out = [s0]
    if n_max == 0:
        return out
    s1 = step(wp, 0, s0)
    out.append(s1)
    sd = spectral_constants(system, s0, mode, eps_rank)
    exact = mode is ArithmeticMode.EXACT_RATIONAL
    value = (lambda v: v) if exact else math.exp
    products = _products(wp, sd, s0, s1, exact)
    for x_e, x_o, y_e, y_o in islice(products, 1, n_max // 2 + 1):
        out.append((value(x_e), value(y_e)))
        out.append((value(x_o), value(y_o)))
    return out[: n_max + 1]


def rank2_solution(
    params: PeriodicCoefficients | System,
    init: tuple[Number, Number],
    n: int,
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    eps_rank: float = 1e-12,
) -> tuple[Number, Number]:
    """(x[n], y[n]) through the telescoping ratio products."""
    return rank2_solution_sequence(params, init, n, mode, eps_rank)[n]


def criterion_delta(
    params: PeriodicCoefficients | System,
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    eps_rank: float = 1e-12,
) -> Number:
    """The trichotomy quantity lambda1*Q - (b0*Q + a0)*(d0*Q + c0).

    Depends only on coefficients. Exact mode needs a rational eigenvalue
    gap; delta_sign_exact decides the sign without that restriction.
    """
    return _criterion(_rank2(params, mode, eps_rank))[4]


def delta_sign_exact(
    params: PeriodicCoefficients | System, eps_rank: float = 1e-12
) -> int:
    """Exact sign of the trichotomy quantity for rational coefficients.

    delta_crit is a rational function of sqrt(disc). Clearing
    denominators leaves X + Y*sqrt(disc) with rational X, Y (the factors
    removed are strictly positive), whose sign is decided by comparing
    X**2 against Y**2*disc. Works whether or not disc is a perfect
    square. Returns -1, 0, or 1.
    """
    system = _rank2(params, ArithmeticMode.EXACT_RATIONAL, eps_rank)
    wp, m = system.params, system.matrix
    alpha, beta, gamma, delta = m.m11, m.m12, m.m21, m.m22
    disc = (alpha - delta) ** 2 + 4 * beta * gamma
    diff = delta - alpha
    g = (alpha + delta) - 2 * (wp.b0 * wp.c0 + wp.a0 * wp.d0)
    x = beta * (diff * g + disc) - 4 * wp.b0 * wp.d0 * beta**2 \
        - wp.a0 * wp.c0 * (diff**2 + disc)
    y = beta * g + (beta - 2 * wp.a0 * wp.c0) * diff
    if y == 0:
        ref = x
    elif x == 0:
        ref = y
    elif (x > 0) == (y > 0):
        ref = x
    else:
        cmp = x * x - y * y * disc
        ref = cmp if x > 0 else -cmp
    return (ref > 0) - (ref < 0)


def classify_rank2(
    params: PeriodicCoefficients | System,
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    tol_class: float = 1e-9,
    eps_rank: float = 1e-12,
) -> Classification:
    """Trichotomy by the sign of delta_crit.

    Float mode calls the case convergent when |delta_crit| is within
    tol_class times the positive scale (b0*Q + a0)*(d0*Q + c0). Exact
    mode decides the sign exactly. The witness always reports float
    approximations of the spectral quantities.
    """
    system = _rank2(params, mode, eps_rank)
    floats = prepare(system, ArithmeticMode.FLOAT64, eps_rank)
    l1, l2, q, scale, delta = _criterion(floats)
    value, band = delta, tol_class * scale
    if mode is ArithmeticMode.EXACT_RATIONAL:
        value, band = delta_sign_exact(system, eps_rank), 0
        if value == 0:
            delta = 0.0
    kind = kind_from_sign(value, band, Kind.CONVERGES_TO_TWO_PERIODIC)
    witness = Rank2Witness(lambda1=l1, lambda2=l2, q=q, delta=delta, scale=scale)
    return Classification(kind=kind, rank=2, witness=witness)


def limit_cycle(
    params: PeriodicCoefficients | System,
    init: tuple[Number, Number],
    tol: float = DEFAULT_CYCLE_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
    tol_class: float = 1e-9,
    eps_rank: float = 1e-12,
) -> LimitCycle:
    """Limits of the four subsequences in the convergent rank-2 case.

    Runs the product engine of the closed form in log space until the
    per-term change |e_k| of the four logs and the geometric tail bound
    |e_k|*r/(1 - r), with r = |lambda2/lambda1|, both drop below tol.
    Raises BranchError when the coefficients are not in the convergent
    case and ConvergenceError if max_terms factors do not reach
    tolerance.
    """
    system = prepare(params, ArithmeticMode.FLOAT64, eps_rank)
    verdict = classify_rank2(system, ArithmeticMode.FLOAT64, tol_class, eps_rank)
    if verdict.kind is not Kind.CONVERGES_TO_TWO_PERIODIC:
        raise BranchError(
            f"limit cycle exists only in the convergent case, "
            f"classification is {verdict.kind.value}"
        )
    wp = system.params
    s0 = initial_state(init, ArithmeticMode.FLOAT64)
    s1 = step(wp, 0, s0)
    sd = spectral_constants(system, s0, ArithmeticMode.FLOAT64, eps_rank)
    r = abs(sd.lambda2 / sd.lambda1)
    tail = r / (1.0 - r)
    products = _products(wp, sd, s0, s1, exact=False)
    p_xe, p_xo, p_ye, p_yo = next(products)
    for x_e, x_o, y_e, y_o in islice(products, max_terms):
        worst = max(abs(x_e - p_xe), abs(x_o - p_xo),
                    abs(y_e - p_ye), abs(y_o - p_yo))
        if worst < tol and worst * tail < tol:
            break
        p_xe, p_xo, p_ye, p_yo = x_e, x_o, y_e, y_o
    else:
        raise ConvergenceError(
            max_terms,
            f"cycle products did not meet tol={tol} within {max_terms} terms",
        )
    x_even, x_odd, y_even, y_odd = map(math.exp, (x_e, x_o, y_e, y_o))
    residual = max(
        abs(x_odd - (wp.a0 / x_even + wp.b0 / y_even)) / x_odd,
        abs(x_even - (wp.a1 / x_odd + wp.b1 / y_odd)) / x_even,
        abs(y_odd - (wp.c0 / x_even + wp.d0 / y_even)) / y_odd,
        abs(y_even - (wp.c1 / x_odd + wp.d1 / y_odd)) / y_even,
    )
    return LimitCycle(
        x_even=x_even, x_odd=x_odd, y_even=y_even, y_odd=y_odd,
        residual=residual,
    )
