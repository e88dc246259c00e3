"""Closed forms when the composed transfer matrix has rank 1.

Rank 1 means the second row of the two-step matrix is K times the first,
which happens exactly when one of the parity matrices is singular
(b0*c0 = a0*d0 or b1*c1 = a1*d1). The transformed pairs then satisfy
v[2m] = K*u[2m] for every m >= 1, and from that point each two-step
advance multiplies u by a constant

    mu = (a1*d0 + b0*b1) + K*(a0*b1 + a1*c0).

Back in orbit space both even subsequences are geometric with ratio

    rho = K*mu / ((b0 + K*a0) * (d0 + K*c0))

and both odd subsequences are geometric with ratio 1/rho. The proportion
v = K*u generally does not hold at m = 0 (only initial values with
y0 = K*x0 satisfy it), so the geometric laws are anchored at indices 2
and 3, the first pair they are guaranteed to cover. Initial values on
the y0 = K*x0 locus collapse the anchors to x2 = rho*x0 and x3 = x1/rho,
extending the laws back to the start.

Every function takes the coefficients either as PeriodicCoefficients or
as a System from transfer.prepare, which carries the converted
coefficients, the composed matrix and its rank, so a caller that
prepared once pays for none of that again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classification import Classification, Kind, kind_from_sign
from .core import PeriodicCoefficients, initial_state, step
from .errors import BranchError, DomainError
from .numeric import ArithmeticMode, Number
from .transfer import Parity, System, linear_step, parity_matrix, prepare

K_CONSISTENCY_EPS = 1e-10


@dataclass(frozen=True, slots=True)
class Rank1Data:
    """Row ratio K, two-step growth mu, orbit-space ratio rho."""

    k: Number
    mu: Number
    rho: Number


def k_constant(
    params: PeriodicCoefficients | System,
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    eps_rank: float = 1e-12,
) -> Number:
    """Row ratio K of the composed matrix.

    Computed as (b0*d1 + c1*d0) / (a1*d0 + b0*b1); the same ratio from the
    second columns is evaluated as a consistency check. Raises BranchError
    when the composed matrix has rank 2 and K does not exist.
    """
    system = prepare(params, mode, eps_rank)
    m = system.matrix
    if system.rank != 1:
        raise BranchError(
            "composed matrix has rank 2; the row ratio K is undefined "
            f"(det = {m.det()!r})"
        )
    k = m.m21 / m.m11
    k_check = m.m22 / m.m12
    if mode is ArithmeticMode.EXACT_RATIONAL:
        band = 0
    else:
        band = K_CONSISTENCY_EPS * max(abs(k), abs(k_check))
    if abs(k - k_check) > band:
        raise BranchError(
            f"rank-1 row ratios disagree beyond tolerance: {k} vs {k_check}"
        )
    return k


def growth_and_ratio(
    params: PeriodicCoefficients | System,
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    eps_rank: float = 1e-12,
) -> Rank1Data:
    """K, the two-step growth mu, and the orbit-space ratio rho."""
    system = prepare(params, mode, eps_rank)
    k = k_constant(system, mode, eps_rank)
    m, wp = system.matrix, system.params
    mu = m.m11 + k * m.m12
    rho = k * mu / ((wp.b0 + k * wp.a0) * (wp.d0 + k * wp.c0))
    return Rank1Data(k=k, mu=mu, rho=rho)


def rank1_uv(
    params: PeriodicCoefficients | System,
    init: tuple[Number, Number],
    m: int,
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    eps_rank: float = 1e-12,
) -> tuple[Number, Number, Number, Number]:
    """Transformed values (u[2m], v[2m], u[2m+1], v[2m+1]) for m >= 1.

    Anchored at u[2], obtained by two linear steps from (x0, y0):
    u[2m] = mu**(m-1) * u[2], v[2m] = K*u[2m], and the odd pair follows
    by one even-parity step. Exact mode returns Fractions; float mode
    returns the natural logs of the four values, since they outgrow
    float range quickly.

    m = 0 is rejected: v[0] = y0 is not K*x0 in general, so the closed
    form starts one two-step later.
    """
    if m < 1:
        raise DomainError(f"closed form for transformed pairs needs m >= 1, got {m}")
    system = prepare(params, mode, eps_rank)
    wp = system.params
    data = growth_and_ratio(system, mode, eps_rank)
    k, mu = data.k, data.mu
    uv0 = initial_state(init, mode)
    u1v1 = linear_step(parity_matrix(wp, Parity.EVEN), uv0)
    u2 = linear_step(parity_matrix(wp, Parity.ODD), u1v1)[0]

    ew = wp.b0 + k * wp.a0  # u[2m+1] / u[2m]
    ow = wp.d0 + k * wp.c0  # v[2m+1] / u[2m]
    if mode is ArithmeticMode.EXACT_RATIONAL:
        u_even = mu ** (m - 1) * u2
        return (u_even, k * u_even, ew * u_even, ow * u_even)
    log_u_even = (m - 1) * math.log(mu) + math.log(u2)
    return (
        log_u_even,
        math.log(k) + log_u_even,
        math.log(ew) + log_u_even,
        math.log(ow) + log_u_even,
    )


def _geometric_law(s2, s3, rho: Number, mode: ArithmeticMode):
    """The closed form past index 3, as a function n -> (x[n], y[n]).

    Even indices follow x[2m] = x2 * rho**(m-1) and odd indices
    x[2m+1] = x3 * rho**(1-m), same for y. Float mode evaluates the
    powers in log space, taking the logs of the anchors and of rho once.
    """
    exact = mode is ArithmeticMode.EXACT_RATIONAL
    if not exact:
        s2 = (math.log(s2[0]), math.log(s2[1]))
        s3 = (math.log(s3[0]), math.log(s3[1]))
        log_rho = math.log(rho)

    def term(n: int) -> tuple[Number, Number]:
        if n % 2 == 0:
            anchor, exponent = s2, n // 2 - 1
        else:
            anchor, exponent = s3, 1 - (n - 1) // 2
        if exact:
            factor = rho ** exponent
            return (anchor[0] * factor, anchor[1] * factor)
        log_factor = exponent * log_rho
        return (
            math.exp(anchor[0] + log_factor),
            math.exp(anchor[1] + log_factor),
        )

    return term


def rank1_solution(
    params: PeriodicCoefficients | System,
    init: tuple[Number, Number],
    n: int,
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    eps_rank: float = 1e-12,
) -> tuple[Number, Number]:
    """(x[n], y[n]) in closed form, valid for every positive start.

    Indices 0 to 3 are produced by direct steps (constant work). Beyond
    that, even indices follow x[2m] = x2 * rho**(m-1) and odd indices
    x[2m+1] = x3 * rho**(1-m), same for y; this matches direct iteration
    for all initial values, including those off the y0 = K*x0 locus where
    the first even factor differs from rho. Float mode evaluates the
    powers in log space.
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    system = prepare(params, mode, eps_rank)
    head = rank1_solution_sequence(system, init, min(n, 3), mode, eps_rank)
    if n <= 3:
        return head[n]
    rho = growth_and_ratio(system, mode, eps_rank).rho
    return _geometric_law(head[2], head[3], rho, mode)(n)


def rank1_solution_sequence(
    params: PeriodicCoefficients | System,
    init: tuple[Number, Number],
    n_max: int,
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    eps_rank: float = 1e-12,
) -> list[tuple[Number, Number]]:
    """Closed-form states for n = 0 .. n_max, equal to rank1_solution(n).

    The coefficients are converted, K, mu and rho computed, and indices
    1 to 3 stepped once per call; every further index costs one power of
    rho (exact) or one exp per component (float). Raises BranchError
    when n_max >= 4 and the composed matrix has rank 2.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    system = prepare(params, mode, eps_rank)
    wp = system.params
    out = [initial_state(init, mode)]
    for i in range(min(n_max, 3)):
        out.append(step(wp, i, out[-1]))
    if n_max <= 3:
        return out
    rho = growth_and_ratio(system, mode, eps_rank).rho
    term = _geometric_law(out[2], out[3], rho, mode)
    out.extend(term(n) for n in range(4, n_max + 1))
    return out


def classify_rank1(
    params: PeriodicCoefficients | System,
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    tol_class: float = 1e-9,
    eps_rank: float = 1e-12,
) -> Classification:
    """Trichotomy by rho: below 1, even subsequences vanish and odd ones
    blow up; above 1, the reverse; equal to 1, the orbit is two-periodic
    (from the start on the y0 = K*x0 locus, after at most two steps
    otherwise). Exact mode compares rho with 1 exactly; float mode uses
    a relative band of width tol_class around 1.
    """
    data = growth_and_ratio(params, mode, eps_rank)
    band = 0 if mode is ArithmeticMode.EXACT_RATIONAL else tol_class
    kind = kind_from_sign(data.rho - 1, band, Kind.EXACT_TWO_PERIODIC)
    return Classification(kind=kind, rank=1, witness=data)
