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

from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple

from .classification import (Classification, Kind, float_decision,
                             kind_from_sign, scaled_ratio, scaled_sum)
from .core import (ROUNDING, PeriodicCoefficients, Tail, closed_point,
                   closed_states, horizon, initial_state)
from .errors import BranchError, DomainError
from .numeric import ArithmeticMode, Number, require_tolerance
from .transfer import System, _prepare_rank, prepare

K_CONSISTENCY_EPS = 1e-10


class Rank1Data(NamedTuple):
    """Row ratio K, two-step growth mu, orbit-space ratio rho."""

    k: Number
    mu: Number
    rho: Number


def growth_terms(
    m11: float, m12: float, m21: float, m22: float,
    a0: float, b0: float, c0: float, d0: float, tol_class: float = 0.0,
) -> tuple[float, float, float, float, Kind]:
    """(K, mu, rho, log rho, kind) from the float entries of a rank-1
    composed matrix and the even coefficients, by float_decision.
    K = m21/m11 must equal m22/m12 within a relative K_CONSISTENCY_EPS,
    or BranchError says so; DomainError where an entry is 0. An exact
    System's are _exact_growth's, on the ints it carries."""
    if not (m11 and m12 and m21 and m22):
        raise DomainError("matrix entries underflow float range")
    k, k_check = m21 / m11, m22 / m12
    if abs(k - k_check) > K_CONSISTENCY_EPS * max(k, k_check):
        raise BranchError(f"rank-1 row ratios disagree beyond tolerance: "
                          f"{m21 / m11} vs {m22 / m12}")
    mu = m11 + k * m12
    r0, r1 = b0 + k * a0, d0 + k * c0
    rho, log_rho, kind = float_decision(1, k * mu, r0 * r1, (k, mu, r0, r1), tol_class,
                                        _scaled_growth, m11, m12, m21, a0, b0, c0, d0)
    return k, mu, rho, log_rho, kind


def _exact_growth(matrix: tuple[int, ...], even: tuple[int, ...]):
    """growth_terms in exact mode on the ints (s; m') = s*(1; m) and (D0;
    A0, B0, C0, E0) = D0*(1; a0, b0, c0, d0) of a rank-1 System, whose
    rows agree: m21'*m12' == m22'*m11' is its rank test. rho = top/bottom,
    top = m21'*(m11'**2 + m21'*m12')*D0**2, bottom = s*(B0*m11' +
    m21'*A0)*(E0*m11' + m21'*C0), no other Fraction."""
    s, n11, n12, n21, _ = matrix
    den, a, b, c, e = even
    mu = n11 * n11 + n21 * n12
    top = n21 * mu * den * den
    bottom = s * (b * n11 + n21 * a) * (e * n11 + n21 * c)
    return (Fraction(n21, n11), Fraction(mu, s * n11), Fraction(top, bottom),
            None, kind_from_sign(top - bottom, 0, Kind.EXACT_TWO_PERIODIC))


def _scaled_growth(m11, m12, m21, a0, b0, c0, d0):
    """K = m21/m11, mu and the row sums b0 + K*a0, d0 + K*c0, scaled."""
    t = scaled_ratio(m21, m11)
    return t, *(scaled_sum(a, t, b) for a, b in ((m11, m12), (b0, a0), (d0, c0)))


def _growth(system: System, tol_class: float = 0.0):
    """growth_terms of a rank-1 System, in its mode, on its ints if exact."""
    if system.ints:
        even, _, matrix = system.ints
        return _exact_growth(matrix, even)
    return growth_terms(*system.matrix.entries, *system.params.at(0), tol_class)


def growth_and_ratio(
    params: PeriodicCoefficients | System,
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    eps_rank: float = 1e-12,
) -> Rank1Data:
    """K, the two-step growth mu, and the orbit-space ratio rho."""
    return Rank1Data(*_growth(_prepare_rank(params, mode, eps_rank, 1))[:3])


def _float_terms(
    system: System, start: tuple[float, float], anchors
) -> Iterator[tuple[tuple[float, ...], Tail | None]]:
    """The float hook of core.closed_states: term 0, then term 1 with
    the Tail that adds log rho per two-step on even indices and -log rho
    on odd ones, each with the rounding of log rho. log rho comes from
    growth_terms on term 1, so a rank-2 System raises BranchError there."""
    (x0, y0), (x1, y1), (xe, ye), (xo, yo) = anchors
    yield (x0, x1, y0, y1), None
    even = _growth(_prepare_rank(system, system.mode, system.eps_rank, 1))[3]
    logs = (xe, xo, ye, yo)  # the tail with no nomes: Tail.xs is empty
    yield logs, Tail(1, logs, (even, -even, even, -even), 0.0, ROUNDING * max(1.0, abs(even)))


def rank1_solution(
    params: PeriodicCoefficients | System,
    init: tuple[Number, Number],
    n: int,
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    eps_rank: float = 1e-12,
) -> tuple[Number, Number]:
    """(x[n], y[n]) in closed form, valid for every positive start, by
    core.closed_point. Indices 0 to 3 are direct steps, from core.head;
    beyond them x[2m] = x2 * rho**(m-1) and x[2m+1] = x3 * rho**(1-m),
    same for y, off the y0 = K*x0 locus too. Float mode takes the powers
    in log space, raising BranchError on a rank-2 set; exact mode takes
    one power, or a rank-2 set's n integer steps, and checks state n
    against the bit cap where rank1_solution_sequence checks each state."""
    horizon(n, "n")
    system = prepare(params, mode, eps_rank)
    return closed_point(system, initial_state(init, mode), n, _float_terms)


def rank1_solution_sequence(
    params: PeriodicCoefficients | System,
    init: tuple[Number, Number],
    n_max: int,
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    eps_rank: float = 1e-12,
) -> list[tuple[Number, Number]]:
    """Closed-form states for n = 0 .. n_max, equal to rank1_solution(n),
    by core.closed_states at one set of constants per call. Exact mode
    serves every rational set; float mode raises BranchError when
    n_max >= 4 and the composed matrix has rank 2."""
    horizon(n_max)
    system = prepare(params, mode, eps_rank)
    start = initial_state(init, mode)
    return list(islice(closed_states(system, start, _float_terms), n_max + 1))


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
    a relative band of width tol_class around 1. Raises DomainError for
    a tol_class that is not finite and >= 0.
    """
    require_tolerance(tol_class, "tol_class")
    k, mu, rho, _, kind = _growth(_prepare_rank(params, mode, eps_rank, 1), tol_class)
    return Classification(kind=kind, rank=1, witness=Rank1Data(k, mu, rho))
