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
|lambda2/lambda1|; with the nomes of the start, that rate sets the
settle term past which one tail, core.Tail, sums the factors in closed
form, for the float closed form and the limit cycle alike.

Every function takes the coefficients either as PeriodicCoefficients or
as a System from transfer.prepare, as in the rank-1 module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count, islice
from typing import Iterator, NamedTuple

from .classification import Classification, Kind, float_decision, kind_from_sign
from .core import (EPSILON, ROUNDING, PeriodicCoefficients, Tail,
                   _integer_spectrum, closed_point, closed_states, head,
                   horizon, initial_state)
from .errors import BranchError, ConvergenceError, DomainError
from .numeric import (ArithmeticMode, Number, require_tolerance, saturating_exp,
                      shifted, wide)
from .transfer import (_LOST, Split, System, TransferMatrix, _prepare_rank,
                       composed_entries, float_split, prepare)

DEFAULT_CYCLE_TOL = 1e-11
DEFAULT_MAX_TERMS = 1_000_000

Quad = tuple[Number, Number, Number, Number]


class SpectralData(NamedTuple):
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


class Rank2Witness(NamedTuple):
    """Initial-value-free quantities that justify a rank-2 verdict."""

    lambda1: float
    lambda2: float
    q: float
    delta: float
    scale: float


class LimitCycle(NamedTuple):
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


def _roots(system: System) -> Split:
    """The Split of a rank-2 System's matrix: the one a float System
    carries (float_split where it holds none), or exact rationals from
    the isqrt of N of core._integer_spectrum of an exact one's ints."""
    if system.ints is None:
        return system.split or float_split(*system.matrix)
    alpha, beta, gamma, _ = system.matrix
    l, t, n, _ = _integer_spectrum(system.ints[2])
    root = math.isqrt(n)
    if root * root != n:
        raise DomainError(
            f"discriminant {Fraction(n, l * l)} has no rational square root; "
            "exact spectral evaluation is unavailable for these coefficients, "
            "use float mode")
    l1, l2 = Fraction(t + root, 2 * l), Fraction(t - root, 2 * l)
    lead1, lead2 = l1 - alpha, l2 - alpha
    return Split(l1, l2, beta / lead1, lead1, lead2,
                 gamma / lead1, gamma / lead2, l1 - l2)


def eigenvalues(
    params: PeriodicCoefficients | System,
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    eps_rank: float = 1e-12,
) -> tuple[Number, Number]:
    """(lambda1, lambda2) of the composed matrix, lambda1 dominant.

    Exact mode needs the discriminant to be a perfect rational square;
    otherwise the eigenvalues are irrational and a DomainError says so.
    """
    return _roots(_prepare_rank(params, mode, eps_rank, 2))[:2]


def float_criterion(
    m: Quad, even: Quad, tol_class: float = 0.0, sign: int | None = None,
) -> tuple[Split, float, float, float, Kind]:
    """(Split, scale, delta, log g, kind) of a float matrix m and the even
    coefficients: scale = (b0*Q + a0)*(d0*Q + c0), delta = lambda1*Q -
    scale, decided by classification.float_decision, or by sign, delta's
    exact sign, where given (0 makes delta 0.0). A delta that is not
    finite is inf with the kind's sign, one that underflows to 0 is
    5e-324 with it, and either is 0.0 on the boundary."""
    return _criterion(float_split(*m), m, even, tol_class, sign)


def _system_criterion(system: System, tol_class: float = 0.0):
    """float_criterion of a float System, on the Split it carries."""
    return _criterion(_roots(system), system.matrix, system.params.at(0),
                      tol_class, None)


def _criterion(split: Split, m: Quad, even: Quad, tol_class: float, sign: int | None):
    """float_criterion, given the Split of m."""
    a0, b0, c0, d0 = even
    l1, q = split.lambda1, split.q
    r0, r1 = b0 * q + a0, d0 * q + c0
    top, scale = l1 * q, r0 * r1
    delta = top - scale
    lead1, lead2 = split.lead1, split.lead2  # Q from the larger lead
    num, den = (m[1], lead1) if lead1 >= -lead2 else (-lead2, m[2])
    _, log_g, kind = float_decision(2, top, scale, (l1, q, r0, r1), tol_class,
                                    num, den, even)
    if sign is not None:
        kind = kind_from_sign(sign, 0, Kind.CONVERGES_TO_TWO_PERIODIC)
        delta = delta if sign else 0.0
    if not (delta and -math.inf < delta < math.inf):
        side = (kind is Kind.BLOW_EVEN_VANISH_ODD) - (kind is Kind.VANISH_EVEN_BLOW_ODD)
        delta = math.copysign(math.inf if delta else 5e-324, side) if side else 0.0
    return split, scale, delta, log_g, kind


def spectral_constants(
    params: PeriodicCoefficients | System,
    init: tuple[Number, Number],
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    eps_rank: float = 1e-12,
) -> SpectralData:
    """Expansion constants for the start (u0, v0) = (x0, y0)."""
    system = _prepare_rank(params, mode, eps_rank, 2)
    return _expansion(_roots(system), system.matrix, initial_state(init, mode))


def _expansion(
    split: Split, m: TransferMatrix, start: tuple[Number, Number]
) -> SpectralData:
    """SpectralData of a checked start from the matrix m and its Split."""
    beta, gamma = m.m12, m.m21
    u0, v0 = start
    l1, l2, q, lead1, lead2, ratio1, ratio2, gap = split
    c1 = beta / gap * (ratio1 * u0 + v0)
    c2 = beta / gap * (ratio2 * u0 + v0)
    c3 = (gamma * u0 + lead1 * v0) / gap
    c4 = (gamma * u0 + lead2 * v0) / gap
    return SpectralData(lambda1=l1, lambda2=l2, c1=c1, c2=c2, c3=c3, c4=c4, q=q)


# The closed form's settle comes at this term at the earliest, so that
# every index below 42, the horizons the golden outputs pin digit for
# digit, is the running sum itself.
_MIN_SETTLE_TERM = 20
# The bound on max|z|*r**(K - 1) over the nomes z at the settle term K,
# where Euler's series converges fast: each z*t**K is within r/2.
_SERIES_NOME = 0.5


def _balanced(wp: PeriodicCoefficients, eps_rank: float) -> bool:
    """True when delta is exactly 0 for the binary values of the floats."""
    exact = prepare(
        PeriodicCoefficients(*map(Fraction, wp)),
        ArithmeticMode.EXACT_RATIONAL, eps_rank)
    return exact.rank == 2 and delta_sign_exact(exact, eps_rank) == 0


def _settle(
    system: System, split: Split, start: tuple[float, float],
    anchors: list[tuple[float, float]], floor: int,
) -> Iterator[tuple]:
    """Logs of the running (x[2k], x[2k+1], y[2k], y[2k+1]), k >= 0,
    from the start and anchors, core.head's logs.
    Yields the logs of term 0; then (K, nomes), the settle term and the
    nomes, before any factor is drawn; then (logs, None) for the terms
    from 1 up to the settle term and (logs, factors) at it, the logs of
    its four factors, and stops.

    The products at k = 0 and 1 are states 0 to 3 from anchors. From
    k = 2 on each term multiplies in one factor per product,
    x[2k] = x[2k-2] * gx_even[k] and likewise for the other three. Every
    factor is a ratio of bounded positive quantities: the eigenvalue
    powers are carried only through t**k with t = l2/l1, |t| < 1, and the
    start only through ratios of the expansion constants. Those parts are
    scaled by powers of two, which round nothing, so that none leaves
    float range where the factor does not; DomainError says where a
    constant left float range (c1 or c3 is 0 where Q = lim c1/c3 passed
    it) or a factor's part over- or underflows. Each term costs the
    same, so running to term k costs k factors. A factor inf/inf is nan,
    and so is every log after it; core.closed_states and closed_logs
    refuse those.

    u[2j], v[2j], u[2j+1] and v[2j+1] are each a constant times
    lambda1**j*(1 - z*t**j), with the nomes z_u = c2/c1, z_v = c4/c3 and
    z_w, z_z, weighted means of those two (see core.Tail). K is the first
    term from floor with max|z|*r**(K - 1) <= 1/2, r = |t|, from logs, so
    no quotient leaves float range; where r rounds to 1, K is None, and
    the settle is the first term from max(floor, 2) whose four factors
    repeat the previous four exactly.

    Raises ConvergenceError where lambda2/lambda1 rounds to -1 and the
    two modes cancel at one parity: only 1 + lambda2/lambda1, lost to
    rounding, would tell the products there.
    """
    # the start's larger component brought into [0.5, 1), so that the
    # constants, whose ratios alone enter below, stay in float range
    es = wide(max(start))[1]
    sd = _expansion(split, system.matrix, (shifted(start[0], -es), shifted(start[1], -es)))
    if sd.lambda2 == -sd.lambda1 and any(
            abs(c + sign * d) * _LOST < abs(d)
            for c, d in ((sd.c1, sd.c2), (sd.c3, sd.c4)) for sign in (1, -1)):
        raise ConvergenceError(0, "lambda2/lambda1 rounds to -1 in float "
                                  "arithmetic; the closed form cannot "
                                  "separate the two eigenvalue modes")
    log = math.log
    l1, c1, c2, c3, c4 = sd.lambda1, sd.c1, sd.c2, sd.c3, sd.c4
    tk = t = sd.lambda2 / l1  # t**k
    r = abs(t)
    a0, b0, c0, d0 = system.params.at(0)
    (x0, y0), (x1, y1), (x_e, y_e), (x_o, y_o) = anchors
    yield x0, x1, y0, y1
    factors = x_e - x0, x_o - x1, y_e - y0, y_o - y1
    # u[2k], v[2k] / lambda1**k
    num_u, num_v = c1 - c2 * tk, c3 - c4 * tk
    # where one mode cancels the other at k = 1, q is x[2]/y[2]
    if abs(num_u) * _LOST < abs(c2 * tk):
        num_u = num_v * saturating_exp(x_e - y_e)
    elif abs(num_v) * _LOST < abs(c4 * tk):
        num_v = num_u * saturating_exp(y_e - x_e)
    # u, v and the coefficients times the powers of two that bring q,
    # b0*q + a0 and d0*q + c0 near 1: each factor is the same, bit
    # for bit, and its parts stay in float range
    eu, ev = wide(c1)[1], wide(c3)[1]
    e = eu - ev
    f = max(wide(b0)[1] + e, wide(a0)[1])
    g = max(wide(d0)[1] + e, wide(c0)[1])
    try:
        if not (0 < c1 < math.inf and 0 < c3 < math.inf
                and abs(c2) < math.inf and abs(c4) < math.inf):
            raise OverflowError
        c1, c2, num_u = shifted(c1, -eu), shifted(c2, -eu), shifted(num_u, -eu)
        c3, c4, num_v = shifted(c3, -ev), shifted(c4, -ev), shifted(num_v, -ev)
        l1 = shifted(l1, e - f - g)
        a0, b0, c0, d0 = (shifted(a0, -f), shifted(b0, e - f),
                          shifted(c0, -g), shifted(d0, e - g))
        q_cur = num_u / num_v
        s_cur = 1 / q_cur
        nomes = (c2 / c1, c4 / c3, (b0 * c2 + a0 * c4) / (b0 * c1 + a0 * c3),
                 (d0 * c2 + c0 * c4) / (d0 * c1 + c0 * c3))
        z = max(abs(nomes[0]), abs(nomes[1]))  # z_w, z_z lie between
        settle = (None if r >= 1.0 else floor if z <= _SERIES_NOME or not r
                  else max(floor, 1 + math.ceil((log(z) - log(_SERIES_NOME)) / -log(r))))
        yield settle, nomes
        if settle == 1:
            yield (x_e, x_o, y_e, y_o), factors
            return
        yield (x_e, x_o, y_e, y_o), None
        # b0*q + a0 and d0 + c0*s at the current term, reused at the next
        bq, ds = b0 * q_cur + a0, d0 + c0 * s_cur
        for k in count(2):
            tk *= t
            num_u_prev, num_v_prev = num_u, num_v
            num_u, num_v = c1 - c2 * tk, c3 - c4 * tk
            dq = d0 * q_cur + c0
            bs = b0 + a0 * s_cur
            q_cur = num_u / num_v
            s_cur = 1 / q_cur
            p_cur = l1 * num_u / num_v_prev
            r_cur = l1 * num_v / num_u_prev
            gx_even = p_cur / (bq * dq)
            gy_even = r_cur / (ds * bs)
            bq, ds = b0 * q_cur + a0, d0 + c0 * s_cur
            gx_odd = bq * dq / p_cur
            gy_odd = ds * bs / r_cur
            previous = factors
            factors = fxe, fxo, fye, fyo = (
                log(gx_even), log(gx_odd), log(gy_even), log(gy_odd))
            x_e, x_o = x_e + fxe, x_o + fxo
            y_e, y_o = y_e + fye, y_o + fyo
            if k == settle or (settle is None and k >= floor and factors == previous):
                yield (x_e, x_o, y_e, y_o), factors
                return
            yield (x_e, x_o, y_e, y_o), None
    except (OverflowError, ZeroDivisionError, ValueError):
        raise DomainError("the closed form's ratio factors pass float "
                          "range") from None


def _float_terms(
    system: System, start: tuple[float, float], anchors: list[tuple[float, float]]
) -> Iterator[tuple[Quad, Tail | None]]:
    """The float hook of core.closed_states: the logs of _settle up to
    its settle term K, at the earliest _MIN_SETTLE_TERM, and there the
    core.Tail of L = log g of float_criterion, t = lambda2/lambda1 and
    the nomes' z*t**K, whose base is the rounding of the K terms plus
    ROUNDING*r/(1 - r), r = |t|, for the rest it leaves out.

    An L within ROUNDING of 0 belongs to a set on the convergence
    boundary. If delta_sign_exact finds delta exactly 0 for the
    coefficients' binary values, L is exactly 0 and the Tail is snapped
    to it, so the orbit does not drift off its cycle.

    The spectral constants are computed on the first term; a rank-1
    System raises BranchError there.
    """
    system = _prepare_rank(system, system.mode, system.eps_rank, 2)
    split, _, _, log_g, _ = _system_criterion(system)
    terms = _settle(system, split, start, anchors, _MIN_SETTLE_TERM)
    yield next(terms), None
    nomes = next(terms)[1]
    for k, (logs, factors) in enumerate(terms, 1):
        if factors:
            break
        yield logs, None
    t = split.lambda2 / split.lambda1
    r = abs(t)
    if r >= 1.0:
        yield logs, Tail(k, logs, factors, math.inf, math.inf)
        return
    rounding = ROUNDING * max(1.0, abs(log_g))
    base = k * (rounding + EPSILON * max(map(abs, logs))) + ROUNDING * r / (1.0 - r)
    if abs(log_g) <= ROUNDING and _balanced(system.params, system.eps_rank):
        log_g = rounding = 0.0
    xs = tuple([z * t**k for z in nomes])
    yield logs, Tail(k, logs, (log_g, -log_g, log_g, -log_g), base, rounding, t, xs)


def rank2_solution_sequence(
    params: PeriodicCoefficients | System,
    init: tuple[Number, Number],
    n_max: int,
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    eps_rank: float = 1e-12,
) -> list[tuple[Number, Number]]:
    """Closed-form states for n = 0 .. n_max, by core.closed_states.

    Exact mode is core.closed_factors, which serves every rational set.
    Float mode adds the logs of the ratio factors of _settle up to the
    settle term K of _float_terms and takes the core.Tail after it;
    values beyond float range saturate to inf or 0.0. Its spectral
    constants are computed on reaching index 1, so a rank-1 System
    raises BranchError there.
    """
    horizon(n_max)
    system = prepare(params, mode, eps_rank)
    start = initial_state(init, mode)
    return list(islice(closed_states(system, start, _float_terms), n_max + 1))


def rank2_solution(
    params: PeriodicCoefficients | System,
    init: tuple[Number, Number],
    n: int,
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    eps_rank: float = 1e-12,
) -> tuple[Number, Number]:
    """(x[n], y[n]) through the telescoping ratio products, by
    core.closed_point, which in exact mode takes n integer steps, or one
    power of rho on a rank-1 set, and checks state n against the bit cap
    where rank2_solution_sequence checks each state. Past index 3 float
    mode runs the factors only to the settle term K of _float_terms, 20
    where every nome is within 1/2 and about 20 where r rounds to 1 and
    the factors repeat, not n; below index 2K + 2, or where r rounds to 1
    and the factors never repeat, it costs n/2 terms.
    """
    horizon(n, "n")
    system = prepare(params, mode, eps_rank)
    return closed_point(system, initial_state(init, mode), n, _float_terms)


def criterion_delta(
    params: PeriodicCoefficients | System,
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    eps_rank: float = 1e-12,
) -> Number:
    """The trichotomy quantity lambda1*Q - (b0*Q + a0)*(d0*Q + c0), in
    the arithmetic of the mode.

    Depends only on coefficients. Exact mode needs a rational eigenvalue
    gap; delta_sign_exact decides the sign without that restriction.
    """
    system = _prepare_rank(params, mode, eps_rank, 2)
    l1, _, q = _roots(system)[:3]
    a0, b0, c0, d0 = system.params.at(0)
    return l1 * q - (b0 * q + a0) * (d0 * q + c0)


def delta_sign_exact(
    params: PeriodicCoefficients | System, eps_rank: float = 1e-12
) -> int:
    """Exact sign of the trichotomy quantity for rational coefficients.

    delta_crit is a rational function of sqrt(disc). On the ints the
    exact System carries, [[alpha, beta], [gamma, delta]]/s of the
    matrix and (A0, B0, C0, E0)/D0 of the even coefficients, it is X +
    Y*sqrt(disc) over the positive s**3*D0**2, signed by comparing X**2
    with Y**2*disc, square disc or not. Returns -1, 0, or 1.
    """
    system = _prepare_rank(params, ArithmeticMode.EXACT_RATIONAL, eps_rank, 2)
    (d0, a0, b0, c0, e0), _, (s, alpha, beta, gamma, delta) = system.ints
    diff, dd = delta - alpha, d0 * d0
    disc = diff * diff + 4 * beta * gamma
    g = (alpha + delta) * dd - 2 * (b0 * c0 + a0 * e0) * s
    x = (beta * (diff * g + disc * dd) - 4 * b0 * e0 * beta * beta * s
         - a0 * c0 * (diff * diff + disc) * s)
    y = beta * g + (beta * dd - 2 * a0 * c0 * s) * diff
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
    """Trichotomy by the sign of delta_crit: float mode by float_criterion,
    on the Split the System carries, exact mode by delta_sign_exact. The
    witness always holds the float values float_criterion forms from the
    float coefficients. Raises DomainError for a tol_class that is not
    finite and >= 0.
    """
    require_tolerance(tol_class, "tol_class")
    system = _prepare_rank(params, mode, eps_rank, 2)
    if mode is ArithmeticMode.EXACT_RATIONAL:
        wp = system.params.as_floats()
        sign = delta_sign_exact(system, eps_rank)
        criterion = float_criterion(composed_entries(*wp), wp.at(0), tol_class, sign)
    else:
        criterion = _system_criterion(system, tol_class)
    split, scale, delta, _, kind = criterion
    witness = Rank2Witness(*split[:3], delta, scale)
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

    The logs at term infinity of the closed form's core.Tail with factors
    0, from the first term K >= 1 of _settle, r = |lambda2/lambda1|: K,
    not tol, sets the cost. Where r rounds to 1 the logs are those where
    the factors first repeat. Raises ConvergenceError where that term
    passes max_terms, where EPSILON times m/((1 - m)*(1 - r)), m =
    max|z*t**K| over the nomes, which bounds the tails, passes tol (both
    before the first factor is drawn where r < 1), or at once where |log g| of
    float_criterion, the factors' limit, is above the rounding of delta and
    at least tol over max(1, r/(1 - r)); DomainError for a tol that is not
    finite and > 0, a tol_class that is not finite and >= 0, a max_terms
    that is not an int >= 1, or a cycle from this start outside float range;
    BranchError off the convergent case.
    """
    require_tolerance(tol, "tol", positive=True)
    horizon(max_terms, "max_terms", 1, "finite and an int >= 1")
    require_tolerance(tol_class, "tol_class")
    system = _prepare_rank(params, ArithmeticMode.FLOAT64, eps_rank, 2)
    wp = system.params
    split, _, _, log_g, kind = _system_criterion(system, tol_class)
    if kind is not Kind.CONVERGES_TO_TWO_PERIODIC:
        raise BranchError(
            f"limit cycle exists only in the convergent case, "
            f"classification is {kind.value}"
        )
    start = initial_state(init, ArithmeticMode.FLOAT64)
    anchors = head(wp, start, ArithmeticMode.FLOAT64)[1]
    t = split.lambda2 / split.lambda1
    r = abs(t)
    drift = abs(log_g)  # every log factor tends to +-log g, the least change
    tail = r / (1.0 - r) if r < 1.0 else math.inf
    if drift > ROUNDING and drift >= tol / max(1.0, tail):
        raise ConvergenceError(0, f"cycle products drift by {drift:.3g} "
                                  f"per term and cannot meet tol={tol}")
    unsettled = f"cycle products did not settle within {max_terms} terms"
    terms = _settle(system, split, start, anchors, 1)
    next(terms)  # term 0
    k, nomes = next(terms)
    if k is not None:  # the series at term K, or a refusal
        if k > max_terms:
            raise ConvergenceError(max_terms, unsettled)
        xs = tuple([z * t**k for z in nomes])
        m = max(map(abs, xs))
        if EPSILON * m / ((1.0 - m) * (1.0 - r)) > tol:
            raise ConvergenceError(k, f"cycle remainders round by more than tol={tol}")
    # range, not islice, as max_terms may pass sys.maxsize
    for _, (logs, factors) in zip(range(max_terms), terms):
        if factors:
            break
    else:
        raise ConvergenceError(max_terms, unsettled)
    if k is not None:
        logs = Tail(k, logs, (0.0,) * 4, t=t, xs=xs).at(math.inf)
    x_even, x_odd, y_even, y_odd = cycle = [saturating_exp(v) for v in logs]
    if not all(0 < v < math.inf for v in cycle):
        raise DomainError("the limit cycle from this start lies outside float range")
    residual = max(
        abs(x_odd - (wp.a0 / x_even + wp.b0 / y_even)) / x_odd,
        abs(x_even - (wp.a1 / x_odd + wp.b1 / y_odd)) / x_even,
        abs(y_odd - (wp.c0 / x_even + wp.d0 / y_even)) / y_odd,
        abs(y_even - (wp.c1 / x_odd + wp.d1 / y_odd)) / y_even,
    )
    return LimitCycle(x_even, x_odd, y_even, y_odd, residual)
