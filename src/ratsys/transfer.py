"""Linearization of the system through cumulative products.

With u[n] = x[0]*...*x[n] * y[0]*...*y[n-1] and
     v[n] = x[0]*...*x[n-1] * y[0]*...*y[n]
(empty products equal 1, so u[0] = x[0] and v[0] = y[0]), one nonlinear
step of the system becomes one linear step

    (u[n+1], v[n+1]) = M[n] (u[n], v[n]),   M[n] = [[b[n], a[n]],
                                                    [d[n], c[n]]]

so the whole orbit is governed by the two-step matrix M_odd * M_even.
Everything spectral in this package is about that composed matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .core import (SMALLEST_NORMAL, Orbit, PeriodicCoefficients,
                   _integer_spectrum, _parities, over_one_denominator)
from .errors import BranchError, DomainError
from .numeric import (ArithmeticMode, Number, is_exact, number_log,
                      require_tolerance, saturating_exp, shifted, wide,
                      wide_product)

# A difference below 1/_LOST of its terms has lost half its digits.
_LOST = 2.0 ** 26


class TransferMatrix(NamedTuple):
    """2x2 positive matrix acting on (u, v), row-major entries."""

    m11: Number
    m12: Number
    m21: Number
    m22: Number

    def det(self) -> Number:
        return self.m11 * self.m22 - self.m12 * self.m21

    @property
    def entries(self) -> tuple[Number, Number, Number, Number]:
        return tuple(self)

    @property
    def is_exact(self) -> bool:
        return all(map(is_exact, self))


class UVPoint(NamedTuple):
    """Cumulative-product pair at one index.

    In float mode log_u and log_v are authoritative; u and v are their
    exponentials and saturate to inf once the products outgrow float
    range (u grows like the dominant eigenvalue to the n/2 and leaves
    float64 near n of about 1200 already for moderate spectra). In exact
    mode u and v are exact Fractions and the logs are float summaries.
    """

    n: int
    u: Number
    v: Number
    log_u: float
    log_v: float


def composed_entries(
    a0: Number, b0: Number, c0: Number, d0: Number,
    a1: Number, b1: Number, c1: Number, d1: Number,
) -> tuple[Number, Number, Number, Number]:
    """Entries (m11, m12, m21, m22) of the two-step matrix, odd-step
    matrix applied after the even one, from the eight coefficients:

        [[a1*d0 + b0*b1, a0*b1 + a1*c0],
         [b0*d1 + c1*d0, a0*d1 + c0*c1]]

    Plain arithmetic, so the entries are exact for rational inputs.
    """
    return (a1 * d0 + b0 * b1, a0 * b1 + a1 * c0,
            b0 * d1 + c1 * d0, a0 * d1 + c0 * c1)


def composed_matrix(params: PeriodicCoefficients, *, parities=None) -> TransferMatrix:
    """The two-step matrix of composed_entries, as a TransferMatrix; of
    Fraction coefficients, from the ints over D0 and D1 that
    core.over_one_denominator gives each parity, one gcd per entry.
    parities is internal: prepare passes the ints it has formed."""
    if not all(type(v) is Fraction for v in params):
        return TransferMatrix(*composed_entries(*params))
    (d0, *even), (d1, *odd) = parities or _parities(params)
    return TransferMatrix(*map(Fraction, composed_entries(*even, *odd), [d0 * d1] * 4))


def uv_from_orbit(orbit: Orbit) -> list[UVPoint]:
    """Cumulative-product pairs for every index of the orbit.

    Float orbits are accumulated in log space to avoid overflow, and u
    and v saturate to inf past float range; exact orbits multiply
    Fractions directly.
    """
    out: list[UVPoint] = []
    if orbit.mode is ArithmeticMode.FLOAT64:
        sum_lx = 0.0  # log of x[0]*...*x[n]
        sum_ly_prev = 0.0  # log of y[0]*...*y[n-1]
        prev_ly = 0.0
        for n, (x, y) in enumerate(orbit.states):
            sum_lx += math.log(x)
            sum_ly_prev += prev_ly
            lu = sum_lx + sum_ly_prev
            lv = sum_lx - math.log(x) + sum_ly_prev + math.log(y)
            u, v = saturating_exp(lu), saturating_exp(lv)
            out.append(UVPoint(n, u, v, lu, lv))
            prev_ly = math.log(y)
        return out
    # Fraction seeds keep int-valued points from hitting true division.
    prod_x = Fraction(1)  # x[0]*...*x[n] once updated
    prod_y_prev = Fraction(1)  # y[0]*...*y[n-1]
    prev_y: Number = Fraction(1)
    for n, (x, y) in enumerate(orbit.states):
        prod_x = prod_x * x
        prod_y_prev = prod_y_prev * prev_y
        u = prod_x * prod_y_prev
        v = (prod_x / x) * prod_y_prev * y
        out.append(UVPoint(n, u, v, number_log(u), number_log(v)))
        prev_y = y
    return out


def float_rank(
    m11: float, m12: float, m21: float, m22: float, eps: float = 1e-12
) -> int:
    """Rank of a positive 2x2 float matrix: 1 where |det| <= eps times
    m11*m22 + m12*m21. Where a product is not a normal float, both are
    Wide products at their common exponent. Raises DomainError where an
    entry is inf."""
    p, s = m11 * m22, m12 * m21
    if not (SMALLEST_NORMAL <= p < math.inf and SMALLEST_NORMAL <= s < math.inf):
        if max(m11, m12, m21, m22) == math.inf:
            raise DomainError("matrix entries overflow float range")
        (fp, ep), (fs, es) = (wide_product(wide(m11), wide(m22)),
                              wide_product(wide(m12), wide(m21)))
        top = max(ep if fp else es, es if fs else ep)
        p, s = shifted(fp, ep - top), shifted(fs, es - top)
    return 1 if abs(p - s) <= eps * (p + s) else 2


class Split(NamedTuple):
    """Of a positive matrix [[alpha, beta], [gamma, delta]]: eigenvalues,
    dominant first, Q = beta/(lambda1 - alpha), the leads lambda - alpha,
    the ratios gamma/lead and the gap lambda1 - lambda2."""

    lambda1: Number
    lambda2: Number
    q: Number
    lead1: Number
    lead2: Number
    ratio1: Number
    ratio2: Number
    gap: Number


def float_split(m11: float, m12: float, m21: float, m22: float) -> Split:
    """The Split of a positive 2x2 float matrix from its entries.

    The eigenvalues come from the matrix scaled by the power of two that
    brings its largest entry into [0.5, 1), so the discriminant cannot
    overflow while every entry is finite; the scaling is exact, and the
    roots are scaled back. Raises DomainError when an entry or lambda1
    is inf, or where the leads without cancellation below would divide
    by beta, gamma or a lead that underflowed to 0.

    The leads lambda - alpha are plain differences of the roots where
    all keep their digits: lambda1 <= 64*(lambda1 - alpha),
    |lambda2| <= 64*|lambda2 - alpha|, lambda1 <= _LOST*|lambda2|, and
    the scaled discriminant is a normal float, so that neither of its
    terms underflowed. Elsewhere beta*gamma is lost against
    (alpha - delta)**2, lambda2 against lambda1, or both terms.
    With d = (delta - alpha)/2 and h = hypot(d, sqrt(beta)*sqrt(gamma)),
    the leads are d + h and d - h: the one whose sum adds is taken as it
    is, the other as -beta*gamma over it, in a form that never rounds
    beta*gamma away, with its ratio -(the first lead)/beta, which holds
    where it underflows. The gap is 2h. Where the scaled discriminant
    underflowed, lambda1 is alpha plus its lead; where it did, or
    (trace - root)/2 lost half its digits, lambda2 is alpha plus its
    lead if alpha <= delta, else delta minus lambda1's lead, which do
    not cancel.
    """
    top = max(m11, m12, m21, m22)
    if top == math.inf:
        raise DomainError("matrix entries overflow float range")
    e = wide(top)[1]
    alpha, beta = shifted(m11, -e), shifted(m12, -e)
    gamma, delta = shifted(m21, -e), shifted(m22, -e)
    disc = (alpha - delta) ** 2 + 4 * beta * gamma
    root = math.sqrt(disc)
    trace = alpha + delta
    try:  # lambda1 may pass float range while every entry is finite
        l1, l2 = shifted((trace + root) * 0.5, e), shifted((trace - root) * 0.5, e)
    except OverflowError:
        raise DomainError("matrix entries overflow float range") from None
    lead1, lead2 = l1 - m11, l2 - m11
    if (disc >= SMALLEST_NORMAL and abs(l2) * _LOST >= l1
            and l1 <= 64 * lead1 and abs(l2) <= 64 * abs(lead2)):
        return Split(l1, l2, m12 / lead1, lead1, lead2,
                     m21 / lead1, m21 / lead2, l1 - l2)
    d = (m22 - m11) * 0.5
    sb, sg = math.sqrt(m12), math.sqrt(m21)
    h = math.hypot(d, sb * sg)
    lead = d + h if d >= 0 else d - h
    if not (m12 and (m21 or d >= 0) and lead):
        raise DomainError("matrix entries underflow float range")
    other = -(sb / lead * sg) * sb * sg
    if disc < SMALLEST_NORMAL:
        l1 = m11 + (lead if d >= 0 else other)
    if disc < SMALLEST_NORMAL or abs(l2) * _LOST < l1:
        l2 = m11 + other if d >= 0 else m22 - other
    if d >= 0:
        return Split(l1, l2, m12 / lead, lead, other, m21 / lead, -lead / m12, 2 * h)
    return Split(l1, l2, -lead / m21, other, lead, -lead / m12, m21 / lead, 2 * h)


def rank_decision(matrix: TransferMatrix, eps: float = 1e-12) -> int:
    """Decide rank 1 versus rank 2 of a positive 2x2 matrix.

    Exact entries go through _exact_rank, on ints over one denominator;
    float entries through float_rank.
    """
    if matrix.is_exact:
        return _exact_rank(over_one_denominator(matrix))
    return float_rank(*matrix.entries, eps)


def _exact_rank(ints: tuple[int, ...]) -> int:
    """1 where M = 0 in core._integer_spectrum of a matrix's ints, else 2."""
    return 1 if _integer_spectrum(ints)[3] == 0 else 2


class System(NamedTuple):
    """A coefficient set prepared for one arithmetic mode.

    params holds the validated coefficients in the mode's representation
    (floats, or Fractions in exact mode), matrix the composed two-step
    matrix built from them, and rank its rank under eps_rank. An exact
    System's ints are what core.over_one_denominator gives the even and
    the odd coefficients and the matrix; a float System of rank 2 holds
    the Split of its matrix, None where float_split raised (it raises
    again where the Split is needed). Every classification and closed
    form reads these instead of converting, composing and deciding
    again. Build one with prepare.
    """

    params: PeriodicCoefficients
    mode: ArithmeticMode
    eps_rank: float
    matrix: TransferMatrix
    rank: int
    ints: tuple[tuple[int, ...], ...] | None
    split: Split | None


def prepare(
    params: PeriodicCoefficients | System,
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    eps_rank: float = 1e-12,
) -> System:
    """Validate, convert, compose and decide the rank, once, and form
    the ints or the Split the System holds.

    A System already in this mode with this eps_rank is returned as it
    is. A System in the other mode is converted from its coefficients;
    a float System made from an exact one keeps the exact rank, which
    no tolerance can improve on. Raises DomainError for an eps_rank that
    is negative or not finite, and for coefficients that exact mode
    cannot take.
    """
    rank = None
    if isinstance(params, System):
        if params.mode is mode and params.eps_rank == eps_rank:
            return params
        if params.mode is ArithmeticMode.EXACT_RATIONAL:
            rank = params.rank
        params = params.params
    require_tolerance(eps_rank, "eps_rank")
    ints = split = None
    if mode is ArithmeticMode.EXACT_RATIONAL:
        wp = params.as_fractions()
        parities = _parities(wp)
        matrix = composed_matrix(wp, parities=parities)
        ints = (*parities, over_one_denominator(matrix))
    else:
        wp = params.as_floats()
        matrix = composed_matrix(wp)
    if rank is None:
        rank = _exact_rank(ints[2]) if ints else rank_decision(matrix, eps_rank)
    if ints is None and rank == 2:
        try:
            split = float_split(*matrix)
        except DomainError:
            pass
    return System(wp, mode, eps_rank, matrix, rank, ints, split)


def _prepare_rank(
    params: PeriodicCoefficients | System, mode: ArithmeticMode,
    eps_rank: float, rank: int,
) -> System:
    """prepare, for a branch that serves one rank: BranchError where the
    composed matrix has the other."""
    system = prepare(params, mode, eps_rank)
    if system.rank != rank:
        raise BranchError(f"composed matrix has rank {system.rank}; " + (
            "the spectral split is degenerate, use the rank-1 closed forms"
            if rank == 2 else
            f"the row ratio K is undefined (det = {system.matrix.det()!r})"))
    return system
