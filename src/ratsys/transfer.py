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
                   _integer_spectrum, over_one_denominator)
from .errors import BranchError, DomainError
from .numeric import (ArithmeticMode, Number, is_exact, number_log,
                      require_tolerance, saturating_exp)


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


def composed_matrix(params: PeriodicCoefficients) -> TransferMatrix:
    """The two-step matrix of composed_entries, as a TransferMatrix; of
    Fraction coefficients, from the ints over D0 and D1 that
    core.over_one_denominator gives each parity, one gcd per entry."""
    if not all(type(v) is Fraction for v in params):
        return TransferMatrix(*composed_entries(*params))
    (d0, *even), (d1, *odd) = map(over_one_denominator, (params[:4], params[4:]))
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
    mantissa products at the larger binary exponent. Raises DomainError
    where an entry is inf."""
    p, s = m11 * m22, m12 * m21
    if not (SMALLEST_NORMAL <= p < math.inf and SMALLEST_NORMAL <= s < math.inf):
        if max(m11, m12, m21, m22) == math.inf:
            raise DomainError("matrix entries overflow float range")
        (f11, e11), (f12, e12), (f21, e21), (f22, e22) = map(
            math.frexp, (m11, m12, m21, m22))
        fp, ep, fs, es = f11 * f22, e11 + e22, f12 * f21, e12 + e21
        top = max(ep if fp else es, es if fs else ep)
        p, s = math.ldexp(fp, ep - top), math.ldexp(fs, es - top)
    return 1 if abs(p - s) <= eps * (p + s) else 2


def rank_decision(matrix: TransferMatrix, eps: float = 1e-12) -> int:
    """Decide rank 1 versus rank 2 of a positive 2x2 matrix.

    Exact entries have rank 1 where M = 0 in core._integer_spectrum, on
    ints over one denominator; float entries go through float_rank.
    """
    if matrix.is_exact:
        return 1 if _integer_spectrum(matrix)[3] == 0 else 2
    return float_rank(*matrix.entries, eps)


class System(NamedTuple):
    """A coefficient set prepared for one arithmetic mode.

    params holds the validated coefficients in the mode's representation
    (floats, or Fractions in exact mode), matrix the composed two-step
    matrix built from them, and rank its rank under eps_rank. Every
    classification and closed form reads these instead of converting,
    composing and deciding again. Build one with prepare.
    """

    params: PeriodicCoefficients
    mode: ArithmeticMode
    eps_rank: float
    matrix: TransferMatrix
    rank: int


def prepare(
    params: PeriodicCoefficients | System,
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    eps_rank: float = 1e-12,
) -> System:
    """Validate, convert, compose and decide the rank, once.

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
    if mode is ArithmeticMode.EXACT_RATIONAL:
        wp = params.as_fractions()
    else:
        wp = params.as_floats()
    matrix = composed_matrix(wp)
    if rank is None:
        rank = rank_decision(matrix, eps_rank)
    return System(wp, mode, eps_rank, matrix, rank)


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
