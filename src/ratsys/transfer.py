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
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction

from .core import Orbit, PeriodicCoefficients
from .errors import DomainError
from .numeric import ArithmeticMode, Number, is_exact, number_log, saturating_exp


class Parity(IntEnum):
    EVEN = 0
    ODD = 1


@dataclass(frozen=True, slots=True)
class TransferMatrix:
    """2x2 positive matrix acting on (u, v), row-major entries."""

    m11: Number
    m12: Number
    m21: Number
    m22: Number

    def det(self) -> Number:
        return self.m11 * self.m22 - self.m12 * self.m21

    @property
    def entries(self) -> tuple[Number, Number, Number, Number]:
        return (self.m11, self.m12, self.m21, self.m22)

    @property
    def is_exact(self) -> bool:
        return all(is_exact(e) for e in self.entries)


@dataclass(frozen=True, slots=True)
class UVPoint:
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


def parity_matrix(params: PeriodicCoefficients, parity: Parity) -> TransferMatrix:
    """The one-step matrix [[b, a], [d, c]] for the given parity."""
    a, b, c, d = params.at(int(parity))
    return TransferMatrix(b, a, d, c)


def composed_matrix(params: PeriodicCoefficients) -> TransferMatrix:
    """The two-step matrix, odd-step matrix applied after the even one.

    Entries written out so they are exact in rational mode:

        [[a1*d0 + b0*b1, a0*b1 + a1*c0],
         [b0*d1 + c1*d0, a0*d1 + c0*c1]]
    """
    p = params
    return TransferMatrix(
        p.a1 * p.d0 + p.b0 * p.b1,
        p.a0 * p.b1 + p.a1 * p.c0,
        p.b0 * p.d1 + p.c1 * p.d0,
        p.a0 * p.d1 + p.c0 * p.c1,
    )


def linear_step(
    matrix: TransferMatrix, uv: tuple[Number, Number]
) -> tuple[Number, Number]:
    u, v = uv
    return (matrix.m11 * u + matrix.m12 * v, matrix.m21 * u + matrix.m22 * v)


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
        for p in orbit:
            sum_lx += math.log(p.x)
            sum_ly_prev += prev_ly
            lu = sum_lx + sum_ly_prev
            lv = sum_lx - math.log(p.x) + sum_ly_prev + math.log(p.y)
            u, v = saturating_exp(lu), saturating_exp(lv)
            out.append(UVPoint(p.n, u, v, lu, lv))
            prev_ly = math.log(p.y)
        return out
    # Fraction seeds keep int-valued points from hitting true division.
    prod_x = Fraction(1)  # x[0]*...*x[n] once updated
    prod_y_prev = Fraction(1)  # y[0]*...*y[n-1]
    prev_y: Number = Fraction(1)
    for p in orbit:
        prod_x = prod_x * p.x
        prod_y_prev = prod_y_prev * prev_y
        u = prod_x * prod_y_prev
        v = (prod_x / p.x) * prod_y_prev * p.y
        out.append(UVPoint(p.n, u, v, number_log(u), number_log(v)))
        prev_y = p.y
    return out


def rank_decision(matrix: TransferMatrix, eps: float = 1e-12) -> int:
    """Decide rank 1 versus rank 2 of a positive 2x2 matrix.

    Exact entries compare the determinant with zero outright. Float
    entries treat the matrix as singular when |det| <= eps times the
    magnitude of the products that formed it, which keeps the test
    meaningful across scales.
    """
    det = matrix.det()
    if matrix.is_exact:
        return 1 if det == 0 else 2
    scale = abs(matrix.m11 * matrix.m22) + abs(matrix.m12 * matrix.m21)
    if not math.isfinite(float(det)):
        raise DomainError("matrix entries overflow float range")
    return 1 if abs(det) <= eps * scale else 2


@dataclass(frozen=True, slots=True)
class System:
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
    if not (math.isfinite(eps_rank) and eps_rank >= 0):
        raise DomainError(
            f"eps_rank must be finite and >= 0, got {eps_rank!r}"
        )
    if mode is ArithmeticMode.EXACT_RATIONAL:
        wp = params.as_fractions()
    else:
        wp = params.as_floats()
    matrix = composed_matrix(wp)
    if rank is None:
        rank = rank_decision(matrix, eps_rank)
    return System(wp, mode, eps_rank, matrix, rank)
