"""Shared vocabulary for long-run behavior.

The trichotomy: along every positive orbit either the even-indexed
subsequences vanish while the odd ones blow up, or the reverse, or the
orbit is attracted to (or lands exactly on) a positive two-cycle. Which
case holds depends only on the coefficients, never on the initial values.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Union

from .core import SMALLEST_NORMAL, _scaled_sum

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .numeric import Number
    from .rank1 import Rank1Data
    from .rank2 import LimitCycle, Rank2Witness


class Kind(Enum):
    """The four long-run verdicts. Values are the stable output tags."""

    VANISH_EVEN_BLOW_ODD = "VanishEvenBlowOdd"
    BLOW_EVEN_VANISH_ODD = "BlowEvenVanishOdd"
    EXACT_TWO_PERIODIC = "ExactTwoPeriodic"
    CONVERGES_TO_TWO_PERIODIC = "ConvergesToTwoPeriodic"


def kind_from_sign(value: Number, band: Number, boundary: Kind) -> Kind:
    """The verdict read off a decision quantity (rho - 1, or delta): the
    boundary kind within band of zero (band 0 in exact mode), otherwise
    the sign says which parity vanishes."""
    if abs(value) <= band:
        return boundary
    return Kind.VANISH_EVEN_BLOW_ODD if value < 0 else Kind.BLOW_EVEN_VANISH_ODD


_LN2, _INF, _NORMAL = math.log(2.0), math.inf, SMALLEST_NORMAL
_BOUNDARY = (None, Kind.EXACT_TWO_PERIODIC, Kind.CONVERGES_TO_TWO_PERIODIC)


def scaled_ratio(a: float, b: float) -> tuple[float, int]:
    """a/b of positive floats as (f, e), the value f*2**e in any range."""
    (fa, ea), (fb, eb) = math.frexp(a), math.frexp(b)
    return fa / fb, ea - eb


def scaled_sum(a: float, t: tuple[float, int], b: float) -> tuple[float, int]:
    """a + t*b of positive floats a, b and a scaled t, as (f, e)."""
    (fa, ea), (fb, eb) = math.frexp(a), math.frexp(b)
    return _scaled_sum(fa, ea, t[0] * fb, t[1] + eb)


def float_decision(
    rank: int, top: float, bottom: float, parts: tuple[float, ...],
    tol_class: float, scaled: Callable[..., tuple], *args,
) -> tuple[float, float, Kind]:
    """(g, log g, kind) of a float verdict of either rank, from
    g = top/bottom = parts[0]*parts[1]/(parts[2]*parts[3]): rho = K*mu
    over the row sums in rank 1, 1 + delta/scale = lambda1*Q/scale in
    rank 2. Where the parts, top, bottom and g are normal floats, the
    ranks' own formulas decide: rho - 1 against tol_class, log g = log rho;
    delta = top - bottom against tol_class*scale, log g = log1p(delta/scale).
    Elsewhere scaled(*args) gives the parts as scaled pairs, g saturates,
    and g - 1 against tol_class decides."""
    p0, p1, p2, p3 = parts
    if (_NORMAL <= top < _INF and _NORMAL <= bottom < _INF and _NORMAL <= p0
            and _NORMAL <= p1 and _NORMAL <= p2 and _NORMAL <= p3):
        g = top / bottom
        if _NORMAL <= g < _INF:
            if rank == 1:
                return g, math.log(g), kind_from_sign(g - 1, tol_class, _BOUNDARY[1])
            delta = top - bottom
            log_g = math.log1p(delta / bottom) if g > 0.5 else math.log(g)
            return g, log_g, kind_from_sign(delta, tol_class * bottom, _BOUNDARY[2])
    (fx, ex), (fy, ey), (f0, e0), (f1, e1) = scaled(*args)
    f, e = fx * fy / (f0 * f1), ex + ey - e0 - e1
    log_g = math.log(f) + e * _LN2
    g = math.ldexp(f, e) if log_g < 709.0 else _INF
    if _NORMAL <= g < _INF:
        log_g = math.log(g)
    return g, log_g, kind_from_sign(g - 1.0, tol_class, _BOUNDARY[rank])


class Classification(NamedTuple):
    """Verdict plus the numbers that justify it.

    rank is the rank of the composed transfer matrix. The witness carries
    the decision quantities: growth data (K, mu, rho) for rank 1, spectral
    data (eigenvalues, Q, delta, scale) for rank 2. For the rank-2
    convergent case a limit cycle for a probe start may be attached;
    the verdict itself never depends on initial values.
    """

    kind: Kind
    rank: int
    witness: Union["Rank1Data", "Rank2Witness"]
    cycle: Optional["LimitCycle"] = None
