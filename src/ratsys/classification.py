"""Shared vocabulary for long-run behavior.

The trichotomy: along every positive orbit either the even-indexed
subsequences vanish while the odd ones blow up, or the reverse, or the
orbit is attracted to (or lands exactly on) a positive two-cycle. Which
case holds depends only on the coefficients, never on the initial values.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional, Union

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


@dataclass(frozen=True, slots=True)
class Classification:
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
