"""Direct iteration of the planar rational system with period-two coefficients.

The system is

    x[n+1] = a[n]/x[n] + b[n]/y[n]
    y[n+1] = c[n]/x[n] + d[n]/y[n]

where each coefficient sequence alternates between two positive values:
a[2k] = a0, a[2k+1] = a1, and likewise for b, c, d. Positive initial values
give positive orbits for every n, so direct iteration serves as the oracle
against which all closed-form evaluation in this package is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import BitGrowthError, DomainError, TruncationError
from .numeric import (
    ArithmeticMode,
    Number,
    log_add_exp,
    require_positive,
    to_fraction,
)

DEFAULT_BIT_CAP = 1_000_000
COEFF_NAMES = ("a0", "b0", "c0", "d0", "a1", "b1", "c1", "d1")


@dataclass(frozen=True, slots=True)
class PeriodicCoefficients:
    """The eight coefficients, even-step quadruple then odd-step quadruple.

    All values must be positive and finite. Equal values across parities
    are allowed; ``strictly_alternating`` reports whether every sequence
    genuinely takes two distinct values.
    """

    a0: Number
    b0: Number
    c0: Number
    d0: Number
    a1: Number
    b1: Number
    c1: Number
    d1: Number

    def __post_init__(self):
        for name in COEFF_NAMES:
            require_positive(getattr(self, name), f"coefficient {name}")

    def at(self, n: int) -> tuple[Number, Number, Number, Number]:
        """Coefficient quadruple (a, b, c, d) used by the step at index n."""
        if n % 2 == 0:
            return (self.a0, self.b0, self.c0, self.d0)
        return (self.a1, self.b1, self.c1, self.d1)

    @property
    def strictly_alternating(self) -> bool:
        """True when a0 != a1, b0 != b1, c0 != c1, d0 != d1 all hold."""
        return (
            self.a0 != self.a1
            and self.b0 != self.b1
            and self.c0 != self.c1
            and self.d0 != self.d1
        )

    def as_floats(self) -> "PeriodicCoefficients":
        """Float copy, or self when every coefficient is already a float.

        Sharing is safe: the value is frozen and was validated when it
        was built.
        """
        values = [getattr(self, f) for f in COEFF_NAMES]
        if all(type(v) is float for v in values):
            return self
        return PeriodicCoefficients(*(float(v) for v in values))

    def as_fractions(self) -> "PeriodicCoefficients":
        """Exact copy, or self when every coefficient is already a Fraction;
        rejects float-valued coefficients."""
        values = [getattr(self, f) for f in COEFF_NAMES]
        if all(type(v) is Fraction for v in values):
            return self
        return PeriodicCoefficients(
            *(to_fraction(v, f"coefficient {f}")
              for f, v in zip(COEFF_NAMES, values))
        )


@dataclass(frozen=True, slots=True)
class OrbitPoint:
    n: int
    x: Number
    y: Number

    def __post_init__(self):
        if self.n < 0:
            raise DomainError(f"orbit index must be >= 0, got {self.n}")
        require_positive(self.x, f"x[{self.n}]")
        require_positive(self.y, f"y[{self.n}]")


@dataclass(frozen=True, slots=True)
class Orbit:
    """A finite orbit prefix, indices 0 .. n_max with no gaps."""

    points: tuple[OrbitPoint, ...]
    mode: ArithmeticMode

    def __post_init__(self):
        for i, p in enumerate(self.points):
            if p.n != i:
                raise DomainError(f"orbit indices must be contiguous from 0, "
                                  f"point {i} has n={p.n}")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[OrbitPoint]:
        return iter(self.points)

    def state(self, n: int) -> tuple[Number, Number]:
        return (self.points[n].x, self.points[n].y)

    @property
    def n_max(self) -> int:
        return len(self.points) - 1


def step(
    params: PeriodicCoefficients,
    n: int,
    state: tuple[Number, Number],
) -> tuple[Number, Number]:
    """One application of the map at index n.

    Uses the even quadruple when n is even, the odd one otherwise, matching
    a[2k] = a0. Raises DomainError when either state component is zero,
    negative, or non-finite, naming the offending component.
    """
    x, y = state
    require_positive(x, f"x[{n}]")
    require_positive(y, f"y[{n}]")
    a, b, c, d = params.at(n)
    return (a / x + b / y, c / x + d / y)


def initial_state(
    init: tuple[Number, Number], mode: ArithmeticMode
) -> tuple[Number, Number]:
    """The start (x0, y0) as floats, or as Fractions in exact mode.

    Raises DomainError unless both are finite and positive.
    """
    if mode is ArithmeticMode.EXACT_RATIONAL:
        state = (to_fraction(init[0], "x0"), to_fraction(init[1], "y0"))
    else:
        try:
            state = (float(init[0]), float(init[1]))
        except OverflowError:
            raise DomainError("x0 and y0 must lie within float range") from None
    require_positive(state[0], "x0")
    require_positive(state[1], "y0")
    return state


def _bits(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def simulate(
    params: PeriodicCoefficients,
    init: tuple[Number, Number],
    n_max: int,
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    bit_cap: int = DEFAULT_BIT_CAP,
) -> Orbit:
    """Iterate the map n_max times and return the full orbit, eagerly.

    Float mode coerces everything to float64; if a state component
    overflows to infinity or underflows to zero at step n*, a
    TruncationError reporting n* is raised with the valid prefix attached.
    Exact mode requires rational coefficients and init, and raises
    BitGrowthError if a state's numerator or denominator outgrows bit_cap.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    if mode is ArithmeticMode.EXACT_RATIONAL:
        wp = params.as_fractions()
    else:
        wp = params.as_floats()
    x, y = initial_state(init, mode)

    points = [OrbitPoint(0, x, y)]
    for n in range(n_max):
        x, y = step(wp, n, (x, y))
        if mode is ArithmeticMode.FLOAT64:
            bad = not (math.isfinite(x) and math.isfinite(y) and x > 0 and y > 0)
            if bad:
                raise TruncationError(
                    n + 1,
                    Orbit(tuple(points), mode),
                    f"float orbit left (0, inf) at step {n + 1}: "
                    f"x={x!r}, y={y!r}",
                )
        else:
            worst = max(_bits(x), _bits(y))
            if worst > bit_cap:
                raise BitGrowthError(n + 1, worst, bit_cap)
        points.append(OrbitPoint(n + 1, x, y))
    return Orbit(tuple(points), mode)


def log_simulate(
    params: PeriodicCoefficients,
    init: tuple[Number, Number],
    n_max: int,
) -> list[tuple[float, float]]:
    """Iterate in log space, immune to overflow and underflow.

    Returns [(log x[n], log y[n])] for n = 0 .. n_max. Each step evaluates
    log(a*e**-lx + b*e**-ly) as max + log1p(exp(-gap)), which keeps every
    intermediate bounded, so growth and decay rates remain readable out to
    n around 10**6 even when the values themselves dwarf float range.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    wp = params.as_floats()
    x0, y0 = initial_state(init, ArithmeticMode.FLOAT64)

    logs = [
        (math.log(wp.a0), math.log(wp.b0), math.log(wp.c0), math.log(wp.d0)),
        (math.log(wp.a1), math.log(wp.b1), math.log(wp.c1), math.log(wp.d1)),
    ]
    lx, ly = math.log(x0), math.log(y0)
    out = [(lx, ly)]
    for n in range(n_max):
        la, lb, lc, ld = logs[n % 2]
        nlx = log_add_exp(la - lx, lb - ly)
        nly = log_add_exp(lc - lx, ld - ly)
        lx, ly = nlx, nly
        out.append((lx, ly))
    return out
