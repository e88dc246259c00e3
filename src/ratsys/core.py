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

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .errors import BitGrowthError, DomainError, TruncationError
from .numeric import (
    ArithmeticMode,
    Number,
    coprime_fraction,
    require_positive,
    saturating_exp,
    to_fraction,
)

if TYPE_CHECKING:
    from .transfer import System

DEFAULT_BIT_CAP = 1_000_000
SMALLEST_NORMAL = 2.2250738585072014e-308  # sys.float_info.min
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
        was built. Raises DomainError naming a rational coefficient too
        large for a float.
        """
        values = [getattr(self, f) for f in COEFF_NAMES]
        if all(type(v) is float for v in values):
            return self
        floats = []
        for name, v in zip(COEFF_NAMES, values):
            try:
                floats.append(float(v))
            except OverflowError:
                raise DomainError(
                    f"coefficient {name} must lie within float range"
                ) from None
        return PeriodicCoefficients(*floats)

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
    """One orbit state with its index, built on demand by Orbit.__iter__."""

    n: int
    x: Number
    y: Number


@dataclass(frozen=True, slots=True)
class Orbit:
    """A finite orbit prefix: states[n] is (x[n], y[n]) for n = 0 .. n_max."""

    states: tuple[tuple[Number, Number], ...]
    mode: ArithmeticMode

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[OrbitPoint]:
        return (OrbitPoint(n, x, y) for n, (x, y) in enumerate(self.states))

    def state(self, n: int) -> tuple[Number, Number]:
        return self.states[n]

    @property
    def n_max(self) -> int:
        return len(self.states) - 1


def step(
    params: PeriodicCoefficients,
    n: int,
    state: tuple[Number, Number],
) -> tuple[Number, Number]:
    """One application of the map at index n.

    Uses the even quadruple when n is even, the odd one otherwise, matching
    a[2k] = a0. Raises DomainError when either state component is zero,
    negative, or non-finite, naming the offending component; the names
    are only formatted on that path.
    """
    x, y = state
    if not (0 < x < math.inf and 0 < y < math.inf):
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


def _exact_factors(
    params: PeriodicCoefficients,
    state: tuple[Fraction, Fraction],
    n_max: int,
    bit_cap: int,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...] | None]]:
    """The exact orbit from state as factors, by integer steps that take
    no gcd of two numbers the size of the state.

    For each parity the coefficients are written as ints over one
    denominator D: a = A/D, b = B/D, c = C/D, d = E/D. The state is
    carried as

        x = g*p1 / (F*r1),   y = g*p2 / (F*r2)

    with gcd(p1, p2) = gcd(r1, r2) = 1 and both fractions reduced, so F
    is coprime to g*p1*p2. The shared factors g and F hold the history
    and grow with the orbit; p1, p2, r1, r2 stay small. One step gives

        x' = F*Nx / G,  Nx = A*r1*p2 + B*r2*p1
        y' = F*Ny / G,  Ny = C*r1*p2 + E*r2*p1,  G = D*g*p1*p2.

    Since gcd(ab, c) = gcd(a, c)*gcd(b, c/gcd(a, c)), x' reduces by
    ex*fx, where ex = gcd(Nx, G) takes one division of G by the small
    Nx, and fx = gcd(F, G/ex) = gcd(gcd(F, D), G/ex) because F is
    coprime to g*p1*p2; likewise ey, fy for y'. The reduced numerators
    are (F/fx)*(Nx/ex) and (F/fy)*(Ny/ey). With fl = lcm(fx, fy),
    mx = (fl/fx)*(Nx/ex), my = (fl/fy)*(Ny/ey) and h = gcd(mx, my), the
    next factors are

        g' = (F/fl)*h,  p1' = mx/h,  p2' = my/h,
        F' = G/L,  r1' = L/(ex*fx),  r2' = L/(ey*fy),

    with L = lcm(ex*fx, ey*fy), from gcd(N/u, N/v) = N/lcm(u, v). Every
    gcd has a small operand, and every other operation on g, F or G is
    a product or an exact division by a small number.

    Yields ((g, F, p1, p2, r1, r2), moves) for n = 0 .. n_max, where
    moves is None for the start and (fl, h, D*p1*p2, L) for a step: the
    small numbers that took F to g' = (F/fl)*h and g to
    F' = g*(D*p1*p2)/L, so a copy of g and F in another representation
    can follow them. Raises BitGrowthError at the first state whose
    numerator or denominator passes bit_cap bits. In the code D is den,
    F is f, G is big and L is low.
    """
    gcd, lcm = math.gcd, math.lcm
    coeffs = []
    for a, b, c, d in (params.at(0), params.at(1)):
        den = lcm(a.denominator, b.denominator, c.denominator, d.denominator)
        coeffs.append((den, *(v.numerator * (den // v.denominator)
                              for v in (a, b, c, d))))
    x, y = state
    g = gcd(x.numerator, y.numerator)
    f = gcd(x.denominator, y.denominator)
    p1, p2 = x.numerator // g, y.numerator // g
    r1, r2 = x.denominator // f, y.denominator // f
    yield (g, f, p1, p2, r1, r2), None
    for n in range(n_max):
        den, a, b, c, e = coeffs[n & 1]
        s, t = r1 * p2, r2 * p1
        nx, ny = a * s + b * t, c * s + e * t
        m = den * p1 * p2
        big = g * m
        ex, ey = gcd(nx, big), gcd(ny, big)
        fd = gcd(f, den)
        if fd == 1:  # always so for int coefficients
            fx = fy = fl = 1
        else:
            fx, fy = gcd(fd, big // ex), gcd(fd, big // ey)
            fl = lcm(fx, fy)
            f //= fl
        mx, my = (fl // fx) * (nx // ex), (fl // fy) * (ny // ey)
        h = gcd(mx, my)
        ux, uy = ex * fx, ey * fy
        low = lcm(ux, uy)
        g = f * h
        f = big // low
        p1, p2, r1, r2 = mx // h, my // h, low // ux, low // uy
        # a product has the bits of its factors summed, or one fewer
        if max(g.bit_length() + max(p1.bit_length(), p2.bit_length()),
               f.bit_length() + max(r1.bit_length(), r2.bit_length())) > bit_cap:
            worst = max((g * p1).bit_length(), (f * r1).bit_length(),
                        (g * p2).bit_length(), (f * r2).bit_length())
            if worst > bit_cap:
                raise BitGrowthError(n + 1, worst, bit_cap)
        yield (g, f, p1, p2, r1, r2), (fl, h, m, low)


# Exact integer arithmetic in decimal: no operation may round, so one
# that would raises instead of printing wrong digits.
_EXACT_DECIMAL = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation,
           decimal.DivisionByZero, decimal.Overflow],
)


def horizon(n: int, name: str = "n_max") -> None:
    """Raise DomainError for a negative index or horizon n."""
    if n < 0:
        raise DomainError(f"{name} must be >= 0, got {n}")


def exact_orbit_text(
    params: PeriodicCoefficients | System,
    init: tuple[Number, Number],
    n_max: int,
    bit_cap: int = DEFAULT_BIT_CAP,
) -> Iterator[tuple[str, str]]:
    """The exact orbit as text: (exact_text(x), exact_text(y)) of each
    state of simulate(params, init, n_max, EXACT_RATIONAL, bit_cap).

    Each row costs time linear in its length. Printing an int in decimal
    takes time quadratic in its length, so the shared factors g and F of
    _exact_factors are carried as exact Decimals beside the ints: a step
    moves them by products and exact divisions by small ints only, and
    Decimal prints in linear time. The ints of a state are never built
    and no Fraction is made. Arguments are checked at the call;
    BitGrowthError is raised, as simulate raises it, when the rows reach
    the state past bit_cap. The thread's decimal context is not used.
    """
    horizon(n_max)
    params = getattr(params, "params", params).as_fractions()
    state = initial_state(init, ArithmeticMode.EXACT_RATIONAL)
    return _decimal_rows(_exact_factors(params, state, n_max, bit_cap))


def _decimal_rows(factors) -> Iterator[tuple[str, str]]:
    ctx = _EXACT_DECIMAL
    mul, div, text = ctx.multiply, ctx.divide, ctx.to_sci_string
    for (g, f, p1, p2, r1, r2), moves in factors:
        if moves is None:
            dg, df = ctx.create_decimal(g), ctx.create_decimal(f)
        else:
            fl, h, m, low = moves
            if fl != 1:
                df = div(df, fl)
            dg, df = mul(df, h), div(mul(dg, m), low)
        whole = f == 1
        yield tuple(
            text(mul(dg, p)) + ("" if whole and r == 1 else "/" + text(mul(df, r)))
            for p, r in ((p1, r1), (p2, r2))
        )


def simulate(
    params: PeriodicCoefficients | System,
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
    Its states equal those of Fraction iteration, but each step costs
    products and divisions against small numbers, with no gcd of two
    state-sized ints (see _exact_factors). Printing those states with
    str() takes time quadratic in their length; exact_orbit_text gives
    the same text in linear time per row, and the simulate command
    prints through it.
    Each state is checked once, after it is produced; step is not called.
    params may be a System from transfer.prepare, whose coefficients are
    used.
    """
    horizon(n_max)
    params = getattr(params, "params", params)  # a System's coefficients
    if mode is ArithmeticMode.EXACT_RATIONAL:
        factors = _exact_factors(params.as_fractions(),
                                 initial_state(init, mode), n_max, bit_cap)
        return Orbit(tuple(
            (coprime_fraction(g * p1, f * r1), coprime_fraction(g * p2, f * r2))
            for (g, f, p1, p2, r1, r2), _ in factors
        ), mode)
    wp = params.as_floats()
    quads = (wp.at(0), wp.at(1))
    x, y = state = initial_state(init, mode)
    states = [state]
    for n in range(n_max):
        a, b, c, d = quads[n & 1]
        x, y = state = (a / x + b / y, c / x + d / y)
        if not (0 < x < math.inf and 0 < y < math.inf):
            raise TruncationError(
                n + 1,
                Orbit(tuple(states), mode),
                f"float orbit left (0, inf) at step {n + 1}: "
                f"x={x!r}, y={y!r}",
            )
        states.append(state)
    return Orbit(tuple(states), mode)


def log_simulate(
    params: PeriodicCoefficients,
    init: tuple[Number, Number],
    n_max: int,
) -> list[tuple[float, float]]:
    """Iterate in log space, immune to overflow and underflow.

    Returns [(log x[n], log y[n])] for n = 0 .. n_max. States and
    coefficients are carried as frexp's mantissa and power-of-two
    exponent, so a/x is a quotient in (0.5, 2) times a power of two and
    nothing leaves float range. A step rounds at the size of the value,
    not of its log, so the error in log grows at most linearly in n
    (about 2e-12 at n = 10**5).
    """
    horizon(n_max)
    frexp, log, ln2 = math.frexp, math.log, math.log(2.0)
    quads = [tuple(map(frexp, params.as_floats().at(i))) for i in (0, 1)]
    (mx, ex), (my, ey) = map(frexp, initial_state(init, ArithmeticMode.FLOAT64))
    out = [(log(mx) + ex * ln2, log(my) + ey * ln2)]
    for n in range(n_max):
        (ma, ea), (mb, eb), (mc, ec), (md, ed) = quads[n & 1]
        (mx, ex), (my, ey) = (_scaled_sum(ma / mx, ea - ex, mb / my, eb - ey),
                              _scaled_sum(mc / mx, ec - ex, md / my, ed - ey))
        out.append((log(mx) + ex * ln2, log(my) + ey * ln2))
    return out


def _scaled_sum(u: float, i: int, v: float, j: int) -> tuple[float, int]:
    """u*2**i + v*2**j, for u and v in (0.5, 2), as frexp gives it."""
    if i < j:
        u, i, v, j = v, j, u, i
    m, k = math.frexp(u + math.ldexp(v, j - i))
    return m, i + k


def head(
    params: PeriodicCoefficients, start: tuple[Number, Number], mode: ArithmeticMode
) -> tuple[list[tuple[Number, Number]], list[tuple[Number, Number]]]:
    """States 0 to 3 by direct steps from a checked start, where every
    closed form starts, and the same states as logs in float mode (exact
    mode gives the states twice). A float orbit whose state 1, 2 or 3
    leaves the normal float range, where a step would lose digits or
    fail, takes the rest of its head and its logs from log_simulate,
    saturated to 0.0 or inf.
    """
    states = [start]
    exact = mode is ArithmeticMode.EXACT_RATIONAL
    for n in range(3):
        x, y = state = step(params, n, states[-1])
        if not (exact or (SMALLEST_NORMAL <= x < math.inf
                          and SMALLEST_NORMAL <= y < math.inf)):
            logs = log_simulate(params, start, 3)
            states += ((saturating_exp(lx), saturating_exp(ly))
                       for lx, ly in logs[n + 1:])
            return states, logs
        states.append(state)
    if exact:
        return states, states
    return states, [(math.log(x), math.log(y)) for x, y in states]


class Tail(NamedTuple):
    """Past term k, every two-step multiplies the products (x[2k],
    x[2k+1], y[2k], y[2k+1]) by factors that no longer change; float
    mode holds both as logs and saturates its states to inf or 0.0."""

    products: tuple[Number, Number, Number, Number]
    factors: tuple[Number, Number, Number, Number]
    exact: bool

    def at(self, j: int) -> tuple[Number, Number, Number, Number]:
        """The four products at term k + j, as logs in float mode."""
        (xe, xo, ye, yo), (fxe, fxo, fye, fyo) = self.products, self.factors
        if self.exact:
            return (xe * fxe ** j, xo * fxo ** j, ye * fye ** j, yo * fyo ** j)
        return (xe + j * fxe, xo + j * fxo, ye + j * fye, yo + j * fyo)

    def state(self, j: int, odd: int) -> tuple[Number, Number]:
        """State 2(k + j) + odd."""
        x, y = self.at(j)[odd::2]
        return (x, y) if self.exact else (saturating_exp(x), saturating_exp(y))

    def states(self) -> Iterator[tuple[Number, Number]]:
        """States 2k + 2, 2k + 3, ..., lazily."""
        (xe, xo, ye, yo), (fxe, fxo, fye, fyo) = self.products, self.factors
        if self.exact:
            while True:
                xe, xo, ye, yo = xe * fxe, xo * fxo, ye * fye, yo * fyo
                yield (xe, ye)
                yield (xo, yo)
        exp = saturating_exp
        for j in count(1):
            yield (exp(xe + j * fxe), exp(ye + j * fye))
            yield (exp(xo + j * fxo), exp(yo + j * fyo))
