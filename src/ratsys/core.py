"""Direct iteration of the planar rational system with period-two coefficients.

The system is

    x[n+1] = a[n]/x[n] + b[n]/y[n]
    y[n+1] = c[n]/x[n] + d[n]/y[n]

where each coefficient sequence alternates between two positive values:
a[2k] = a0, a[2k+1] = a1, and likewise for b, c, d. Positive initial values
give positive orbits for every n, so direct iteration serves as the oracle
against which all closed-form evaluation in this package is checked.

The closed forms are assembled here too. closed_factors, the one exact closed
form, serves every rational set, rank 1 as its M = 0 case; closed_point answers
every exact point query; the rank modules supply only float terms.
"""

from __future__ import annotations

import decimal
import math
from collections import namedtuple
from fractions import Fraction
from itertools import count, islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from .errors import BitGrowthError, DomainError, TruncationError
from .numeric import (
    DEFAULT_BIT_CAP,
    ArithmeticMode,
    Number,
    coprime_fraction,
    require_positive,
    saturating_exp,
    to_fraction,
    wide,
    wide_sum,
)

if TYPE_CHECKING:
    from .transfer import System

SMALLEST_NORMAL = 2.2250738585072014e-308  # sys.float_info.min
EPSILON = 2.0 ** -52  # sys.float_info.epsilon
COEFF_NAMES = ("a0", "b0", "c0", "d0", "a1", "b1", "c1", "d1")


def _float(value: Number) -> float:
    """float(value), raising OverflowError also where a positive Fraction
    rounds to 0.0, so both ends of float range read alike."""
    f = float(value)
    if f == 0 and isinstance(value, Fraction) and value > 0:
        raise OverflowError
    return f


class PeriodicCoefficients(namedtuple("PeriodicCoefficients", COEFF_NAMES)):
    """The eight coefficients, even-step quadruple then odd-step quadruple.

    All values must be positive and finite. Equal values across parities
    are allowed. Every way to build one validates: a call, _make and
    _replace all run __post_init__.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __post_init__(self):
        for name, value in zip(COEFF_NAMES, self):
            kind = type(value)
            if not (value.numerator > 0 if kind is Fraction else
                    kind is float and 0 < value < math.inf):
                require_positive(value, f"coefficient {name}")

    def at(self, n: int) -> tuple[Number, Number, Number, Number]:
        """Coefficient quadruple (a, b, c, d) used by the step at index n."""
        return self[4:] if n % 2 else self[:4]

    def as_floats(self) -> "PeriodicCoefficients":
        """Float copy, or self when every coefficient is already a float.

        Sharing is safe: the value is immutable and was validated when it
        was built. Raises DomainError naming a rational coefficient too
        large or too small for a float.
        """
        if all(type(v) is float for v in self):
            return self
        floats = []
        for name, v in zip(COEFF_NAMES, self):
            try:
                floats.append(_float(v))
            except OverflowError:
                raise DomainError(
                    f"coefficient {name} must lie within float range"
                ) from None
        return PeriodicCoefficients(*floats)

    def as_fractions(self) -> "PeriodicCoefficients":
        """Exact copy, or self when every coefficient is already a Fraction;
        rejects float-valued coefficients."""
        if all(type(v) is Fraction for v in self):
            return self
        return PeriodicCoefficients(
            *(to_fraction(v, f"coefficient {f}")
              for f, v in zip(COEFF_NAMES, self))
        )


class OrbitPoint(NamedTuple):
    """One orbit state with its index, built on demand by Orbit.__iter__."""

    n: int
    x: Number
    y: Number


class Orbit:
    """A finite orbit prefix: states[n] is (x[n], y[n]) for n = 0 .. n_max."""

    __slots__ = ("states", "mode")

    def __init__(self, states: tuple[tuple[Number, Number], ...],
                 mode: ArithmeticMode):
        self.states, self.mode = states, mode

    def __eq__(self, other) -> bool:
        if type(other) is not Orbit:
            return NotImplemented
        return self.mode is other.mode and self.states == other.states

    def __repr__(self) -> str:
        return f"Orbit(states={self.states!r}, mode={self.mode!r})"

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
    params: PeriodicCoefficients | System,
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
    a, b, c, d = getattr(params, "params", params).at(n)  # a System's coefficients
    return (a / x + b / y, c / x + d / y)


def initial_state(
    init: tuple[Number, Number], mode: ArithmeticMode
) -> tuple[Number, Number]:
    """The start (x0, y0) as floats, or as Fractions in exact mode.

    Raises DomainError unless both are finite and positive, and in
    float mode where a positive rational lies outside float range.
    """
    if mode is ArithmeticMode.EXACT_RATIONAL:
        state = (to_fraction(init[0], "x0"), to_fraction(init[1], "y0"))
    else:
        try:
            state = (_float(init[0]), _float(init[1]))
        except OverflowError:
            raise DomainError("x0 and y0 must lie within float range") from None
    require_positive(state[0], "x0")
    require_positive(state[1], "y0")
    return state


def integer_steps(
    state: tuple[Fraction, Fraction],
    indices: Iterable[int],
    step: Callable[..., tuple[int, int, int, int, int]],
    bit_cap: int,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...] | None]]:
    """Exact states from state, one for each n of indices, by integer
    steps that take no gcd of two numbers the size of the state.

    A state is carried as

        x = g*p1 / (F*r1),   y = g*p2 / (F*r2)

    with gcd(p1, p2) = gcd(r1, r2) = 1 and both fractions reduced, so
    gcd(g, F) = 1 and F is coprime to p1*p2. The shared factors g and F
    hold the history and grow with the orbit; p1, p2, r1, r2 stay small.
    step(n, p1, p2, r1, r2) gives small Nx, Mx, Ny, My and K with

        x' = F*Nx / (g*Mx),   y' = F*Ny / (g*My),

    where every factor F shares with Mx or My divides K. Since
    gcd(ab, c) = gcd(a, c)*gcd(b, c/gcd(a, c)), x' reduces by fx*ex with
    fx = gcd(F, Mx) = gcd(ff, Mx), ff = gcd(F, K), and
    ex = gcd(Nx, g*sx) = gcd(Nx, eg*sx), sx = Mx/fx, eg = gcd(Nx*Ny, g);
    likewise y'. ff and eg are the only gcds with an operand the size of
    the state. With fl = lcm(fx, fy) the numerators are (F/fl)*mx and
    (F/fl)*my, mx = (fl/fx)*(Nx/ex), so h = gcd(mx, my) gives
    g' = (F/fl)*h. The denominators are g*sx/ex and g*sy/ey: with
    m = lcm(sx, sy) both are g*m over ux = ex*(m/sx) or uy = ey*(m/sy),
    so F' = g*m/L with L = lcm(ux, uy), from gcd(N/u, N/v) = N/lcm(u, v).
    Every other operation on g or F is a product or an exact division
    by a small number.

    Yields ((g, F, p1, p2, r1, r2), moves), where moves is None for
    state and (fl, h, m, L) for a step: the small numbers that took F to
    g' = (F/fl)*h and g to F' = g*m/L, so a copy of g and F in another
    representation can follow them. Raises BitGrowthError at the first
    state n + 1 whose numerator or denominator passes bit_cap bits. In
    the code F is f and L is low.
    """
    gcd, lcm = math.gcd, math.lcm
    g, f, p1, p2, r1, r2 = factors = shared_factors(*state)
    yield factors, None
    for n in indices:
        nx, mx, ny, my, k = step(n, p1, p2, r1, r2)
        eg, ff = gcd(nx * ny, g), gcd(k, f)
        if ff == 1:
            fl = fx = fy = 1
            sx, sy = mx, my
        else:
            fx, fy = gcd(ff, mx), gcd(ff, my)
            fl = lcm(fx, fy)
            f //= fl
            sx, sy = mx // fx, my // fy
        ex, ey = gcd(nx, eg * sx), gcd(ny, eg * sy)
        mx, my = (fl // fx) * (nx // ex), (fl // fy) * (ny // ey)
        h = gcd(mx, my)
        m = sx if sx == sy else lcm(sx, sy)
        ux, uy = ex * (m // sx), ey * (m // sy)
        low = lcm(ux, uy)
        g, f = f * h, g * m // low
        p1, p2, r1, r2 = mx // h, my // h, low // ux, low // uy
        # a product has the bits of its factors summed, or one fewer
        if max(g.bit_length() + max(p1.bit_length(), p2.bit_length()),
               f.bit_length() + max(r1.bit_length(), r2.bit_length())) > bit_cap:
            worst = max((g * p1).bit_length(), (f * r1).bit_length(),
                        (g * p2).bit_length(), (f * r2).bit_length())
            if worst > bit_cap:
                raise BitGrowthError(n + 1, worst, bit_cap)
        yield (g, f, p1, p2, r1, r2), (fl, h, m, low)


def _exact_factors(
    coeffs: tuple[tuple[int, ...], tuple[int, ...]],
    state: tuple[Fraction, Fraction],
    n_max: int,
    bit_cap: int,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...] | None]]:
    """The exact orbit from state as integer_steps yields it, n = 0 ..
    n_max. coeffs holds each parity's coefficients written as ints over
    one denominator D, (D; A, B, C, E) with a = A/D, b = B/D, c = C/D,
    d = E/D, the first two ints of an exact System; one step of the map
    has Nx = A*r1*p2 + B*r2*p1, Ny = C*r1*p2 + E*r2*p1, Mx = My = D*p1*p2
    and K = D, as F is coprime to p1*p2."""
    def step(n, p1, p2, r1, r2):
        den, a, b, c, e = coeffs[n & 1]
        s, t = r1 * p2, r2 * p1
        m = den * p1 * p2
        return a * s + b * t, m, c * s + e * t, m, den

    return integer_steps(state, range(n_max), step, bit_cap)


def over_one_denominator(values) -> tuple[int, ...]:
    """(D, *numerators) of Fractions written over one denominator D."""
    den = math.lcm(*(v.denominator for v in values))
    return (den, *(v.numerator * (den // v.denominator) for v in values))


def _parities(params: PeriodicCoefficients) -> tuple[tuple[int, ...], ...]:
    """over_one_denominator of the even and of the odd coefficients."""
    return over_one_denominator(params[:4]), over_one_denominator(params[4:])


def shared_factors(x: Fraction, y: Fraction) -> tuple[int, ...]:
    """A state as integer_steps carries it: (g, F, p1, p2, r1, r2)."""
    g = math.gcd(x.numerator, y.numerator)
    f = math.gcd(x.denominator, y.denominator)
    return (g, f, x.numerator // g, y.numerator // g,
            x.denominator // f, y.denominator // f)


def exact_pairs(factors) -> Iterator[tuple[Fraction, Fraction]]:
    """The states of integer_steps' output as Fractions."""
    for (g, f, p1, p2, r1, r2), _ in factors:
        yield coprime_fraction(g * p1, f * r1), coprime_fraction(g * p2, f * r2)


# Exact integer arithmetic in decimal: no operation may round, so one
# that would raises instead of printing wrong digits.
_EXACT_DECIMAL = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation,
           decimal.DivisionByZero, decimal.Overflow],
)


def horizon(n: int, name: str = "n_max", least: int = 0, bound: str = "") -> None:
    """The one check of an integer argument, an index, horizon or count:
    DomainError unless n is an int (a bool is not one) >= least, saying
    "<name> must be >= <least>, got <n>" of an int below it and "must be
    an int >= <least>" of anything else; bound, where given, is said in
    place of either."""
    whole = isinstance(n, int) and not isinstance(n, bool)
    if not (whole and n >= least):
        bound = bound or (">= " if whole else "an int >= ") + str(least)
        raise DomainError(f"{name} must be {bound}, got {n!r}")


def exact_orbit_text(
    params: PeriodicCoefficients | System,
    init: tuple[Number, Number],
    n_max: int,
    bit_cap: int = DEFAULT_BIT_CAP,
) -> Iterator[tuple[str, str]]:
    """The exact orbit as text: the rows of decimal_rows for the states
    of simulate(params, init, n_max, EXACT_RATIONAL, bit_cap), with no
    Fraction made. Arguments are checked at the call; BitGrowthError is
    raised, as simulate raises it, when the rows reach the state past
    bit_cap."""
    horizon(n_max)
    params = getattr(params, "params", params).as_fractions()
    state = initial_state(init, ArithmeticMode.EXACT_RATIONAL)
    return decimal_rows(_exact_factors(_parities(params), state, n_max, bit_cap))


def _integer_spectrum(ints) -> tuple[int, int, int, int]:
    """(L, T, N, M) of an exact matrix written over one denominator L as
    [[A, B], [G, E]]/L, ints = (L, A, B, G, E) as over_one_denominator
    gives it: T = A + E, N = (A - E)**2 + 4*B*G and M = A*E - B*G, so
    that its eigenvalues are (T +- sqrt(N))/(2*L)."""
    l, a, b, g, e = ints
    return l, a + e, (a - e) ** 2 + 4 * b * g, a * e - b * g


def _exact_ratios(
    system: "System", start: tuple[Fraction, Fraction]
) -> Iterator[tuple[int, int, int, int]]:
    """The ratios of closed_factors: x[n]*x[n+1] = u[n+1]/v[n] and
    y[n]*y[n+1] = v[n+1]/u[n] from n = 3 on, as ints, for either rank,
    rational eigenvalues or not. With (L, T, N, M) of _integer_spectrum
    and theta = (T + sqrt(N))/2 = L*lambda1, a root of theta**2 =
    T*theta - M: c2 = -conj(c1) and, as sqrt(N) = 2*theta - T, 2*N*c1 =
    N*u0 - T*s1 + 2*s1*theta with s1 = L*(2*beta*v0 + (alpha - delta)*u0);
    likewise c3, c4 and s3. So u[2k], v[2k] are twice the rational parts
    of c1*theta**k, c3*theta**k over L**k. Over one denominator C and
    divided by their gcd, c1 and c3 are x + y*theta, which theta maps to
    -M*y + (x + T*y)*theta; U_k = 2*x + T*y of c1 and V_k of c3 are u[2k]
    and v[2k] times C*L**k. With a0 = a/D, b0 = b/D, c0 = c/D, d0 = d/D,
    W_k = b*U_k + a*V_k and Z_k = d*U_k + c*V_k are u[2k+1] and v[2k+1]
    times C*L**k*D. So n = 2k takes W_k/(D*V_k) and Z_k/(D*U_k), and
    n = 2k + 1 takes D*U_{k+1}/(L*Z_k) and D*V_{k+1}/(L*W_k).
    Rank 1 is M = 0, where each term multiplies x and y by T: the state
    is divided by its gcd after each odd ratio, each pair by the pair's.
    """
    l, t, n, det = _integer_spectrum(system.ints[2])
    alpha, beta, gamma, delta = system.matrix
    u0, v0 = start
    s1 = l * (2 * beta * v0 + (alpha - delta) * u0)
    s3 = l * (2 * gamma * u0 + (delta - alpha) * v0)
    _, *parts = over_one_denominator(
        (n * u0 - t * s1, 2 * s1, n * v0 - t * s3, 2 * s3))
    den, ca, cb, cc, cd = system.ints[0]

    def reduced(a, b, c, d):
        e, f = math.gcd(a, b), math.gcd(c, d)
        return a // e, b // e, c // f, d // f

    def ratios(x1, y1, x3, y3):
        while True:
            common = math.gcd(x1, y1, x3, y3)
            x1, y1, x3, y3 = x1 // common, y1 // common, x3 // common, y3 // common
            u, v = 2 * x1 + t * y1, 2 * x3 + t * y3
            w, z = cb * u + ca * v, cd * u + cc * v
            yield reduced(w, den * v, z, den * u)
            x1, y1, x3, y3 = -det * y1, u - x1, -det * y3, v - x3
            u, v = 2 * x1 + t * y1, 2 * x3 + t * y3
            yield reduced(den * u, l * z, den * v, l * w)
    return islice(ratios(*parts), 3, None)


def closed_factors(
    system: "System", start: tuple[Fraction, Fraction]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...] | None]]:
    """The one exact closed form, for every rational set (rank 1 is M = 0),
    as integer_steps yields it: states 0 to 3 of head, then from state 3
    on, for each (a, b, c, d) of _exact_ratios(system, start), called on
    reaching index 1, x[n]*x[n+1] = a/b and y[n]*y[n+1] = c/d, so that
    x[n+1] = F*(a*r1) / (g*(b*p1)) and likewise y[n+1], with K = b*d.
    Past DEFAULT_BIT_CAP bits it raises BitGrowthError, as simulate."""
    states = head(system.params, start, system.mode)[0]
    yield shared_factors(*start), None
    products = _exact_ratios(system, start)
    for state in states[1:3]:
        yield shared_factors(*state), None

    def step(n, p1, p2, r1, r2):
        a, b, c, d = next(products)
        return a * r1, b * p1, c * r2, d * p2, b * d

    yield from integer_steps(states[3], count(3), step, DEFAULT_BIT_CAP)


def decimal_rows(factors) -> Iterator[tuple[str, str]]:
    """(exact_text(x), exact_text(y)) of each state of integer_steps'
    output, in time linear in its length. Printing an int in decimal
    takes time quadratic in its length, so g and F are carried as exact
    Decimals beside the ints and follow the moves, products and exact
    divisions by small ints; the ints of a state are never built, and
    the thread's decimal context is not used."""
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
    Its states equal those of Fraction iteration, by integer_steps;
    exact_orbit_text prints them in linear time per row.
    Each state is checked once, after it is produced; step is not called.
    params may be a System from transfer.prepare, whose coefficients are
    used.
    """
    horizon(n_max)
    params = getattr(params, "params", params)  # a System's coefficients
    if mode is ArithmeticMode.EXACT_RATIONAL:
        factors = _exact_factors(_parities(params.as_fractions()),
                                 initial_state(init, mode), n_max, bit_cap)
        return Orbit(tuple(exact_pairs(factors)), mode)
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
    params: PeriodicCoefficients | System,
    init: tuple[Number, Number],
    n_max: int,
) -> list[tuple[float, float]]:
    """Iterate in log space, immune to overflow and underflow.

    Returns [(log x[n], log y[n])] for n = 0 .. n_max. States and
    coefficients are carried as numeric.Wide pairs, so a/x is a quotient
    in (0.5, 2) times a power of two and nothing leaves float range. A
    step rounds at the size of the value, not of its log, so the error in
    log grows at most linearly in n (about 2e-12 at n = 10**5).
    """
    horizon(n_max)
    log, ln2 = math.log, math.log(2.0)
    wp = getattr(params, "params", params).as_floats()  # a System's coefficients
    quads = [tuple(map(wide, wp.at(i))) for i in (0, 1)]
    (mx, ex), (my, ey) = map(wide, initial_state(init, ArithmeticMode.FLOAT64))
    out = [(log(mx) + ex * ln2, log(my) + ey * ln2)]
    push = out.append
    for n in range(n_max):  # two calls a step: quotients and wide_log written out
        (ma, ea), (mb, eb), (mc, ec), (md, ed) = quads[n & 1]
        (mx, ex), (my, ey) = (wide_sum(ma / mx, ea - ex, mb / my, eb - ey),
                              wide_sum(mc / mx, ec - ex, md / my, ed - ey))
        push((log(mx) + ex * ln2, log(my) + ey * ln2))
    return out


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


# The rounding of a float log factor whose parts are formed without
# cancellation, relative to its size (at least 1).
ROUNDING = 16 * EPSILON
# From the first term k with max|z|*r**(k - 1) at most this, every log factor
# is within ROUNDING of +-L, and their rest, within ROUNDING*r/(1 - r), is left out.
_NEGLIGIBLE = ROUNDING / (4 + ROUNDING)

Quad = tuple[float, float, float, float]


class Tail(NamedTuple):
    """Past term K = term, the logs of the products (x[2m], x[2m+1],
    y[2m], y[2m+1]) are logs + R(1) + j*factors - R(t**j), j = m - K;
    the states saturate to inf or 0.0. The factors are (L, -L, L, -L),
    L = log g of the float verdict, with slope ROUNDING*max(1, |L|), the
    rounding of L, or, where r = |t| = |lambda2/lambda1| rounds to 1, the
    rank-2 factors that repeat, with base and slope inf. base bounds the
    error of logs in log, and slope what each later term adds to it.

    R(t**j) is what the factors past term m add beyond their L. A rank-2
    log factor of term i is L plus four log(1 - z*t**i) or
    log(1 - z*t**(i-1)), one per nome z_u, z_v, z_w, z_z, so with
    Euler's S(x) = sum over i >= 0 of log(1 - x*t**i) = -sum over n >= 1
    of x**n/(n*(1 - t**n)), x_a = z_a*t**K the xs, s_a = S(x_a*tau) and
    s'_a = S(x_a*t*tau), R(tau) = (s'_u + s_v - s_w - s_z, s'_w + s_z -
    s'_u - s'_v, s'_v + s_u - s_w - s_z, s'_z + s_w - s'_u - s'_v). It is
    left out from the first j with max|x_a|*r**j <= r*_NEGLIGIBLE, R(1)
    too where that is j = 0, as for rank 1, which has no xs. With factors
    0 the logs at m = inf are the limit cycle."""

    term: int
    logs: Quad
    factors: Quad
    base: float = 0.0
    slope: float = 0.0
    t: float = 0.0
    xs: tuple[float, ...] = ()

    def _rest(self):
        """(J, logs + R(1), R, bound of the rounding of R(1) - R(t**j)),
        R(t**j) counting for j < J. Each S is cut after the N terms whose
        bound m**(N+1)/((N+1)*(1 - m)*(1 - r)), m = max|x|, is at most
        EPSILON/4, and at tau to those of them with (m*|tau|)**n > cut, the
        same bound's factor; 1 - t**n adds positive terms, so it keeps its
        digits."""
        t, r, xs = self.t, abs(self.t), self.xs
        m = max(map(abs, xs)) if xs else 0.0
        if m <= r * _NEGLIGIBLE:
            return 0, self.logs, None, 0.0
        cut = EPSILON / 4 * (1.0 - m) * (1.0 - r)
        log_cut = math.log(cut)
        xu, xv, xw, xz = xs
        coeffs = []  # the c_n of R(tau)
        n, mn, p, q, s, d2 = 1, m, 0.0, 1.0 - t, t * t, (1.0 - t) * (1.0 + t)
        pu, pv, pw, pz, tn = xu, xv, xw, xz, t  # the x_a**n and t**n
        while mn > cut * n:  # q = 1 - t**n, p = 1 - t**(n-1)
            w = -1.0 / (n * q)
            a, b = (pw + pz) * w, (pu + pv) * tn * w
            coeffs.append(((pu * tn + pv) * w - a, (pw * tn + pz) * w - b,
                           (pv * tn + pu) * w - a, (pz * tn + pw) * w - b))
            pu, pv, pw, pz, tn = pu * xu, pv * xv, pw * xw, pz * xz, tn * t
            n, mn, p, q = n + 1, mn * m, q, d2 + s * p  # (1 - t**2) + t**2*p

        def rest(tau: float) -> Quad:  # by Horner's rule, on the terms with (m*|tau|)**n > cut
            a = b = c = d = 0.0
            mt = m * abs(tau)
            for ca, cb, cc, cd in reversed(coeffs[:math.ceil(log_cut / math.log(mt)) - 1]
                                           if mt else ()):
                a = (a + ca) * tau
                b = (b + cb) * tau
                c = (c + cc) * tau
                d = (d + cd) * tau
            return a, b, c, d

        J = math.ceil(1 + (math.log(_NEGLIGIBLE) - math.log(m)) / math.log(r))
        # the eight S of R(1) - R(t**j) are each within m/((1 - m)*(1 - r)),
        # cut within EPSILON/4 of it and rounded by (4N + 8)*EPSILON of it
        bound = 8 * (4 * len(coeffs) + 9) * EPSILON * m / ((1.0 - m) * (1.0 - r))
        (xe, xo, ye, yo), (a, b, c, d) = self.logs, rest(1.0)
        return J, (xe + a, xo + b, ye + c, yo + d), rest, bound

    def at(self, m: int | float) -> Quad:
        """The logs at term m > term; m - term is capped at 2**1023, past
        which every factor, 0 or above 1e-16, saturates."""
        j = min(m - self.term, 1 << 1023)
        J, (xe, xo, ye, yo), rest, _ = self._rest()
        fxe, fxo, fye, fyo = self.factors
        a, b, c, d = rest(self.t ** j) if j < J else (0.0, 0.0, 0.0, 0.0)
        return (xe + j * fxe - a, xo + j * fxo - b, ye + j * fye - c, yo + j * fyo - d)

    def states(self) -> Iterator[tuple[float, float]]:
        """States 2K + 2, 2K + 3, ..., lazily."""
        (fxe, fxo, fye, fyo), t = self.factors, self.t
        J, (xe, xo, ye, yo), rest, _ = self._rest()
        exp = saturating_exp
        for j in range(1, J):
            a, b, c, d = rest(t ** j)
            yield (exp(xe + j * fxe - a), exp(ye + j * fye - c))
            yield (exp(xo + j * fxo - b), exp(yo + j * fyo - d))
        for j in count(max(J, 1)):
            yield (exp(xe + j * fxe), exp(ye + j * fye))
            yield (exp(xo + j * fxo), exp(yo + j * fyo))

    def error_bound(self, m: int) -> float:
        """Bound on the error in log of each of the logs at term m."""
        return (self.base + self._rest()[3] + min(m - self.term, 1 << 1023) * self.slope
                + EPSILON * max(map(abs, self.at(m))))


def closed_states(
    system: "System", start: tuple[Number, Number], float_terms
) -> Iterator[tuple[Number, Number]]:
    """Closed-form states n = 0, 1, 2, ... from a checked start, lazily.

    Exact mode is closed_factors, for either rank. In float mode
    float_terms(system, start, anchors), anchors the logs of head,
    yields the logs of the products at terms k = 0, 1, ... as
    (logs, None), and as (logs, Tail) at the term the Tail takes over
    from, then stops. The states are head's, those of terms 2 up to that
    term, then the Tail's. Term 0 is drawn before index 1 and term 1
    after index 3, so a rank's hook raises its errors there.
    """
    if system.mode is ArithmeticMode.EXACT_RATIONAL:
        yield from exact_pairs(closed_factors(system, start))
        return
    states, anchors = head(system.params, start, system.mode)
    yield start
    terms = float_terms(system, start, anchors)
    next(terms)
    yield from states[1:]
    _, tail = next(terms)
    while tail is None:
        logs, tail = next(terms)
        x_e, x_o, y_e, y_o = _no_nan(logs)
        yield (saturating_exp(x_e), saturating_exp(y_e))
        yield (saturating_exp(x_o), saturating_exp(y_o))
    yield from tail.states()


def closed_logs(
    system: "System", start: tuple[float, float], m: int, float_terms
) -> tuple[tuple[float, float, float, float], Tail | None]:
    """The float logs at term m, and the Tail if it came by then."""
    anchors = head(system.params, start, system.mode)[1]
    for k, (logs, tail) in enumerate(float_terms(system, start, anchors)):
        if k == m:
            return _no_nan(logs), tail
        if tail is not None:
            return _no_nan(tail.at(m)), tail


def _no_nan(logs: tuple[float, ...]) -> tuple[float, ...]:
    """logs, or DomainError where one is nan, as after a factor inf/inf."""
    x_e, x_o, y_e, y_o = logs
    if x_e != x_e or x_o != x_o or y_e != y_e or y_o != y_o:
        raise DomainError("the closed form's ratio factors pass float range")
    return logs


def closed_point(
    system: "System", start: tuple[Number, Number], n: int, float_terms
) -> tuple[Number, Number]:
    """State n of closed_states, the one answer to an exact point query:
    of a rank-2 set after all n integer steps of closed_factors; of a
    rank-1 set past index 3, state 2 or 3 times rho**(+-j), j = n//2 - 1,
    rho = x[4]/x[2], with BitGrowthError(n, ...) before the power where
    j*(bits(rho) - 1) - bits(state) passes DEFAULT_BIT_CAP (heights are
    submultiplicative), after it where state n does. In float mode past
    index 3, the terms up to the Tail, then a jump to index n."""
    if system.mode is ArithmeticMode.EXACT_RATIONAL:
        if system.rank == 2 or n < 4:
            factors = closed_factors(system, start)
            for _ in range(n):  # range, not islice, as n may pass sys.maxsize
                next(factors)
            return next(exact_pairs(factors))
        states = head(system.params, start, system.mode)[0]
        rho = step(system.params, 3, states[3])[0] / states[2][0]
        (x, y), j = states[2 + n % 2], n // 2 - 1
        bits = lambda *vs: max(i.bit_length() for v in vs for i in v.as_integer_ratio())
        least = j * (bits(rho) - 1) - bits(x, y) + 1
        if least <= DEFAULT_BIT_CAP:
            power = rho ** (-j if n % 2 else j)
            x, y = x * power, y * power
            least = bits(x, y)
        if least > DEFAULT_BIT_CAP:
            raise BitGrowthError(n, least, DEFAULT_BIT_CAP)
        return x, y
    if n < 4:
        states = closed_states(system, start, float_terms)
        return next(islice(states, n, None))
    m, odd = divmod(n, 2)
    logs = closed_logs(system, start, m, float_terms)[0]
    return (saturating_exp(logs[odd]), saturating_exp(logs[2 + odd]))
