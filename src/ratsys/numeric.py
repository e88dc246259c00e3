"""Scalar plumbing shared by every module.

Values travel in one of two representations, selected by ArithmeticMode:
IEEE-754 doubles, or exact rationals backed by fractions.Fraction (always
reduced, denominator positive). ints are accepted anywhere and count as
exact. Helpers here coerce, validate, and format scalars uniformly so the
dynamics modules never branch on representation details themselves.
"""

from __future__ import annotations

import decimal
import functools
import math
from enum import Enum
from fractions import Fraction
from typing import Union

from .errors import DomainError

Number = Union[int, float, Fraction]

DEFAULT_BIT_CAP = 1_000_000


class ArithmeticMode(Enum):
    FLOAT64 = "float"
    EXACT_RATIONAL = "exact"


def is_exact(value: Number) -> bool:
    """True when the value carries no rounding (int or Fraction)."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def to_fraction(value: Number, name: str = "value") -> Fraction:
    """Coerce to Fraction, refusing floats.

    Binary floats rarely mean the decimal the user typed, so exact
    pipelines require int, Fraction, or string-parsed input.
    """
    if isinstance(value, bool) or not is_exact(value):
        raise DomainError(
            f"{name} must be rational (int, Fraction, or 'p/q' string) "
            f"in exact mode, got {value!r}"
        )
    return Fraction(value)


# coprime_fraction(numerator, denominator) is the Fraction without the gcd
# that would reduce it: the ints must be coprime, the denominator positive.
coprime_fraction = getattr(Fraction, "_from_coprime_ints",  # Python 3.12 on
                           functools.partial(Fraction, _normalize=False))


def parse_number(text: str, mode: ArithmeticMode) -> Number:
    """Parse a scalar from text. Exact mode accepts 'p/q' and decimals,
    and refuses an exponent past DEFAULT_BIT_CAP bits before 10**e is built.
    A plain 'p' or 'p/q' of ASCII digits, q not 0, is read by int() into
    the Fraction that Fraction(text) gives, with its int() errors; every
    other text goes to Fraction(text)."""
    if mode is ArithmeticMode.EXACT_RATIONAL:
        p, slash, q = text.partition("/")
        if text.isascii() and p.isdigit() and (q.strip("0").isdigit() or not slash):
            return Fraction(int(p), int(q or 1))
        e = text.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
        if e.isdecimal() and int(e) * math.log2(10) > DEFAULT_BIT_CAP:
            raise ValueError(f"exponent passes the {DEFAULT_BIT_CAP}-bit cap")
        return Fraction(text)
    return float(text)


def require_positive(value: Number, name: str) -> None:
    """Raise DomainError unless value is a finite positive scalar."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")
    if not value > 0:
        raise DomainError(f"{name} must be positive, got {value!r}")


def require_tolerance(
    value: Number, name: str, positive: bool = False, shown: str = ""
) -> Number:
    """value, if it is finite and >= 0, or > 0 where positive is set;
    else DomainError "<name> must be finite and >= 0, got <shown>",
    shown repr(value) unless given."""
    if math.isfinite(value) and (value > 0 or not positive and value == 0):
        return value
    bound = "> 0" if positive else ">= 0"
    raise DomainError(
        f"{name} must be finite and {bound}, got {shown or repr(value)}".lstrip())


def number_log(value: Fraction) -> float:
    """Natural log of a positive Fraction of any size: numerator and
    denominator are logged apart, since float() of it may overflow."""
    return math.log(value.numerator) - math.log(value.denominator)


def saturating_exp(x: float) -> float:
    """math.exp that returns inf past float range instead of raising."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _decimal(value: int) -> str:
    """Decimal digits of an int of any size. str() refuses ints past the
    interpreter's digit limit (4300 digits by default, a process-wide
    setting); decimal.Decimal takes any int exactly. Either way the time
    is quadratic in the length; core.decimal_rows prints exact orbits
    in linear time."""
    try:
        return str(value)
    except ValueError:
        return str(decimal.Decimal(value))


def exact_text(value: Union[int, Fraction]) -> str:
    """str() of an int or Fraction, without the int-to-str digit limit."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return _decimal(value.numerator)
        return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"
    return _decimal(value)


def format_number(value: Number) -> str:
    """Render a scalar for machine-readable output.

    Floats print with 17 significant digits, enough to round-trip any
    double. Exact values print as integers or 'p/q', at any size.
    """
    if isinstance(value, float):
        return f"{value:.17g}"
    return exact_text(value)

