"""Scalar plumbing shared by every module.

Values travel in one of two representations, selected by ArithmeticMode:
IEEE-754 doubles, or exact rationals backed by fractions.Fraction (always
reduced, denominator positive). ints are accepted anywhere and count as
exact. Helpers here coerce, validate, and format scalars uniformly so the
dynamics modules never branch on representation details themselves.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Union

from .errors import DomainError

Number = Union[int, float, Fraction]


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


def parse_number(text: str, mode: ArithmeticMode) -> Number:
    """Parse a scalar from text. Exact mode accepts 'p/q' and decimals."""
    if mode is ArithmeticMode.EXACT_RATIONAL:
        return Fraction(text)
    return float(text)


def require_positive(value: Number, name: str) -> None:
    """Raise DomainError unless value is a finite positive scalar."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")
    if not value > 0:
        raise DomainError(f"{name} must be positive, got {value!r}")


def number_log(value: Number) -> float:
    """Natural log of a positive scalar, safe for huge Fractions.

    math.log on a wide Fraction would overflow converting to float first,
    so numerator and denominator are logged separately.
    """
    if isinstance(value, Fraction):
        return math.log(value.numerator) - math.log(value.denominator)
    return math.log(value)


def log_add_exp(p: float, q: float) -> float:
    """log(e**p + e**q) without overflow, by factoring out the max."""
    if p < q:
        p, q = q, p
    return p + math.log1p(math.exp(q - p))


def saturating_exp(x: float) -> float:
    """math.exp that returns inf past float range instead of raising."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def exact_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a non-negative rational, or None.

    Returns a Fraction r with r*r == value when one exists; otherwise the
    root is irrational and None is returned.
    """
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _decimal(value: int) -> str:
    """Decimal digits of an int of any size.

    str() refuses ints past the interpreter's digit limit (4300 digits by
    default, a process-wide setting), so wider values are split by a
    power of ten into halves that are rendered separately.
    """
    try:
        return str(value)
    except ValueError:
        pass
    if value < 0:
        return "-" + _decimal(-value)
    half = value.bit_length() * 3 // 20  # about half the decimal digits
    high, low = divmod(value, 10**half)
    return _decimal(high) + _decimal(low).zfill(half)


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


def relative_gap(a: Number, b: Number) -> float:
    """|a - b| relative to |a|, as a float. a must be nonzero."""
    if isinstance(a, Fraction) or isinstance(b, Fraction):
        return float(abs(Fraction(a) - Fraction(b)) / abs(Fraction(a)))
    return abs(a - b) / abs(a)
