"""Error taxonomy for the solver.

Every failure mode that callers are expected to handle gets its own class.
All of them derive from RatsysError so a bare ``except RatsysError`` guards
a whole pipeline.
"""

from __future__ import annotations


class RatsysError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RatsysError, ValueError):
    """An input value is outside the domain of the operation.

    Raised for non-positive or non-finite coefficients and states, and for
    mode mismatches such as float inputs handed to an exact-rational path.
    """


class BranchError(RatsysError):
    """An operation specific to one rank was called on the other rank."""


class TruncationError(RatsysError):
    """Float iteration left the representable positive range.

    ``index`` is the first step whose value overflowed to infinity or
    underflowed to zero. ``orbit`` is the valid prefix: ``orbit.states``
    holds (x[n], y[n]) for n = 0 .. index-1.
    """

    def __init__(self, index: int, orbit, message: str):
        super().__init__(message)
        self.index = index
        self.orbit = orbit


class BitGrowthError(RatsysError):
    """Exact-rational state exceeded the configured bit-size cap.

    ``index`` is the step at which the cap was exceeded.
    """

    def __init__(self, index: int, bits: int, cap: int):
        super().__init__(
            f"rational state at step {index} needs {bits} bits, cap is {cap}"
        )
        self.index = index
        self.bits = bits
        self.cap = cap


class ConvergenceError(RatsysError):
    """An iterative evaluation hit its term cap before meeting tolerance."""

    def __init__(self, terms: int, message: str):
        super().__init__(message)
        self.terms = terms
