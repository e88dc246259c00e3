"""Orbit-level diagnostics on top of the closed forms.

This module hosts the one-call classification entry point, plus the
checks used to validate verdicts against raw trajectories: detecting
eventual periodicity of an orbit, deciding convergence of infinite
products from their per-factor deviations, and comparing closed-form
values against direct iteration index by index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from itertools import islice
from typing import Iterable, Optional

from .classification import Classification, Kind
from .core import Orbit, PeriodicCoefficients, initial_state, simulate
from .errors import DomainError
from .numeric import ArithmeticMode, Number, relative_gap
from .rank1 import classify_rank1, rank1_solution_sequence
from .rank2 import classify_rank2, limit_cycle, rank2_solution_sequence
from .transfer import System, prepare


def closed_form_sequence(
    params: PeriodicCoefficients | System,
    init: tuple[Number, Number],
    n_max: int,
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    eps_rank: float = 1e-12,
) -> list[tuple[Number, Number]]:
    """Closed-form states for n = 0 .. n_max from the rank's branch."""
    system = prepare(params, mode, eps_rank)
    if system.rank == 1:
        return rank1_solution_sequence(system, init, n_max, mode, eps_rank)
    return rank2_solution_sequence(system, init, n_max, mode, eps_rank)


def classify(
    params: PeriodicCoefficients | System,
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    eps_rank: float = 1e-12,
    tol_class: float = 1e-9,
    cycle_tol: float = 1e-11,
    probe_init: tuple[Number, Number] = (1, 1),
    attach_cycle: bool = True,
) -> Classification:
    """Asymptotic verdict for a coefficient set.

    Dispatches on the rank of the composed matrix and returns the
    matching witness. In the convergent rank-2 case the limit cycle for
    probe_init is attached as well (unlike the verdict itself, the cycle
    depends on where the orbit starts; the cycle values are always
    reported as floats). probe_init is checked on every branch, so a
    non-positive or non-finite probe raises DomainError whether or not a
    cycle is attached. The coefficients are prepared once and the
    System is handed to the branch functions.
    """
    probe_init = initial_state(probe_init, mode)
    system = prepare(params, mode, eps_rank)
    if system.rank == 1:
        return classify_rank1(system, mode, tol_class, eps_rank)
    verdict = classify_rank2(system, mode, tol_class, eps_rank)
    if attach_cycle and verdict.kind is Kind.CONVERGES_TO_TWO_PERIODIC:
        cycle = limit_cycle(
            system,
            probe_init,
            tol=cycle_tol,
            tol_class=tol_class,
            eps_rank=eps_rank,
        )
        verdict = replace(verdict, cycle=cycle)
    return verdict


class PeriodStatus(Enum):
    PERIODIC = "periodic"
    EVENTUALLY_PERIODIC = "eventually-periodic"
    NOT_PERIODIC = "not-periodic"


@dataclass(frozen=True, slots=True)
class PeriodReport:
    """Verdict of detect_period: status and the first periodic index."""

    status: PeriodStatus
    start_index: Optional[int]


def detect_period(
    orbit: Orbit,
    period: int = 2,
    tol: float = 1e-9,
    require_from_start: bool = False,
) -> PeriodReport:
    """Smallest index from which the orbit repeats with the given period.

    A comparison at index n checks state(n + period) against state(n),
    exactly in rational mode and within relative tolerance tol in float
    mode. The report carries the smallest n1 such that every comparison
    from n1 through the end of the orbit matches: status PERIODIC when
    n1 == 0, EVENTUALLY_PERIODIC when n1 > 0 (demoted to NOT_PERIODIC
    when require_from_start is set), NOT_PERIODIC when even the final
    comparison fails. Needs at least two comparisons' worth of points.
    """
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    if len(orbit) < period + 2:
        raise ValueError(
            f"orbit with {len(orbit)} points is too short to test "
            f"period {period}; need at least {period + 2}"
        )
    exact = orbit.mode is ArithmeticMode.EXACT_RATIONAL

    def matches(n: int) -> bool:
        x_a, y_a = orbit.state(n)
        x_b, y_b = orbit.state(n + period)
        if exact:
            return x_a == x_b and y_a == y_b
        return relative_gap(x_a, x_b) <= tol and relative_gap(y_a, y_b) <= tol

    start = None
    for n in range(len(orbit) - period - 1, -1, -1):
        if not matches(n):
            break
        start = n
    if start is None:
        return PeriodReport(PeriodStatus.NOT_PERIODIC, None)
    if start == 0:
        return PeriodReport(PeriodStatus.PERIODIC, 0)
    if require_from_start:
        return PeriodReport(PeriodStatus.NOT_PERIODIC, None)
    return PeriodReport(PeriodStatus.EVENTUALLY_PERIODIC, start)


class ProductStatus(Enum):
    CONVERGES = "converges"
    DIVERGES_TO_ZERO = "diverges-to-zero"
    DIVERGES_TO_INFINITY = "diverges-to-infinity"
    UNDECIDED = "undecided"


@dataclass(frozen=True, slots=True)
class ProductReport:
    """Outcome of product_converges.

    limit is the product value when status is CONVERGES, else None.
    log_partial is the log of the last partial product either way.
    """

    status: ProductStatus
    limit: Optional[float]
    terms_used: int
    log_partial: float


def product_converges(
    terms: Iterable[Number],
    tol: float = 1e-12,
    max_terms: int = 1_000_000,
    drift_bound: float = 50.0,
) -> ProductReport:
    """Decide prod(1 + alpha_k) from the deviation sequence alpha_k.

    The product converges to a positive limit exactly when
    sum |alpha_k| converges, so the partial logs are accumulated with
    log1p and the run stops as soon as one of three things happens:
    the deviations are geometrically small (|alpha_k| below tol, ratio
    against the previous deviation below 1, and the implied geometric
    tail below tol), the partial log drifts past +-drift_bound (the
    product is then declared divergent to infinity or to zero), or the
    term budget runs out (UNDECIDED). Two consecutive exact zeros also
    count as convergence, covering sequences that terminate.

    Deviations must stay above -1; a factor at or below zero would end
    positivity and raises DomainError.
    """
    log_sum = 0.0
    prev_mag: Optional[float] = None
    zero_run = 0
    used = 0
    for alpha in islice(terms, max_terms):
        used += 1
        a = float(alpha)
        if not a > -1.0:
            raise DomainError(
                f"deviation {a!r} at term {used} makes a factor <= 0; "
                "the product is only defined for positive factors"
            )
        log_sum += math.log1p(a)
        mag = abs(a)
        if mag == 0.0:
            zero_run += 1
            if zero_run >= 2:
                return ProductReport(
                    ProductStatus.CONVERGES, math.exp(log_sum), used, log_sum
                )
        else:
            zero_run = 0
        if abs(log_sum) > drift_bound:
            status = (
                ProductStatus.DIVERGES_TO_INFINITY
                if log_sum > 0
                else ProductStatus.DIVERGES_TO_ZERO
            )
            return ProductReport(status, None, used, log_sum)
        if mag < tol and prev_mag is not None and prev_mag > 0.0:
            ratio = mag / prev_mag
            if ratio < 1.0 and mag * ratio / (1.0 - ratio) < tol:
                return ProductReport(
                    ProductStatus.CONVERGES, math.exp(log_sum), used, log_sum
                )
        prev_mag = mag
    return ProductReport(ProductStatus.UNDECIDED, None, used, log_sum)


@dataclass(frozen=True, slots=True)
class ComparisonReport:
    """Worst relative disagreement between closed form and iteration."""

    n_max: int
    max_rel_error_x: float
    max_rel_error_y: float
    first_divergence_index: Optional[int]


def compare(
    params: PeriodicCoefficients,
    init: tuple[Number, Number],
    n_max: int,
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    divergence_threshold: float = 1e-6,
    eps_rank: float = 1e-12,
) -> ComparisonReport:
    """Closed form against direct iteration, index by index.

    Uses the rank-appropriate closed form for every index 0..n_max and
    records the worst relative error in each component, plus the first
    index (if any) where either component's error exceeds
    divergence_threshold. In exact mode both sides are rational and the
    errors are exactly zero whenever the closed form is faithful.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    orbit = simulate(params, init, n_max, mode)
    closed = closed_form_sequence(params, init, n_max, mode, eps_rank)
    worst_x = 0.0
    worst_y = 0.0
    first: Optional[int] = None
    for n in range(n_max + 1):
        x_it, y_it = orbit.state(n)
        x_cf, y_cf = closed[n]
        err_x = relative_gap(x_it, x_cf)
        err_y = relative_gap(y_it, y_cf)
        worst_x = max(worst_x, err_x)
        worst_y = max(worst_y, err_y)
        if first is None and max(err_x, err_y) > divergence_threshold:
            first = n
    return ComparisonReport(
        n_max=n_max,
        max_rel_error_x=worst_x,
        max_rel_error_y=worst_y,
        first_divergence_index=first,
    )
