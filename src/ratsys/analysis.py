"""Orbit-level diagnostics on top of the closed forms.

This module hosts the one-call classification entry point, plus the
checks used to validate verdicts against raw trajectories: deciding
convergence of infinite products from their per-factor deviations, and
comparing closed-form values against direct iteration index by index.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import count, islice
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import rank1, rank2
from .classification import Classification, Kind
from .core import (DEFAULT_BIT_CAP, PeriodicCoefficients, _exact_factors,
                   closed_factors, closed_states, decimal_rows, horizon,
                   initial_state, simulate)
from .errors import DomainError
from .numeric import ArithmeticMode, Number, coprime_fraction, require_tolerance
from .rank1 import classify_rank1, growth_terms
from .rank2 import classify_rank2, float_criterion, limit_cycle
from .transfer import System, composed_entries, float_rank, prepare

EXACT = ArithmeticMode.EXACT_RATIONAL


def closed_form_states(
    params: PeriodicCoefficients | System,
    init: tuple[Number, Number],
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    eps_rank: float = 1e-12,
) -> Iterator[tuple[Number, Number]]:
    """Closed-form states n = 0, 1, 2, ... from the rank's branch, lazily.

    The coefficients are prepared and the start checked on the call. An
    error tied to an index, such as the BitGrowthError of an exact state
    past the bit cap, is raised when the iterator reaches it. Float
    values saturate to inf or 0.0.
    """
    system = prepare(params, mode, eps_rank)
    branch = rank1 if system.rank == 1 else rank2
    return closed_states(system, initial_state(init, mode), branch._float_terms)


def closed_form_text(
    params: PeriodicCoefficients | System,
    init: tuple[Number, Number],
    n_max: int,
    eps_rank: float = 1e-12,
) -> Iterator[tuple[str, str]]:
    """The exact closed form's rows 0 .. n_max, as core.exact_orbit_text
    gives the orbit's; no Fraction is made."""
    horizon(n_max)
    system = prepare(params, EXACT, eps_rank)
    states = closed_factors(system, initial_state(init, EXACT))
    return decimal_rows(islice(states, n_max + 1))


def closed_form_sequence(
    params: PeriodicCoefficients | System,
    init: tuple[Number, Number],
    n_max: int,
    mode: ArithmeticMode = ArithmeticMode.FLOAT64,
    eps_rank: float = 1e-12,
) -> list[tuple[Number, Number]]:
    """Closed-form states for n = 0 .. n_max from the rank's branch."""
    horizon(n_max)
    return list(islice(closed_form_states(params, init, mode, eps_rank), n_max + 1))


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
    cycle is attached. The coefficients are prepared once; that System
    goes to the branch function and to limit_cycle, the one place that
    builds a float System from an exact one. Raises DomainError for a
    tol_class below 0 (from the branch function) or a cycle_tol at or
    below 0, or either not finite.
    """
    require_tolerance(cycle_tol, "cycle_tol", positive=True)
    probe_init = initial_state(probe_init, mode)
    system = prepare(params, mode, eps_rank)
    branch = classify_rank1 if system.rank == 1 else classify_rank2
    verdict = branch(system, mode, tol_class, eps_rank)
    if attach_cycle and verdict.kind is Kind.CONVERGES_TO_TWO_PERIODIC:
        cycle = limit_cycle(system, probe_init, cycle_tol,
                            tol_class=tol_class, eps_rank=eps_rank)
        verdict = verdict._replace(cycle=cycle)
    return verdict


def float_verdict(
    values: Sequence[float], eps_rank: float = 1e-12, tol_class: float = 1e-9
) -> tuple[int, float, float, Kind]:
    """(rank, K or Q, rho or delta, kind) of eight float coefficients,
    a0 .. d1, already checked finite and positive: classify's numbers
    and verdict (attach_cycle=False) bit for bit, by the same functions
    (composed_entries, float_rank, growth_terms, float_criterion), with
    no coefficient set, matrix, System or witness built. Raises
    DomainError when a composed entry is inf or, in rank 1, 0, and
    BranchError when the rank-1 row ratios disagree."""
    m = composed_entries(*values)
    if float_rank(*m, eps_rank) == 1:
        k, _, rho, _, kind = growth_terms(*m, *values[:4], tol_class=tol_class)
        return 1, k, rho, kind
    split, _, delta, _, kind = float_criterion(m, values[:4], tol_class)
    return 2, split.q, delta, kind


class ProductStatus(Enum):
    CONVERGES = "converges"
    DIVERGES_TO_ZERO = "diverges-to-zero"
    DIVERGES_TO_INFINITY = "diverges-to-infinity"
    UNDECIDED = "undecided"


class ProductReport(NamedTuple):
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
    # range, not islice, as max_terms may pass sys.maxsize
    for _, alpha in zip(range(max_terms), terms):
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


class ComparisonReport(NamedTuple):
    """Worst relative disagreement between closed form and iteration."""

    n_max: int
    max_rel_error_x: float
    max_rel_error_y: float
    first_divergence_index: Optional[int]


def compare(
    params: PeriodicCoefficients | System,
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
    divergence_threshold or is NaN. The closed-form states are streamed,
    never held as a list. The coefficients are prepared once for both
    sides. In exact mode both are integer states of core.integer_steps,
    never held: each component is compared as its ints (g, F, p, r), and
    only one whose ints differ is made a Fraction for its error. Raises
    DomainError for a divergence_threshold that is not finite and >= 0.
    """
    horizon(n_max)
    require_tolerance(divergence_threshold, "divergence_threshold")
    system = prepare(params, mode, eps_rank)
    if mode is EXACT:
        start = initial_state(init, mode)

        def sides(factors):  # x and y as (g, F, p, r): x = g*p/(F*r)
            for (g, f, p1, p2, r1, r2), _ in factors:
                yield (g, f, p1, r1), (g, f, p2, r2)

        def gap(a, b):  # equal values with other ints still give 0.0
            if a == b:
                return 0.0
            a, b = (coprime_fraction(g * p, f * r) for g, f, p, r in (a, b))
            return float(abs(a - b) / a)
        states = (sides(_exact_factors(system.ints[:2], start, n_max, DEFAULT_BIT_CAP)),
                  sides(closed_factors(system, start)))
    else:
        def gap(a, b):  # every state is positive
            return abs(a - b) / a
        states = (simulate(system, init, n_max, mode).states,
                  closed_form_states(system, init, mode, eps_rank))
    worst_x = 0.0
    worst_y = 0.0
    first: Optional[int] = None
    for n, (x_it, y_it), (x_cf, y_cf) in zip(count(), *states):
        err_x = gap(x_it, x_cf)
        err_y = gap(y_it, y_cf)
        if err_x > worst_x:
            worst_x = err_x
        if err_y > worst_y:
            worst_y = err_y
        if first is None and not (err_x <= divergence_threshold
                                  and err_y <= divergence_threshold):
            first = n
    return ComparisonReport(
        n_max=n_max,
        max_rel_error_x=worst_x,
        max_rel_error_y=worst_y,
        first_divergence_index=first,
    )
