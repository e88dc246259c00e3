"""Closed forms and classification for a planar rational system.

The system is

    x[n+1] = a[n]/x[n] + b[n]/y[n]
    y[n+1] = c[n]/x[n] + d[n]/y[n]

with positive two-periodic coefficients and positive initial values.
A multiplicative change of variables turns it into a linear recurrence
driven by a positive 2x2 matrix; the rank of the composed two-step
matrix splits the analysis into a geometric (rank-1) branch and a
spectral (rank-2) branch, and every orbit either blows up along one
parity class while vanishing along the other, or approaches a positive
two-cycle.
"""

from .analysis import (
    ComparisonReport,
    ProductReport,
    ProductStatus,
    classify,
    closed_form_sequence,
    closed_form_states,
    compare,
    product_converges,
)
from .classification import Classification, Kind
from .core import (
    Orbit,
    OrbitPoint,
    PeriodicCoefficients,
    log_simulate,
    simulate,
    step,
)
from .errors import (
    BitGrowthError,
    BranchError,
    ConvergenceError,
    DomainError,
    RatsysError,
    TruncationError,
)
from .numeric import ArithmeticMode, Number, format_number, parse_number
from .rank1 import (
    Rank1Data,
    classify_rank1,
    growth_and_ratio,
    rank1_solution,
    rank1_solution_sequence,
)
from .rank2 import (
    LimitCycle,
    Rank2Witness,
    SpectralData,
    classify_rank2,
    criterion_delta,
    delta_sign_exact,
    eigenvalues,
    limit_cycle,
    rank2_solution,
    rank2_solution_sequence,
    spectral_constants,
)
from .transfer import (
    System,
    TransferMatrix,
    UVPoint,
    composed_matrix,
    prepare,
    rank_decision,
    uv_from_orbit,
)

__all__ = [
    "ArithmeticMode",
    "BitGrowthError",
    "BranchError",
    "Classification",
    "ComparisonReport",
    "ConvergenceError",
    "DomainError",
    "Kind",
    "LimitCycle",
    "Number",
    "Orbit",
    "OrbitPoint",
    "PeriodicCoefficients",
    "ProductReport",
    "ProductStatus",
    "Rank1Data",
    "Rank2Witness",
    "RatsysError",
    "SpectralData",
    "System",
    "TransferMatrix",
    "TruncationError",
    "UVPoint",
    "classify",
    "classify_rank1",
    "classify_rank2",
    "closed_form_sequence",
    "closed_form_states",
    "compare",
    "composed_matrix",
    "criterion_delta",
    "delta_sign_exact",
    "eigenvalues",
    "format_number",
    "growth_and_ratio",
    "limit_cycle",
    "log_simulate",
    "parse_number",
    "prepare",
    "product_converges",
    "rank1_solution",
    "rank1_solution_sequence",
    "rank2_solution",
    "rank2_solution_sequence",
    "rank_decision",
    "simulate",
    "spectral_constants",
    "step",
    "uv_from_orbit",
]

__version__ = "0.1.0"
