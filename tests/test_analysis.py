"""Classification entry point, product limits, closed form against iteration."""

import math
from fractions import Fraction
from itertools import count

import pytest

import ratsys.rank1
from ratsys import (
    ArithmeticMode,
    DomainError,
    Kind,
    LimitCycle,
    ProductStatus,
    Rank1Data,
    Rank2Witness,
    classify,
    classify_rank1,
    classify_rank2,
    closed_form_sequence,
    compare,
    limit_cycle,
    product_converges,
    simulate,
)

from conftest import (
    RANK1_BOUNDARY,
    RANK1_GROWTH,
    RANK2_BALANCED,
    RANK2_GENERIC,
    RANK2_SQUARE,
)

EXACT = ArithmeticMode.EXACT_RATIONAL


def test_classify_dispatches_to_rank_one():
    verdict = classify(RANK1_BOUNDARY, EXACT)
    assert verdict.rank == 1
    assert verdict.kind is Kind.EXACT_TWO_PERIODIC
    assert isinstance(verdict.witness, Rank1Data)
    assert verdict.cycle is None


def test_classify_dispatches_to_rank_two():
    verdict = classify(RANK2_GENERIC)
    assert verdict.rank == 2
    assert verdict.kind is Kind.VANISH_EVEN_BLOW_ODD
    assert isinstance(verdict.witness, Rank2Witness)
    assert verdict.cycle is None


def test_classify_attaches_cycle_in_the_convergent_case():
    verdict = classify(RANK2_BALANCED)
    assert verdict.kind is Kind.CONVERGES_TO_TWO_PERIODIC
    assert isinstance(verdict.cycle, LimitCycle)
    assert verdict.cycle.residual < 1e-9
    bare = classify(RANK2_BALANCED, attach_cycle=False)
    assert bare.cycle is None
    other = classify(RANK2_BALANCED, probe_init=(3.0, 0.5))
    assert abs(other.cycle.x_even - verdict.cycle.x_even) > 1e-6


def test_product_converges_geometric():
    report = product_converges(0.5 ** k for k in count(1))
    assert report.status is ProductStatus.CONVERGES
    direct = 1.0
    for k in range(1, 80):
        direct *= 1.0 + 0.5 ** k
    assert report.limit == pytest.approx(direct, rel=1e-10)
    assert report.log_partial == pytest.approx(math.log(direct), rel=1e-10)


def test_product_converges_terminating():
    # the zero at the second term drives the estimated tail to zero, so
    # the scan can already stop there
    report = product_converges(iter([0.1, 0.0, 0.0]))
    assert report.status is ProductStatus.CONVERGES
    assert report.limit == pytest.approx(1.1, rel=1e-15)
    assert report.terms_used == 2


def test_product_converges_on_two_exact_zeros():
    # the geometric rule does not end this run: two zero deviations in a
    # row do, and the third term is never read
    report = product_converges(iter([0.0, 0.0, 7.0]))
    assert report.status is ProductStatus.CONVERGES
    assert report.limit == 1.0
    assert report.terms_used == 2


def test_product_diverges_to_infinity():
    report = product_converges(0.5 for _ in count())
    assert report.status is ProductStatus.DIVERGES_TO_INFINITY
    assert report.limit is None
    assert report.log_partial > 50.0


def test_product_diverges_to_zero():
    report = product_converges(-0.5 for _ in count())
    assert report.status is ProductStatus.DIVERGES_TO_ZERO
    assert report.log_partial < -50.0


def test_product_rejects_nonpositive_factors():
    with pytest.raises(DomainError):
        product_converges(iter([0.5, -1.0]))
    with pytest.raises(DomainError):
        product_converges(iter([-1.5]))


def test_product_undecided_for_slow_decay():
    # 1/k**2 converges, but too slowly for the geometric tail bound;
    # saying UNDECIDED is the honest verdict at this budget
    report = product_converges((1.0 / k ** 2 for k in count(1)), max_terms=2000)
    assert report.status is ProductStatus.UNDECIDED
    assert report.terms_used == 2000


def test_max_terms_may_pass_sys_maxsize():
    # the README allows any int >= 1; islice stops at sys.maxsize
    report = product_converges((0.5 ** k for k in count(1)), max_terms=2**63)
    assert report.status is ProductStatus.CONVERGES
    cycle = limit_cycle(RANK2_BALANCED, (1.5, 0.5), max_terms=2**63)
    assert cycle == limit_cycle(RANK2_BALANCED, (1.5, 0.5))


def test_compare_exact_closed_forms_are_error_free():
    report = compare(RANK1_BOUNDARY, (Fraction(1), Fraction(2)), 30, EXACT)
    assert report.max_rel_error_x == 0.0
    assert report.max_rel_error_y == 0.0
    assert report.first_divergence_index is None


def test_compare_float_rank1():
    report = compare(RANK1_GROWTH.as_floats(), (1.0, 1.0), 40)
    assert report.max_rel_error_x < 1e-9
    assert report.max_rel_error_y < 1e-9
    assert report.first_divergence_index is None


def test_compare_float_rank2():
    report = compare(RANK2_GENERIC.as_floats(), (1.0, 1.0), 40)
    assert report.max_rel_error_x < 1e-9
    assert report.max_rel_error_y < 1e-9
    assert report.first_divergence_index is None


def test_compare_reports_first_index_over_threshold():
    report = compare(
        RANK2_GENERIC.as_floats(), (1.0, 1.0), 40, divergence_threshold=1e-300
    )
    assert report.first_divergence_index is not None
    assert report.first_divergence_index >= 2


def test_compare_rejects_negative_horizon():
    with pytest.raises(DomainError):
        compare(RANK2_GENERIC.as_floats(), (1.0, 1.0), -1)


def test_rank1_compare_computes_the_constants_once(monkeypatch):
    calls = []
    original = ratsys.rank1.growth_terms

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ratsys.rank1, "growth_terms", counting)
    report = compare(RANK1_BOUNDARY.as_floats(), (1.0, 2.0), 1000)
    assert report.first_divergence_index is None
    assert len(calls) == 1  # once per call, not once per index


def test_closed_form_sequence_dispatches_on_rank():
    init = (Fraction(1), Fraction(2))
    for params in (RANK1_GROWTH, RANK2_SQUARE):
        orbit = simulate(params, init, 12, EXACT)
        assert closed_form_sequence(params, init, 12, EXACT) == [
            orbit.state(n) for n in range(13)
        ]


# Values each checked parameter refuses: tol_class and
# divergence_threshold must be finite and >= 0, cycle_tol and tol finite
# and > 0, max_terms an int above 0.
BAD_VALUES = {
    "tol_class": (-1.0, math.nan, math.inf),
    "cycle_tol": (0.0, -1.0, math.nan, math.inf),
    "tol": (0.0, -1.0, math.nan, math.inf),
    "max_terms": (0, -1, 1.5),
    "divergence_threshold": (-1.0, math.nan, math.inf),
}
ENTRY_POINTS = {
    # a negative or nan band gave VanishEvenBlowOdd on this convergent set
    "classify": (lambda **kw: classify(RANK2_BALANCED, **kw),
                 ("tol_class", "cycle_tol")),
    # and BlowEvenVanishOdd on this two-periodic one
    "classify_rank1": (lambda **kw: classify_rank1(RANK1_BOUNDARY, **kw),
                       ("tol_class",)),
    "classify_rank2": (lambda **kw: classify_rank2(RANK2_BALANCED, **kw),
                       ("tol_class",)),
    "limit_cycle": (lambda **kw: limit_cycle(RANK2_BALANCED, (1.0, 1.0), **kw),
                    ("tol", "max_terms", "tol_class")),
    "compare": (lambda **kw: compare(RANK2_GENERIC, (1.0, 1.0), 10, **kw),
                ("divergence_threshold",)),
}


@pytest.mark.parametrize("entry, name, value", [
    (entry, name, value)
    for entry, (_, names) in ENTRY_POINTS.items()
    for name in names for value in BAD_VALUES[name]])
def test_entry_points_refuse_the_tolerances_the_cli_refuses(entry, name, value):
    call = ENTRY_POINTS[entry][0]
    with pytest.raises(DomainError, match=f"^{name} must be finite and "):
        call(**{name: value})
