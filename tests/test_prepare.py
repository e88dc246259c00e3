"""Prepared systems: one conversion, matrix and rank decision per
classification, with results equal to the branch functions."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ratsys
from ratsys import (
    ArithmeticMode,
    DomainError,
    Kind,
    PeriodicCoefficients,
    System,
    classify,
    classify_rank1,
    classify_rank2,
    compare,
    limit_cycle,
    prepare,
    simulate,
)
from ratsys.cli import main

from conftest import (
    RANK1_BOUNDARY,
    RANK1_GROWTH,
    RANK2_BALANCED,
    RANK2_GENERIC,
    RANK2_SQUARE,
)

EXACT = ArithmeticMode.EXACT_RATIONAL
FLOAT = ArithmeticMode.FLOAT64

# fixed sets on every branch, the convergent ones included
KNOWN = [RANK1_BOUNDARY, RANK1_GROWTH, RANK2_BALANCED, RANK2_GENERIC,
         RANK2_SQUARE]

rationals = st.fractions(
    min_value=Fraction(1, 8), max_value=Fraction(8), max_denominator=12
)


@st.composite
def rational_sets(draw):
    """Rational sets: generic, singular in one parity, or a known one."""
    shape = draw(st.sampled_from(["generic", "even", "odd", "known"]))
    if shape == "known":
        return draw(st.sampled_from(KNOWN))
    v = list(draw(st.tuples(*([rationals] * 8))))
    if shape != "generic":
        i = 0 if shape == "even" else 4
        v[i + 3] = v[i + 1] * v[i + 2] / v[i]
    return PeriodicCoefficients(*v)


def count_calls(monkeypatch, fn):
    """Replace fn under every ratsys name that binds it; returns the list
    its calls are appended to."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key == "ratsys" or key.startswith("ratsys."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def count_inits(monkeypatch):
    calls = []
    original = PeriodicCoefficients.__post_init__

    def counting(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(PeriodicCoefficients, "__post_init__", counting)
    return calls


def test_prepare_builds_the_system():
    system = prepare(RANK2_GENERIC, EXACT)
    assert system.mode is EXACT
    assert system.params == RANK2_GENERIC.as_fractions()
    assert system.matrix == ratsys.composed_matrix(system.params)
    assert system.rank == 2
    assert prepare(RANK1_GROWTH.as_floats()).rank == 1


def test_prepare_is_idempotent():
    system = prepare(RANK2_GENERIC.as_floats())
    assert prepare(system) is system
    assert prepare(system, FLOAT, 1e-12) is system
    other = prepare(system, FLOAT, 1e-6)
    assert other is not system and other.eps_rank == 1e-6
    assert other.params is system.params


def test_float_system_from_an_exact_one_keeps_the_exact_rank():
    exact = prepare(RANK1_BOUNDARY, EXACT)
    floats = prepare(exact, FLOAT, 0.0)
    assert floats.mode is FLOAT and floats.params == RANK1_BOUNDARY.as_floats()
    assert floats.rank == exact.rank == 1


@pytest.mark.parametrize("eps_rank", [-1e-12, math.nan, math.inf])
def test_prepare_rejects_bad_eps_rank(eps_rank):
    with pytest.raises(DomainError):
        prepare(RANK2_GENERIC, FLOAT, eps_rank)
    with pytest.raises(DomainError):
        classify(RANK2_GENERIC, eps_rank=eps_rank)


def test_exact_mode_rejects_float_coefficients():
    with pytest.raises(DomainError):
        prepare(RANK2_GENERIC.as_floats(), EXACT)
    with pytest.raises(DomainError):
        prepare(prepare(RANK2_GENERIC.as_floats()), EXACT)


def test_conversions_share_values_already_in_the_target_type():
    floats = RANK2_GENERIC.as_floats()
    assert floats.as_floats() is floats
    copy = RANK2_GENERIC.as_floats()  # int-valued input gets a float copy
    assert copy is not RANK2_GENERIC
    assert all(type(getattr(copy, f)) is float for f in ratsys.core.COEFF_NAMES)
    exact = RANK2_GENERIC.as_fractions()
    assert exact.as_fractions() is exact
    with pytest.raises(DomainError):
        floats.as_fractions()


@pytest.mark.parametrize(
    "params, kind",
    [
        (RANK1_GROWTH, Kind.BLOW_EVEN_VANISH_ODD),
        (RANK2_GENERIC, Kind.VANISH_EVEN_BLOW_ODD),
        (RANK2_BALANCED, Kind.CONVERGES_TO_TWO_PERIODIC),
    ],
)
def test_float_classify_prepares_once(monkeypatch, params, kind):
    params = params.as_floats()
    ranks = count_calls(monkeypatch, ratsys.transfer.rank_decision)
    matrices = count_calls(monkeypatch, ratsys.transfer.composed_matrix)
    inits = count_inits(monkeypatch)
    verdict = classify(params, probe_init=(1.5, 0.5))
    assert verdict.kind is kind
    assert (verdict.cycle is not None) == (kind is Kind.CONVERGES_TO_TWO_PERIODIC)
    assert len(ranks) == 1
    assert len(matrices) == 1
    assert inits == []


def test_float_convergent_classify_solves_the_criterion_once(monkeypatch):
    verdicts = count_calls(monkeypatch, ratsys.rank2.classify_rank2)
    splits = count_calls(monkeypatch, ratsys.rank2.float_split)
    verdict = classify(RANK2_BALANCED.as_floats(), probe_init=(1.5, 0.5))
    assert verdict.cycle is not None
    # prepare solves once; classify_rank2 and limit_cycle read its Split
    assert len(verdicts) == 1
    assert len(splits) == 1


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_spectral_queries_read_what_the_system_carries(monkeypatch, mode):
    rank2 = ratsys.rank2
    queries = (rank2.eigenvalues, rank2.criterion_delta,
               lambda *a: rank2.spectral_constants(a[0], (3, 2), *a[1:]))
    expected = [query(RANK2_SQUARE, mode) for query in queries]
    system = prepare(RANK2_SQUARE, mode)
    calls = [count_calls(monkeypatch, fn) for fn in (
        rank2.float_split, ratsys.core.over_one_denominator)]
    assert [query(system, mode) for query in queries] == expected
    assert calls == [[], []]  # the Split or the ints, not solved again


def test_sweep_validates_each_cell_once(monkeypatch, capsys):
    inits = count_inits(monkeypatch)
    code = main(["sweep", "--all-ones", "--axis1", "d1:1:2:5",
                 "--axis2", "c1:1:3:5", "--format", "csv"])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 26
    assert len(inits) == 1  # the base; a cell builds no coefficient set


def test_sweep_builds_no_per_cell_objects(monkeypatch, capsys):
    inits = count_inits(monkeypatch)
    calls = [count_calls(monkeypatch, fn) for fn in (
        ratsys.transfer.prepare, ratsys.transfer.composed_matrix,
        ratsys.analysis.classify)]
    # d0 = 1 and c1 = 1 make a parity matrix of the all-ones set singular,
    # so the grid has cells of both ranks
    code = main(["sweep", "--all-ones", "--axis1", "d0:0.5:1.5:5",
                 "--axis2", "c1:1:3:5", "--format", "csv"])
    assert code == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 25
    assert {row.split(",")[2] for row in rows} == {"1", "2"}
    assert len(inits) == 1
    assert calls == [[], [], []]


def expected_verdict(params, mode, init):
    """The branch function's verdict, with the cycle classify attaches."""
    if prepare(params, mode).rank == 1:
        return classify_rank1(params, mode)
    verdict = classify_rank2(params, mode)
    if verdict.kind is Kind.CONVERGES_TO_TWO_PERIODIC:
        verdict = verdict._replace(cycle=limit_cycle(params, init))
    return verdict


@settings(max_examples=100)
@given(params=rational_sets(), init=st.tuples(rationals, rationals),
       exact=st.booleans())
def test_classify_equals_the_branch_functions(params, init, exact):
    mode = EXACT if exact else FLOAT
    if not exact:
        params, init = params.as_floats(), tuple(map(float, init))
    verdict = classify(params, mode, probe_init=init)
    # record equality: floats are bit-identical
    assert verdict == expected_verdict(params, mode, init)


def test_branch_functions_take_a_system():
    for params in KNOWN:
        for mode in (EXACT, FLOAT):
            system = prepare(params, mode)
            assert isinstance(system, System)
            assert classify(system, mode) == classify(params, mode)


def test_exact_convergent_classify_builds_each_matrix_once(monkeypatch):
    matrices = count_calls(monkeypatch, ratsys.transfer.composed_matrix)
    verdict = classify(RANK2_BALANCED, EXACT,
                       probe_init=(Fraction(3, 2), Fraction(1, 2)))
    assert verdict.cycle is not None
    # once exact, once float for limit_cycle's System
    assert len(matrices) == 2
    assert sorted(type(args[0].a0).__name__ for args in matrices) == [
        "Fraction", "float"]


@pytest.mark.parametrize("params", [RANK1_GROWTH, RANK2_GENERIC, RANK2_BALANCED])
def test_exact_classify_writes_each_quadruple_over_one_denominator_once(
        monkeypatch, params):
    over_one_denominator = ratsys.core.over_one_denominator
    calls = count_calls(monkeypatch, over_one_denominator)
    system = prepare(params, EXACT)
    # the even and odd coefficients, then the composed matrix
    assert calls == [(system.params[:4],), (system.params[4:],), (system.matrix,)]
    assert system.ints == tuple(over_one_denominator(*args) for args in calls[:3])
    calls.clear()
    classify(params, EXACT, probe_init=(Fraction(3, 2), Fraction(1, 2)))
    assert len(calls) == 3  # the verdict reads the System's ints


def test_exact_verdict_builds_no_float_system(monkeypatch):
    matrices = count_calls(monkeypatch, ratsys.transfer.composed_matrix)
    verdict = classify(RANK2_GENERIC, EXACT)
    assert verdict.kind is Kind.VANISH_EVEN_BLOW_ODD
    # the float witness comes from the entries, not from a float System
    assert [type(args[0].a0) for args in matrices] == [Fraction]


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_simulate_and_compare_take_a_system(mode):
    init = (Fraction(3, 2), Fraction(1, 2)) if mode is EXACT else (1.5, 0.5)
    for params in KNOWN:
        system = prepare(params, mode)
        assert simulate(system, init, 12, mode) == simulate(params, init, 12, mode)
        assert compare(system, init, 12, mode) == compare(params, init, 12, mode)
    # an exact System gives its coefficients to float mode, not the reverse
    assert simulate(prepare(RANK2_SQUARE, EXACT), init, 12, FLOAT) == (
        simulate(RANK2_SQUARE, init, 12, FLOAT))
    with pytest.raises(DomainError):
        simulate(prepare(RANK2_SQUARE, FLOAT), init, 12, EXACT)
