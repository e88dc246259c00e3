"""The exact decision on ints against the plain Fraction formulas it
replaced, conftest.fraction_verdict: on 10,400 seeded rational sets the
composed matrix, its rank, the sign of delta_crit and the rank-1 K, mu,
rho and kind must all be the reference's."""

import random
from collections import Counter
from fractions import Fraction

from ratsys import (ArithmeticMode, Kind, PeriodicCoefficients, Rank1Data,
                    classify_rank1, delta_sign_exact, prepare)

from conftest import (RANK1_BOUNDARY, RANK2_BALANCED, fraction_criterion,
                      fraction_verdict)

EXACT = ArithmeticMode.EXACT_RATIONAL
X_ZERO = (1, 3, 2, 1, 1, 2, 1, 1)  # x = 0 in delta_crit = x + y*sqrt(disc)
RANK1_KINDS = {-1: Kind.VANISH_EVEN_BLOW_ODD, 0: Kind.EXACT_TWO_PERIODIC,
               1: Kind.BLOW_EVEN_VANISH_ODD}


def rational(rng, digits):
    return Fraction(rng.randint(1, 10**digits), rng.randint(1, 10**digits))


def small(rng):
    return Fraction(rng.randint(1, 12), rng.randint(1, 12))


def conjugate(values, s, r):
    """The set seen through x -> s*x, y -> r*y; the verdict is unchanged."""
    scale = (s * s, s * r, s * r, r * r) * 2
    return tuple(Fraction(v) * k for v, k in zip(values, scale))


def sets(seed=20261021):
    """Small rationals, 30-digit rationals, conjugates of the balanced,
    rank-1 boundary and x = 0 sets, and rank-1 conjugates of all ones."""
    rng = random.Random(seed)
    out = [tuple(small(rng) for _ in range(8)) for _ in range(4000)]
    out += [tuple(rational(rng, 30) for _ in range(8)) for _ in range(2000)]
    for base in (RANK2_BALANCED, RANK1_BOUNDARY, X_ZERO):
        out += [conjugate(base, small(rng), small(rng)) for _ in range(1000)]
    for _ in range(1400):
        s, r = small(rng), small(rng)
        out.append((s * s, s * r, s * r, r * r, *(small(rng) for _ in range(4))))
    return out


def test_the_integer_decision_is_the_fraction_formulas():
    seen = Counter()
    for values in sets():
        rank, matrix, sign, terms = fraction_verdict(values)
        system = prepare(PeriodicCoefficients(*values), EXACT)
        assert system.rank == rank, values
        # Fractions are equal only where numerator and denominator are,
        # so each entry is in lowest terms
        assert tuple(system.matrix) == matrix, values
        assert all(type(v) is Fraction for v in system.matrix), values
        if rank == 2:
            assert delta_sign_exact(system) == sign, values
            x = fraction_criterion(matrix, tuple(map(Fraction, values[:4])))[0]
            seen[2, sign, x == 0] += 1
        else:
            verdict = classify_rank1(system, EXACT)
            assert verdict.witness == Rank1Data(*terms), values
            assert verdict.kind is RANK1_KINDS[sign], values
            seen[1, sign, None] += 1
    # every branch of the decision is reached: both ranks with each
    # sign, and a rank-2 x of 0, where y alone gives the sign
    assert {(r, s) for r, s, _ in seen} == {(r, s) for r in (1, 2) for s in (-1, 0, 1)}
    assert any(r == 2 and zero for r, _, zero in seen)
    assert sum(seen.values()) >= 10_000

