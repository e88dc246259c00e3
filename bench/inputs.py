"""Seeded input generators. Nothing here imports ratsys.

Every function takes a random.Random, so one seed fixes every input of a
run; all of them run before any timing starts. Coefficient sets are
8-tuples (a0, b0, c0, d0, a1, b1, c1, d1) of floats or Fractions.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import reference as ref

# Exactly balanced rational sets: rank 1 with rho = 1, rank 2 with delta = 0.
EXACT_BOUNDARY = (
    (Fraction(1), Fraction(1), Fraction(1), Fraction(1),
     Fraction(1, 2), Fraction(3, 2), Fraction(7, 10), Fraction(13, 10)),
    tuple(Fraction(v) for v in (1, 1, 1, 2, 2, 1, 1, 1)),
)


def log_uniform(rng, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def generic(rng, lo: float = 0.1, hi: float = 10.0) -> tuple:
    """Eight coefficients drawn log-uniformly; rank 2 with probability 1."""
    return tuple(log_uniform(rng, lo, hi) for _ in range(8))


def singular_family(rng) -> tuple:
    """a0 = b0 = c0 = d0, so the even matrix is singular and the rank is 1."""
    v = log_uniform(rng, 0.5, 2.0)
    return (v, v, v, v) + tuple(log_uniform(rng, 0.2, 5.0) for _ in range(4))


def dyadic_singular_even(rng) -> tuple[float, float, float, float]:
    """(a0, b0, c0, d0) with b0*c0 = a0*d0 exactly in binary floats."""
    a0 = 2.0 ** rng.randint(-1, 1)
    b0, c0 = rng.randint(3, 24) / 8, rng.randint(3, 24) / 8
    return (a0, b0, c0, b0 * c0 / a0)


def boundary_float(rng, r_lo: float, r_hi: float) -> tuple:
    """A float set with delta = 0 up to rounding and |lambda2/lambda1| in
    [r_lo, r_hi].

    Seven coefficients are drawn, b1 is bracketed on a coarse grid by the
    float reference delta and then bisected on its high-precision sign.
    """
    grid = [10 ** (e / 4) for e in range(-16, 17)]
    while True:
        a0, b0, c0, d0, a1, c1, d1 = (log_uniform(rng, 0.01, 100.0)
                                      for _ in range(7))

        def at(b1):
            return (a0, b0, c0, d0, a1, b1, c1, d1)

        signs = [ref.spectrum(at(b)).delta > 0 for b in grid]
        cross = [i for i in range(len(grid) - 1) if signs[i] != signs[i + 1]]
        if not cross:
            continue
        lo, hi = grid[cross[0]], grid[cross[0] + 1]
        sp = ref.spectrum(at(lo))
        if not r_lo - 0.05 <= abs(sp.lambda2 / sp.lambda1) <= r_hi + 0.05:
            continue
        lo_sign = ref.delta_sign(at(lo))
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if ref.delta_sign(at(mid)) == lo_sign:
                lo = mid
            else:
                hi = mid
        sp = ref.spectrum(at(lo))
        if r_lo <= abs(sp.lambda2 / sp.lambda1) <= r_hi:
            return at(lo)


def stratified(rng, lo: float, hi: float, count: int) -> list[tuple[float, float]]:
    """count adjacent sub-intervals of [lo, hi], each with a seeded width
    jitter, so every seed covers the whole range evenly."""
    width = (hi - lo) / count
    out = []
    for i in range(count):
        start = lo + width * (i + 0.5 * rng.random())
        out.append((start, start + 0.5 * width))
    return out


def horizon_instance(rng, rank: int, init, n_lo: int, n_hi: int):
    """A float set whose orbit from init leaves normal float range at an
    index in [n_lo, n_hi].

    Returns (params, limit, log_x, log_y) with the reference log orbit out
    to limit. Two-step growth is screened first (rho for rank 1, the
    ratio-factor limit 1 + delta/scale for rank 2), then the limit is
    found by reference log-space iteration.
    """
    span = 2 * (ref.LOG_MAX - 8)
    while True:
        if rank == 1:
            p = dyadic_singular_even(rng) + tuple(
                log_uniform(rng, 0.1, 10.0) for _ in range(4))
            growth = abs(math.log(ref.rank1_constants(p).rho))
        else:
            p = generic(rng)
            sp = ref.spectrum(p)
            growth = abs(math.log1p(sp.delta / sp.scale))
        if not span / n_hi * 0.9 <= growth <= span / n_lo * 1.1:
            continue
        xs, ys = ref.log_orbit(p, init, n_hi + 1)
        limit = ref.float_range_limit(xs, ys)
        if n_lo <= limit <= n_hi:
            return p, limit, xs[: limit + 1], ys[: limit + 1]


def random_rational(rng, hi: int = 12) -> tuple:
    return tuple(Fraction(rng.randint(1, hi), rng.randint(1, hi))
                 for _ in range(8))


def rank1_rational(rng, hi: int = 9) -> tuple:
    """Rational rank-1 set: the even quadruple is conjugate to all ones."""
    s = Fraction(rng.randint(1, hi), rng.randint(1, hi))
    r = Fraction(rng.randint(1, hi), rng.randint(1, hi))
    odd = tuple(Fraction(rng.randint(1, hi), rng.randint(1, hi))
                for _ in range(4))
    return (s * s, s * r, s * r, r * r) + odd


def square_disc_rational(rng) -> tuple:
    """Rank-2 integer set in 1..6 whose composed matrix has a perfect-square
    discriminant, so its eigenvalues are rational; by rejection sampling."""
    while True:
        p = tuple(rng.randint(1, 6) for _ in range(8))
        m = ref.composed(p)
        alpha, beta, gamma, delta = m
        disc = (alpha - delta) ** 2 + 4 * beta * gamma
        if ref.det(m) != 0 and math.isqrt(disc) ** 2 == disc:
            return tuple(Fraction(v) for v in p)


def conjugate(p, s: Fraction, r: Fraction) -> tuple:
    """The set seen through x -> s*x, y -> r*y: a -> s*s*a, b -> s*r*b,
    c -> s*r*c, d -> r*r*d at both parities. The verdict is unchanged."""
    scale = (s * s, s * r, s * r, r * r)
    return tuple(v * k for v, k in zip(p, scale + scale))


def exact_boundary(rng, rank: int, hi: int = 7) -> tuple:
    """A seeded conjugate of the exactly balanced rational set of a rank."""
    base = EXACT_BOUNDARY[rank - 1]
    s = Fraction(rng.randint(1, hi), rng.randint(1, hi))
    r = Fraction(rng.randint(1, hi), rng.randint(1, hi))
    return conjugate(base, s, r)


def digest(values) -> str:
    """Short fingerprint of generated inputs, stable across processes."""
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]
