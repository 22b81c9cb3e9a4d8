"""Seeded deterministic generators for campaign inputs.

Everything funnels through rng_for(seed, label) so independent checks draw
independent, reproducible streams; reports stay byte-identical for a fixed
seed no matter how checks are scheduled.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from random import Random
from typing import Optional

from .algebra import AlgebraElement, AlgebraSignature
from .multipoly import CoordPoly, RationalFn, coord_s
from .named import default_domain
from .slicefn import CircularDomain, PointFunction
from .stem import StemFunction, _holomorphic


def rng_for(seed: int, label: str) -> Random:
    return Random(f"slicecalc:{seed}:{label}")


_ELEMENT_TERMS = 3


def rand_element(rng: Random, signature: AlgebraSignature) -> AlgebraElement:
    """Up to three blades, each with a numerator in -8..8 over a denominator in 1..5."""
    masks = rng.sample(range(signature.dim), k=min(_ELEMENT_TERMS, signature.dim))
    draws = [(rng.randint(-8, 8), rng.randint(1, 5)) for _ in masks]
    den = lcm(*[q for _, q in draws])
    nums = {m: p * (den // q) for m, (p, q) in zip(masks, draws)}
    return AlgebraElement._make(signature, nums, den)


def rand_nonzero_element(rng: Random, signature: AlgebraSignature) -> AlgebraElement:
    while True:
        value = rand_element(rng, signature)
        if not value.is_zero():
            return value


def _rand_exponents(rng: Random, var_count: int, max_degree: int) -> tuple[int, ...]:
    remaining = rng.randint(0, max_degree)
    exps = [0] * var_count
    for idx in rng.sample(range(var_count), k=var_count):
        e = rng.randint(0, remaining)
        exps[idx] = e
        remaining -= e
        if not remaining:
            break
    return tuple(exps)


def rand_poly(
    rng: Random,
    signature: AlgebraSignature,
    var_count: int,
    max_degree: int = 4,
    n_terms: int = 5,
) -> CoordPoly:
    terms = {}
    for _ in range(n_terms):
        terms[_rand_exponents(rng, var_count, max_degree)] = rand_element(rng, signature)
    return CoordPoly(signature, var_count, terms)


def rand_point_polynomial(
    rng: Random, signature: AlgebraSignature, max_degree: int = 4
) -> PointFunction:
    poly = rand_poly(rng, signature, signature.coord_count, max_degree, n_terms=5)
    return PointFunction(default_domain(), RationalFn.from_poly(poly))


def rand_rational_point_function(
    rng: Random, signature: AlgebraSignature, max_degree: int = 3
) -> PointFunction:
    """Random rational function whose denominator vanishes on the reals at most."""
    numer = rand_poly(rng, signature, signature.coord_count, max_degree, n_terms=4)
    s = coord_s(signature)
    choice = rng.randrange(3)
    if choice == 0:
        factors = ((s, 1),)
    elif choice == 1:
        factors = ((s, 2),)
    else:
        one = CoordPoly.constant(signature, signature.coord_count, 1)
        factors = ((s + one, 1),)
    return PointFunction(default_domain(), RationalFn(numer, factors))


def rand_stem(rng: Random, signature: AlgebraSignature, max_degree: int = 4) -> StemFunction:
    """Random stem from four term draws per component: even beta-exponents in F1, odd in F2."""
    f1_terms = {}
    f2_terms = {}
    for _ in range(4):
        a = rng.randint(0, max_degree)
        b = rng.randint(0, max(0, (max_degree - a)) // 2) * 2
        f1_terms[(a, b)] = rand_element(rng, signature)
        a2 = rng.randint(0, max(0, max_degree - 1))
        b2 = rng.randint(0, max(0, (max_degree - 1 - a2)) // 2) * 2 + 1
        f2_terms[(a2, b2)] = rand_element(rng, signature)
    sig = signature
    return StemFunction(
        CoordPoly(sig, 2, f1_terms), CoordPoly(sig, 2, f2_terms)
    )


def rand_holomorphic_stem(
    rng: Random,
    signature: AlgebraSignature,
    max_degree: int = 3,
    nonzero: bool = True,
) -> StemFunction:
    """Stem of a polynomial sum x^h a_h: holomorphic, coefficients on the right.

    Each h up to ``max_degree`` is skipped with probability 3/10, else it
    draws a_h; ``stem._holomorphic`` builds the stem sum_h z^h a_h.  With
    ``nonzero`` a zero sum becomes z a for a nonzero draw a.
    """
    coeffs = [
        (h, rand_element(rng, signature))
        for h in range(max_degree + 1)
        # random() >= 3/10 in integers, from the same two words random() reads
        if 10 * (rng.getrandbits(27) * 2**26 + rng.getrandbits(26)) >= 3 * 2**53
    ]
    if nonzero and all(a.is_zero() for _, a in coeffs):
        coeffs = [(1, rand_nonzero_element(rng, signature))]
    return _holomorphic(CoordPoly(signature, 1, {(h,): a for h, a in coeffs}))


def rand_regular_tuple(
    rng: Random, signature: AlgebraSignature, count: int
) -> list[StemFunction]:
    """Holomorphic stems f_0..f_(count-1) of degree at most 2 with a nonzero top component."""
    parts = [rand_holomorphic_stem(rng, signature, 2, nonzero=False) for _ in range(count - 1)]
    parts.append(rand_holomorphic_stem(rng, signature, 2, nonzero=True))
    return parts


def rand_plane_point(
    rng: Random, domain: Optional[CircularDomain] = None
) -> tuple[Fraction, Fraction]:
    """Rational point (alpha, beta) of D with beta > 0."""
    domain = domain or default_domain()
    if domain.r_in is None:
        r = domain.radius
        alpha = domain.center + r * Fraction(rng.randint(-4, 4), 9)
        beta = r * Fraction(rng.randint(1, 4), 9)
        return alpha, beta
    # annulus: a radius strictly between r_in and radius along the rational unit
    # direction ((b^2 - a^2), 2ab) / (a^2 + b^2), whose beta part is positive
    r = domain.r_in + (domain.radius - domain.r_in) * Fraction(rng.randint(1, 8), 9)
    a, b = rng.randint(1, 4), rng.randint(1, 4)
    norm = a * a + b * b
    return domain.center + r * Fraction(b * b - a * a, norm), r * Fraction(2 * a * b, norm)


def rand_plane_points(
    rng: Random, count: int, domain: Optional[CircularDomain] = None
) -> list[tuple[Fraction, Fraction]]:
    """``count`` distinct ``rand_plane_point`` draws in draw order; a ball's grid holds 36."""
    if count > 36:
        raise ValueError("at most 36 distinct plane points are drawn, the points of a ball's grid")
    points: dict = {}
    while len(points) < count:
        points[rand_plane_point(rng, domain)] = None
    return list(points)
