"""Seeded deterministic generators for campaign inputs.

Everything funnels through rng_for(seed, label) so independent checks draw
independent, reproducible streams; reports stay byte-identical for a fixed
seed no matter how checks are scheduled.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from random import Random
from typing import Optional

from .algebra import AlgebraElement, AlgebraSignature
from .multipoly import CoordPoly, RationalFn, coord_s
from .named import default_domain
from .slicefn import CircularDomain, PointFunction
from .stem import StemFunction


def rng_for(seed: int, label: str) -> Random:
    return Random(f"slicecalc:{seed}:{label}")


def rand_fraction(rng: Random, max_num: int = 8, max_den: int = 5) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


_ELEMENT_TERMS = 3


def rand_element(rng: Random, signature: AlgebraSignature) -> AlgebraElement:
    masks = rng.sample(range(signature.dim), k=min(_ELEMENT_TERMS, signature.dim))
    return AlgebraElement(signature, {m: rand_fraction(rng) for m in masks})


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
    rng: Random,
    signature: AlgebraSignature,
    domain: Optional[CircularDomain] = None,
    max_degree: int = 4,
    n_terms: int = 5,
) -> PointFunction:
    poly = rand_poly(rng, signature, signature.coord_count, max_degree, n_terms)
    return PointFunction(domain or default_domain(), RationalFn.from_poly(poly))


def rand_rational_point_function(
    rng: Random,
    signature: AlgebraSignature,
    domain: Optional[CircularDomain] = None,
    max_degree: int = 3,
) -> PointFunction:
    """Random rational function whose denominator vanishes on the reals at most."""
    domain = domain or default_domain()
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
    return PointFunction(domain, RationalFn(numer, factors))


def rand_stem(
    rng: Random,
    signature: AlgebraSignature,
    max_degree: int = 4,
    n_terms: int = 4,
) -> StemFunction:
    """Random stem: even beta-exponents in F1, odd in F2."""
    f1_terms = {}
    f2_terms = {}
    for _ in range(n_terms):
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
    """Stem of a polynomial sum x^h a_h: holomorphic, coefficients on the right."""
    total = StemFunction.zero(signature)
    for z_h in islice(StemFunction.z(signature).powers(), max_degree + 1):
        if rng.random() < Fraction(3, 10):
            continue
        total = total + z_h.scale_right(rand_element(rng, signature))
    if nonzero and total.is_zero():
        total = StemFunction.z(signature).scale_right(
            rand_nonzero_element(rng, signature)
        )
    return total


def rand_regular_tuple(
    rng: Random,
    signature: AlgebraSignature,
    count: int,
    max_degree: int = 2,
) -> list[StemFunction]:
    """Holomorphic stems f_0..f_(count-1) with a nonzero top component."""
    parts = [
        rand_holomorphic_stem(rng, signature, max_degree, nonzero=False)
        for _ in range(count - 1)
    ]
    parts.append(rand_holomorphic_stem(rng, signature, max_degree, nonzero=True))
    return parts


def rand_plane_point(
    rng: Random, domain: Optional[CircularDomain] = None
) -> tuple[Fraction, Fraction]:
    """Rational point (alpha, beta) of D with beta > 0."""
    domain = domain or default_domain()
    if domain.shape == "ball":
        r = domain.radius
        alpha = domain.center + r * Fraction(rng.randint(-4, 4), 9)
        beta = r * Fraction(rng.randint(1, 4), 9)
        return alpha, beta
    # annulus: rejection sampling in the bounding box of the outer radius
    for _ in range(10_000):
        alpha = domain.center + domain.r_out * Fraction(rng.randint(-8, 8), 9)
        beta = domain.r_out * Fraction(rng.randint(1, 8), 9)
        if domain.contains(alpha, beta):
            return alpha, beta
    raise RuntimeError("failed to sample a point of the annulus")
