"""Finite-difference oracle for the symbolic operators, used by the tests only.

The oracle takes central differences of exact values: the point and the step
become Fractions (exact for floats), and only the result is turned into
floats.  It shares no code with the symbolic derivatives it checks, and it is
the only floating point the tests compare against; the package holds none.
The module also builds paravectors from their coordinates for the tests, and
keeps the operators that the kernel computes in one pass written out as chains
of its simpler operations: the radial operator and the plane operator as sums
of partials, the reference for ``RationalFn.derive``; the stem dbar and product
as sums of ``CoordPoly`` partials and products; the induced function as a
sum of one product per stem term; ``compose`` as one stem product and sum per
component stem; the holomorphic stem sampler as a sum of right-scaled
powers of z, each power one stem product from the last, with coefficients
built from ``Fraction``s; the sampled slice-ness probe with the
representation formula read between every ordered pair of units; slice-ness
of a polynomial candidate stem by expanding it and comparing; and the
slice/global check evaluated point by point, thetabar^n g in all of its
coordinates at each point alpha + I beta.
"""

from fractions import Fraction
from itertools import islice
from random import Random
from typing import Sequence

from slicecalc import campaign
from slicecalc.algebra import (
    AlgebraElement,
    AlgebraSignature,
    ImaginaryUnit,
    sample_units,
)
from slicecalc.multipoly import (
    CoordPoly,
    RationalFn,
    _iterates,
    coord_im,
    coord_s,
)
from slicecalc.operators import restrict_to_slice, thetabar
from slicecalc.polyanalytic import compose
from slicecalc.sampling import rand_plane_points, rand_regular_tuple, rand_stem, rng_for
from slicecalc.serialize import frac_to_str
from slicecalc.slicefn import (
    PointFunction,
    SliceFunction,
    SliceWitness,
    extract_stem,
    phi_coords,
    representation_eval,
)
from slicecalc.stem import StemFunction


def paravector(signature: AlgebraSignature, coords: Sequence) -> AlgebraElement:
    """x_0 + x_1 e_1 + ... + x_n e_n from the coordinates (x_0, ..., x_n)."""
    coords = list(coords)
    if len(coords) != signature.coord_count:
        raise ValueError(f"expected {signature.coord_count} coordinates, got {len(coords)}")
    masks = (0,) + tuple(signature.imag_masks)
    return AlgebraElement(signature, {m: Fraction(c) for m, c in zip(masks, coords)})


def rf_partial(rf: RationalFn, index: int) -> RationalFn:
    """d/dx_index by the quotient rule: a factor free of x_index keeps its exponent."""
    return rf.derive(lambda p: p.partial(index))


def radial_by_partials(rf: RationalFn) -> RationalFn:
    """sum_h x_h d/dx_h over x_1..x_n, one quotient-rule partial per variable."""
    sig, n = rf.signature, rf.var_count
    out = RationalFn.from_poly(CoordPoly(sig, n, {}))
    for h in range(1, n):
        out = out + rf_partial(rf, h).mul_poly_left(CoordPoly.variable(sig, n, h))
    return out


def plane_dbar_by_partials(plane) -> RationalFn:
    """(d/da + I d/db)/2 as two partials, a left scaling by I, a sum and a halving."""
    rf = plane
    unit = CoordPoly.constant(rf.signature, 2, plane.unit)
    return (rf_partial(rf, 0) + rf_partial(rf, 1).mul_poly_left(unit)) * Fraction(1, 2)


def stem_dbar_by_partials(stem: StemFunction) -> StemFunction:
    half = Fraction(1, 2)
    return StemFunction(
        (stem.f1.partial(0) - stem.f2.partial(1)) * half,
        (stem.f1.partial(1) + stem.f2.partial(0)) * half,
    )


def stem_product_by_parts(f: StemFunction, g: StemFunction) -> StemFunction:
    return StemFunction(f.f1 * g.f1 - f.f2 * g.f2, f.f1 * g.f2 + f.f2 * g.f1)


def point_poly_term_by_term(stem: StemFunction) -> CoordPoly:
    """The polynomial a stem induces, as a sum of one product per stem term."""
    sig = stem.signature
    n = sig.coord_count
    x0, s, im = CoordPoly.variable(sig, n, 0), coord_s(sig), coord_im(sig)
    out = CoordPoly(sig, n, {})
    for (a, b), c in stem.f1.terms.items():
        out = out + (x0**a * s ** (b // 2)).scale_right(c)
    for (a, b), c in stem.f2.terms.items():
        out = out + (x0**a * s ** (b // 2)) * im.scale_right(c)
    return out


def zero_stem(signature: AlgebraSignature) -> StemFunction:
    zero = CoordPoly(signature, 2, {})
    return StemFunction(zero, zero)


def constant_stem(signature: AlgebraSignature, value) -> StemFunction:
    """The stem (value, 0) of a constant slice function."""
    return StemFunction(CoordPoly.constant(signature, 2, value), CoordPoly(signature, 2, {}))


def stem_powers_by_products(stem: StemFunction, count: int) -> list[StemFunction]:
    """stem^0, ..., stem^(count-1), each one ``stem_product_by_parts`` from the last."""
    out = [constant_stem(stem.signature, 1)]
    for _ in range(count - 1):
        out.append(stem_product_by_parts(out[-1], stem))
    return out


def compose_by_products(parts: Sequence[StemFunction]) -> StemFunction:
    """sum_h zbar^h * parts[h], one stem product and one stem sum per part."""
    sig = parts[0].signature
    total = zero_stem(sig)
    for part, zbar_h in zip(parts, stem_powers_by_products(StemFunction.zbar(sig), len(parts))):
        total = total + stem_product_by_parts(zbar_h, part)
    return total


def rand_element_by_fractions(rng: Random, signature: AlgebraSignature) -> AlgebraElement:
    """The draws of ``sampling.rand_element``, built from ``Fraction``s."""
    masks = rng.sample(range(signature.dim), k=min(3, signature.dim))
    return AlgebraElement(
        signature, {m: Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for m in masks}
    )


def rand_holomorphic_stem_by_products(
    rng: Random, signature: AlgebraSignature, max_degree: int, nonzero: bool
) -> StemFunction:
    """The draws of ``sampling.rand_holomorphic_stem``, summed as z^h.scale_right(a_h)."""
    total = zero_stem(signature)
    for z_h in stem_powers_by_products(StemFunction.z(signature), max_degree + 1):
        if rng.random() < Fraction(3, 10):
            continue
        total = total + z_h.scale_right(rand_element_by_fractions(rng, signature))
    if nonzero and total.is_zero():
        coeff = rand_element_by_fractions(rng, signature)
        while coeff.is_zero():
            coeff = rand_element_by_fractions(rng, signature)
        total = StemFunction.z(signature).scale_right(coeff)
    return total


def is_slice_all_pairs(g: PointFunction, units: Sequence[ImaginaryUnit], points: Sequence):
    """The representation formula from every unit H onto every other unit K at every z.

    Returns the witness of the first mismatch in that nesting order, else
    None: 3 n (n - 1) p evaluations of g on n units and p points when it
    passes, where ``is_slice`` reads from the first unit only.
    """
    for unit_h in units:
        for unit_k in units:
            if unit_k == unit_h:
                continue
            for z in points:
                alpha, beta = Fraction(z[0]), Fraction(z[1])
                predicted = representation_eval(g, unit_h, unit_k, (alpha, beta))
                actual = g.eval_coords(phi_coords(unit_k, alpha, beta))
                if predicted != actual:
                    return SliceWitness(unit_h, unit_k, (alpha, beta), predicted, actual)
    return None


def slice_by_expansion(g: PointFunction, unit: ImaginaryUnit) -> bool:
    """Slice-ness of g by expand-and-compare, the reference for ``is_slice_exact``.

    g is slice exactly when the function its candidate stem along ``unit``
    induces is g; that stem must be polynomial, and its coordinate form is
    built and compared with g exactly.
    """
    f1, f2 = extract_stem(g, unit)
    if not (f1.is_polynomial() and f2.is_polynomial()):
        raise ValueError("the candidate stem is not polynomial")
    stem = StemFunction(f1.numer, f2.numer)
    return SliceFunction(g.domain, stem).to_point_function() == g


@campaign._tally
def slice_global_pointwise(
    sig: AlgebraSignature,
    seed: int,
    n_funcs: int,
    n_units: int,
    n_points: int,
    orders: tuple[int, ...] = (1, 2, 3),
    n_rational: int = 0,
):
    """``campaign.slice_global_trials`` with thetabar^n g evaluated in its coordinates.

    The same draws, trials and witnesses, but the global side is the
    unrestricted thetabar^n g, evaluated at the point alpha + I beta that
    ``phi_coords`` builds per unit and plane point, and each side is
    evaluated one point at a time with ``eval``, whatever the two functions
    are.  The values are compared as elements.  The draws are read off
    ``campaign``, so a test that replaces one there replaces it here too.
    """
    label = "quaternion" if sig.kind == "quaternion" else f"clifford_{sig.m}"
    rng = rng_for(seed, f"slice-global:{label}")
    funcs = [campaign.rand_point_polynomial(rng, sig, max_degree=4) for _ in range(n_funcs)]
    funcs += [campaign.rand_rational_point_function(rng, sig) for _ in range(n_rational)]
    units = sample_units(sig, seed, n_units)
    points = rand_plane_points(rng, n_points)
    top = max(orders)
    for gi, g in enumerate(funcs):
        thetas = list(islice(_iterates(thetabar, g), top + 1))
        for ui, unit in enumerate(units):
            planes = restrict_to_slice(g, unit).dbar_chain(top)
            for n in sorted(set(orders)):
                for z in points:
                    lhs = thetas[n].eval(phi_coords(unit, *z))
                    rhs = planes[n].eval(z)
                    yield None if lhs == rhs else {
                        "function_index": gi,
                        "unit_index": ui,
                        "order": n,
                        "z": [frac_to_str(c) for c in z],
                        "global": repr(lhs),
                        "slice": repr(rhs),
                    }


def sample_stems(sig: AlgebraSignature, label: str) -> list[StemFunction]:
    """rand_stem and compose stems, the zero stem, and stems with an empty component."""
    rng = rng_for(16, label)
    out = [rand_stem(rng, sig, max_degree=4) for _ in range(3)]
    out += [compose(rand_regular_tuple(rng, sig, 3)) for _ in range(2)]
    zero = CoordPoly(sig, 2, {})
    return out + [zero_stem(sig), StemFunction(out[0].f1, zero), StemFunction(zero, out[1].f2)]


def element_to_float(value: AlgebraElement) -> dict[int, float]:
    return {mask: float(c) for mask, c in value.coeffs.items()}


def _central(f, point: Sequence[Fraction], index: int, step: Fraction) -> AlgebraElement:
    """(f(up) - f(down)) / (2 step), with coordinate ``index`` moved by +-step."""
    up = list(point)
    down = list(point)
    up[index] += step
    down[index] -= step
    return (f(up) - f(down)) * (1 / (2 * step))


def _fd_parts(
    g: PointFunction, coords: Sequence[float], step: float
) -> tuple[Fraction, AlgebraElement, AlgebraElement]:
    """(s, dg/dx_0, Im(x) * sum_h x_h dg/dx_h) by central differences."""
    point = [Fraction(c) for c in coords]
    step = Fraction(step)
    s = sum(c * c for c in point[1:])
    if s <= (10 * step) ** 2:
        raise ValueError("point is too close to the real axis for the oracle step")
    d0 = _central(g.eval, point, 0, step)
    radial = AlgebraElement.zero(g.signature)
    for h in range(1, len(point)):
        radial = radial + _central(g.eval, point, h, step) * point[h]
    im = paravector(g.signature, [0] + point[1:])
    return s, d0, im * radial


def fd_thetabar(
    g: PointFunction, coords: Sequence[float], step: float = 1e-5
) -> dict[int, float]:
    s, d0, im_radial = _fd_parts(g, coords, step)
    return element_to_float((d0 + im_radial * (1 / s)) * Fraction(1, 2))


def fd_g_op(
    g: PointFunction, coords: Sequence[float], step: float = 1e-5
) -> dict[int, float]:
    s, d0, im_radial = _fd_parts(g, coords, step)
    return element_to_float(d0 * s + im_radial)


def fd_dbar_slice(
    g: PointFunction,
    unit: ImaginaryUnit,
    z: tuple[float, float],
    step: float = 1e-5,
) -> dict[int, float]:
    """Central-difference estimate of the first slice derivative at z."""
    point = (Fraction(z[0]), Fraction(z[1]))
    step = Fraction(step)
    if abs(point[1]) <= 10 * step:
        raise ValueError("point is too close to the real axis for the oracle step")

    def at(ab: Sequence[Fraction]) -> AlgebraElement:
        return g.eval(phi_coords(unit, *ab))

    d_alpha = _central(at, point, 0, step)
    d_beta = _central(at, point, 1, step)
    return element_to_float((d_alpha + unit * d_beta) * Fraction(1, 2))


def float_agrees(
    exact: AlgebraElement, approx: dict[int, float], rtol: float = 1e-6
) -> bool:
    """Componentwise comparison with relative tolerance (absolute near zero)."""
    masks = set(exact.coeffs) | set(approx)
    norm = max((abs(float(c)) for c in exact.coeffs.values()), default=0.0)
    scale = max(1.0, norm)
    return all(
        abs(float(exact.coeff(mask)) - approx.get(mask, 0.0)) <= rtol * scale
        for mask in masks
    )
