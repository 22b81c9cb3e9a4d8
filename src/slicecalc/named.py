"""Builtin named functions used as fixtures throughout the test campaigns.

These are the separating examples of the theory: the coordinate function and
its conjugate (honest slice functions), the rotation-twisted coordinate
v(x) = -u x u and its left-multiplied cousin v_r(x) = u x (slice-by-slice
polyanalytic of order two but not slice functions), and the bump-style
rational function that is continuous on every slice yet jumps at the origin.
All are addressable by name from the CLI without a spec file.
"""

from __future__ import annotations

from functools import partial

from .algebra import QUATERNION, AlgebraElement, AlgebraSignature, clifford
from .multipoly import CoordPoly, RationalFn, coord_x
from .slicefn import CircularDomain, PointFunction, SliceFunction
from .stem import StemFunction


def default_domain() -> CircularDomain:
    return CircularDomain.ball(0, 4)


def coordinate_function(signature: AlgebraSignature) -> SliceFunction:
    """The identity slice function x, induced by the stem z."""
    return SliceFunction(default_domain(), StemFunction.z(signature))


def conjugate_coordinate(signature: AlgebraSignature) -> SliceFunction:
    """The conjugation x-bar, induced by the stem z-bar."""
    return SliceFunction(default_domain(), StemFunction.zbar(signature))


def _first_unit_element(signature: AlgebraSignature) -> AlgebraElement:
    return AlgebraElement.basis(signature, signature.imag_masks[0])


def _linear_point_function(signature: AlgebraSignature, coefficient_of) -> PointFunction:
    # x = sum_h x_h b_h with b_0 = 1; each monomial x_h gets coefficient_of(b_h)
    terms = {exps: coefficient_of(b) for exps, b in coord_x(signature).terms.items()}
    poly = CoordPoly(signature, signature.coord_count, terms)
    return PointFunction(default_domain(), RationalFn.from_poly(poly))


def rotation_twisted_coordinate(signature: AlgebraSignature) -> PointFunction:
    """v(x) = -u x u with u the first imaginary basis unit (i resp. e_1).

    Fixes the slice of u pointwise and conjugates the orthogonal axes, so it
    is slice-by-slice polyanalytic of order two without being a slice function.
    """
    u = _first_unit_element(signature)
    return _linear_point_function(signature, lambda b: -(u * b * u))


def left_multiplied_coordinate(signature: AlgebraSignature) -> PointFunction:
    """v_r(x) = u x with u the first imaginary basis unit."""
    u = _first_unit_element(signature)
    return _linear_point_function(signature, lambda b: u * b)


def jump_example(signature: AlgebraSignature) -> PointFunction:
    """x_1^2 x_2 / (x_1^4 + sum_(h>=2) x_h^2) off the reals, 0 on the reals.

    Continuous on every slice, yet tends to 1/2 along x = e_1/h + e_2/h^2, so
    it is not continuous at the origin.
    """
    n = signature.coord_count
    x = [CoordPoly.variable(signature, n, h) for h in range(n)]
    numer = x[1] ** 2 * x[2]
    denom = sum((x[h] ** 2 for h in range(2, n)), x[1] ** 4)
    return PointFunction(
        default_domain(),
        RationalFn(numer, ((denom, 1),)),
        real_value=AlgebraElement.zero(signature),
    )


# the CLI's named inputs, on the quaternions; "v_m" is the Cl(0,3) twisted coordinate
BUILTINS = {
    "x": partial(coordinate_function, QUATERNION),
    "xbar": partial(conjugate_coordinate, QUATERNION),
    "v": partial(rotation_twisted_coordinate, QUATERNION),
    "v_r": partial(left_multiplied_coordinate, QUATERNION),
    "v_m": partial(rotation_twisted_coordinate, clifford(3)),
    "bump": partial(jump_example, QUATERNION),
}
