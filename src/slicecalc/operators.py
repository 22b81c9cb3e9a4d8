"""Differential operators on point functions.

Two computation paths exist on purpose.  The slice-wise path restricts a
function to one slice plane and applies (d/da + I d/db)/2 there; the global
path applies the coordinate operators thetabar and the related first-order
operator G symbolically on the rational-function class, which is closed under
the quotient rule.  Their coincidence slice-by-slice is one of the nontrivial
identities the verification campaigns check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .algebra import AlgebraElement, AlgebraSignature, ImaginaryUnit
from .multipoly import CoordPoly, RationalFn, _apply_n, coord_im, coord_s, restrict_rf
from .slicefn import PointFunction, SliceFunction, phi_coords


class SlicePlanePoly:
    """A rational function of (alpha, beta) tagged with the slice unit.

    Produced by restrict_to_slice; the unit is recorded so iterated slice
    derivatives know which I multiplies the beta-derivative from the left.
    """

    __slots__ = ("rf", "unit")

    def __init__(self, rf: RationalFn, unit: ImaginaryUnit):
        if rf.var_count != 2:
            raise ValueError("slice-plane functions are bivariate")
        self.rf = rf
        self.unit = unit

    def dbar(self) -> "SlicePlanePoly":
        """One application of (d/da + I d/db)/2 with I on the left."""
        da = self.rf.partial(0)
        db = self.rf.partial(1).scale_left(self.unit.value)
        return SlicePlanePoly((da + db) * Fraction(1, 2), self.unit)

    def dbar_n(self, n: int) -> "SlicePlanePoly":
        return _apply_n(SlicePlanePoly.dbar, self, n)

    def eval_at(self, z: tuple) -> AlgebraElement:
        return self.rf.eval((Fraction(z[0]), Fraction(z[1])))

    def is_zero(self) -> bool:
        return self.rf.is_zero()

    def __eq__(self, other):
        if not isinstance(other, SlicePlanePoly):
            return NotImplemented
        return self.unit == other.unit and self.rf == other.rf

    __hash__ = None

    def __repr__(self):
        return f"SlicePlanePoly({self.rf!r}, unit={self.unit!r})"


def plane_x(signature: AlgebraSignature, unit: ImaginaryUnit) -> CoordPoly:
    """Slice inclusion alpha + I beta in the plane; -unit gives alpha - I beta."""
    return CoordPoly(
        signature,
        2,
        {(1, 0): AlgebraElement.one(signature), (0, 1): unit.value},
    )


def restrict_to_slice(g: PointFunction, unit: ImaginaryUnit) -> SlicePlanePoly:
    """Exact substitution x_0 <- alpha, x_h <- i_h * beta."""
    return SlicePlanePoly(restrict_rf(g.expr, unit.components()), unit)


def restrict_slice_function(f: SliceFunction, unit: ImaginaryUnit) -> SlicePlanePoly:
    """Slice restriction of an induced function, straight from its stem."""
    return SlicePlanePoly(RationalFn.from_poly(f.plane_poly(unit)), unit)


def dbar_slice(g: PointFunction, unit: ImaginaryUnit, order: int) -> SlicePlanePoly:
    """The n-th slice Cauchy-Riemann derivative along one slice."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return restrict_to_slice(g, unit).dbar_n(order)


def _radial(rf: RationalFn) -> RationalFn:
    """sum_h x_h d/dx_h over the imaginary coordinates, shared by thetabar and G."""
    sig = rf.signature
    n = rf.var_count
    radial = None
    for h in range(1, n):
        term = rf.partial(h).mul_poly_left(CoordPoly.variable(sig, n, h))
        radial = term if radial is None else radial + term
    return radial


def _thetabar_once(rf: RationalFn) -> RationalFn:
    sig = rf.signature
    im_over_s = RationalFn(coord_im(sig), ((coord_s(sig), 1),))
    return (rf.partial(0) + im_over_s * _radial(rf)) * Fraction(1, 2)


def thetabar(g: PointFunction, order: int = 1) -> PointFunction:
    """The global slice Cauchy-Riemann operator, iterated ``order`` times.

    thetabar(g) = (dg/dx_0 + Im(x)/|Im(x)|^2 * sum_h x_h dg/dx_h) / 2, with the
    Im(x) factor multiplying from the left.  The result lives off the real
    axis: denominators gain powers of s = sum_h x_h^2.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    return PointFunction(g.domain, _apply_n(_thetabar_once, g.expr, order))


def g_op(g: PointFunction) -> PointFunction:
    """The first-order companion operator |Im(x)|^2 d/dx_0 + Im(x) sum x_h d/dx_h.

    Defined on the whole domain (no denominator is introduced); it agrees with
    2 s * thetabar(g) off the real axis.
    """
    sig, rf = g.signature, g.expr
    out = rf.partial(0).mul_poly_left(coord_s(sig)) + _radial(rf).mul_poly_left(coord_im(sig))
    return PointFunction(g.domain, out)


# -- finite-difference oracle ----------------------------------------------------------
#
# The oracle takes central differences of exact values: the point and the step
# become Fractions (exact for floats), and only the result is turned into floats.
# It shares no code with the symbolic derivatives it checks.


def element_to_float(value: AlgebraElement) -> dict[int, float]:
    return {mask: float(c) for mask, c in value.coeffs.items()}


def _central(f, point: Sequence[Fraction], index: int, step: Fraction) -> AlgebraElement:
    """(f(up) - f(down)) / (2 step), with coordinate ``index`` moved by +-step."""
    up = list(point)
    down = list(point)
    up[index] += step
    down[index] -= step
    return (f(up) - f(down)) / (2 * step)


def _fd_parts(
    g: PointFunction, coords: Sequence[float], step: float
) -> tuple[Fraction, AlgebraElement, AlgebraElement]:
    """(s, dg/dx_0, Im(x) * sum_h x_h dg/dx_h) by central differences."""
    point = [Fraction(c) for c in coords]
    step = Fraction(step)
    s = sum(c * c for c in point[1:])
    if s <= (10 * step) ** 2:
        raise ValueError("point is too close to the real axis for the oracle step")
    d0 = _central(g.expr.eval, point, 0, step)
    radial = AlgebraElement.zero(g.signature)
    for h in range(1, len(point)):
        radial = radial + _central(g.expr.eval, point, h, step) * point[h]
    im = AlgebraElement.from_paravector_coords(g.signature, [0] + point[1:])
    return s, d0, im * radial


def fd_thetabar(
    g: PointFunction, coords: Sequence[float], step: float = 1e-5
) -> dict[int, float]:
    s, d0, im_radial = _fd_parts(g, coords, step)
    return element_to_float((d0 + im_radial / s) / 2)


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
        return g.expr.eval(phi_coords(unit, *ab))

    d_alpha = _central(at, point, 0, step)
    d_beta = _central(at, point, 1, step)
    return element_to_float((d_alpha + unit.value * d_beta) / 2)


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
