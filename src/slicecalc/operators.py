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
from itertools import islice

from .algebra import AlgebraElement, AlgebraSignature, ImaginaryUnit
from .multipoly import CoordPoly, RationalFn, _apply_n, _iterates, coord_im, coord_s, restrict_rf
from .slicefn import PointFunction, SliceFunction


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

    def dbar_chain(self, top: int) -> list["SlicePlanePoly"]:
        """[self, dbar self, ..., dbar^top self], each one step from the last."""
        return list(islice(_iterates(SlicePlanePoly.dbar, self), top + 1))

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
