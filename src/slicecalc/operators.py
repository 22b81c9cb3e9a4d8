"""Differential operators on point functions, each read as the ``RationalFn`` it is.

Two computation paths exist on purpose.  The slice-wise path restricts a
function to one slice plane, as a ``SlicePlanePoly`` (the restriction itself, a
``RationalFn`` in (alpha, beta) that records its unit I), and applies
(d/da + I d/db)/2 there; the global path applies the first-order operator
G = s d/dx_0 + Im(x) sum_h x_h d/dx_h, s = |Im x|^2, and thetabar = G / (2s)
symbolically on the rational-function class, which is closed under the
quotient rule.  G takes each numerator in one pass and reads a radial
denominator factor F^k (free of x_0, homogeneous in x_1..x_n, as s is) as a
shift k deg(F).  G of the last function asked for is kept, so ``g_op(g)`` and
``thetabar(g)`` of one function take one G.  The two paths coincide slice by
slice, one of the identities the campaigns check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from .algebra import AlgebraSignature, ImaginaryUnit
from .multipoly import (
    CoordPoly,
    RationalFn,
    _apply_n,
    _cancel,
    _iterates,
    coord_s,
    restrict_rf,
)
from .slicefn import PointFunction
from .stem import StemFunction


class SlicePlanePoly(RationalFn):
    """A rational function of (alpha, beta) along the slice of ``unit``.

    Produced by restrict_to_slice; it is that restriction as a ``RationalFn``,
    compared and combined by value, and the unit is recorded so iterated slice
    derivatives know which I multiplies the beta-derivative from the left.
    """

    __slots__ = ("unit",)

    def __init__(self, rf: RationalFn, unit: ImaginaryUnit):
        if rf.var_count != 2:
            raise ValueError("slice-plane functions are bivariate")
        self.numer = rf.numer
        self.den_factors = rf.den_factors
        self.unit = unit

    def dbar(self) -> "SlicePlanePoly":
        """One application of (d/da + I d/db)/2 with I on the left, by the quotient rule."""
        unit = self.unit
        return SlicePlanePoly(self.derive(lambda p: p.plane_dbar(unit)), unit)

    def dbar_chain(self, top: int) -> list["SlicePlanePoly"]:
        """[self, dbar self, ..., dbar^top self], each one step from the last."""
        return list(islice(_iterates(SlicePlanePoly.dbar, self), top + 1))


def plane_x(signature: AlgebraSignature, unit: ImaginaryUnit) -> CoordPoly:
    """Slice inclusion alpha + I beta in the plane; -unit gives alpha - I beta."""
    return StemFunction.z(signature).plane_poly(unit)


def restrict_to_slice(g: PointFunction, unit: ImaginaryUnit) -> SlicePlanePoly:
    """Exact substitution x_0 <- alpha, x_h <- i_h * beta."""
    return SlicePlanePoly(restrict_rf(g, unit), unit)


def restrict_slice_function(stem: StemFunction, unit: ImaginaryUnit) -> SlicePlanePoly:
    """Slice restriction of the function a stem induces, read straight off the stem."""
    return SlicePlanePoly(RationalFn.from_poly(stem.plane_poly(unit)), unit)


def dbar_slice(g: PointFunction, unit: ImaginaryUnit, order: int) -> SlicePlanePoly:
    """The n-th slice Cauchy-Riemann derivative along one slice."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return _apply_n(SlicePlanePoly.dbar, restrict_to_slice(g, unit), order)


# (input, G(input)) of the last _g call; a RationalFn, a point function among them, is
# never mutated, so identity keys it, and holding the input keeps its id from being reused
_last_g: tuple = (None, None)


def _g(rf: RationalFn) -> RationalFn:
    """G(rf) by the quotient rule, each radial factor F^k read as the shift k deg(F).

    G(F) = deg(F) Im(x) F for radial F, and no other real factor F divides G(F):
    F divides each blade of it, x_h RF for h = 1..n >= 2, so RF = cF and F is
    homogeneous in x'; a quotient of s dF/dx_0 by F has x'-degree 2, degree <= 1.
    """
    global _last_g
    last, g = _last_g  # one read, so the pair cannot change between its halves
    if last is rf:
        return g
    radial = {p: k * p.total_degree() for p, k in rf.den_factors
              if len({sum(e) for e in p.rows}) == 1 and not any(e[0] for e in p.rows)}
    g = rf._quotient_rule(rf.numer.g_op(sum(radial.values())), CoordPoly.g_op, kept=radial)
    _last_g = (rf, g)
    return g


def _thetabar_once(rf: RationalFn) -> RationalFn:
    g = _g(rf)
    s = coord_s(rf.signature)
    factors = dict(g.den_factors)
    factors[s] = factors.get(s, 0) + 1
    return _cancel(RationalFn._make(g.numer * Fraction(1, 2), tuple(factors.items())))


def thetabar(g: PointFunction, order: int = 1) -> PointFunction:
    """The global slice Cauchy-Riemann operator, iterated ``order`` times.

    thetabar(g) = (dg/dx_0 + Im(x)/|Im(x)|^2 * sum_h x_h dg/dx_h) / 2, with the
    Im(x) factor multiplying from the left, so thetabar = G / (2s) with G as in
    ``g_op``.  The result lives off the real axis.  Each step is stored in
    reduced form over the known factors: G keeps each radial factor, s among
    them, and raises every other one by one, dividing by 2s adds one power of
    s, and then every factor is divided out of the numerator as often as it
    divides exactly.  G of the last function asked for is kept,
    so ``g_op(g)`` before or after ``thetabar(g)`` takes no second G.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    return PointFunction(g.domain, _apply_n(_thetabar_once, g, order))


def g_op(g: PointFunction) -> PointFunction:
    """The first-order companion operator G = |Im(x)|^2 d/dx_0 + Im(x) sum x_h d/dx_h.

    One pass per numerator (``CoordPoly.g_op``), each radial factor F^k read as
    the shift k deg(F), s^k as 2k; the quotient rule raises any other.  It adds no
    denominator to a polynomial or to N/s^k, so it is defined on the whole
    domain; it agrees with 2 s * thetabar(g) off the real axis.  G of the
    last function asked for is kept, so ``thetabar(g)`` before or after
    ``g_op(g)`` takes no second G.
    """
    return PointFunction(g.domain, _g(g))
