"""Slice functions on circular domains and general point functions.

A slice function is a circular-domain descriptor plus a stem; evaluation
realizes f(alpha + I*beta) = F1 + I*F2.  A point function is an arbitrary
rational expression in the coordinates x_0..x_n and need not be slice; the
candidate-stem extraction and the representation formula below are the tools
that detect the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import factorial, isqrt
from typing import Optional, Sequence, Union

from .algebra import AlgebraElement, AlgebraSignature, ImaginaryUnit
from .errors import (
    IrrationalSliceRadiusError,
    PointOutsideDomainError,
    SignatureMismatchError,
)
from .multipoly import CoordPoly, RationalFn, _iterates, coord_im, coord_s, restrict_rf
from .stem import StemFunction

RationalLike = Union[Fraction, int]


@dataclass(frozen=True)
class CircularDomain:
    """Ball or annulus centered on the real axis, describing D in the plane.

    The domain in the algebra is the circularization of D: all points
    alpha + I*beta with alpha + i*beta in D.  Both shapes are open, connected,
    conjugation-invariant and meet the real axis.
    """

    shape: str
    center: Fraction
    radius: Optional[Fraction] = None
    r_in: Optional[Fraction] = None
    r_out: Optional[Fraction] = None

    def __post_init__(self):
        if self.shape == "ball":
            if self.radius is None or self.radius <= 0:
                raise ValueError("ball radius must be positive")
        elif self.shape == "annulus":
            if self.r_in is None or self.r_out is None:
                raise ValueError("annulus needs r_in and r_out")
            if not 0 <= self.r_in < self.r_out:
                raise ValueError("annulus requires 0 <= r_in < r_out")
        else:
            raise ValueError(f"unknown domain shape {self.shape!r}")

    @classmethod
    def ball(cls, center: RationalLike, radius: RationalLike) -> "CircularDomain":
        return cls("ball", Fraction(center), radius=Fraction(radius))

    @classmethod
    def annulus(
        cls, center: RationalLike, r_in: RationalLike, r_out: RationalLike
    ) -> "CircularDomain":
        return cls(
            "annulus", Fraction(center), r_in=Fraction(r_in), r_out=Fraction(r_out)
        )

    def contains_sq(self, alpha: Fraction, beta_sq: Fraction) -> bool:
        """Membership test on (alpha, beta^2); avoids square roots."""
        rho_sq = (Fraction(alpha) - self.center) ** 2 + Fraction(beta_sq)
        if self.shape == "ball":
            return rho_sq < self.radius**2
        return self.r_in**2 < rho_sq < self.r_out**2

    def contains(self, alpha: RationalLike, beta: RationalLike) -> bool:
        beta = Fraction(beta)
        return self.contains_sq(Fraction(alpha), beta * beta)


def rational_sqrt(q: Fraction) -> Optional[Fraction]:
    """Exact nonnegative square root, or None if q is not a perfect square."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def slice_coordinates(
    x: AlgebraElement,
) -> tuple[Fraction, Fraction, Optional[ImaginaryUnit]]:
    """Decompose a paravector as alpha + I*beta with beta >= 0.

    Returns (alpha, beta, I); I is None at real points.  Raises
    IrrationalSliceRadiusError when |Im(x)|^2 is not a perfect rational square,
    since the slice unit would then have irrational components.
    """
    alpha = x.re()
    imag = x.im()
    im_sq = imag.norm_sq()
    if not im_sq:
        return alpha, Fraction(0), None
    beta = rational_sqrt(im_sq)
    if beta is None:
        raise IrrationalSliceRadiusError(
            f"|Im(x)|^2 = {im_sq} is not a perfect rational square"
        )
    return alpha, beta, ImaginaryUnit(imag * (Fraction(1) / beta))


def phi_coords(
    unit: ImaginaryUnit, alpha: RationalLike, beta: RationalLike
) -> tuple[Fraction, ...]:
    """Coordinates of alpha + I*beta: (alpha, i_1 beta, ..., i_n beta)."""
    a, b = Fraction(alpha), Fraction(beta)
    return (a,) + tuple(c * b for c in unit.components())


class SliceFunction:
    """A stem together with the circular domain it acts on."""

    __slots__ = ("domain", "stem")

    def __init__(self, domain: CircularDomain, stem: StemFunction):
        self.domain = domain
        self.stem = stem

    @property
    def signature(self) -> AlgebraSignature:
        return self.stem.signature

    def eval_at(self, x: AlgebraElement) -> AlgebraElement:
        """Value at a paravector point of the circularized domain."""
        alpha, beta, unit = slice_coordinates(x)
        if not self.domain.contains(alpha, beta):
            raise PointOutsideDomainError(f"{x!r} lies outside the domain")
        v1, v2 = self.stem.eval_at(alpha, beta)
        if unit is None:
            return v1  # F2 is odd in beta, so it vanishes on the real axis
        return v1 + unit.value * v2

    def derivative(self, order: int = 1) -> "SliceFunction":
        """The slice derivative: the slice function induced by dF/dz-bar."""
        return SliceFunction(self.domain, self.stem.dbar_n(order))

    def plane_poly(self, unit: ImaginaryUnit) -> CoordPoly:
        """Restriction to the slice of I as a polynomial in (alpha, beta)."""
        return self.stem.f1 + self.stem.f2.scale_left(unit.value)

    def to_point_function(self) -> "PointFunction":
        """The induced function as a polynomial in the coordinates x_0..x_n.

        Works because F1 is even and F2 odd in beta: beta^2 = |Im(x)|^2 is the
        polynomial s, and I * beta^odd regroups as Im(x) * s^((b-1)/2).
        """
        sig = self.signature
        n = sig.coord_count
        degree = self.stem.total_degree()
        x0_powers = list(islice(CoordPoly.variable(sig, n, 0).powers(), degree + 1))
        s_powers = list(islice(coord_s(sig).powers(), degree // 2 + 1))
        im = coord_im(sig)
        out = CoordPoly.zero(sig, n)
        for (a, b), c in self.stem.f1.terms.items():
            out = out + (x0_powers[a] * s_powers[b // 2]).scale_right(c)
        for (a, b), c in self.stem.f2.terms.items():
            out = out + (x0_powers[a] * s_powers[b // 2]) * im.scale_right(c)
        return PointFunction(self.domain, RationalFn.from_poly(out))

    def __eq__(self, other):
        if not isinstance(other, SliceFunction):
            return NotImplemented
        return self.domain == other.domain and self.stem == other.stem

    def __hash__(self):
        return hash((self.domain, self.stem))

    def __repr__(self):
        return f"SliceFunction({self.domain!r}, {self.stem!r})"


class PointFunction:
    """A rational coordinate expression on a circular domain.

    ``real_value`` overrides evaluation on the real axis, where piecewise
    examples are defined separately and rational expressions may be singular.
    The denominator must not vanish anywhere else on the domain; that is
    checked at every evaluation point.
    """

    __slots__ = ("domain", "expr", "real_value")

    def __init__(
        self,
        domain: CircularDomain,
        expr: RationalFn,
        real_value: Optional[AlgebraElement] = None,
    ):
        if expr.var_count != expr.signature.coord_count:
            raise ValueError(
                "point functions use one variable per paravector coordinate"
            )
        if real_value is not None and real_value.signature != expr.signature:
            raise SignatureMismatchError("real_value signature mismatch")
        self.domain = domain
        self.expr = expr
        self.real_value = real_value

    @property
    def signature(self) -> AlgebraSignature:
        return self.expr.signature

    def eval_coords(self, coords: Sequence[RationalLike]) -> AlgebraElement:
        pt = [Fraction(c) for c in coords]
        alpha = pt[0]
        beta_sq = sum((c * c for c in pt[1:]), Fraction(0))
        if not self.domain.contains_sq(alpha, beta_sq):
            raise PointOutsideDomainError(f"coordinates {pt} lie outside the domain")
        if not beta_sq and self.real_value is not None:
            return self.real_value
        return self.expr.eval(pt)

    def __repr__(self):
        return f"PointFunction({self.expr!r})"


def extract_stem(
    g: PointFunction, unit: ImaginaryUnit
) -> tuple[RationalFn, RationalFn]:
    """Candidate stem of g read off along one slice.

    F1(z) = (g(phi_I z) + g(phi_I z-bar)) / 2 and
    F2(z) = -(I/2) (g(phi_I z) - g(phi_I z-bar)), both exact rational functions
    in (alpha, beta).  If g is a slice function the result is independent of I;
    in general it is an I-dependent candidate.
    """
    comps = unit.components()
    plus = restrict_rf(g.expr, comps)
    minus = restrict_rf(g.expr, tuple(-c for c in comps))
    half = Fraction(1, 2)
    f1 = (plus + minus) * half
    f2 = (plus - minus).scale_left(unit.value * Fraction(-1, 2))
    return f1, f2


def extract_stem_exact(g: PointFunction, unit: ImaginaryUnit) -> StemFunction:
    """Candidate stem as a StemFunction; requires polynomial components."""
    f1, f2 = extract_stem(g, unit)
    if not (f1.is_polynomial() and f2.is_polynomial()):
        raise ValueError("candidate stem is not polynomial")
    return StemFunction(f1.numer, f2.numer)


def representation_eval(
    g: PointFunction,
    unit_h: ImaginaryUnit,
    unit_k: ImaginaryUnit,
    z: tuple[RationalLike, RationalLike],
) -> AlgebraElement:
    """Value the representation formula predicts for g on slice K.

    f_K(z_K) = (f_H(z_H) + f_H(z_H-bar)) / 2 - K (H/2) (f_H(z_H) - f_H(z_H-bar)).
    Slice functions satisfy this identity; a mismatch against the actual value
    witnesses that g is not a slice function.
    """
    alpha, beta = Fraction(z[0]), Fraction(z[1])
    a = g.eval_coords(phi_coords(unit_h, alpha, beta))
    b = g.eval_coords(phi_coords(unit_h, alpha, -beta))
    half = Fraction(1, 2)
    return (a + b) * half - unit_k.value * (unit_h.value * ((a - b) * half))


@dataclass(frozen=True)
class SliceWitness:
    """Concrete failure of the representation formula."""

    unit_h: ImaginaryUnit
    unit_k: ImaginaryUnit
    z: tuple[Fraction, Fraction]
    predicted: AlgebraElement
    actual: AlgebraElement


def find_slice_witness(
    g: PointFunction,
    units: Sequence[ImaginaryUnit],
    points: Sequence[tuple[RationalLike, RationalLike]],
) -> Optional[SliceWitness]:
    """First representation-formula mismatch over the sampled grid, if any."""
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


def is_slice(
    g: PointFunction,
    units: Sequence[ImaginaryUnit],
    points: Sequence[tuple[RationalLike, RationalLike]],
) -> tuple[bool, Optional[SliceWitness]]:
    """Sampled slice-ness check: sound when False, sampled when True."""
    if not units or not points:
        raise ValueError("unit and point samples must be nonempty")
    witness = find_slice_witness(g, units, points)
    return witness is None, witness


def taylor_alpha_coefficients(
    f: SliceFunction,
    unit: ImaginaryUnit,
    center: RationalLike,
    max_order: int,
) -> list[AlgebraElement]:
    """Coefficients (1/h!) d^h (f o phi_I) / d alpha^h at a real center.

    For slice functions with holomorphic stems these are the series
    coefficients, and they do not depend on the chosen unit.
    """
    point = (Fraction(center), Fraction(0))
    derivatives = _iterates(lambda poly: poly.partial(0), f.plane_poly(unit))
    return [
        d.eval(point) * Fraction(1, factorial(h))
        for h, d in enumerate(islice(derivatives, max_order + 1))
    ]
