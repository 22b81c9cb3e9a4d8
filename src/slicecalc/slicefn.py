"""Slice functions on circular domains and general point functions.

A slice function is a circular-domain descriptor plus a stem; its restriction
to the slice of I, f(alpha + I*beta) = F1 + I*F2, is how it is evaluated.  A
point function is an arbitrary rational expression in x_0..x_n and need not be
slice: ``is_slice_exact`` decides which by rotation invariance, and the
representation formula finds a witness from a candidate stem on sampled slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import factorial, lcm
from typing import Optional, Sequence

from .algebra import (
    AlgebraElement,
    AlgebraSignature,
    ImaginaryUnit,
    RationalLike,
    _int_product,
    _over_common_den,
)
from .errors import PointOutsideDomainError, SignatureMismatchError
from .multipoly import (
    CoordPoly, RationalFn, _apply_n, _int_map, _iterates, coord_im, coord_s, restrict_rf
)
from .stem import StemFunction


@dataclass(frozen=True)
class CircularDomain:
    """Ball or annulus centered on the real axis, describing D in the plane.

    ``radius`` is the outer radius; ``r_in`` is the inner one of an annulus
    and None for a ball.  The domain in the algebra is the circularization of
    D: all points alpha + I*beta with alpha + i*beta in D.  Both shapes are
    open, connected, conjugation-invariant and meet the real axis.
    """

    center: Fraction
    radius: Fraction
    r_in: Optional[Fraction] = None

    def __post_init__(self):
        if self.r_in is None:
            if self.radius <= 0:
                raise ValueError("ball radius must be positive")
        elif not 0 <= self.r_in < self.radius:
            raise ValueError("annulus requires 0 <= r_in < r_out")

    @classmethod
    def ball(cls, center: RationalLike, radius: RationalLike) -> "CircularDomain":
        return cls(Fraction(center), Fraction(radius))

    @classmethod
    def annulus(
        cls, center: RationalLike, r_in: RationalLike, r_out: RationalLike
    ) -> "CircularDomain":
        return cls(Fraction(center), Fraction(r_out), Fraction(r_in))

    def contains_sq(self, alpha: Fraction, beta_sq: Fraction) -> bool:
        """Membership test on (alpha, beta^2); avoids square roots."""
        rho_sq = (Fraction(alpha) - self.center) ** 2 + Fraction(beta_sq)
        if self.r_in is None:
            return rho_sq < self.radius**2
        return self.r_in**2 < rho_sq < self.radius**2


def phi_coords(
    unit: ImaginaryUnit, alpha: RationalLike, beta: RationalLike
) -> tuple[Fraction, ...]:
    """Coordinates of alpha + I*beta: (alpha, i_1 beta, ..., i_n beta).

    With (alpha, beta) = (a, b) / d and I = sum_h n_h u_h / w (the unit's
    numerators over its denominator), the point is (a w, b n_1, ..., b n_k) / (d w),
    built from integers alone and read back as normalized ``Fraction``s.
    """
    (a, b), d = _over_common_den((alpha, beta))
    nums, w = unit.nums, unit.den
    den = d * w
    return (
        Fraction(a * w, den),
        *(Fraction(b * nums.get(m, 0), den) for m in unit.signature.imag_masks),
    )


# Bounded caches per (signature, count), since s^k over Cl(0,8) grows quickly;
# a table is only read, never mutated.
@lru_cache(maxsize=16)
def _s_powers(signature: AlgebraSignature, count: int) -> tuple[CoordPoly, ...]:
    """s^0, ..., s^(count-1), s = |Im(x)|^2."""
    return tuple(islice(coord_s(signature).powers(), count))


@lru_cache(maxsize=16)
def _im_s_powers(signature: AlgebraSignature, count: int) -> tuple[CoordPoly, ...]:
    """Im(x) s^0, ..., Im(x) s^(count-1)."""
    im = coord_im(signature)
    return tuple(p * im for p in _s_powers(signature, count))


class SliceFunction:
    """A stem bound to the circular domain its induced function lives on."""

    __slots__ = ("domain", "stem")

    def __init__(self, domain: CircularDomain, stem: StemFunction):
        self.domain = domain
        self.stem = stem

    @property
    def signature(self) -> AlgebraSignature:
        return self.stem.signature

    def derivative(self, order: int = 1) -> "SliceFunction":
        """The slice derivative: the slice function induced by dF/dz-bar."""
        return SliceFunction(self.domain, _apply_n(StemFunction.dbar, self.stem, order))

    def to_point_function(self) -> "PointFunction":
        """The induced function as a polynomial in the coordinates x_0..x_n.

        Works because F1 is even and F2 odd in beta: beta^2 = |Im(x)|^2 is the
        polynomial s, and I * beta^odd regroups as Im(x) * s^((b-1)/2).  Every
        term goes into one accumulator over the lcm of the components' denominators.
        """
        sig = self.stem.signature
        n = sig.coord_count
        f1, f2 = self.stem.f1, self.stem.f2
        den = lcm(f1.den, f2.den)
        acc: dict = {}
        for comp, table in ((f1, _s_powers), (f2, _im_s_powers)):
            bases = table(sig, max((b // 2 + 1 for _, b in comp.rows), default=0))
            k = den // comp.den
            for (a, b), nums in comp.rows.items():
                if k != 1:
                    nums = {m: v * k for m, v in nums.items()}
                # the right key (a, 0, ..., 0) shifts each base row by x0^a
                shift = ((a,) + (0,) * (n - 1), nums)
                _int_product(bases[b // 2].rows.items(), (shift,), acc)
        out = CoordPoly._make(sig, n, acc, den)
        return PointFunction(self.domain, RationalFn.from_poly(out))

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
    plus = restrict_rf(g.expr, unit)
    minus = restrict_rf(g.expr, -unit)
    half = Fraction(1, 2)
    f1 = (plus + minus) * half
    f2 = (plus - minus).mul_poly_left(CoordPoly.constant(g.signature, 2, unit * -half))
    return f1, f2


def _rotation(j: int, nvar: int):
    """L_1j = x_1 d/dx_j - x_j d/dx_1 on polynomials in ``nvar`` variables, in one pass."""
    shift = lambda e, d: (e[0], e[1] + d, *e[2:j], e[j] - d, *e[j + 1 :])  # x_1^d x_j^-d
    moves = (lambda e: (shift(e, 1), e[j]), lambda e: (shift(e, -1), -e[1]))
    return lambda p: _int_map([(p, move) for move in moves], nvar)


def is_slice_exact(g: PointFunction) -> bool:
    """Whether g is a slice function, decided exactly by rotation invariance.

    g is slice exactly when g = A + Im(x) B, A and B functions of (x_0, s).  With
    g^c(x) = g(x_0, -x'), A = (g + g^c)/2 and D = (g - g^c)/2 = Im(x) B; as
    Im(x)^2 = -s, that holds exactly when 2A and 2 Im(x) D = -2s B are killed by
    each L_1j, j = 2..n, as these generate the rotations of x' = (x_1..x_n).  Each
    L_1j is a derivation, applied by the quotient rule up to the first nonzero image.
    """
    rf, nvar = g.expr, g.signature.coord_count
    conj = lambda p: _int_map(((p, lambda e: (e, (-1) ** (sum(e) - e[0]))),), nvar)
    flipped = RationalFn(conj(rf.numer), [(conj(p), k) for p, k in rf.den_factors])
    parts = (rf + flipped, (rf - flipped).mul_poly_left(coord_im(rf.signature)))
    return all(part.derive(_rotation(j, nvar)).is_zero() for j in range(2, nvar) for part in parts)


def _represent(
    a: AlgebraElement, b: AlgebraElement, unit_h: ImaginaryUnit, unit_k: ImaginaryUnit
) -> AlgebraElement:
    """The representation formula on slice K from a = f_H(z_H) and b = f_H(z_H-bar)."""
    half = Fraction(1, 2)
    return (a + b) * half - unit_k * (unit_h * ((a - b) * half))


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
    return _represent(a, b, unit_h, unit_k)


@dataclass(frozen=True)
class SliceWitness:
    """Concrete failure of the representation formula."""

    unit_h: ImaginaryUnit
    unit_k: ImaginaryUnit
    z: tuple[Fraction, Fraction]
    predicted: AlgebraElement
    actual: AlgebraElement


def is_slice(
    g: PointFunction,
    units: Sequence[ImaginaryUnit],
    points: Sequence[tuple[RationalLike, RationalLike]],
) -> Optional[SliceWitness]:
    """Sampled slice-ness probe: a witness that g is not slice, or None.

    Reads the representation formula from the first unit H onto each other
    unit K, then -K, at every point z; the first mismatch is the witness, whose
    K may be -K.  g(alpha +- H beta) is evaluated on its first use at each
    point and kept, so the probe makes 2 n p evaluations.  A pass means
    g(alpha +- K beta) = A +- K B, (A, B) the stem read on H at z, so every
    pair of units obeys the formula; with three or more units the pairs
    (K, K2), (K, H) force that too (K2 - H is invertible), so this passes
    exactly when the all-pairs check does.  ``is_slice_exact`` decides
    slice-ness; None here only says that no sampled pair refutes it.
    """
    if len(units) < 2 or not points:
        raise ValueError("is_slice needs at least two units and one point")
    unit_h = units[0]
    on_h: dict[int, tuple[AlgebraElement, AlgebraElement]] = {}
    for unit_k in (k for unit in units[1:] for k in (unit, -unit)):
        for i, z in enumerate(points):
            alpha, beta = Fraction(z[0]), Fraction(z[1])
            if i not in on_h:
                on_h[i] = tuple(
                    g.eval_coords(phi_coords(unit_h, alpha, b)) for b in (beta, -beta)
                )
            predicted = _represent(*on_h[i], unit_h, unit_k)
            actual = g.eval_coords(phi_coords(unit_k, alpha, beta))
            if predicted != actual:
                return SliceWitness(unit_h, unit_k, (alpha, beta), predicted, actual)
    return None


def taylor_alpha_coefficients(
    stem: StemFunction, unit: ImaginaryUnit, max_order: int
) -> list[AlgebraElement]:
    """Coefficients (1/h!) d^h F_I / d alpha^h at 0, for h = 0..max_order.

    F_I = F1 + I F2 is the stem read on the slice of I.  For holomorphic
    stems these are the series coefficients at 0 of the induced function,
    and they do not depend on the chosen unit.
    """
    point = (0, 0)
    derivatives = _iterates(lambda poly: poly.partial(0), stem.plane_poly(unit))
    return [
        d.eval(point) * Fraction(1, factorial(h))
        for h, d in enumerate(islice(derivatives, max_order + 1))
    ]
