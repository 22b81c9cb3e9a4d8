"""Stem functions: parity-constrained polynomial pairs over the slice plane.

A stem is a pair (F1, F2) of bivariate polynomials in (alpha, beta) such that
F1 is even and F2 is odd in beta.  That symmetry is exactly what makes the
induced function f(alpha + I*beta) = F1 + I*F2 independent of the sign choice
(I, beta) vs (-I, -beta).  Parity is enforced at construction; both operations
below provably preserve it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, takewhile
from typing import Iterator

from .algebra import AlgebraElement, AlgebraSignature
from .errors import ParityViolationError, SignatureMismatchError
from .multipoly import CoordPoly, _apply_n, _iterates

ALPHA, BETA = 0, 1


def _check_parity(poly: CoordPoly, even: bool, component: str) -> None:
    for exps in poly.rows:
        if (exps[BETA] % 2 == 0) != even:
            raise ParityViolationError(component, exps)


class StemFunction:
    """F = F1 + i F2 with F1 even and F2 odd in beta."""

    __slots__ = ("f1", "f2")

    def __init__(self, f1: CoordPoly, f2: CoordPoly):
        if f1.signature != f2.signature:
            raise SignatureMismatchError("stem components must share a signature")
        if f1.var_count != 2 or f2.var_count != 2:
            raise ValueError("stem components are bivariate polynomials in (alpha, beta)")
        _check_parity(f1, even=True, component="F1")
        _check_parity(f2, even=False, component="F2")
        self.f1 = f1
        self.f2 = f2

    @property
    def signature(self) -> AlgebraSignature:
        return self.f1.signature

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, signature) -> "StemFunction":
        z = CoordPoly.zero(signature, 2)
        return cls(z, z)

    @classmethod
    def constant(cls, signature, value) -> "StemFunction":
        if isinstance(value, (int, Fraction)):
            value = AlgebraElement.scalar(signature, value)
        return cls(
            CoordPoly.constant(signature, 2, value), CoordPoly.zero(signature, 2)
        )

    @classmethod
    def one(cls, signature) -> "StemFunction":
        return cls.constant(signature, 1)

    @classmethod
    def z(cls, signature) -> "StemFunction":
        """Stem of the identity slice function x (i.e. z = alpha + i beta)."""
        return cls(
            CoordPoly.variable(signature, 2, ALPHA),
            CoordPoly.variable(signature, 2, BETA),
        )

    @classmethod
    def zbar(cls, signature) -> "StemFunction":
        """Stem of the conjugate coordinate (z-bar = alpha - i beta)."""
        return cls(
            CoordPoly.variable(signature, 2, ALPHA),
            -CoordPoly.variable(signature, 2, BETA),
        )

    @classmethod
    def z_pow(cls, signature, n: int) -> "StemFunction":
        z = cls.z(signature)
        return _apply_n(lambda out: out * z, cls.one(signature), n)

    @classmethod
    def zbar_pow(cls, signature, n: int) -> "StemFunction":
        zb = cls.zbar(signature)
        return _apply_n(lambda out: out * zb, cls.one(signature), n)

    def powers(self) -> Iterator["StemFunction"]:
        """1, self, self^2, ...: from self^2 on, each one product from the last."""
        one = StemFunction.one(self.signature)
        return chain((one,), _iterates(lambda out: out * self, self))

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.f1.is_zero() and self.f2.is_zero()

    def total_degree(self) -> int:
        return max(self.f1.total_degree(), self.f2.total_degree())

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, StemFunction):
            return NotImplemented
        return StemFunction(self.f1 + other.f1, self.f2 + other.f2)

    def __sub__(self, other):
        if not isinstance(other, StemFunction):
            return NotImplemented
        return StemFunction(self.f1 - other.f1, self.f2 - other.f2)

    def __mul__(self, other):
        """Pointwise product in the algebra tensored with the complex units.

        (F1 + iF2)(G1 + iG2) = (F1 G1 - F2 G2) + i (F1 G2 + F2 G1); coefficient
        products keep the left operand's coefficients on the left.
        """
        if isinstance(other, StemFunction):
            return StemFunction(
                self.f1 * other.f1 - self.f2 * other.f2,
                self.f1 * other.f2 + self.f2 * other.f1,
            )
        if isinstance(other, (int, Fraction)):
            return StemFunction(self.f1 * other, self.f2 * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def scale_right(self, coeff: AlgebraElement) -> "StemFunction":
        return StemFunction(self.f1.scale_right(coeff), self.f2.scale_right(coeff))

    # -- calculus -------------------------------------------------------------------

    def dbar(self) -> "StemFunction":
        """The complex operator dF/dz-bar, again a stem function.

        Componentwise: ((dF1/da - dF2/db) + i (dF1/db + dF2/da)) / 2.
        """
        half = Fraction(1, 2)
        g1 = (self.f1.partial(ALPHA) - self.f2.partial(BETA)) * half
        g2 = (self.f1.partial(BETA) + self.f2.partial(ALPHA)) * half
        return StemFunction(g1, g2)

    def dbar_n(self, n: int) -> "StemFunction":
        return _apply_n(StemFunction.dbar, self, n)

    def dbar_levels(self) -> Iterator["StemFunction"]:
        """self, dbar self, dbar^2 self, ... up to the last nonzero one."""
        return takewhile(lambda level: not level.is_zero(), _iterates(StemFunction.dbar, self))

    def eval_at(self, alpha, beta) -> tuple[AlgebraElement, AlgebraElement]:
        point = (Fraction(alpha), Fraction(beta))
        return self.f1.eval(point), self.f2.eval(point)

    # -- comparisons --------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, StemFunction):
            return NotImplemented
        return self.f1 == other.f1 and self.f2 == other.f2

    def __hash__(self):
        return hash((self.f1, self.f2))

    def __repr__(self):
        return f"Stem(F1={self.f1!r}, F2={self.f2!r})"

