"""Stem functions: parity-constrained polynomial pairs over the slice plane.

A stem is a pair (F1, F2) of bivariate polynomials in (alpha, beta) such that
F1 is even and F2 is odd in beta.  That symmetry is exactly what makes the
induced function f(alpha + I*beta) = F1 + I*F2 independent of the sign choice
(I, beta) vs (-I, -beta).  Parity is enforced at construction, and every
operation below preserves it: sum, the stem of sum_p z^p w_p
(``_holomorphic``), right scaling and ``dbar``.
"""

from __future__ import annotations

from math import comb

from .algebra import AlgebraElement, AlgebraSignature, ImaginaryUnit
from .errors import ParityViolationError, SignatureMismatchError
from .multipoly import CoordPoly, _int_map, _partial_move

ALPHA, BETA = 0, 1


def _check_parity(poly: CoordPoly, even: bool, component: str) -> None:
    for exps in poly.rows:
        if (exps[BETA] % 2 == 0) != even:
            raise ParityViolationError(component, exps)


def _holomorphic(poly: CoordPoly) -> "StemFunction":
    """The stem sum_p z^p w_p of ``poly`` = sum_p t^p w_p, in one pass over its rows.

    z^p = sum_k C(p,k) alpha^(p-k) (i beta)^k: term k adds C(p,k) w_p to F1 (k
    even) or F2 (k odd) with sign (-1)^floor(k/2).
    """
    rows: tuple[dict, dict] = ({}, {})
    for (p,), nums in poly.rows.items():
        for k in range(p + 1):
            c = comb(p, k) * (-1 if k & 2 else 1)
            rows[k & 1][(p - k, k)] = {m: n * c for m, n in nums.items()}
    return StemFunction(*(CoordPoly._make(poly.signature, 2, part, poly.den) for part in rows))


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

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.f1.is_zero() and self.f2.is_zero()

    def total_degree(self) -> int:
        return max(self.f1.total_degree(), self.f2.total_degree())

    def plane_poly(self, unit: ImaginaryUnit) -> CoordPoly:
        """Restriction to the slice of I, F1 + I F2, as a polynomial in (alpha, beta)."""
        return self.f1 + self.f2.scale_left(unit)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, StemFunction):
            return NotImplemented
        return StemFunction(self.f1 + other.f1, self.f2 + other.f2)

    def scale_right(self, coeff: AlgebraElement) -> "StemFunction":
        return StemFunction(self.f1.scale_right(coeff), self.f2.scale_right(coeff))

    # -- calculus -------------------------------------------------------------------

    def dbar(self) -> "StemFunction":
        """The complex operator dF/dz-bar, again a stem function.

        Componentwise: ((dF1/da - dF2/db) + i (dF1/db + dF2/da)) / 2, each
        component in one pass over both inputs.
        """
        d_alpha, d_beta = _partial_move(ALPHA), _partial_move(BETA)
        g1 = _int_map(((self.f1, d_alpha), (self.f2, _partial_move(BETA, -1))), 2, 2)
        g2 = _int_map(((self.f1, d_beta), (self.f2, d_alpha)), 2, 2)
        return StemFunction(g1, g2)

    # -- comparisons --------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, StemFunction):
            return NotImplemented
        return self.f1 == other.f1 and self.f2 == other.f2

    def __repr__(self):
        return f"Stem(F1={self.f1!r}, F2={self.f2!r})"

