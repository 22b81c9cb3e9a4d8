"""Exception types shared across the package.

Each survives a pickle round trip with its type, message and attributes, so
an error raised in a forked campaign run reaches the CLI unchanged.
"""

from __future__ import annotations


class SliceCalcError(Exception):
    """Base class for all slicecalc errors."""


class SignatureMismatchError(SliceCalcError):
    """Operands belong to different algebras."""


class ArityMismatchError(SliceCalcError):
    """Polynomial operands disagree on the number of variables."""


class ParityViolationError(SliceCalcError):
    """A stem component breaks the even/odd symmetry in beta.

    Carries the offending monomial so construction failures are actionable.
    """

    def __init__(self, component: str, exponents: tuple[int, ...]):
        self.component = component
        self.exponents = exponents
        super().__init__(
            f"{component} monomial alpha^{exponents[0]}*beta^{exponents[1]} "
            f"has {'odd' if component == 'F1' else 'even'} beta-exponent"
        )

    def __reduce__(self):
        return type(self), (self.component, self.exponents)


class ZeroDenominatorError(SliceCalcError):
    """A rational function was built with (or restricted to) a zero denominator."""


class DenominatorVanishesError(SliceCalcError):
    """The denominator vanishes at the requested evaluation point."""

    def __init__(self, point):
        self.point = tuple(point)
        super().__init__(f"denominator vanishes at {self.point}")

    def __reduce__(self):
        return type(self), (self.point,)


class PointOutsideDomainError(SliceCalcError):
    """Evaluation was requested outside the circular domain."""


class NotPolyanalyticOfOrderError(SliceCalcError):
    """Decomposition was requested at an order the function does not satisfy.

    ``residual`` is the nonzero StemFunction left over after differentiating
    ``order`` times; reports surface it so the failure is reproducible.  It is
    None when the check ran on one slice restriction, which has no stem.
    """

    def __init__(self, order: int, residual=None):
        self.order = order
        self.residual = residual
        super().__init__(f"function is not polyanalytic of order {order}")

    def __reduce__(self):
        return type(self), (self.order, self.residual)


class FunctionSpecError(SliceCalcError):
    """A function description (JSON or builtin name) failed to parse."""
