"""Multivariate polynomials and rational functions with algebra coefficients.

Variables are real-valued and central (they commute with everything); the
noncommutative coefficients sit on the left of each monomial, so a product of
terms multiplies coefficients in order.  Rational functions keep a polynomial
numerator over a real-scalar denominator stored in factored form: the quotient
rule bumps factor exponents instead of squaring expanded products, which keeps
iterated differentiation cheap without any gcd machinery.

A polynomial stores, per monomial, one Python ``int`` numerator per blade,
all over one positive denominator in lowest terms; ``terms`` gives the
coefficients as ``AlgebraElement``s.  The product goes through the integer
core of the algebra product, and so does scaling by an algebra element, as a
product with a one-term side.  Scaling by a rational, partial derivatives and
slice restriction are linear maps on the terms: each makes one pass over the
integer rows, with one ``int`` factor per term (``_int_map``).  Rational
functions multiply a numerator only by a cofactor that is not 1 when they
add.  Point evaluation puts the point over a common denominator and
homogenizes every term to the total degree, so the value is one integer row
over one denominator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain, islice
from math import gcd, lcm, prod
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .algebra import AlgebraElement, AlgebraSignature, _add_scaled, _int_product
from .errors import (
    ArityMismatchError,
    DenominatorVanishesError,
    SignatureMismatchError,
    ZeroDenominatorError,
)

Exponents = tuple[int, ...]
RationalLike = Union[Fraction, int]


def _iterates(step, value) -> Iterator:
    """value, step(value), step(step(value)), ...: every dbar^n chain and power.

    Lazy, so taking k elements applies ``step`` k - 1 times.
    """
    while True:
        yield value
        value = step(value)


def _apply_n(step, value, n: int):
    """``step`` applied ``n`` times to ``value``: element n of ``_iterates``."""
    if n < 0:
        raise ValueError("order must be >= 0")
    return next(islice(_iterates(step, value), n, None))


def _add_exponents(ea: Exponents, eb: Exponents) -> Exponents:
    return tuple(map(add, ea, eb))


def _left_key(ka, kb):
    return ka


def _right_key(ka, kb):
    return kb


def _int_map(poly: "CoordPoly", var_count: int, move, scale: int = 1) -> "CoordPoly":
    """One pass over the integer rows of ``poly``, a linear map on its terms.

    ``move(e)`` gives the output key of term ``e`` and an ``int`` factor for its
    numerators; a factor 0 drops the term.  Terms meeting on one key add up
    over the denominator of ``poly`` times ``scale``.
    """
    acc: dict = {}
    for e, nums in poly.rows.items():
        key, k = move(e)
        if not k:
            continue
        out = acc.get(key)
        if out is None:
            out = acc[key] = {}
        _add_scaled(out, nums, k)
    return CoordPoly._make(poly.signature, var_count, acc, poly.den * scale)


class CoordPoly:
    """Polynomial in central real variables with algebra coefficients.

    ``rows`` maps each exponent vector to the integer numerators of its
    coefficient, blade by blade, over the one denominator ``den``.  The
    canonical form, made by ``_make`` alone, has ``den > 0``, no zero numerator,
    no empty row, and no common factor of ``den`` and all numerators.
    """

    __slots__ = ("signature", "var_count", "rows", "den", "_hash")

    def __new__(
        cls,
        signature: AlgebraSignature,
        var_count: int,
        terms: Mapping[Exponents, AlgebraElement],
    ):
        clean: dict[Exponents, AlgebraElement] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != var_count:
                raise ArityMismatchError(
                    f"exponent vector {exps} has arity {len(exps)}, expected {var_count}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if coeff.signature != signature:
                raise SignatureMismatchError("coefficient signature mismatch")
            clean[exps] = coeff
        den = lcm(*[c.den for c in clean.values()])
        rows = {
            e: {m: n * (den // c.den) for m, n in c.nums.items()} for e, c in clean.items()
        }
        return cls._make(signature, var_count, rows, den)

    @classmethod
    def _make(cls, signature, var_count, rows: dict[Exponents, dict[int, int]], den: int):
        """``rows`` over ``den`` in canonical form; keys and masks are valid, ``den`` positive.

        Rows that are canonical already are kept, so callers pass dicts that
        nothing mutates afterwards.
        """
        g = gcd(den, *[n for nums in rows.values() for n in nums.values()])
        obj = object.__new__(cls)
        obj.signature = signature
        obj.var_count = var_count
        obj.rows = {}
        for e, nums in rows.items():
            if g != 1 or not all(nums.values()):
                nums = {m: n // g for m, n in nums.items() if n}
            if nums:
                obj.rows[e] = nums
        obj.den = den // g
        obj._hash = None
        return obj

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, signature, var_count: int) -> "CoordPoly":
        return cls._make(signature, var_count, {}, 1)

    @classmethod
    def constant(cls, signature, var_count: int, value) -> "CoordPoly":
        if isinstance(value, (int, Fraction)):
            value = AlgebraElement.scalar(signature, value)
        return cls(signature, var_count, {(0,) * var_count: value})

    @classmethod
    def variable(cls, signature, var_count: int, index: int) -> "CoordPoly":
        if not 0 <= index < var_count:
            raise ValueError(f"variable index {index} out of range")
        exps = tuple(1 if h == index else 0 for h in range(var_count))
        return cls._make(signature, var_count, {exps: {0: 1}}, 1)

    # -- structure -----------------------------------------------------------

    @property
    def terms(self) -> dict[Exponents, AlgebraElement]:
        """A new dict of the nonzero coefficients as canonical ``AlgebraElement``s."""
        sig, den = self.signature, self.den
        return {e: AlgebraElement._make(sig, nums, den) for e, nums in self.rows.items()}

    def is_zero(self) -> bool:
        return not self.rows

    def is_real_scalar(self) -> bool:
        return all(nums.keys() == {0} for nums in self.rows.values())

    def total_degree(self) -> int:
        """Maximum monomial degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.rows), default=-1)

    def _require_compatible(self, other: "CoordPoly") -> None:
        if self.signature != other.signature:
            raise SignatureMismatchError("polynomial signature mismatch")
        if self.var_count != other.var_count:
            raise ArityMismatchError(
                f"var counts differ: {self.var_count} vs {other.var_count}"
            )

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, CoordPoly):
            return NotImplemented
        self._require_compatible(other)
        den = lcm(self.den, other.den)
        rows: dict = {}
        for poly in (self, other):
            k = den // poly.den
            for e, nums in poly.rows.items():
                _add_scaled(rows.setdefault(e, {}), nums, k)
        return CoordPoly._make(self.signature, self.var_count, rows, den)

    def __neg__(self):
        rows = {e: {m: -n for m, n in nums.items()} for e, nums in self.rows.items()}
        return CoordPoly._make(self.signature, self.var_count, rows, self.den)

    def __sub__(self, other):
        if not isinstance(other, CoordPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, CoordPoly):
            self._require_compatible(other)
            acc = _int_product(self.rows.items(), other.rows.items(), _add_exponents)
            return CoordPoly._make(self.signature, self.var_count, acc, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return _int_map(self, self.var_count, lambda e: (e, n), other.denominator)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def _require_coeff(self, coeff: AlgebraElement) -> None:
        if coeff.signature != self.signature:
            raise SignatureMismatchError("coefficient signature mismatch")

    def scale_left(self, coeff: AlgebraElement) -> "CoordPoly":
        """coeff * self: one product with ``coeff`` as a one-term left side."""
        self._require_coeff(coeff)
        acc = _int_product(((None, coeff.nums),), self.rows.items(), _right_key)
        return CoordPoly._make(self.signature, self.var_count, acc, coeff.den * self.den)

    def scale_right(self, coeff: AlgebraElement) -> "CoordPoly":
        self._require_coeff(coeff)
        acc = _int_product(self.rows.items(), ((None, coeff.nums),), _left_key)
        return CoordPoly._make(self.signature, self.var_count, acc, self.den * coeff.den)

    def powers(self) -> Iterator["CoordPoly"]:
        """1, self, self^2, ...: from self^2 on, each one product from the last."""
        one = CoordPoly.constant(self.signature, self.var_count, 1)
        return chain((one,), _iterates(lambda out: out * self, self))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        if n == 0:
            return CoordPoly.constant(self.signature, self.var_count, 1)
        return _apply_n(lambda out: out * self, self, n - 1)

    # -- calculus ------------------------------------------------------------

    def partial(self, index: int) -> "CoordPoly":
        if not 0 <= index < self.var_count:
            raise ValueError(f"variable index {index} out of range")

        def move(e: Exponents):
            return (*e[:index], e[index] - 1, *e[index + 1 :]), e[index]

        return _int_map(self, self.var_count, move)

    def eval(self, point: Sequence[RationalLike]) -> AlgebraElement:
        """The value at ``point``, added up in integers over one denominator.

        With the point over a common denominator d (integer numerators a_i)
        and D the total degree, the term with exponents e and numerators N
        contributes N prod(a_i^e_i) d^(D - |e|) over den d^D.
        """
        if len(point) != self.var_count:
            raise ArityMismatchError(
                f"point arity {len(point)} != var count {self.var_count}"
            )
        pt = [p if isinstance(p, Fraction) else Fraction(p) for p in point]
        d = lcm(*[p.denominator for p in pt])
        coords = [p.numerator * (d // p.denominator) for p in pt]
        degree = max((sum(e) for e in self.rows), default=0)
        d_pows = [d**k for k in range(degree + 1)]
        acc: dict[int, int] = {}
        for e, nums in self.rows.items():
            scalar = prod(map(pow, coords, e), start=d_pows[degree - sum(e)])
            if scalar:
                _add_scaled(acc, nums, scalar)
        return AlgebraElement._make(self.signature, acc, self.den * d_pows[degree])

    # -- helpers for denominators ---------------------------------------------

    def scalar_coeff(self, exps: Exponents) -> Fraction:
        return Fraction(self.rows.get(tuple(exps), {}).get(0, 0), self.den)

    def _leading_key(self) -> Exponents:
        """Graded-lex maximal exponent vector (zero polynomial not allowed)."""
        return max(self.rows, key=lambda e: (sum(e), e))

    def sort_key(self):
        """Deterministic ordering key; meaningful for real-scalar polynomials."""
        items = []
        for e in sorted(self.rows):
            c = self.scalar_coeff(e)
            items.append((e, c.numerator, c.denominator))
        return (self.var_count, tuple(items))

    # -- comparisons -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, CoordPoly):
            return NotImplemented
        return (
            self.signature == other.signature
            and self.var_count == other.var_count
            and self.den == other.den
            and self.rows == other.rows
        )

    def __hash__(self):
        if self._hash is None:
            rows = frozenset((e, frozenset(nums.items())) for e, nums in self.rows.items())
            self._hash = hash((self.signature, self.var_count, self.den, rows))
        return self._hash

    def __repr__(self):
        if not self.rows:
            return "Poly(0)"
        bits = [f"x^{list(e)}*({c!r})" for e, c in sorted(self.terms.items())]
        return "Poly(" + " + ".join(bits) + ")"


# -- coordinate building blocks -----------------------------------------------


def coord_x(signature: AlgebraSignature) -> CoordPoly:
    """The coordinate function x = x_0 + sum_h x_h e_h."""
    return CoordPoly.variable(signature, signature.coord_count, 0) + coord_im(signature)


def coord_xbar(signature: AlgebraSignature) -> CoordPoly:
    return CoordPoly.variable(signature, signature.coord_count, 0) - coord_im(signature)


# Cached per signature (a CoordPoly is never mutated): thetabar and G use both per call.
@cache
def coord_im(signature: AlgebraSignature) -> CoordPoly:
    """Im(x) = sum_h x_h e_h as a polynomial."""
    n = signature.coord_count
    out = CoordPoly.zero(signature, n)
    for h, mask in enumerate(signature.imag_masks, start=1):
        e_h = AlgebraElement.basis(signature, mask)
        out = out + CoordPoly.variable(signature, n, h).scale_right(e_h)
    return out


@cache
def coord_s(signature: AlgebraSignature) -> CoordPoly:
    """|Im(x)|^2 = sum_h x_h^2 as a real polynomial."""
    n = signature.coord_count
    out = CoordPoly.zero(signature, n)
    for h in range(1, n):
        out = out + CoordPoly.variable(signature, n, h) ** 2
    return out


def restrict_poly(poly: CoordPoly, components: Sequence[Fraction]) -> CoordPoly:
    """Substitute x_0 <- alpha and x_h <- components[h-1] * beta.

    Returns a two-variable polynomial in (alpha, beta); the substitution scalars
    are the components of an imaginary unit, so this is the slice restriction.
    """
    if len(components) != poly.var_count - 1:
        raise ArityMismatchError(
            f"expected {poly.var_count - 1} components, got {len(components)}"
        )
    # components a_h / u over one common denominator u; every term is
    # homogenized to u^top, top the largest beta degree, as in CoordPoly.eval
    comps = [c if isinstance(c, Fraction) else Fraction(c) for c in components]
    u = lcm(*[c.denominator for c in comps])
    nums = [c.numerator * (u // c.denominator) for c in comps]
    top = max((sum(e) - e[0] for e in poly.rows), default=0)
    u_pows = [u**k for k in range(top + 1)]

    def move(e: Exponents):
        beta_deg = 0
        k = 1
        for a, j in zip(nums, e[1:]):
            if j:
                k *= a**j
                beta_deg += j
        return (e[0], beta_deg), k * u_pows[top - beta_deg]

    return _int_map(poly, 2, move, u_pows[top])


# -- rational functions ---------------------------------------------------------


def _times(poly: CoordPoly, cof: "CoordPoly | None") -> CoordPoly:
    """poly * cof, where ``None`` stands for the cofactor 1."""
    return poly if cof is None else poly * cof


def _normalize_factor(poly: CoordPoly) -> tuple[CoordPoly, Fraction]:
    """Split a real-scalar polynomial into (primitive part, content).

    The primitive part has coprime integer coefficients and a positive leading
    coefficient under graded-lex order; poly == content * primitive.
    """
    if poly.is_zero():
        raise ZeroDenominatorError("zero denominator factor")
    if not poly.is_real_scalar():
        raise ValueError("denominator factors must be real-scalar polynomials")
    g = gcd(*[nums[0] for nums in poly.rows.values()])
    if poly.rows[poly._leading_key()][0] < 0:
        g = -g
    rows = {e: {0: nums[0] // g} for e, nums in poly.rows.items()}
    primitive = CoordPoly._make(poly.signature, poly.var_count, rows, 1)
    return primitive, Fraction(g, poly.den)


def _merge_factors(
    factors: Iterable[tuple[CoordPoly, int]]
) -> tuple[tuple[CoordPoly, int], ...]:
    acc: dict[CoordPoly, int] = {}
    for p, k in factors:
        if k == 0:
            continue
        acc[p] = acc.get(p, 0) + k
    return tuple(sorted(acc.items(), key=lambda item: item[0].sort_key()))


class RationalFn:
    """Quotient of a CoordPoly by a product of real-scalar polynomial factors."""

    __slots__ = ("numer", "den_factors")

    def __init__(
        self,
        numer: CoordPoly,
        den_factors: Iterable[tuple[CoordPoly, int]] = (),
    ):
        scaled = numer
        clean: list[tuple[CoordPoly, int]] = []
        for p, k in den_factors:
            if k < 0:
                raise ValueError("denominator exponents must be nonnegative")
            if k == 0:
                continue
            if p.var_count != numer.var_count or p.signature != numer.signature:
                raise ArityMismatchError("denominator factor arity/signature mismatch")
            primitive, content = _normalize_factor(p)
            if content != 1:
                scaled = scaled * (Fraction(1) / content**k)
            if primitive.total_degree() > 0:
                clean.append((primitive, k))
            # constant primitive factors reduce to 1 and are dropped
        self.numer = scaled
        self.den_factors = _merge_factors(clean)

    @classmethod
    def _make(cls, numer, den_factors):
        """Fast path for already-normalized factors."""
        obj = object.__new__(cls)
        obj.numer = numer
        obj.den_factors = den_factors
        return obj

    @classmethod
    def from_poly(cls, poly: CoordPoly) -> "RationalFn":
        return cls._make(poly, ())

    # -- structure --------------------------------------------------------------

    @property
    def signature(self):
        return self.numer.signature

    @property
    def var_count(self):
        return self.numer.var_count

    def is_zero(self) -> bool:
        return self.numer.is_zero()

    def is_polynomial(self) -> bool:
        return not self.den_factors

    # -- arithmetic ----------------------------------------------------------------

    def _require_compatible(self, other: "RationalFn") -> None:
        self.numer._require_compatible(other.numer)

    def __add__(self, other):
        if isinstance(other, CoordPoly):
            other = RationalFn.from_poly(other)
        if not isinstance(other, RationalFn):
            return NotImplemented
        self._require_compatible(other)
        mine = dict(self.den_factors)
        theirs = dict(other.den_factors)
        shared: dict[CoordPoly, int] = dict(mine)
        for p, k in theirs.items():
            shared[p] = max(shared.get(p, 0), k)
        # a numerator is multiplied only by a cofactor that is not 1
        cof_self = cof_other = None
        for p, k in shared.items():
            d_self = k - mine.get(p, 0)
            d_other = k - theirs.get(p, 0)
            if d_self:
                cof_self = _times(p**d_self, cof_self)
            if d_other:
                cof_other = _times(p**d_other, cof_other)
        numer = _times(self.numer, cof_self) + _times(other.numer, cof_other)
        return RationalFn._make(numer, _merge_factors(shared.items()))

    def __neg__(self):
        return RationalFn._make(-self.numer, self.den_factors)

    def __sub__(self, other):
        if isinstance(other, CoordPoly):
            other = RationalFn.from_poly(other)
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RationalFn):
            self._require_compatible(other)
            return RationalFn._make(
                self.numer * other.numer,
                _merge_factors(self.den_factors + other.den_factors),
            )
        if isinstance(other, (int, Fraction)):
            return RationalFn._make(self.numer * other, self.den_factors)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def scale_left(self, coeff: AlgebraElement) -> "RationalFn":
        return RationalFn._make(self.numer.scale_left(coeff), self.den_factors)

    def mul_poly_left(self, poly: CoordPoly) -> "RationalFn":
        return RationalFn._make(poly * self.numer, self.den_factors)

    # -- calculus --------------------------------------------------------------------

    def partial(self, index: int) -> "RationalFn":
        """Exact partial derivative via the quotient rule.

        Factors untouched by d/dx_index keep their exponent; each dependent
        factor F^k contributes through (dN*F - k*N*dF)/F^(k+1).
        """
        dependent = []
        independent = []
        for p, k in self.den_factors:
            dp = p.partial(index)
            (independent if dp.is_zero() else dependent).append((p, k, dp))
        d_numer = self.numer.partial(index)
        if not dependent:
            return RationalFn._make(d_numer, self.den_factors)
        prod_dep = None
        for p, _, _ in dependent:
            prod_dep = _times(p, prod_dep)
        total = d_numer * prod_dep
        for i, (p, k, dp) in enumerate(dependent):
            cof = dp * k
            for j, (q, _, _) in enumerate(dependent):
                if j != i:
                    cof = cof * q
            total = total - self.numer * cof
        all_factors = [(p, k + 1) for p, k, _ in dependent]
        all_factors += [(p, k) for p, k, _ in independent]
        return RationalFn._make(total, _merge_factors(all_factors))

    # -- evaluation --------------------------------------------------------------------

    def eval(self, point: Sequence[RationalLike]) -> AlgebraElement:
        pt = [Fraction(p) for p in point]
        den = Fraction(1)
        for p, k in self.den_factors:
            v = p.eval(pt).scalar_part()
            if not v:
                raise DenominatorVanishesError(pt)
            den *= v**k
        value = self.numer.eval(pt)
        nums = {m: n * den.denominator for m, n in value.nums.items()}
        return AlgebraElement._make(self.signature, nums, value.den * den.numerator)

    # -- comparisons -----------------------------------------------------------------------

    def __eq__(self, other):
        """Exact value equality (cross-multiplied numerator comparison)."""
        if isinstance(other, CoordPoly):
            other = RationalFn.from_poly(other)
        if not isinstance(other, RationalFn):
            return NotImplemented
        if (
            self.signature != other.signature
            or self.var_count != other.var_count
        ):
            return False
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        if not self.den_factors:
            return f"RationalFn({self.numer!r})"
        return f"RationalFn({self.numer!r} / {self.den_factors!r})"


def restrict_rf(rf: RationalFn, components: Sequence[Fraction]) -> RationalFn:
    """Slice restriction of a rational function; see restrict_poly.

    Raises ZeroDenominatorError if a denominator factor collapses to the zero
    polynomial under the substitution.
    """
    numer = restrict_poly(rf.numer, components)
    factors = []
    for p, k in rf.den_factors:
        q = restrict_poly(p, components)
        if q.is_zero():
            raise ZeroDenominatorError(
                "denominator vanishes identically on this slice"
            )
        factors.append((q, k))
    return RationalFn(numer, factors)
