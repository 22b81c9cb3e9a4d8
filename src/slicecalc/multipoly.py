"""Multivariate polynomials and rational functions with algebra coefficients.

Variables are real-valued and central (they commute with everything); the
noncommutative coefficients sit on the left of each monomial, so a product of
terms multiplies coefficients in order.  Rational functions keep a polynomial
numerator over a real-scalar denominator stored in factored form: the quotient
rule bumps factor exponents instead of squaring expanded products, which keeps
iterated differentiation cheap without any gcd machinery.

Coefficients are stored as ``Fraction``s, which stay the API-edge type, but
the hot inner loops add up Python ``int`` numerators over one common
denominator.  The product goes through the integer core of the algebra
product, and so does scaling by an algebra element, as a product with a
one-term side.  Scaling by a rational, partial derivatives and slice
restriction are linear maps on the terms: each makes one pass over the
integer rows, with one ``int`` factor per term (``_int_map``).  Rational
functions multiply a numerator only by a cofactor that is not 1 when they
add.  Point evaluation caches an integer form of the polynomial (one
coefficient denominator, integer numerators, the total degree), puts the point
over a common denominator and homogenizes every term to the total degree, so
each output blade is one ``Fraction`` built at the end.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import add
from typing import Iterable, Mapping, Sequence, Union

from .algebra import AlgebraElement, AlgebraSignature, _int_product, _int_rows
from .errors import (
    ArityMismatchError,
    DenominatorVanishesError,
    SignatureMismatchError,
    ZeroDenominatorError,
)

Exponents = tuple[int, ...]
RationalLike = Union[Fraction, int]


def _apply_n(step, value, n: int):
    """``step`` applied ``n`` times to ``value``: the loop behind dbar^n and powers."""
    if n < 0:
        raise ValueError("order must be >= 0")
    for _ in range(n):
        value = step(value)
    return value


def _add_exponents(ea: Exponents, eb: Exponents) -> Exponents:
    return tuple(map(add, ea, eb))


def _left_key(ka, kb):
    return ka


def _right_key(ka, kb):
    return kb


def _from_product(poly: "CoordPoly", left, right, combine) -> "CoordPoly":
    """The polynomial ``_int_product(left, right, combine)`` in the frame of ``poly``."""
    sig = poly.signature
    den, acc = _int_product(left, right, combine)
    terms = {e: AlgebraElement._from_ints(sig, ints, den) for e, ints in acc.items()}
    return CoordPoly._make(sig, poly.var_count, terms)


def _int_map(poly: "CoordPoly", var_count: int, move, scale: int = 1) -> "CoordPoly":
    """One pass over the integer rows of ``poly``, a linear map on its terms.

    ``move(e)`` gives the output key of term ``e`` and an ``int`` factor for its
    numerators; a factor 0 drops the term.  Terms meeting on one key add up,
    and each output coefficient is built once, over the common coefficient
    denominator times ``scale``.
    """
    den, rows = _int_rows(poly.terms.items())
    acc: dict = {}
    for e, masks, nums in rows:
        key, k = move(e)
        if not k:
            continue
        out = acc.get(key)
        if out is None:
            out = acc[key] = {}
        for mask, n in zip(masks, nums):
            out[mask] = out.get(mask, 0) + n * k
    den *= scale
    sig = poly.signature
    terms = {key: AlgebraElement._from_ints(sig, ints, den) for key, ints in acc.items()}
    return CoordPoly._make(sig, var_count, terms)


class CoordPoly:
    """Polynomial in central real variables with AlgebraElement coefficients."""

    __slots__ = ("signature", "var_count", "terms", "_hash", "_ints")

    def __init__(
        self,
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
            if not coeff.is_zero():
                clean[exps] = coeff
        self.signature = signature
        self.var_count = var_count
        self.terms = clean
        self._hash = None
        self._ints = None

    @classmethod
    def _make(cls, signature, var_count, raw: dict[Exponents, AlgebraElement]):
        """Fast path: assumes keys/signatures are valid, only prunes zeros."""
        obj = object.__new__(cls)
        obj.signature = signature
        obj.var_count = var_count
        obj.terms = {e: c for e, c in raw.items() if not c.is_zero()}
        obj._hash = None
        obj._ints = None
        return obj

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, signature, var_count: int) -> "CoordPoly":
        return cls._make(signature, var_count, {})

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
        return cls(signature, var_count, {exps: AlgebraElement.one(signature)})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_real_scalar(self) -> bool:
        return all(c.is_scalar() for c in self.terms.values())

    def total_degree(self) -> int:
        """Maximum monomial degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

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
        acc = dict(self.terms)
        for e, c in other.terms.items():
            prev = acc.get(e)
            acc[e] = c if prev is None else prev + c
        return CoordPoly._make(self.signature, self.var_count, acc)

    def __neg__(self):
        return CoordPoly._make(
            self.signature, self.var_count, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, CoordPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, CoordPoly):
            self._require_compatible(other)
            return _from_product(self, self.terms.items(), other.terms.items(), _add_exponents)
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            n = q.numerator
            return _int_map(self, self.var_count, lambda e: (e, n), q.denominator)
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
        return _from_product(self, ((None, coeff),), self.terms.items(), _right_key)

    def scale_right(self, coeff: AlgebraElement) -> "CoordPoly":
        self._require_coeff(coeff)
        return _from_product(self, self.terms.items(), ((None, coeff),), _left_key)

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
        """The value at ``point``, added up in integers and divided once per blade.

        The integer form cached on the polynomial holds the common coefficient
        denominator L, the total degree D, the largest exponent per variable,
        and per term its nonzero (variable, exponent) pairs, D - |e| and the
        integer numerators N over L.  With the point over a common denominator
        d (integer numerators a_i), a term contributes N prod(a_i^e_i)
        d^(D - |e|) over L d^D.
        """
        if len(point) != self.var_count:
            raise ArityMismatchError(
                f"point arity {len(point)} != var count {self.var_count}"
            )
        if self._ints is None:
            den, rows = _int_rows(self.terms.items())
            degree = max((sum(e) for e in self.terms), default=0)
            tops = [max((e[i] for e in self.terms), default=0) for i in range(self.var_count)]
            rows = [
                (tuple((i, k) for i, k in enumerate(e) if k), degree - sum(e), [*zip(masks, nums)])
                for e, masks, nums in rows
            ]
            self._ints = (den, degree, tops, rows)
        den, degree, tops, rows = self._ints
        pt = [p if isinstance(p, Fraction) else Fraction(p) for p in point]
        d = lcm(*[p.denominator for p in pt])
        pows = []
        for p, top in zip(pt, tops):
            a = p.numerator * (d // p.denominator)
            pows.append([a**k for k in range(top + 1)])
        d_pows = [d**k for k in range(degree + 1)]
        acc: dict[int, int] = {}
        for factors, gap, ints in rows:
            scalar = d_pows[gap]
            for i, k in factors:
                scalar *= pows[i][k]
            if not scalar:
                continue
            for mask, n in ints:
                acc[mask] = acc.get(mask, 0) + n * scalar
        return AlgebraElement._from_ints(self.signature, acc, den * d_pows[degree])

    # -- helpers for denominators ---------------------------------------------

    def scalar_coeff(self, exps: Exponents) -> Fraction:
        c = self.terms.get(tuple(exps))
        return c.scalar_part() if c is not None else Fraction(0)

    def _leading_key(self) -> Exponents:
        """Graded-lex maximal exponent vector (zero polynomial not allowed)."""
        return max(self.terms, key=lambda e: (sum(e), e))

    def sort_key(self):
        """Deterministic ordering key; meaningful for real-scalar polynomials."""
        items = []
        for e in sorted(self.terms):
            c = self.terms[e].scalar_part()
            items.append((e, c.numerator, c.denominator))
        return (self.var_count, tuple(items))

    # -- comparisons -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, CoordPoly):
            return NotImplemented
        return (
            self.signature == other.signature
            and self.var_count == other.var_count
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.signature, self.var_count, frozenset(self.terms.items()))
            )
        return self._hash

    def __repr__(self):
        if not self.terms:
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
    top = max((sum(e) - e[0] for e in poly.terms), default=0)
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
    nums = []
    dens = []
    for c in poly.terms.values():
        q = c.scalar_part()
        nums.append(abs(q.numerator))
        dens.append(q.denominator)
    content = Fraction(gcd(*nums), lcm(*dens))
    lead = poly.scalar_coeff(poly._leading_key())
    if lead < 0:
        content = -content
    primitive = poly * (Fraction(1) / content)
    return primitive, content


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
        return AlgebraElement(self.signature, {m: c / den for m, c in value.coeffs.items()})

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
