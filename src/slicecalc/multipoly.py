"""Multivariate polynomials and rational functions with algebra coefficients.

Variables are real-valued and central (they commute with everything); the
noncommutative coefficients sit on the left of each monomial, so a product of
terms multiplies coefficients in order.  Rational functions keep a polynomial
numerator over a real-scalar denominator stored in factored form: one
quotient rule raises by one every factor that the derivation does not kill
and its caller (G, for its radial factors) does not keep, and divides nothing;
exact division by known factors (``_divide_exact``, and ``_cancel`` over it)
lowers an exponent wherever a factor divides the numerator, so no gcd is needed.

A polynomial stores, per monomial, one Python ``int`` numerator per blade, all
over one positive denominator in lowest terms; ``terms`` gives the coefficients
as ``AlgebraElement``s.  The product goes through the integer core of the
algebra product, and so does scaling by an algebra element, as the one row
keyed by the empty monomial ``()``.  Sums, differences, negation, scaling by
a rational, partial derivatives and each component of the stem operator
dF/dz-bar are linear maps, each one pass over the integer rows of its inputs
with one ``int`` factor per term (``_int_map``); a sign is such a factor, so a
difference builds no negated copy.  The plane operator (d/dalpha + I
d/dbeta)/2 (``plane_dbar``), the operator G = s d/dx_0 + Im(x) sum_h x_h
d/dx_h with a radial shift (``g_op``) and slice restriction, on the
direction's own integer numerators (``restrict_poly``), are one pass each.
Sum, difference and equality of rational functions share one step that puts
both numerators over the shared factors, each at the larger of its two
exponents, and multiplies a numerator only by a cofactor that is not 1;
equality then compares the two canonical numerators, so it builds no
polynomial when the factors already agree.

Point evaluation is one integer pass at one point (``_eval_int``): the point
is put over a common denominator d, every term is homogenized to the total
degree with powers of d, and the terms' integer rows add up in one
accumulator, so a polynomial's value is one integer row over one
denominator.  A rational function evaluates its factors first, raises at
one that vanishes before it touches the numerator, and scales the
numerator's row by the factors' integer values.  ``eval`` builds one
``AlgebraElement`` from that row.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import chain, combinations, islice
from math import gcd, lcm, prod
from operator import add, sub
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .algebra import (
    AlgebraElement,
    AlgebraSignature,
    RationalLike,
    _add_scaled,
    _int_product,
    _over_common_den,
)
from .errors import (
    ArityMismatchError,
    DenominatorVanishesError,
    SignatureMismatchError,
    ZeroDenominatorError,
)

Exponents = tuple[int, ...]


def _point_over_common_den(
    point: Sequence[RationalLike], var_count: int
) -> tuple[list[int], int]:
    """``point``'s integer coordinates over their least common denominator."""
    if len(point) != var_count:
        raise ArityMismatchError(f"point arity {len(point)} != var count {var_count}")
    return _over_common_den(point)


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


def _partial_move(index: int, sign: int = 1):
    """The ``_int_map`` move of ``sign`` * d/dx_index."""
    return lambda e: ((*e[:index], e[index] - 1, *e[index + 1 :]), sign * e[index])


def _int_map(sources, var_count: int, scale: int = 1) -> "CoordPoly":
    """One pass over the integer rows of each (poly, move) in ``sources``: a sum of linear maps.

    ``move`` is an ``int`` factor for every numerator, each term keeping its
    key (so a sign is the factor -1), or a function: ``move(e)`` gives the
    output key of term ``e`` and an ``int`` factor for its numerators.  A
    factor 0 drops the term.  Terms meeting on one key add up over the lcm of
    the sources' denominators times ``scale``.
    """
    den = lcm(*[poly.den for poly, _ in sources])
    acc: dict = {}
    for poly, move in sources:
        r = den // poly.den
        if isinstance(move, int):
            for e, nums in poly.rows.items():
                _add_scaled(acc.setdefault(e, {}), nums, move * r)
            continue
        for e, nums in poly.rows.items():
            key, k = move(e)
            if k:
                _add_scaled(acc.setdefault(key, {}), nums, k * r)
    return CoordPoly._make(sources[0][0].signature, var_count, acc, den * scale)


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

    def __reduce__(self):
        # pickled by its canonical fields, so an error carrying a residual stem
        # crosses from a forked campaign run
        return CoordPoly._make, (self.signature, self.var_count, self.rows, self.den)

    # -- constructors --------------------------------------------------------

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
        return _int_map(((self, 1), (other, 1)), self.var_count)

    def __neg__(self):
        return _int_map(((self, -1),), self.var_count)

    def __sub__(self, other):
        if not isinstance(other, CoordPoly):
            return NotImplemented
        self._require_compatible(other)
        return _int_map(((self, 1), (other, -1)), self.var_count)

    def __mul__(self, other):
        if isinstance(other, CoordPoly):
            self._require_compatible(other)
            acc = _int_product(self.rows.items(), other.rows.items())
            return CoordPoly._make(self.signature, self.var_count, acc, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return _int_map(((self, other.numerator),), self.var_count, other.denominator)
        return NotImplemented

    def _require_coeff(self, coeff: AlgebraElement) -> None:
        if coeff.signature != self.signature:
            raise SignatureMismatchError("coefficient signature mismatch")

    def scale_left(self, coeff: AlgebraElement) -> "CoordPoly":
        """coeff * self: one product with ``coeff`` as the left row keyed ``()``."""
        self._require_coeff(coeff)
        acc = _int_product((((), coeff.nums),), self.rows.items())
        return CoordPoly._make(self.signature, self.var_count, acc, coeff.den * self.den)

    def scale_right(self, coeff: AlgebraElement) -> "CoordPoly":
        self._require_coeff(coeff)
        acc = _int_product(self.rows.items(), (((), coeff.nums),))
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
        return _int_map(((self, _partial_move(index)),), self.var_count)

    def plane_dbar(self, unit: AlgebraElement) -> "CoordPoly":
        """(d/dalpha + unit d/dbeta) / 2 in (alpha, beta), unit on the left, in one pass."""
        self._require_coeff(unit)
        acc: dict = {}
        beta_rows = []
        for (a, b), nums in self.rows.items():
            if a:
                _add_scaled(acc.setdefault((a - 1, b), {}), nums, a * unit.den)
            if b:
                beta_rows.append(((a, b - 1), {m: n * b for m, n in nums.items()}))
        _int_product((((), unit.nums),), beta_rows, acc)
        return CoordPoly._make(self.signature, 2, acc, self.den * unit.den * 2)

    def g_op(self, shift: int = 0) -> "CoordPoly":
        """s d/dx_0 + Im(x) (R - shift) in one pass, R = sum_h x_h d/dx_h over x_1..x_n.

        With shift 0 this is G = |Im x|^2 d/dx_0 + Im(x) R, Im(x) on the left.
        G(F^k) = k deg(F) Im(x) F^k for a radial F, free of x_0 and homogeneous
        in x_1..x_n as s is, so G(N / D) = N.g_op(sum k deg F) / D for D a product
        of such F^k.  One loop collects the d/dx_0 rows and the rows times
        (x'-degree - shift); two products add them times s and Im(x) into one.
        """
        sig = self.signature
        d0_rows, radial_rows = [], []
        for e, nums in self.rows.items():
            if e[0]:
                d0_rows.append(((e[0] - 1, *e[1:]), {m: n * e[0] for m, n in nums.items()}))
            k = sum(e) - e[0] - shift
            if k:
                radial_rows.append((e, {m: n * k for m, n in nums.items()}))
        acc = _int_product(coord_s(sig).rows.items(), d0_rows)
        _int_product(coord_im(sig).rows.items(), radial_rows, acc)
        return CoordPoly._make(sig, self.var_count, acc, self.den)

    def eval(self, point: Sequence[RationalLike]) -> AlgebraElement:
        """The value at ``point``, added up in integers over one denominator."""
        coords, d = _point_over_common_den(point, self.var_count)
        return AlgebraElement._make(self.signature, *self._eval_int(coords, d))

    def _eval_int(self, coords: Sequence[int], d: int) -> tuple[dict[int, int], int]:
        """The value at the point ``coords`` / ``d`` as (numerators per blade, denominator).

        With D the total degree, the term with exponents e and numerators N
        contributes N prod(a_i^e_i) d^(D - |e|) over den d^D.  Not canonical:
        ``AlgebraElement._make`` reduces it.
        """
        degrees = [sum(e) for e in self.rows]
        top = max(degrees, default=0)
        acc: dict[int, int] = {}
        for (e, nums), k in zip(self.rows.items(), degrees):
            scalar = prod(map(pow, coords, e), start=d ** (top - k))
            if scalar:
                _add_scaled(acc, nums, scalar)
        return acc, self.den * d**top

    # -- helpers for denominators ---------------------------------------------

    def _leading_key(self) -> Exponents:
        """Graded-lex maximal exponent vector (zero polynomial not allowed)."""
        return max(self.rows, key=lambda e: (sum(e), e))

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
    rows = {
        tuple(int(j == h) for j in range(n)): {mask: 1}
        for h, mask in enumerate(signature.imag_masks, start=1)
    }
    return CoordPoly._make(signature, n, rows, 1)


@cache
def coord_s(signature: AlgebraSignature) -> CoordPoly:
    """|Im(x)|^2 = sum_h x_h^2 as a real polynomial."""
    n = signature.coord_count
    rows = {tuple(2 * (j == h) for j in range(n)): {0: 1} for h in range(1, n)}
    return CoordPoly._make(signature, n, rows, 1)


def restrict_poly(poly: CoordPoly, direction: AlgebraElement) -> CoordPoly:
    """Substitute x_0 <- alpha and x_h <- d_h beta, d_h the components of ``direction``.

    For an imaginary unit's value this is the slice restriction, in (alpha, beta).
    The stored numerators a_h are over u = ``direction.den``, their least common
    denominator; every term is homogenized to u^top, top the largest beta degree,
    as in ``CoordPoly.eval``, so the terms add up in one integer pass.
    """
    sig = poly.signature
    if direction.signature != sig:
        raise SignatureMismatchError("slice direction signature mismatch")
    masks = sig.imag_masks
    if direction.nums.keys() - masks:
        raise ValueError("slice direction must lie in the imaginary span")
    nums = [direction.nums.get(m, 0) for m in masks]
    top = max((sum(e) - e[0] for e in poly.rows), default=0)
    u_pows = [direction.den**k for k in range(top + 1)]
    acc: dict = {}
    for e, row in poly.rows.items():
        deg = sum(e) - e[0]
        k = prod(map(pow, nums, e[1:]), start=u_pows[top - deg])
        if k:
            _add_scaled(acc.setdefault((e[0], deg), {}), row, k)
    return CoordPoly._make(sig, 2, acc, poly.den * u_pows[top])


# -- exact division by a known factor ---------------------------------------------


def _descending(e: Exponents):
    """Heap key that pops exponent vectors in descending graded-lex order."""
    return -sum(e), tuple(-k for k in e), e


def _divide_exact(numer: CoordPoly, p: CoordPoly) -> "CoordPoly | None":
    """numer / p if the primitive real-scalar factor ``p`` divides ``numer``, else None.

    Graded-lex division by the one divisor ``p`` on the integer rows.  With one
    divisor the remainder is zero exactly when ``p`` divides, so the first
    leading term that LT(p) does not divide ends it.  ``p`` is primitive, so by
    Gauss's lemma an exact quotient has integer numerators over ``numer.den``,
    and a leading numerator that p's leading coefficient does not divide also
    means "does not divide".
    """
    lead = p._leading_key()
    c = p.rows[lead][0]
    tail = [(e, nums[0]) for e, nums in p.rows.items() if e != lead]
    rest = {e: dict(nums) for e, nums in numer.rows.items()}
    heap = [_descending(e) for e in rest]
    heapify(heap)
    quot: dict = {}
    while heap:
        e = heappop(heap)[2]
        nums = {m: n for m, n in rest.pop(e).items() if n}
        if not nums:
            continue
        shift = tuple(map(sub, e, lead))
        if min(shift) < 0:
            return None
        row = {}
        for m, n in nums.items():
            q, r = divmod(n, c)
            if r:
                return None
            row[m] = q
        quot[shift] = row
        # every key below is graded-lex smaller than e, so none was popped before
        for t, k in tail:
            key = tuple(map(add, shift, t))
            out = rest.get(key)
            if out is None:
                out = rest[key] = {}
                heappush(heap, _descending(key))
            _add_scaled(out, row, -k)
    return CoordPoly._make(numer.signature, numer.var_count, quot, numer.den)


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
    return poly * Fraction(poly.den, g), Fraction(g, poly.den)


class RationalFn:
    """Quotient of a CoordPoly by a product of real-scalar polynomial factors."""

    __slots__ = ("numer", "den_factors")

    def __init__(
        self,
        numer: CoordPoly,
        den_factors: Iterable[tuple[CoordPoly, int]] = (),
    ):
        scaled = numer
        # first-seen order: RationalFn equality compares values, so no order is needed
        merged: dict[CoordPoly, int] = {}
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
                merged[primitive] = merged.get(primitive, 0) + k
            # constant primitive factors reduce to 1 and are dropped
        self.numer = scaled
        self.den_factors = tuple(merged.items())

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

    def _over_shared_factors(
        self, other: "RationalFn"
    ) -> tuple[CoordPoly, CoordPoly, tuple[tuple[CoordPoly, int], ...]]:
        """Both numerators over the shared factors, each at the larger of its two exponents.

        A numerator is multiplied only by a cofactor that is not 1.
        """
        self.numer._require_compatible(other.numer)
        mine = dict(self.den_factors)
        theirs = dict(other.den_factors)
        shared = dict(mine)
        for p, k in theirs.items():
            shared[p] = max(shared.get(p, 0), k)
        cof_self = cof_other = None
        for p, k in shared.items():
            d_self = k - mine.get(p, 0)
            d_other = k - theirs.get(p, 0)
            if d_self:
                cof_self = _times(p**d_self, cof_self)
            if d_other:
                cof_other = _times(p**d_other, cof_other)
        factors = tuple(shared.items())
        return _times(self.numer, cof_self), _times(other.numer, cof_other), factors

    def __add__(self, other):
        if not isinstance(other, RationalFn):
            return NotImplemented
        mine, theirs, factors = self._over_shared_factors(other)
        return RationalFn._make(mine + theirs, factors)

    def __sub__(self, other):
        if not isinstance(other, RationalFn):
            return NotImplemented
        mine, theirs, factors = self._over_shared_factors(other)
        return RationalFn._make(mine - theirs, factors)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFn._make(self.numer * other, self.den_factors)
        return NotImplemented

    def mul_poly_left(self, poly: CoordPoly) -> "RationalFn":
        return RationalFn._make(poly * self.numer, self.den_factors)

    # -- calculus --------------------------------------------------------------------

    def derive(self, d) -> "RationalFn":
        """The image under a derivation ``d`` by the quotient rule; see ``_quotient_rule``.

        A factor dividing its own image goes up a power too; ``_cancel`` reduces it.
        """
        return self._quotient_rule(d(self.numer), d)

    def _quotient_rule(self, numer: CoordPoly, d, kept: Collection[CoordPoly] = ()) -> "RationalFn":
        """The quotient rule of a derivation ``d``, given ``numer``, the image of the numerator.

        ``d`` obeys d(QN) = d(Q) N + Q d(N) for real-scalar Q; d(F) of a real factor
        F may have algebra coefficients (the plane operator's does), so it multiplies
        N from the left.  With R the product of the factors raised so far, a
        factor F^k with dF != 0 goes up to F^(k+1): numer <- numer F - k dF N R.
        One with dF = 0 keeps its exponent, as does one in ``kept``, whose share
        ``numer`` holds.  Nothing is divided: partials and the plane operator lower
        the degree, so dF = qF forces dF = 0; a rotation field with dF = cF, c != 0,
        would make F grow along a periodic rotation; G keeps its radial factors.
        """
        raised = None
        factors = []
        for p, k in self.den_factors:
            if p not in kept and (dp := d(p)).rows:
                numer = numer * p - _times((dp * k) * self.numer, raised)
                raised = _times(p, raised)
                k += 1
            factors.append((p, k))
        return RationalFn._make(numer, tuple(factors))

    # -- evaluation --------------------------------------------------------------------

    def eval(self, point: Sequence[RationalLike]) -> AlgebraElement:
        """The value at ``point`` in one integer pass.

        A factor F^k whose value at the point is v / w multiplies the
        numerator's integer row by w^k and its denominator by v^k.  Every
        factor is evaluated first, so one that vanishes raises before the
        numerator is evaluated.
        """
        coords, d = _point_over_common_den(point, self.var_count)
        scale = divisor = 1
        for p, k in self.den_factors:
            row, w = p._eval_int(coords, d)
            if not row.get(0):
                raise DenominatorVanishesError(Fraction(a, d) for a in coords)
            scale *= w**k
            divisor *= row[0] ** k
        nums, den = self.numer._eval_int(coords, d)
        if scale != 1:
            nums = {m: n * scale for m, n in nums.items()}
        return AlgebraElement._make(self.signature, nums, den * divisor)

    # -- comparisons -----------------------------------------------------------------------

    def __eq__(self, other):
        """Exact value equality: the numerators over the shared factors are equal.

        ``_make`` gives every polynomial one canonical form, so ``CoordPoly.__eq__``
        compares values.
        """
        if isinstance(other, CoordPoly):
            other = RationalFn.from_poly(other)
        if not isinstance(other, RationalFn):
            return NotImplemented
        if self.signature != other.signature or self.var_count != other.var_count:
            return False
        mine, theirs, _ = self._over_shared_factors(other)
        return mine == theirs

    __hash__ = None

    def __repr__(self):
        if not self.den_factors:
            return f"RationalFn({self.numer!r})"
        return f"RationalFn({self.numer!r} / {self.den_factors!r})"


def _off_a_zero_of_s(numer: CoordPoly) -> bool:
    """True if ``numer`` is not zero on all the complex zeros x_a = t, x_b = i t of s.

    s = sum_h x_h^2 vanishes there (a < b in x_1..x_n, every other x_h = 0, x_0
    free), and so does any multiple of s: True means s does not divide
    ``numer``.  Each pair keeps the terms in x_0, x_a, x_b alone, as
    Gaussian-integer rows keyed by (x_0-degree, t-degree), i^j giving a part
    (real or imaginary) and a sign.  A term in x_0 alone survives every pair.
    """
    rows = [(e, nums, sum(e) - e[0]) for e, nums in numer.rows.items()]
    if not all(deg for _, _, deg in rows):
        return True
    for a, b in combinations(range(1, numer.var_count), 2):
        acc: dict = {}
        for e, nums, deg in rows:
            j = e[b]
            if e[a] + j == deg:
                _add_scaled(acc.setdefault((e[0], deg, j & 1), {}), nums, -1 if j & 2 else 1)
        if any(any(row.values()) for row in acc.values()):
            return True
    return False


def _cancel(rf: RationalFn) -> RationalFn:
    """``rf`` with each denominator factor divided out of the numerator while it divides.

    Each exact division lowers that factor's exponent by one; a factor that
    reaches exponent 0 is dropped.  The candidates are the factors ``rf``
    already has, so no gcd is needed.  Before each trial division by s,
    ``_off_a_zero_of_s`` may refute it without building a remainder.
    """
    numer = rf.numer
    s = coord_s(rf.signature)
    factors = []
    for p, k in rf.den_factors:
        while k and not (p == s and _off_a_zero_of_s(numer)):
            q = _divide_exact(numer, p)
            if q is None:
                break
            numer, k = q, k - 1
        if k:
            factors.append((p, k))
    return RationalFn._make(numer, tuple(factors))


def restrict_rf(rf: RationalFn, direction: AlgebraElement) -> RationalFn:
    """Slice restriction of a rational function along ``direction``; see restrict_poly.

    Raises ZeroDenominatorError if a denominator factor restricts to zero.
    """
    numer = restrict_poly(rf.numer, direction)
    factors = [(restrict_poly(p, direction), k) for p, k in rf.den_factors]
    if not factors:
        return RationalFn.from_poly(numer)
    if any(q.is_zero() for q, _ in factors):
        comps = ", ".join(str(direction.coeff(m)) for m in direction.signature.imag_masks)
        raise ZeroDenominatorError(
            f"denominator vanishes identically on the slice of the unit ({comps})"
        )
    return RationalFn(numer, factors)
