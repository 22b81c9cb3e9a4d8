"""Exact arithmetic kernel for the quaternions and the Clifford algebras Cl(0, m).

Elements carry arbitrary-precision rational coefficients over the blade basis,
so every identity checked downstream is an equality of exact rationals instead
of a floating-point comparison.  An element stores one Python ``int``
numerator per blade over one positive common denominator, in lowest terms, so
sums and products add up integers (``_int_product`` is shared with the
polynomial product: exponent keys add, and an element is the one row keyed by
the empty monomial ``()``; a row whose only blade is the scalar blade, such as
a real coefficient, scales the other row instead of looking up blade
products).  A difference is one pass adding self + sign *
other with sign -1, and a negation is scaling by -1.  ``Fraction`` is the
API-edge type: constructors take rationals, and ``coeffs`` and ``coeff()``
give normalized ``Fraction``s.  Quaternions are stored on the two-generator
blade basis (i, j, k = e1, e2, e1e2), which makes the classical multiplication
table a special case of the general blade product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm
from operator import add
from random import Random
from typing import Iterable, Mapping, Union

from .errors import SignatureMismatchError

RationalLike = Union[Fraction, int]

# The largest Clifford m, since an element, a polynomial row and the spec parser's
# table of blade names grow with dim = 2^m: Cl(0, 8) has 256 blades.
MAX_CLIFFORD_M = 8


@dataclass(frozen=True)
class AlgebraSignature:
    """Identifies the ambient algebra: quaternions or Cl(0, m) with 2 <= m <= 8."""

    kind: str
    m: int

    def __post_init__(self):
        if self.kind == "quaternion":
            if self.m != 2:
                raise ValueError("the quaternion signature is fixed at two blade generators")
        elif self.kind == "clifford":
            if self.m < 2:
                raise ValueError("clifford signature requires m >= 2")
            if self.m > MAX_CLIFFORD_M:
                raise ValueError(f"clifford m = {self.m} exceeds the limit {MAX_CLIFFORD_M}")
        else:
            raise ValueError(f"unknown algebra kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return 1 << self.m

    @property
    def imag_dim(self) -> int:
        """Number of imaginary coordinate axes: 3 for quaternions, m otherwise."""
        return 3 if self.kind == "quaternion" else self.m

    @property
    def coord_count(self) -> int:
        """Coordinates x_0..x_n of a paravector (or of a full quaternion)."""
        return self.imag_dim + 1

    # computed once per instance into its __dict__, which __setattr__ does not
    # guard; equality and hashing stay on the fields
    @cached_property
    def imag_masks(self) -> tuple[int, ...]:
        """Blade masks spanning the imaginary-unit sphere, in coordinate order."""
        if self.kind == "quaternion":
            return (1, 2, 3)
        return tuple(1 << t for t in range(self.m))

    def blade_name(self, mask: int) -> str:
        if mask == 0:
            return "1"
        if self.kind == "quaternion":
            return {1: "i", 2: "j", 3: "k"}[mask]
        return "e" + "".join(str(t + 1) for t in range(self.m) if mask & (1 << t))


QUATERNION = AlgebraSignature("quaternion", 2)


def clifford(m: int) -> AlgebraSignature:
    return AlgebraSignature("clifford", m)


# Memoized per pair of masks actually multiplied, never as a dense dim x dim
# table built up front, which has 2^16 entries on Cl(0, 8).
@cache
def _blade_mul(ma: int, mb: int) -> tuple[int, int]:
    """Product of basis blades: result mask and sign.

    Sign counts the transpositions needed to sort the concatenated generator
    lists, then applies one factor -1 per repeated generator (e_j^2 = -1).
    """
    a = ma >> 1
    swaps = 0
    while a:
        swaps += (a & mb).bit_count()
        a >>= 1
    sign = -1 if swaps & 1 else 1
    if (ma & mb).bit_count() & 1:
        sign = -sign
    return ma ^ mb, sign


def _add_scaled(out: dict, nums: Mapping[int, int], k: int) -> None:
    """out[mask] += k * nums[mask] for every mask of ``nums``."""
    for mask, n in nums.items():
        out[mask] = out.get(mask, 0) + n * k


def _int_product(left, right, acc: dict | None = None):
    """Integer core of the algebra and polynomial products.

    ``left`` and ``right`` are sequences of (exponents, numerators) rows,
    multiplied in order, each side over one denominator that the caller keeps.
    Every pair of rows adds its blade products under the sum of its exponent
    vectors, where ``()`` is the empty monomial: an algebra element, or a
    coefficient scaling a polynomial, is one row keyed ``()``.  A row whose
    only blade is the scalar one scales the other row, which skips the blade
    table and visits the masks in the same order.  Returns
    ``{key: {mask: numerator}}`` over the product of the two denominators,
    added into ``acc`` when given, so a sum of products fills one accumulator.
    """
    acc = {} if acc is None else acc
    for ka, nums_a in left:
        real_a = nums_a.get(0) if len(nums_a) == 1 else None
        for kb, nums_b in right:
            key = kb if not ka else ka if not kb else tuple(map(add, ka, kb))
            out = acc.get(key)
            if out is None:
                out = acc[key] = {}
            if real_a is not None:
                for mb, nb in nums_b.items():
                    out[mb] = out.get(mb, 0) + real_a * nb
                continue
            if len(nums_b) == 1 and 0 in nums_b:
                real_b = nums_b[0]
                for ma, na in nums_a.items():
                    out[ma] = out.get(ma, 0) + na * real_b
                continue
            for ma, na in nums_a.items():
                for mb, nb in nums_b.items():
                    mask, sign = _blade_mul(ma, mb)
                    prev = out.get(mask, 0)
                    out[mask] = prev + na * nb if sign > 0 else prev - na * nb
    return acc


def _over_common_den(values: Iterable[RationalLike]) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over their least common denominator."""
    qs = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = lcm(*[q.denominator for q in qs])
    return [q.numerator * (den // q.denominator) for q in qs], den


class AlgebraElement:
    """An algebra value: integer numerators per blade over one denominator.

    The canonical form, made by ``_make`` alone, has ``den > 0``, no zero
    numerator, and no common factor of ``den`` and all numerators, so equal
    values have equal fields.
    """

    __slots__ = ("signature", "nums", "den")

    def __new__(cls, signature: AlgebraSignature, coeffs: Mapping[int, RationalLike]):
        for mask in coeffs:
            if not 0 <= mask < signature.dim:
                raise ValueError(f"blade mask {mask} out of range for {signature}")
        nums, den = _over_common_den(coeffs.values())
        return cls._make(signature, dict(zip(coeffs, nums)), den)

    @classmethod
    def _make(
        cls, signature: AlgebraSignature, nums: dict[int, int], den: int
    ) -> "AlgebraElement":
        """``nums[mask] / den`` in canonical form; masks are valid and ``den`` is nonzero.

        ``nums`` is kept when it is canonical already, so callers pass a dict
        that nothing mutates afterwards.
        """
        g = gcd(den, *nums.values())
        if den < 0:
            g = -g
        if g != 1 or not all(nums.values()):
            nums = {m: n // g for m, n in nums.items() if n}
        obj = object.__new__(cls)
        obj.signature = signature
        obj.nums = nums
        obj.den = den // g
        return obj

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, signature: AlgebraSignature) -> "AlgebraElement":
        return cls(signature, {})

    @classmethod
    def scalar(cls, signature: AlgebraSignature, value: RationalLike) -> "AlgebraElement":
        return cls(signature, {0: value})

    @classmethod
    def one(cls, signature: AlgebraSignature) -> "AlgebraElement":
        return cls.scalar(signature, 1)

    @classmethod
    def basis(cls, signature: AlgebraSignature, mask: int) -> "AlgebraElement":
        return cls(signature, {mask: 1})

    # -- basic structure ---------------------------------------------------

    @property
    def coeffs(self) -> dict[int, Fraction]:
        """A new dict of the nonzero coefficients as normalized ``Fraction``s."""
        return {m: Fraction(n, self.den) for m, n in self.nums.items()}

    def coeff(self, mask: int) -> Fraction:
        return Fraction(self.nums.get(mask, 0), self.den)

    def is_zero(self) -> bool:
        return not self.nums

    # -- arithmetic --------------------------------------------------------

    def _require_same(self, other: "AlgebraElement") -> None:
        if self.signature != other.signature:
            raise SignatureMismatchError(
                f"cannot combine {self.signature} with {other.signature}"
            )

    def _signed_sum(self, other, sign: int):
        """self + sign * other in one pass over both numerator rows."""
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._require_same(other)
        den = lcm(self.den, other.den)
        nums: dict[int, int] = {}
        _add_scaled(nums, self.nums, den // self.den)
        _add_scaled(nums, other.nums, sign * (den // other.den))
        return AlgebraElement._make(self.signature, nums, den)

    def __add__(self, other):
        return self._signed_sum(other, 1)

    def __sub__(self, other):
        return self._signed_sum(other, -1)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._require_same(other)
            acc = _int_product((((), self.nums),), (((), other.nums),))
            return AlgebraElement._make(self.signature, acc.get((), {}), self.den * other.den)
        if isinstance(other, (int, Fraction)):
            k = other.numerator
            nums = {m: n * k for m, n in self.nums.items()}
            return AlgebraElement._make(self.signature, nums, self.den * other.denominator)
        return NotImplemented

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (
            self.signature == other.signature
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.signature, self.den, frozenset(self.nums.items())))

    def __repr__(self):
        if not self.nums:
            return "0"
        parts = []
        for mask, c in sorted(self.coeffs.items()):
            name = self.signature.blade_name(mask)
            parts.append(f"{c}" if mask == 0 else f"{c}*{name}")
        return " + ".join(parts)


class ImaginaryUnit(AlgebraElement):
    """A rational point of the imaginary-unit sphere: Re = 0 and I*I = -1.

    A unit is the element itself, checked once, at construction: on the
    imaginary span of H and of every Cl(0, m), I*I = -|I|^2, so the product is
    checked as the integer identity sum(n^2) = den^2 on the stored numerators,
    with no algebra product.  It compares, hashes and multiplies as the element.
    """

    __slots__ = ()

    def __new__(cls, value: AlgebraElement):
        allowed = set(value.signature.imag_masks)
        if any(mask not in allowed for mask in value.nums):
            raise ValueError("imaginary unit must lie in the imaginary span")
        if sum(n * n for n in value.nums.values()) != value.den**2:
            raise ValueError("imaginary unit must square to -1 exactly")
        obj = object.__new__(cls)
        obj.signature, obj.nums, obj.den = value.signature, value.nums, value.den
        return obj

    def components(self) -> tuple[Fraction, ...]:
        """Coefficients along the imaginary coordinate axes, in order."""
        return tuple(self.coeff(m) for m in self.signature.imag_masks)

    def __neg__(self):
        return ImaginaryUnit(self * -1)


def stereographic_unit(
    signature: AlgebraSignature, params: Iterable[RationalLike]
) -> ImaginaryUnit:
    """Rational chart of the unit sphere centered at the first canonical unit.

    With the parameters written n_2/d, ..., n_n/d over their least common
    denominator d and N = sum(n_h^2),

        I = ((d^2 - N) u_1 + sum_h 2 d n_h u_h) / (d^2 + N),

    built in integers, so every rational parameter vector yields a unit with
    rational components and I*I = -1 exactly; (0, ..., 0) maps to u_1 itself.
    """
    nums, d = _over_common_den(params)
    if len(nums) != signature.imag_dim - 1:
        raise ValueError(
            f"expected {signature.imag_dim - 1} chart parameters, got {len(nums)}"
        )
    norm = sum(n * n for n in nums)
    first, *rest = signature.imag_masks
    value = {first: d * d - norm, **{m: 2 * d * n for m, n in zip(rest, nums)}}
    return ImaginaryUnit(AlgebraElement._make(signature, value, d * d + norm))


# the chart's parameter values: every a/b with |a| <= 12 and 1 <= b <= 8, with 0
# and 1 first so that the canonical units are the images of chart index 0 and
# of the indices 127^h (see sample_units)
_CHART = (
    Fraction(0),
    Fraction(1),
    *sorted({Fraction(a, b) for a in range(-12, 13) for b in range(1, 9)} - {0, 1}),
)


def unit_capacity(signature: AlgebraSignature) -> int:
    """How many distinct units ``sample_units`` can return for ``signature``.

    The chart is injective and its image holds the canonical units, so that is
    one unit per vector of chart parameters: 127 on Cl(0,2), 127^2 on the
    quaternions and Cl(0,3).
    """
    return len(_CHART) ** (signature.imag_dim - 1)


def sample_units(signature: AlgebraSignature, seed: int, count: int) -> list[ImaginaryUnit]:
    """Deterministic rational sample of the imaginary-unit sphere.

    The canonical units (i, j, k resp. e_1..e_m) always come first; further
    units are the stereographic images of chart indices drawn without
    replacement, uniformly over the non-canonical ones.  Index k reads as one
    base-127 digit per parameter: parameter h is ``_CHART[k // 127**h % 127]``,
    so index 0 maps to u_1 and index 127^h to u_(h+2).  ``count`` may not exceed
    ``unit_capacity(signature)``, the units the chart reaches.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    capacity = unit_capacity(signature)
    if count > capacity:
        raise ValueError(f"count {count} exceeds the {capacity} units the chart reaches")
    n = signature.imag_dim
    units = [ImaginaryUnit(AlgebraElement.basis(signature, mask)) for mask in signature.imag_masks]
    canonical = [0, *(len(_CHART) ** h for h in range(n - 1))]
    rng = Random(f"slicecalc-units:{seed}")
    for j in rng.sample(range(capacity - n), max(0, count - n)):
        # step j over the canonical indices to the j-th non-canonical one
        for c in canonical:
            j += j >= c
        params = [_CHART[j // len(_CHART) ** h % len(_CHART)] for h in range(n - 1)]
        units.append(stereographic_unit(signature, params))
    return units[:count]
