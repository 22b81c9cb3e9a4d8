"""Exact arithmetic kernel for the quaternions and the Clifford algebras Cl(0, m).

Elements carry arbitrary-precision rational coefficients over the blade basis,
so every identity checked downstream is an equality of exact rationals instead
of a floating-point comparison.  An element stores one Python ``int``
numerator per blade over one positive common denominator, in lowest terms, so
sums and products add up integers (``_int_product`` is shared with the
polynomial product).  ``Fraction`` is the API-edge type: constructors take
rationals, and ``coeffs``, ``coeff()`` and ``scalar_part()`` give normalized
``Fraction``s.  Quaternions are stored on the two-generator blade basis
(i, j, k = e1, e2, e1e2), which makes the classical multiplication table a
special case of the general blade product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from random import Random
from typing import Iterable, Mapping, Union

from .errors import NonParavectorError, SignatureMismatchError

RationalLike = Union[Fraction, int]


@dataclass(frozen=True)
class AlgebraSignature:
    """Identifies the ambient algebra: quaternions or Cl(0, m) with m >= 2."""

    kind: str
    m: int

    def __post_init__(self):
        if self.kind == "quaternion":
            if self.m != 2:
                raise ValueError("the quaternion signature is fixed at two blade generators")
        elif self.kind == "clifford":
            if self.m < 2:
                raise ValueError("clifford signature requires m >= 2")
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

    @property
    def imag_masks(self) -> tuple[int, ...]:
        """Blade masks spanning the imaginary-unit sphere, in coordinate order."""
        if self.kind == "quaternion":
            return (1, 2, 3)
        return tuple(1 << t for t in range(self.m))

    @property
    def paravector_masks(self) -> frozenset[int]:
        return frozenset((0, *self.imag_masks))

    def blade_name(self, mask: int) -> str:
        if mask == 0:
            return "1"
        if self.kind == "quaternion":
            return {1: "i", 2: "j", 3: "k"}[mask]
        idx = [str(t + 1) for t in range(self.m) if mask & (1 << t)]
        joiner = "_" if self.m > 9 else ""
        return "e" + joiner.join(idx)

    def blade_mask(self, name: str) -> int:
        if name == "1":
            return 0
        if self.kind == "quaternion":
            try:
                return {"i": 1, "j": 2, "k": 3}[name]
            except KeyError:
                raise ValueError(f"unknown quaternion blade {name!r}") from None
        if not name.startswith("e") or len(name) < 2:
            raise ValueError(f"unknown blade {name!r}")
        body = name[1:]
        digits = body.split("_") if "_" in body else list(body)
        mask = 0
        for d in digits:
            t = int(d)
            if not 1 <= t <= self.m or mask & (1 << (t - 1)):
                raise ValueError(f"bad blade {name!r} for m={self.m}")
            mask |= 1 << (t - 1)
        # one spelling per blade: "e21", "e1_2" (m <= 9) and non-ASCII digits name none
        if self.blade_name(mask) != name:
            raise ValueError(f"bad blade {name!r} for m={self.m}")
        return mask


QUATERNION = AlgebraSignature("quaternion", 2)


def clifford(m: int) -> AlgebraSignature:
    return AlgebraSignature("clifford", m)


# Memoized per pair of masks actually multiplied, never as a dense dim x dim
# table: clifford(200) has 2^200 blades.
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


def _int_product(left, right, combine):
    """Integer core of the algebra and polynomial products.

    ``left`` and ``right`` are sequences of (key, numerators), multiplied in
    order, each side over one denominator that the caller keeps.  Every pair of
    terms adds its blade products under ``combine(key_a, key_b)``.  Returns
    ``{key: {mask: numerator}}`` over the product of the two denominators.
    """
    acc: dict = {}
    for ka, nums_a in left:
        for kb, nums_b in right:
            key = combine(ka, kb)
            out = acc.get(key)
            if out is None:
                out = acc[key] = {}
            for ma, na in nums_a.items():
                for mb, nb in nums_b.items():
                    mask, sign = _blade_mul(ma, mb)
                    prev = out.get(mask, 0)
                    out[mask] = prev + na * nb if sign > 0 else prev - na * nb
    return acc


def _no_key(ka, kb):
    return None


class AlgebraElement:
    """An algebra value: integer numerators per blade over one denominator.

    The canonical form, made by ``_make`` alone, has ``den > 0``, no zero
    numerator, and no common factor of ``den`` and all numerators, so equal
    values have equal fields.
    """

    __slots__ = ("signature", "nums", "den", "_hash")

    def __new__(cls, signature: AlgebraSignature, coeffs: Mapping[int, RationalLike]):
        limit = signature.dim
        qs = {}
        for mask, c in coeffs.items():
            if not 0 <= mask < limit:
                raise ValueError(f"blade mask {mask} out of range for {signature}")
            qs[mask] = c if isinstance(c, (int, Fraction)) else Fraction(c)
        den = lcm(*[q.denominator for q in qs.values()])
        nums = {m: q.numerator * (den // q.denominator) for m, q in qs.items()}
        return cls._make(signature, nums, den)

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
        obj._hash = None
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

    @classmethod
    def from_paravector_coords(
        cls, signature: AlgebraSignature, coords: Iterable[RationalLike]
    ) -> "AlgebraElement":
        coords = list(coords)
        if len(coords) != signature.coord_count:
            raise ValueError(
                f"expected {signature.coord_count} coordinates, got {len(coords)}"
            )
        data = {0: Fraction(coords[0])}
        for mask, c in zip(signature.imag_masks, coords[1:]):
            data[mask] = Fraction(c)
        return cls(signature, data)

    # -- basic structure ---------------------------------------------------

    @property
    def coeffs(self) -> dict[int, Fraction]:
        """A new dict of the nonzero coefficients as normalized ``Fraction``s."""
        return {m: Fraction(n, self.den) for m, n in self.nums.items()}

    def coeff(self, mask: int) -> Fraction:
        return Fraction(self.nums.get(mask, 0), self.den)

    def is_zero(self) -> bool:
        return not self.nums

    def scalar_part(self) -> Fraction:
        return self.coeff(0)

    def is_paravector(self) -> bool:
        allowed = self.signature.paravector_masks
        return all(mask in allowed for mask in self.nums)

    # -- arithmetic --------------------------------------------------------

    def _require_same(self, other: "AlgebraElement") -> None:
        if self.signature != other.signature:
            raise SignatureMismatchError(
                f"cannot combine {self.signature} with {other.signature}"
            )

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._require_same(other)
        den = lcm(self.den, other.den)
        nums: dict[int, int] = {}
        _add_scaled(nums, self.nums, den // self.den)
        _add_scaled(nums, other.nums, den // other.den)
        return AlgebraElement._make(self.signature, nums, den)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        nums = {m: -n for m, n in self.nums.items()}
        return AlgebraElement._make(self.signature, nums, self.den)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._require_same(other)
            acc = _int_product(((None, self.nums),), ((None, other.nums),), _no_key)
            return AlgebraElement._make(self.signature, acc.get(None, {}), self.den * other.den)
        if isinstance(other, (int, Fraction)):
            k = other.numerator
            nums = {m: n * k for m, n in self.nums.items()}
            return AlgebraElement._make(self.signature, nums, self.den * other.denominator)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    # -- conjugation and norms (paravector operations) ----------------------

    def re(self) -> Fraction:
        if self.signature.kind == "clifford" and not self.is_paravector():
            raise NonParavectorError("re() is defined on paravectors only")
        return self.scalar_part()

    def im(self) -> "AlgebraElement":
        if self.signature.kind == "clifford" and not self.is_paravector():
            raise NonParavectorError("im() is defined on paravectors only")
        nums = {m: n for m, n in self.nums.items() if m != 0}
        return AlgebraElement._make(self.signature, nums, self.den)

    def conj(self) -> "AlgebraElement":
        """Re(x) - Im(x); for quaternions this is the usual conjugation."""
        if self.signature.kind == "clifford" and not self.is_paravector():
            raise NonParavectorError("conj() is defined on paravectors only")
        nums = {m: (n if m == 0 else -n) for m, n in self.nums.items()}
        return AlgebraElement._make(self.signature, nums, self.den)

    def norm_sq(self) -> Fraction:
        """x * conj(x) as a rational; the squared Euclidean norm."""
        if self.signature.kind == "clifford" and not self.is_paravector():
            raise NonParavectorError("norm_sq() is defined on paravectors only")
        return Fraction(sum(n * n for n in self.nums.values()), self.den * self.den)

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
        if self._hash is None:
            self._hash = hash((self.signature, self.den, frozenset(self.nums.items())))
        return self._hash

    def __repr__(self):
        if not self.nums:
            return "0"
        parts = []
        for mask, c in sorted(self.coeffs.items()):
            name = self.signature.blade_name(mask)
            parts.append(f"{c}" if mask == 0 else f"{c}*{name}")
        return " + ".join(parts)


class ImaginaryUnit:
    """A rational point of the imaginary-unit sphere: Re = 0 and I*I = -1."""

    __slots__ = ("value",)

    def __init__(self, value: AlgebraElement):
        sig = value.signature
        allowed = set(sig.imag_masks)
        if any(mask not in allowed for mask in value.nums):
            raise ValueError("imaginary unit must lie in the imaginary span")
        if value * value != AlgebraElement.scalar(sig, -1):
            raise ValueError("imaginary unit must square to -1 exactly")
        self.value = value

    @property
    def signature(self) -> AlgebraSignature:
        return self.value.signature

    def components(self) -> tuple[Fraction, ...]:
        """Coefficients along the imaginary coordinate axes, in order."""
        return tuple(self.value.coeff(m) for m in self.signature.imag_masks)

    def __neg__(self):
        return ImaginaryUnit(-self.value)

    def __eq__(self, other):
        if not isinstance(other, ImaginaryUnit):
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash(("unit", self.value))

    def __repr__(self):
        return f"Unit({self.value!r})"


def canonical_units(signature: AlgebraSignature) -> list[ImaginaryUnit]:
    return [
        ImaginaryUnit(AlgebraElement.basis(signature, mask))
        for mask in signature.imag_masks
    ]


def stereographic_unit(
    signature: AlgebraSignature, params: Iterable[RationalLike]
) -> ImaginaryUnit:
    """Rational chart of the unit sphere centered at the first canonical unit.

    With parameters p_2..p_n and s = sum(p^2),

        I = ((1 - s) u_1 + sum_h 2 p_h u_h) / (1 + s),

    so every rational parameter vector yields a unit with rational components
    and I*I = -1 exactly; (0, ..., 0) maps to u_1 itself.
    """
    params = [Fraction(p) for p in params]
    if len(params) != signature.imag_dim - 1:
        raise ValueError(
            f"expected {signature.imag_dim - 1} chart parameters, got {len(params)}"
        )
    basis = [AlgebraElement.basis(signature, m) for m in signature.imag_masks]
    s = sum((p * p for p in params), Fraction(0))
    denom = 1 + s
    value = basis[0] * ((1 - s) / denom)
    for p, b in zip(params, basis[1:]):
        value = value + b * (2 * p / denom)
    return ImaginaryUnit(value)


def sample_units(signature: AlgebraSignature, seed: int, count: int) -> list[ImaginaryUnit]:
    """Deterministic rational sample of the imaginary-unit sphere.

    The canonical units (i, j, k resp. e_1..e_m) always come first; further
    units come from the stereographic chart at seeded rational parameters.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    units = canonical_units(signature)
    seen = {u.value for u in units}
    if len(units) >= count:
        return units[:count]
    rng = Random(f"slicecalc-units:{seed}")
    n_params = signature.imag_dim - 1
    while len(units) < count:
        params = [
            Fraction(rng.randint(-12, 12), rng.randint(1, 8)) for _ in range(n_params)
        ]
        unit = stereographic_unit(signature, params)
        if unit.value in seen:
            continue
        seen.add(unit.value)
        units.append(unit)
    return units
