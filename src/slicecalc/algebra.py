"""Exact arithmetic kernel for the quaternions and the Clifford algebras Cl(0, m).

Elements carry arbitrary-precision rational coefficients over the blade basis,
so every identity checked downstream is an equality of exact rationals instead
of a floating-point comparison.  ``Fraction`` is the stored and API-edge type;
the inner loop of the product adds up Python ``int`` numerators over one
common denominator and builds one normalized ``Fraction`` per output blade at
the end (``_int_product``, shared with the polynomial product).  Quaternions
are stored on the two-generator blade basis (i, j, k = e1, e2, e1e2), which
makes the classical multiplication table a special case of the general blade
product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm
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


def _int_rows(items):
    """Common denominator of (key, element) pairs and their integer rows.

    Returns ``den`` and ``[(key, coeffs, numerators), ...]``: each element's
    coefficient dict and the list of its numerators over ``den``, in the
    dict's order, so ``zip(coeffs, numerators)`` pairs masks with integers.
    """
    # a list, not a generator: a tuple built from a generator is resized, and
    # freeing it at its final size fills CPython's tuple free lists (peak RSS)
    den = lcm(*[q.denominator for _, c in items for q in c.coeffs.values()])
    rows = [
        (key, c.coeffs, [q.numerator * (den // q.denominator) for q in c.coeffs.values()])
        for key, c in items
    ]
    return den, rows


def _int_product(left, right, combine):
    """Integer core of the algebra and polynomial products.

    ``left`` and ``right`` are sequences of (key, AlgebraElement), multiplied
    in order.  Every pair of terms adds its blade products, as integer
    numerators over one common denominator, under ``combine(key_a, key_b)``.
    Returns the denominator and ``{key: {mask: numerator}}``.
    """
    den_a, rows_a = _int_rows(left)
    den_b, rows_b = _int_rows(right)
    acc: dict = {}
    for ka, masks_a, nums_a in rows_a:
        for kb, masks_b, nums_b in rows_b:
            key = combine(ka, kb)
            out = acc.get(key)
            if out is None:
                out = acc[key] = {}
            for ma, na in zip(masks_a, nums_a):
                for mb, nb in zip(masks_b, nums_b):
                    mask, sign = _blade_mul(ma, mb)
                    prev = out.get(mask, 0)
                    out[mask] = prev + na * nb if sign > 0 else prev - na * nb
    return den_a * den_b, acc


def _no_key(ka, kb):
    return None


class AlgebraElement:
    """An algebra value in canonical form: zero coefficients are pruned."""

    __slots__ = ("signature", "coeffs", "_hash")

    def __init__(self, signature: AlgebraSignature, coeffs: Mapping[int, RationalLike]):
        limit = signature.dim
        clean: dict[int, Fraction] = {}
        for mask, c in coeffs.items():
            if not 0 <= mask < limit:
                raise ValueError(f"blade mask {mask} out of range for {signature}")
            q = c if isinstance(c, Fraction) else Fraction(c)
            if q:
                clean[mask] = q
        self.signature = signature
        self.coeffs = clean
        self._hash = None

    @classmethod
    def _make(cls, signature: AlgebraSignature, coeffs: dict[int, Fraction]) -> "AlgebraElement":
        """Fast path: ``coeffs`` already maps valid masks to nonzero Fractions."""
        obj = object.__new__(cls)
        obj.signature = signature
        obj.coeffs = coeffs
        obj._hash = None
        return obj

    @classmethod
    def _from_ints(
        cls, signature: AlgebraSignature, numerators: Mapping[int, int], den: int
    ) -> "AlgebraElement":
        """Fast path: ``numerators[mask] / den`` on valid masks, zeros pruned."""
        return cls._make(signature, {m: Fraction(n, den) for m, n in numerators.items() if n})

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, signature: AlgebraSignature) -> "AlgebraElement":
        return cls(signature, {})

    @classmethod
    def scalar(cls, signature: AlgebraSignature, value: RationalLike) -> "AlgebraElement":
        return cls(signature, {0: Fraction(value)})

    @classmethod
    def one(cls, signature: AlgebraSignature) -> "AlgebraElement":
        return cls.scalar(signature, 1)

    @classmethod
    def basis(cls, signature: AlgebraSignature, mask: int) -> "AlgebraElement":
        return cls(signature, {mask: Fraction(1)})

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

    def coeff(self, mask: int) -> Fraction:
        return self.coeffs.get(mask, Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_scalar(self) -> bool:
        return all(mask == 0 for mask in self.coeffs)

    def scalar_part(self) -> Fraction:
        return self.coeffs.get(0, Fraction(0))

    def is_paravector(self) -> bool:
        allowed = self.signature.paravector_masks
        return all(mask in allowed for mask in self.coeffs)

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
        acc = dict(self.coeffs)
        for mask, c in other.coeffs.items():
            prev = acc.get(mask)
            acc[mask] = c if prev is None else prev + c
        return AlgebraElement(self.signature, acc)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return AlgebraElement._make(self.signature, {m: -c for m, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._require_same(other)
            den, acc = _int_product(((None, self),), ((None, other),), _no_key)
            return AlgebraElement._from_ints(self.signature, acc.get(None, {}), den)
        if isinstance(other, (int, Fraction)):
            # a nonzero scalar keeps every coefficient nonzero
            coeffs = {m: c * other for m, c in self.coeffs.items()} if other else {}
            return AlgebraElement._make(self.signature, coeffs)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = AlgebraElement.one(self.signature)
        for _ in range(n):
            out = out * self
        return out

    # -- conjugation and norms (paravector operations) ----------------------

    def re(self) -> Fraction:
        if self.signature.kind == "clifford" and not self.is_paravector():
            raise NonParavectorError("re() is defined on paravectors only")
        return self.scalar_part()

    def im(self) -> "AlgebraElement":
        if self.signature.kind == "clifford" and not self.is_paravector():
            raise NonParavectorError("im() is defined on paravectors only")
        return AlgebraElement(
            self.signature, {m: c for m, c in self.coeffs.items() if m != 0}
        )

    def conj(self) -> "AlgebraElement":
        """Re(x) - Im(x); for quaternions this is the usual conjugation."""
        if self.signature.kind == "clifford" and not self.is_paravector():
            raise NonParavectorError("conj() is defined on paravectors only")
        return AlgebraElement(
            self.signature,
            {m: (c if m == 0 else -c) for m, c in self.coeffs.items()},
        )

    def norm_sq(self) -> Fraction:
        """x * conj(x) as a rational; the squared Euclidean norm."""
        if self.signature.kind == "clifford" and not self.is_paravector():
            raise NonParavectorError("norm_sq() is defined on paravectors only")
        return sum((c * c for c in self.coeffs.values()), Fraction(0))

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.signature == other.signature and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.signature, frozenset(self.coeffs.items())))
        return self._hash

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for mask in sorted(self.coeffs):
            c = self.coeffs[mask]
            name = self.signature.blade_name(mask)
            parts.append(f"{c}" if mask == 0 else f"{c}*{name}")
        return " + ".join(parts)


class ImaginaryUnit:
    """A rational point of the imaginary-unit sphere: Re = 0 and I*I = -1."""

    __slots__ = ("value",)

    def __init__(self, value: AlgebraElement):
        sig = value.signature
        allowed = set(sig.imag_masks)
        if any(mask not in allowed for mask in value.coeffs):
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
