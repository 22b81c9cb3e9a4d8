"""JSON serialization: exact rationals in, exact rationals out.

Rationals are serialized as "p/q" strings and parsed from "p/q" or "p" strings
(an optional sign, then digits), JSON integers or [p, q] pairs of JSON
integers; floats never appear in reports, so exactness survives the round
trip.  This module also parses function-spec files into SliceFunction or
PointFunction values, within input limits that keep a spec file from
requesting unbounded work.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cache
from typing import Any, Union

from .algebra import QUATERNION, AlgebraElement, AlgebraSignature, clifford
from .errors import FunctionSpecError, ParityViolationError, ZeroDenominatorError
from .multipoly import CoordPoly, RationalFn
from .named import default_domain
from .slicefn import CircularDomain, PointFunction, SliceFunction, SliceWitness
from .stem import StemFunction

# Input limits for spec files; exceeding one is a FunctionSpecError (exit 2).
# Exact evaluation homogenizes every term to the total degree, so the cost of
# a spec grows with its exponents as well as with its term count and dim = 2^m,
# where ``clifford`` caps m at ``algebra.MAX_CLIFFORD_M``.
MAX_EXPONENT = 64
MAX_TERMS = 1024

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _is_json_int(value: Any) -> bool:
    # bool is an int subclass; JSON true/false are not integers here
    return isinstance(value, int) and not isinstance(value, bool)


def frac_to_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def frac_from_json(value: Any) -> Fraction:
    """A JSON integer, a "p" or "p/q" string, or a [p, q] pair of JSON integers.

    The string grammar is exactly ``[+-]?[0-9]+(/[0-9]+)?``: ``Fraction(str)``
    alone would also take decimals, exponents ("1e1000000000" asks for a
    3.3-Gbit integer), underscores and spaces.
    """
    try:
        if _is_json_int(value):
            return Fraction(value)
        if isinstance(value, str) and _RATIONAL.fullmatch(value):
            return Fraction(value)
        if isinstance(value, (list, tuple)) and len(value) == 2:
            if all(_is_json_int(v) for v in value):
                return Fraction(value[0], value[1])
    except (ValueError, ZeroDivisionError) as exc:
        raise FunctionSpecError(f"bad rational {value!r}") from exc
    raise FunctionSpecError(f"bad rational {value!r}")


def signature_to_json(signature: AlgebraSignature) -> dict:
    if signature.kind == "quaternion":
        return {"kind": "quaternion"}
    return {"kind": "clifford", "m": signature.m}


def signature_from_json(obj: Any) -> AlgebraSignature:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FunctionSpecError("signature must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "quaternion":
        return QUATERNION
    if kind == "clifford":
        m = obj.get("m")
        if not _is_json_int(m):
            raise FunctionSpecError(f"clifford 'm' must be an integer, got {m!r}")
        try:
            return clifford(m)
        except ValueError as exc:
            raise FunctionSpecError(f"bad clifford signature: {exc}") from exc
    raise FunctionSpecError(f"unknown signature kind {kind!r}")


def element_to_json(value: AlgebraElement) -> dict:
    return {
        value.signature.blade_name(mask): frac_to_str(c)
        for mask, c in sorted(value.coeffs.items())
    }


@cache
def _mask_by_name(signature: AlgebraSignature) -> dict[str, int]:
    """Each blade's mask, keyed by the one name reports write for that blade."""
    return {signature.blade_name(mask): mask for mask in range(signature.dim)}


def element_from_json(signature: AlgebraSignature, obj: Any) -> AlgebraElement:
    if not isinstance(obj, dict):
        raise FunctionSpecError(f"coefficient must be a blade map, got {obj!r}")
    masks = _mask_by_name(signature)
    coeffs = {}
    for name, raw in obj.items():
        if name not in masks:
            algebra = "H" if signature.kind == "quaternion" else f"Cl(0,{signature.m})"
            raise FunctionSpecError(f"bad blade {name!r} for {algebra}")
        coeffs[masks[name]] = frac_from_json(raw)
    return AlgebraElement(signature, coeffs)


def poly_to_terms(poly: CoordPoly) -> list[dict]:
    return [
        {"exponents": list(exps), "coefficient": element_to_json(coeff)}
        for exps, coeff in sorted(poly.terms.items())
    ]


def poly_from_terms(
    signature: AlgebraSignature, var_count: int, items: Any, what: str
) -> CoordPoly:
    if items is None:
        items = []
    if not isinstance(items, list):
        raise FunctionSpecError(f"{what} must be a list of terms")
    if len(items) > MAX_TERMS:
        raise FunctionSpecError(f"{what} has {len(items)} terms, over the limit {MAX_TERMS}")
    terms: dict[tuple[int, ...], AlgebraElement] = {}
    for item in items:
        if not isinstance(item, dict) or "exponents" not in item or "coefficient" not in item:
            raise FunctionSpecError(
                f"{what} entries need 'exponents' and 'coefficient'"
            )
        exps = item["exponents"]
        if not isinstance(exps, list) or len(exps) != var_count:
            raise FunctionSpecError(
                f"{what} exponent vector must have length {var_count}"
            )
        if not all(_is_json_int(e) for e in exps):
            raise FunctionSpecError(f"{what} exponents must be integers, got {exps!r}")
        if any(e > MAX_EXPONENT for e in exps):
            raise FunctionSpecError(f"{what} exponent over the limit {MAX_EXPONENT}: {exps!r}")
        key = tuple(exps)
        coeff = element_from_json(signature, item["coefficient"])
        earlier = terms.get(key)
        terms[key] = coeff if earlier is None else earlier + coeff
    try:
        return CoordPoly(signature, var_count, terms)
    except ValueError as exc:
        raise FunctionSpecError(f"{what}: {exc}") from exc


def stem_to_json(stem: StemFunction) -> dict:
    return {
        "f1_terms": poly_to_terms(stem.f1),
        "f2_terms": poly_to_terms(stem.f2),
    }


def domain_to_json(domain: CircularDomain) -> dict:
    if domain.r_in is None:
        return {
            "shape": "ball",
            "center": frac_to_str(domain.center),
            "radius": frac_to_str(domain.radius),
        }
    return {
        "shape": "annulus",
        "center": frac_to_str(domain.center),
        "r_in": frac_to_str(domain.r_in),
        "r_out": frac_to_str(domain.radius),
    }


def domain_from_json(obj: Any) -> CircularDomain:
    if obj is None:
        return default_domain()
    if not isinstance(obj, dict) or "shape" not in obj:
        raise FunctionSpecError("domain must be an object with a 'shape'")
    try:
        if obj["shape"] == "ball":
            return CircularDomain.ball(
                frac_from_json(obj.get("center", 0)), frac_from_json(obj["radius"])
            )
        if obj["shape"] == "annulus":
            return CircularDomain.annulus(
                frac_from_json(obj.get("center", 0)),
                frac_from_json(obj["r_in"]),
                frac_from_json(obj["r_out"]),
            )
    except (KeyError, ValueError) as exc:
        raise FunctionSpecError(f"bad domain: {exc}") from exc
    raise FunctionSpecError(f"unknown domain shape {obj['shape']!r}")


def witness_to_json(witness: SliceWitness) -> dict:
    return {
        "H": element_to_json(witness.unit_h),
        "K": element_to_json(witness.unit_k),
        "z": [frac_to_str(witness.z[0]), frac_to_str(witness.z[1])],
        "predicted": element_to_json(witness.predicted),
        "actual": element_to_json(witness.actual),
    }


def function_spec_from_json(obj: Any) -> Union[SliceFunction, PointFunction]:
    """Parse a function description into a slice function (a "stem" spec: its stem on
    the domain) or a point function (a "rational" spec: its rational function).

    Schema: {"signature": {...}, "domain": {...}, "representation":
    "stem" | "rational", then either f1_terms/f2_terms over (alpha, beta) or
    numerator_terms/denominator_terms over x_0..x_n; rationals are "p/q"
    strings, integers or [p, q] pairs.
    """
    if not isinstance(obj, dict):
        raise FunctionSpecError("function spec must be a JSON object")
    signature = signature_from_json(obj.get("signature", {"kind": "quaternion"}))
    domain = domain_from_json(obj.get("domain"))
    rep = obj.get("representation")
    if rep == "stem":
        f1 = poly_from_terms(signature, 2, obj.get("f1_terms"), "f1_terms")
        f2 = poly_from_terms(signature, 2, obj.get("f2_terms"), "f2_terms")
        try:
            stem = StemFunction(f1, f2)
        except ParityViolationError as exc:
            raise FunctionSpecError(f"stem parity violated: {exc}") from exc
        return SliceFunction(domain, stem)
    if rep == "rational":
        n = signature.coord_count
        numer = poly_from_terms(signature, n, obj.get("numerator_terms"), "numerator_terms")
        den_items = obj.get("denominator_terms")
        real_value = None
        if obj.get("real_axis_value") is not None:
            real_value = element_from_json(signature, obj["real_axis_value"])
        if den_items is None:
            expr = RationalFn.from_poly(numer)
        else:
            denom = poly_from_terms(signature, n, den_items, "denominator_terms")
            try:
                expr = RationalFn(numer, ((denom, 1),))
            except (ZeroDenominatorError, ValueError) as exc:
                raise FunctionSpecError(str(exc)) from exc
        return PointFunction(domain, expr, real_value=real_value)
    raise FunctionSpecError(
        f"representation must be 'stem' or 'rational', got {rep!r}"
    )


def digest(obj: Any) -> str:
    """Short deterministic digest of a JSON-able input description: SHA-256, 16 hex digits.

    SHA-256 comes from the interpreter's built-in module, ``_sha2`` (3.12+) or
    ``_sha256`` (3.10, 3.11), as ``random`` takes its SHA-512.  The standard
    library's OpenSSL-backed module, which maps in libcrypto, megabytes of
    resident memory, is the fallback only where neither exists, e.g. on a FIPS
    build without them.  The import is made here, not at module level, so only
    ``verify``, which digests inputs, loads a hash module at all.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256

    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return sha256(text.encode("utf-8")).hexdigest()[:16]
