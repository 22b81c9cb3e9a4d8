"""Order computation, constructive decomposition and the counterexample suite.

The decomposition writes a suitable slice function as
f = f_0 + xbar f_1 + ... + xbar^(n-1) f_(n-1) with every component induced by
a holomorphic stem.  That is a fact about the stem alone,
F = F_0 + zbar F_1 + ... + zbar^(n-1) F_(n-1), so it takes the stem and
returns the component stems, read off one change of variables: in z and
zbar, F = sum z^p zbar^q w_(p,q) with every w in the algebra, so
F_q = sum_p z^p w_(p,q), and as dbar acts as d/dzbar the order is one more
than the zbar-degree (``_zbar_form``).  ``compose`` goes the other way in one
pass, since zbar^h has real binomial coefficients.  The counterexample suite
replays, with exact arithmetic, the functions that separate the slice-by-slice
notion of polyanalyticity from the global (decomposable) one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import islice
from math import comb, lcm
from typing import Optional, Sequence

from .algebra import AlgebraElement, AlgebraSignature, ImaginaryUnit, _add_scaled, sample_units
from .errors import NotPolyanalyticOfOrderError
from .multipoly import CoordPoly, RationalFn, _apply_n, _iterates
from .named import jump_example, left_multiplied_coordinate, rotation_twisted_coordinate
from .operators import SlicePlanePoly, plane_x, restrict_to_slice
from .serialize import frac_to_str
from .slicefn import (
    PointFunction,
    SliceFunction,
    SliceWitness,
    extract_stem,
    is_slice,
    is_slice_exact,
)
from .stem import StemFunction, _holomorphic


@cache
def _zbar_row(a: int, b: int) -> tuple[int, ...]:
    """(-1)^(b//2) times the zbar^0..zbar^(a+b) coefficients of (z + zbar)^a (z - zbar)^b."""
    row = [0] * (a + b + 1)
    for j in range(a + 1):  # the convolution of the binomial rows, the second signed
        for k in range(b + 1):
            row[j + k] += comb(a, j) * comb(b, k) * (-1) ** (k + b // 2)
    return tuple(row)


def _zbar_form(stem: StemFunction) -> list[CoordPoly]:
    """F_0..F_(n-1) of F = sum_q zbar^q F_q, each F_q = sum_p z^p w_(p,q) as a polynomial in z.

    One pass over the rows: alpha^a beta^b = 2^-(a+b) (z + zbar)^a (-i (z - zbar))^b,
    and by stem parity every row of F1 and of i F2 gets the real sign (-1)^(b//2).
    Trailing zero zbar-degrees are dropped, so the length is the order (1 for F = 0).
    """
    top = max(stem.total_degree(), 0)
    den = lcm(stem.f1.den, stem.f2.den) << top
    acc: list[dict] = [{} for _ in range(top + 1)]
    for part in (stem.f1, stem.f2):
        r = den // part.den
        for (a, b), nums in part.rows.items():
            for q, c in enumerate(_zbar_row(a, b)):
                if c:
                    _add_scaled(acc[q].setdefault((a + b - q,), {}), nums, c * (r >> (a + b)))
    parts = [CoordPoly._make(stem.signature, 1, rows, den) for rows in acc]
    return parts[: 1 + max((q for q, part in enumerate(parts) if part.rows), default=0)]


def compose(parts: Sequence[StemFunction]) -> StemFunction:
    """The stem of sum_h zbar^h * parts[h], in one pass over the parts' rows.

    zbar^h = sum_j C(h,j) alpha^(h-j) (-i beta)^j has real coefficients, so no
    algebra product is taken: a row alpha^a beta^b w of F1 (c = 0), or of F2
    (c = 1, read as i w), in ``parts[h]`` adds C(h,j) (-1)^(j + (j+c)//2) w at
    (a+h-j, b+j) for each j, into F1 when j + c is even and into F2 when it is
    odd.  Each component is one accumulator over the lcm of the parts'
    denominators.  The stem induces the global slice polyanalytic
    f = sum_h xbar^h f_h, f_h the functions induced by the nonempty ``parts``.
    For holomorphic parts with a nonzero top part, ``decompose`` recovers them.
    """
    den = lcm(*[poly.den for part in parts for poly in (part.f1, part.f2)])
    acc: tuple[dict, dict] = ({}, {})
    for h, part in enumerate(parts):
        for c, poly in enumerate((part.f1, part.f2)):
            r = den // poly.den
            moves = [
                (h - j, j, acc[(j + c) & 1], comb(h, j) * (-1) ** (j + (j + c) // 2) * r)
                for j in range(h + 1)
            ]
            for (a, b), nums in poly.rows.items():
                for da, db, out, k in moves:
                    _add_scaled(out.setdefault((a + da, b + db), {}), nums, k)
    sig = parts[0].signature
    return StemFunction(*(CoordPoly._make(sig, 2, rows, den) for rows in acc))


def decompose(stem: StemFunction, order: int) -> tuple[StemFunction, ...]:
    """The holomorphic component stems F_0..F_(n-1) of F = sum_h zbar^h F_h.

    Each F_h is built from its coefficients in z (``_zbar_form``), so no
    derivative is taken.  The decomposition is unique, so any admissible order
    gives the n stems of the minimal order, whose top one witnesses minimality;
    ``compose`` of them is the stem again.  A lower order raises with the
    residual dbar^order F, derived one level at a time.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    form = _zbar_form(stem)
    if len(form) > order:
        raise NotPolyanalyticOfOrderError(order, _apply_n(StemFunction.dbar, stem, order))
    return tuple(map(_holomorphic, form))


def per_slice_decomposition(
    g: PointFunction, unit: ImaginaryUnit
) -> tuple[SlicePlanePoly, SlicePlanePoly]:
    """Order-two decomposition of one slice restriction: g_I = f_0 + xbar_I f_1.

    Requires the second slice derivative to vanish on this slice; f_1 is the
    first slice derivative and f_0 the remainder, both exact.
    """
    restricted, f1, second = restrict_to_slice(g, unit).dbar_chain(2)
    if not second.is_zero():
        raise NotPolyanalyticOfOrderError(2)
    xbar = plane_x(g.signature, -unit)
    f0 = SlicePlanePoly(restricted - f1.mul_poly_left(xbar), unit)
    return f0, f1


@dataclass
class ClassificationReport:
    """What the sampled and exact probes could establish about a function."""

    sbs_polyanalytic_order: Optional[int]
    is_slice: bool
    slice_witness: Optional[SliceWitness]
    components: Optional[tuple[StemFunction, ...]]
    evidence: dict = field(default_factory=dict)


def classify(
    g: PointFunction | SliceFunction,
    max_order: int,
    units: Sequence[ImaginaryUnit],
    points: Sequence[tuple[Fraction, Fraction]],
) -> ClassificationReport:
    """Slice-by-slice order, slice-ness, and global order if slice.

    A slice function is decided on its stem F, over every unit and without
    samples: f_I = F1 + I F2 on every slice, so dbar_I^n f_I is the stem level
    dbar^n F read on that slice, the order is read off F's form in z and
    zbar, whose components are the report's component stems, and their count
    is the global order.  ``units`` and ``points`` apply to a point function g only.
    Its slice-ness is exact (``is_slice_exact``), and a slice g whose candidate
    stem along the first unit is polynomial is decided on that stem.  Any other
    slice g has dbar_I^n g_I = G1 + I G2, G1 even and G2 odd in beta, zero on one
    slice exactly when on all, so its order is read on one; a non-slice g's on each.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if isinstance(g, SliceFunction):
        return _classify_stem(g, max_order, {})
    if not units:
        raise ValueError("classify needs at least one unit for a point function")
    evidence: dict = {}
    f1, f2 = extract_stem(g, units[0])
    slice_ok = is_slice_exact(g)
    if f1.is_polynomial() and f2.is_polynomial():
        evidence["stem_reproduces_input"] = slice_ok
        if slice_ok:
            return _classify_stem(StemFunction(f1.numer, f2.numer), max_order, evidence)
    else:
        evidence["candidate_stem"] = "not polynomial"
    witness = is_slice(g, units, points)  # raises where a denominator vanishes

    sbs_order: Optional[int] = 0
    for unit in units[:1] if slice_ok else units:
        plane = restrict_to_slice(g, unit)
        levels = islice(_iterates(SlicePlanePoly.dbar, plane), max_order + 1)
        # the least n in 1..max_order with a vanishing n-th derivative on this slice
        n = next((n for n, level in enumerate(levels) if n and level.is_zero()), None)
        if n is None:
            sbs_order = None
            evidence["sbs_blocking_unit"] = repr(unit)
            break
        sbs_order = max(sbs_order, n)
    return ClassificationReport(sbs_order, slice_ok, witness, None, evidence)


def _classify_stem(stem: StemFunction, max_order: int, evidence: dict) -> ClassificationReport:
    """The exact report on the slice function of ``stem``: its order is the stem's.

    The order is the length of ``_zbar_form(stem)``, and its parts become the
    component stems only within ``max_order``.
    """
    form = _zbar_form(stem)
    if len(form) > max_order:
        evidence["global_order_exceeds_max"] = len(form)
        return ClassificationReport(None, True, None, None, evidence)
    return ClassificationReport(len(form), True, None, tuple(map(_holomorphic, form)), evidence)


# -- counterexample suite -------------------------------------------------------


def _suite_points() -> list[tuple[Fraction, Fraction]]:
    """Six deterministic off-axis plane points inside the default ball."""
    return [(Fraction(0), Fraction(1))] + [
        (Fraction(k, 3), Fraction(k + 1, 2 + k)) for k in range(1, 6)
    ]


def _expected_slice_constants(
    sig: AlgebraSignature, unit: ImaginaryUnit
) -> tuple[AlgebraElement, AlgebraElement]:
    """The order-two slice coefficients of the twisted coordinate function.

    Along the slice of I the function reads x_I c_plus + xbar_I c_minus with
    c_plus = (1 + I u I u)/2 and c_minus = (1 - I u I u)/2, u the first
    canonical imaginary basis element.
    """
    u = AlgebraElement.basis(sig, sig.imag_masks[0])
    prod = unit * u * unit * u
    one = AlgebraElement.one(sig)
    half = Fraction(1, 2)
    return (one + prod) * half, (one - prod) * half


def _witness_pair(witness: Optional[SliceWitness]) -> dict:
    return {
        "witness_h": repr(witness.unit_h) if witness else None,
        "witness_k": repr(witness.unit_k) if witness else None,
    }


def counterexample_suite(
    signature: AlgebraSignature, seed: int, unit_count: int
) -> dict[str, tuple[bool, dict]]:
    """Exact replay of the separating examples: check id -> (passed, details).

    The ids come in the order (1)-(5), then (7), all on the one
    ``signature`` and its ``unit_count`` sampled units; the campaign adds
    (6), the Clifford analogue, from a second run under Cl(0,3), where the
    twisted coordinate uses e_1 in place of i.  The checks compare slices
    pairwise, so ``unit_count`` must be at least 2.

    Checks (2), (3) and (7) read the verdicts of one ``classify`` call at
    order 2 on each of the twisted coordinate v and the left-multiplied
    coordinate v_r.  Checks (1) and (4) read one ``per_slice_decomposition``
    of v per unit.  A unit without that split fails both checks, with None
    for its first coefficient in (4), and the remaining checks still run.
    """
    if unit_count < 2:
        raise ValueError("the counterexample suite needs unit_count >= 2")
    units = sample_units(signature, seed, unit_count)
    points = _suite_points()
    v = rotation_twisted_coordinate(signature)
    v_r = left_multiplied_coordinate(signature)
    bump = jump_example(signature)
    checks: dict[str, tuple[bool, dict]] = {}

    # (1) and (4) share one split v_I = f_0 + xbar_I f_1 per unit; None where the
    # second slice derivative does not vanish
    splits: list[Optional[tuple[SlicePlanePoly, SlicePlanePoly]]] = []
    for unit in units:
        try:
            splits.append(per_slice_decomposition(v, unit))
        except NotPolyanalyticOfOrderError:
            splits.append(None)
    consts = [_expected_slice_constants(signature, unit) for unit in units]

    # (1) second slice derivative vanishes on every sampled slice, exactly
    first_ok = all(
        split is not None and split[1] == CoordPoly.constant(signature, 2, c_minus)
        for split, (_, c_minus) in zip(splits, consts)
    )
    checks["slicewise-order-two"] = (
        first_ok,
        {"units": len(units), "distinct_first_derivatives": len({c for _, c in consts})},
    )

    # (2) representation formula fails: not a slice function, witnessed on the
    # first two units
    verdict = classify(v, 2, units, points)
    witness = verdict.slice_witness
    expected_pair = (
        witness is not None and witness.unit_h == units[0] and witness.unit_k == units[1]
    )
    checks["not-slice"] = (
        not verdict.is_slice and expected_pair,
        {
            **_witness_pair(witness),
            "witness_z": [frac_to_str(c) for c in witness.z] if witness else None,
        },
    )

    # (3) the candidate stem from the first slice does not reproduce v: not global
    checks["extraction-not-global"] = (
        verdict.evidence.get("stem_reproduces_input") is False
        and verdict.components is None,
        {
            "predicted": repr(witness.predicted) if witness else None,
            "actual": repr(witness.actual) if witness else None,
        },
    )

    # (4) per-slice coefficients depend on the slice
    ok = first_ok and all(
        split[0] == plane_x(signature, unit).scale_right(c_plus)
        for split, unit, (c_plus, _) in zip(splits, units, consts)
    )
    f1_reprs = [None if split is None else repr(split[1].numer) for split in splits[:2]]
    checks["slice-coefficients-depend-on-unit"] = (
        ok and splits[0][1] != splits[1][1],
        {"f1_on_first_unit": f1_reprs[0], "f1_on_second_unit": f1_reprs[1]},
    )

    # (5) slice-by-slice continuous function with a genuine jump at 0
    ok = bump.eval_coords([Fraction(0)] * signature.coord_count).is_zero()
    half = AlgebraElement.scalar(signature, Fraction(1, 2))
    for h in range(2, 51):
        coords = [Fraction(0)] * signature.coord_count
        coords[1] = Fraction(1, h)
        coords[2] = Fraction(1, h * h)
        ok = ok and bump.eval_coords(coords) == half
    matched = 0
    for unit in units[: min(len(units), 32)]:
        comps = unit.components()
        i1, i2 = comps[0], comps[1]
        tail = sum((c * c for c in comps[1:]), Fraction(0))
        # reduced slice formula: beta i1^2 i2 / (beta^2 i1^4 + sum_{h>=2} i_h^2)
        numer = CoordPoly.constant(signature, 2, i1 * i1 * i2) * CoordPoly.variable(
            signature, 2, 1
        )
        den = CoordPoly.variable(signature, 2, 1) ** 2 * (i1**4) + CoordPoly.constant(
            signature, 2, tail
        )
        target = RationalFn(numer, ((den, 1),))
        restricted = restrict_to_slice(bump, unit)
        # bounded: the denominator is positive if tail > 0, else i2 = 0 zeroes the numerator
        if restricted == target:
            matched += 1
        else:
            ok = False
    checks["slicewise-continuous-jump"] = (
        ok,
        {"sequence_checked": 49, "restrictions_matched": matched},
    )

    # (7) the left-multiplied coordinate: slice-by-slice order exactly 2, not slice
    verdict = classify(v_r, 2, units, points)
    checks["left-multiplier-not-slice"] = (
        verdict.sbs_polyanalytic_order == 2 and not verdict.is_slice,
        _witness_pair(verdict.slice_witness),
    )
    return checks
