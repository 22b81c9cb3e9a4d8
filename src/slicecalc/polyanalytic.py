"""Order computation, constructive decomposition and the counterexample suite.

The decomposition writes a suitable slice function as
f = f_0 + xbar f_1 + ... + xbar^(n-1) f_(n-1) with every component induced by
a holomorphic stem.  The counterexample suite replays, with exact arithmetic,
the functions that separate the slice-by-slice notion of polyanalyticity from
the global (decomposable) one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import AlgebraElement, AlgebraSignature, ImaginaryUnit, clifford, sample_units
from .errors import NotPolyanalyticOfOrderError
from .multipoly import CoordPoly, RationalFn
from .named import (
    default_domain,
    jump_example,
    left_multiplied_coordinate,
    rotation_twisted_coordinate,
)
from .operators import (
    SlicePlanePoly,
    dbar_slice,
    plane_x,
    restrict_to_slice,
)
from .slicefn import (
    PointFunction,
    SliceFunction,
    SliceWitness,
    extract_stem_exact,
    is_slice,
    phi_coords,
)
from .stem import StemFunction


def poly_order(f: SliceFunction) -> int:
    """Least n >= 1 whose n-th slice derivative vanishes identically.

    Always terminates for polynomial stems: each derivative lowers the total
    degree, so the order is bounded by total degree + 1.
    """
    current = f.stem.dbar()
    order = 1
    while not current.is_zero():
        order += 1
        current = current.dbar()
    return order


@dataclass(frozen=True)
class Decomposition:
    """Components f_0..f_(n-1), each with a holomorphic stem."""

    components: tuple[SliceFunction, ...]

    @property
    def order(self) -> int:
        return len(self.components)

    def recompose(self) -> SliceFunction:
        domain = self.components[0].domain
        sig = self.components[0].signature
        total = StemFunction.zero(sig)
        for h, part in enumerate(self.components):
            total = total + StemFunction.zbar_pow(sig, h) * part.stem
        return SliceFunction(domain, total)


def _decompose_parts(f: SliceFunction, order: int) -> list[SliceFunction]:
    if order == 1:
        return [f]
    sig = f.signature
    derived = _decompose_parts(f.derivative(1), order - 1)
    remainder = f.stem
    for h, part in enumerate(derived):
        remainder = remainder - StemFunction.zbar_pow(sig, h + 1) * part.stem * Fraction(
            1, h + 1
        )
    head = SliceFunction(f.domain, remainder)
    tail = [
        SliceFunction(f.domain, part.stem * Fraction(1, h + 1))
        for h, part in enumerate(derived)
    ]
    return [head] + tail


def decompose(f: SliceFunction, order: int) -> Decomposition:
    """Constructive decomposition at the given order.

    Peels one slice derivative at a time: with g = df/dx^c decomposed as
    (g_0..g_(n-2)), the function f - sum_h xbar^(h+1) g_h / (h+1) has vanishing
    slice derivative and becomes f_0, while f_(h+1) = g_h / (h+1).  The
    decomposition is unique, so any admissible order gives the one at the
    minimal order ``poly_order(f)``, whose top component witnesses minimality.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    minimal = poly_order(f)
    if minimal > order:
        raise NotPolyanalyticOfOrderError(order, f.stem.dbar_n(order))
    return Decomposition(tuple(_decompose_parts(f, minimal)))


def per_slice_decomposition(
    g: PointFunction, unit: ImaginaryUnit
) -> tuple[SlicePlanePoly, SlicePlanePoly]:
    """Order-two decomposition of one slice restriction: g_I = f_0 + xbar_I f_1.

    Requires the second slice derivative to vanish on this slice; f_1 is the
    first slice derivative and f_0 the remainder, both exact.
    """
    restricted = restrict_to_slice(g, unit)
    f1 = restricted.dbar()
    second = f1.dbar()
    if not second.is_zero():
        raise NotPolyanalyticOfOrderError(2)
    xbar = plane_x(g.signature, -unit)
    f0 = SlicePlanePoly(restricted.rf - f1.rf.mul_poly_left(xbar), unit)
    return f0, f1


@dataclass
class ClassificationReport:
    """What the sampled and exact probes could establish about a function."""

    sbs_polyanalytic_order: Optional[int]
    is_slice: bool
    slice_witness: Optional[SliceWitness]
    global_order: Optional[int]
    decomposition: Optional[Decomposition]
    evidence: dict = field(default_factory=dict)


def classify(
    g: PointFunction,
    max_order: int,
    units: Sequence[ImaginaryUnit],
    points: Sequence[tuple[Fraction, Fraction]],
) -> ClassificationReport:
    """Slice-by-slice order, sampled slice-ness, and global order if slice.

    The slice-by-slice zero test is symbolic, so a pass is exact on each
    sampled slice; unit sampling remains a sample of slices.  The global order
    is computed only when the slice-ness probe passes, by extracting the
    candidate stem along the first unit and decomposing.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    evidence: dict = {}

    sbs_order: Optional[int] = None
    worst = 0
    for unit in units:
        plane = restrict_to_slice(g, unit)
        n = 1
        plane = plane.dbar()
        while not plane.is_zero() and n < max_order:
            plane = plane.dbar()
            n += 1
        if not plane.is_zero():
            worst = None
            evidence["sbs_blocking_unit"] = repr(unit.value)
            break
        worst = max(worst, n)
    if worst is not None:
        sbs_order = worst

    slice_ok, witness = is_slice(g, units, points)

    global_order: Optional[int] = None
    decomposition: Optional[Decomposition] = None
    if slice_ok:
        try:
            stem = extract_stem_exact(g, units[0])
        except ValueError:
            evidence["candidate_stem"] = "not polynomial"
        else:
            induced = SliceFunction(g.domain, stem)
            reproduces = induced.to_point_function().expr == g.expr
            evidence["stem_reproduces_input"] = reproduces
            if reproduces:
                order = poly_order(induced)
                if order <= max_order:
                    decomposition = decompose(induced, order)
                    global_order = decomposition.order
                else:
                    evidence["global_order_exceeds_max"] = order
    return ClassificationReport(
        sbs_polyanalytic_order=sbs_order,
        is_slice=slice_ok,
        slice_witness=witness,
        global_order=global_order,
        decomposition=decomposition,
        evidence=evidence,
    )


# -- counterexample suite -------------------------------------------------------


@dataclass
class SuiteCheck:
    check_id: str
    passed: bool
    details: dict


@dataclass
class SuiteReport:
    signature: AlgebraSignature
    checks: list[SuiteCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _suite_points(count: int = 6) -> list[tuple[Fraction, Fraction]]:
    """Deterministic off-axis plane points inside the default ball."""
    pts = [(Fraction(0), Fraction(1))]
    k = 1
    while len(pts) < count:
        pts.append((Fraction(k, 3), Fraction(k + 1, 2 + k)))
        k += 1
    return pts


def _expected_slice_constants(
    sig: AlgebraSignature, unit: ImaginaryUnit
) -> tuple[AlgebraElement, AlgebraElement]:
    """The order-two slice coefficients of the twisted coordinate function.

    Along the slice of I the function reads x_I c_plus + xbar_I c_minus with
    c_plus = (1 + I u I u)/2 and c_minus = (1 - I u I u)/2, u the first
    canonical imaginary basis element.
    """
    u = AlgebraElement.basis(sig, sig.imag_masks[0])
    prod = unit.value * u * unit.value * u
    one = AlgebraElement.one(sig)
    half = Fraction(1, 2)
    return (one + prod) * half, (one - prod) * half


def counterexample_suite(
    signature: AlgebraSignature,
    seed: int = 0,
    unit_count: int = 100,
    _nested: bool = False,
) -> SuiteReport:
    """Exact replay of the separating examples for this signature.

    For the quaternions the suite also re-runs itself under Cl(0,3), where the
    twisted coordinate uses e_1 in place of i.
    """
    units = sample_units(signature, seed, unit_count)
    domain = default_domain()
    points = _suite_points()
    v = rotation_twisted_coordinate(signature, domain)
    v_r = left_multiplied_coordinate(signature, domain)
    bump = jump_example(signature, domain)
    checks: list[SuiteCheck] = []

    # (1) second slice derivative vanishes on every sampled slice, exactly
    first_consts = []
    ok = True
    for unit in units:
        d1 = dbar_slice(v, unit, 1)
        c_plus, c_minus = _expected_slice_constants(signature, unit)
        const_ok = d1.rf == CoordPoly.constant(signature, 2, c_minus)
        second_ok = d1.dbar().is_zero()
        ok = ok and const_ok and second_ok
        first_consts.append(c_minus)
    checks.append(
        SuiteCheck(
            "slicewise-order-two",
            ok,
            {"units": len(units), "distinct_first_derivatives": len(set(first_consts))},
        )
    )

    # (2) representation formula fails: not a slice function
    slice_ok, witness = is_slice(v, units[: min(len(units), 8)], points)
    expected_pair = (
        witness is not None
        and witness.unit_h == units[0]
        and witness.unit_k == units[1]
    )
    checks.append(
        SuiteCheck(
            "not-slice",
            (not slice_ok) and expected_pair,
            {
                "witness_h": repr(witness.unit_h.value) if witness else None,
                "witness_k": repr(witness.unit_k.value) if witness else None,
                "witness_z": [str(witness.z[0]), str(witness.z[1])] if witness else None,
            },
        )
    )

    # (3) the candidate stem from one slice does not reproduce the function
    stem = extract_stem_exact(v, units[0])
    induced = SliceFunction(domain, stem).to_point_function()
    probe = phi_coords(units[1], Fraction(0), Fraction(1))
    mismatch = induced.expr != v.expr and induced.eval_coords(probe) != v.eval_coords(
        probe
    )
    checks.append(
        SuiteCheck(
            "extraction-not-global",
            mismatch,
            {
                "induced_at_probe": repr(induced.eval_coords(probe)),
                "actual_at_probe": repr(v.eval_coords(probe)),
            },
        )
    )

    # (4) per-slice coefficients depend on the slice
    ok = True
    for unit in units:
        f0, f1 = per_slice_decomposition(v, unit)
        c_plus, c_minus = _expected_slice_constants(signature, unit)
        want_f0 = plane_x(signature, unit).scale_right(c_plus)
        ok = ok and f1.rf == CoordPoly.constant(signature, 2, c_minus)
        ok = ok and f0.rf == want_f0
    u0, u1 = units[0], units[1]
    pair0 = per_slice_decomposition(v, u0)
    pair1 = per_slice_decomposition(v, u1)
    differs = pair0[1].rf != pair1[1].rf
    checks.append(
        SuiteCheck(
            "slice-coefficients-depend-on-unit",
            ok and differs,
            {
                "f1_on_first_unit": repr(pair0[1].rf.numer),
                "f1_on_second_unit": repr(pair1[1].rf.numer),
            },
        )
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
        # i2 != 0 forces a positive denominator, hence a bounded restriction
        if restricted.rf == target and (i2 == 0 or tail > 0):
            matched += 1
        else:
            ok = False
    checks.append(
        SuiteCheck(
            "slicewise-continuous-jump",
            ok,
            {"sequence_checked": 49, "restrictions_matched": matched},
        )
    )

    # (7) the left-multiplied coordinate: same slice-by-slice order, not slice
    ok = all(dbar_slice(v_r, unit, 2).is_zero() for unit in units)
    vr_ok, vr_witness = is_slice(v_r, units[: min(len(units), 8)], points)
    checks.append(
        SuiteCheck(
            "left-multiplier-not-slice",
            ok and not vr_ok,
            {
                "witness_h": repr(vr_witness.unit_h.value) if vr_witness else None,
                "witness_k": repr(vr_witness.unit_k.value) if vr_witness else None,
            },
        )
    )

    # (6) the Clifford analogue passes the same checks
    if signature.kind == "quaternion" and not _nested:
        nested = counterexample_suite(
            clifford(3), seed=seed, unit_count=min(unit_count, 32), _nested=True
        )
        checks.append(
            SuiteCheck(
                "clifford-analogue",
                nested.all_passed,
                {c.check_id: c.passed for c in nested.checks},
            )
        )
    return SuiteReport(signature, checks)
