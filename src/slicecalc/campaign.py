"""Seeded verification campaigns over the identity and invariant suites.

Every check body is a plain function parameterized by explicit sample counts,
so the acceptance tests can run the same code at their own sizes.  The
campaign table derives counts from CampaignConfig: ``unit_samples`` sizes
the unit pool and ``point_samples`` the number of trial tuples per check.
Each check seeds its own generator from (seed, check id), which makes reports
byte-identical for a fixed config regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import perm
from typing import Callable, Optional

from .algebra import QUATERNION, AlgebraSignature, clifford, sample_units
from .multipoly import coord_s, coord_xbar
from .named import default_domain
from .operators import (
    SlicePlanePoly,
    dbar_slice,
    g_op,
    plane_x,
    restrict_slice_function,
    restrict_to_slice,
    thetabar,
)
from .polyanalytic import counterexample_suite, decompose
from .sampling import (
    rand_holomorphic_stem,
    rand_nonzero_element,
    rand_plane_point,
    rand_point_polynomial,
    rand_rational_point_function,
    rand_regular_tuple,
    rand_stem,
    rng_for,
)
from .serialize import digest
from .slicefn import (
    PointFunction,
    SliceFunction,
    phi_coords,
    representation_eval,
    taylor_alpha_coefficients,
)
from .stem import StemFunction


@dataclass(frozen=True)
class CampaignConfig:
    seed: int = 0
    unit_samples: int = 64
    point_samples: int = 128
    max_order: int = 4
    select: tuple[str, ...] = ()

    def __post_init__(self):
        if self.unit_samples < 1 or self.point_samples < 1 or self.max_order < 1:
            raise ValueError("sample counts and max_order must be >= 1")


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    inputs_digest: str
    detail: dict
    witness: Optional[dict] = None


@dataclass
class CampaignReport:
    config: CampaignConfig
    results: list[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


SIGNATURES = (QUATERNION, clifford(3))


def _sig_label(sig: AlgebraSignature) -> str:
    return "quaternion" if sig.kind == "quaternion" else f"clifford_{sig.m}"


# -- check bodies (reused verbatim by the acceptance tests) ---------------------


def slice_global_trials(
    sig: AlgebraSignature,
    seed: int,
    n_funcs: int,
    n_units: int,
    n_points: int,
    orders: tuple[int, ...] = (1, 2, 3),
    n_rational: int = 0,
) -> tuple[int, int, Optional[dict]]:
    """Pointwise coincidence of the global operator with slice derivatives.

    For each function g, unit I, off-axis plane point z and order n, compares
    thetabar^n(g) at the point alpha + I beta against the n-th slice
    derivative of the restriction, both exact.  Returns (trials, failures,
    first witness).
    """
    rng = rng_for(seed, f"slice-global:{_sig_label(sig)}")
    funcs: list[PointFunction] = [
        rand_point_polynomial(rng, sig, max_degree=4) for _ in range(n_funcs)
    ]
    funcs += [rand_rational_point_function(rng, sig) for _ in range(n_rational)]
    units = sample_units(sig, seed, n_units)
    points = [rand_plane_point(rng) for _ in range(n_points)]
    trials = failures = 0
    witness = None
    for gi, g in enumerate(funcs):
        theta = g
        theta_seq = []
        for _ in range(max(orders)):
            theta = thetabar(theta, 1)
            theta_seq.append(theta)
        for ui, unit in enumerate(units):
            plane = restrict_to_slice(g, unit)
            for n in range(1, max(orders) + 1):
                plane = plane.dbar()
                if n not in orders:
                    continue
                for z in points:
                    trials += 1
                    lhs = theta_seq[n - 1].expr.eval(phi_coords(unit, *z))
                    rhs = plane.eval_at(z)
                    if lhs != rhs:
                        failures += 1
                        if witness is None:
                            witness = {
                                "function_index": gi,
                                "unit_index": ui,
                                "order": n,
                                "z": [str(z[0]), str(z[1])],
                                "global": repr(lhs),
                                "slice": repr(rhs),
                            }
    return trials, failures, witness


def _dbar_levels(plane: SlicePlanePoly, top: int) -> list[SlicePlanePoly]:
    """[plane, dbar plane, ..., dbar^top plane], each level one step from the last."""
    levels = [plane]
    for _ in range(top):
        levels.append(levels[-1].dbar())
    return levels


def slice_derivative_trials(
    sig: AlgebraSignature,
    seed: int,
    n_stems: int,
    n_units: int,
    orders: tuple[int, ...] = (1, 2),
    zbar_degree: Optional[int] = None,
) -> tuple[int, int, Optional[dict]]:
    """Slice derivative vs slice-by-slice derivative, symbolically per slice.

    Compares the restriction of the n-th slice derivative of an induced
    function against both the plane derivative of its restriction and the
    slice derivative of its coordinate realization.  With ``zbar_degree`` set,
    stems are sums conj^h * (holomorphic) with h bounded by it.
    """
    rng = rng_for(seed, f"slice-derivative:{_sig_label(sig)}")
    units = sample_units(sig, seed, n_units)
    trials = failures = 0
    witness = None
    domain = default_domain()
    for si in range(n_stems):
        if zbar_degree is None:
            stem = rand_stem(rng, sig, max_degree=4)
        else:
            stem = StemFunction.zero(sig)
            for h in range(zbar_degree + 1):
                stem = stem + StemFunction.zbar_pow(sig, h) * rand_holomorphic_stem(
                    rng, sig, max_degree=2, nonzero=(h == zbar_degree)
                )
        f = SliceFunction(domain, stem)
        pf = f.to_point_function()
        # each side restricted once per unit; level n is one dbar step from n - 1
        top = max(orders)
        stem_side = [_dbar_levels(restrict_slice_function(f, unit), top) for unit in units]
        coord_side = [_dbar_levels(restrict_to_slice(pf, unit), top) for unit in units]
        for n in orders:
            derived = f.derivative(n)
            for ui, unit in enumerate(units):
                trials += 1
                want = restrict_slice_function(derived, unit).rf
                via_plane = stem_side[ui][n].rf
                via_coords = coord_side[ui][n].rf
                if want != via_plane or want != via_coords:
                    failures += 1
                    if witness is None:
                        witness = {"stem_index": si, "unit_index": ui, "order": n}
    return trials, failures, witness


def g_relation_trials(
    sig: AlgebraSignature, seed: int, n_funcs: int
) -> tuple[int, int, Optional[dict]]:
    """G(g) == 2 |Im|^2 thetabar(g) as exact rational functions."""
    rng = rng_for(seed, f"g-relation:{_sig_label(sig)}")
    trials = failures = 0
    witness = None
    two_s = coord_s(sig) * 2
    for gi in range(n_funcs):
        if gi % 3 == 2:
            g = rand_rational_point_function(rng, sig)
        else:
            g = rand_point_polynomial(rng, sig, max_degree=4)
        trials += 1
        lhs = g_op(g).expr
        rhs = thetabar(g, 1).expr.mul_poly_left(two_s)
        if lhs != rhs:
            failures += 1
            if witness is None:
                witness = {"function_index": gi}
    return trials, failures, witness


def leibniz_trials(
    sig: AlgebraSignature,
    seed: int,
    n_funcs: int,
    n_units: int,
    powers: tuple[int, ...] = (1, 2, 3),
) -> tuple[int, int, Optional[dict]]:
    """Product rule against conjugate-coordinate powers, slice and global form.

    Slice form: dbar_I((xbar^h g)_I) = h xbar_I^(h-1) g_I + xbar_I^h dbar_I g_I.
    Global form: the same identity through thetabar, compared as rational
    functions after clearing denominators.
    """
    rng = rng_for(seed, f"leibniz:{_sig_label(sig)}")
    units = sample_units(sig, seed, n_units)
    xbar = coord_xbar(sig)
    trials = failures = 0
    witness = None
    for gi in range(n_funcs):
        g = rand_point_polynomial(rng, sig, max_degree=3)
        theta_g = thetabar(g, 1)
        for h in powers:
            xg = PointFunction(g.domain, g.expr.mul_poly_left(xbar**h))
            # global form
            trials += 1
            lhs = thetabar(xg, 1).expr
            rhs = g.expr.mul_poly_left(xbar ** (h - 1) * h) + theta_g.expr.mul_poly_left(
                xbar**h
            )
            if lhs != rhs:
                failures += 1
                if witness is None:
                    witness = {"function_index": gi, "power": h, "form": "global"}
            # slice form on every sampled unit
            for ui, unit in enumerate(units):
                trials += 1
                pxbar = plane_x(sig, -unit)
                s_lhs = dbar_slice(xg, unit, 1).rf
                s_rhs = restrict_to_slice(g, unit).rf.mul_poly_left(
                    pxbar ** (h - 1) * h
                ) + dbar_slice(g, unit, 1).rf.mul_poly_left(pxbar**h)
                if s_lhs != s_rhs:
                    failures += 1
                    if witness is None:
                        witness = {
                            "function_index": gi,
                            "power": h,
                            "form": "slice",
                            "unit_index": ui,
                        }
    return trials, failures, witness


def representation_trials(
    sig: AlgebraSignature,
    seed: int,
    n_stems: int,
    n_triples: int,
) -> tuple[int, int, Optional[dict]]:
    """Slice functions satisfy the two-slice reconstruction formula exactly."""
    rng = rng_for(seed, f"representation:{_sig_label(sig)}")
    units = sample_units(sig, seed, max(8, n_triples // 8))
    domain = default_domain()
    trials = failures = 0
    witness = None
    for si in range(n_stems):
        stem = rand_stem(rng, sig, max_degree=4)
        pf = SliceFunction(domain, stem).to_point_function()
        for _ in range(n_triples):
            unit_h = rng.choice(units)
            unit_k = rng.choice(units)
            z = rand_plane_point(rng)
            trials += 1
            predicted = representation_eval(pf, unit_h, unit_k, z)
            actual = pf.eval_coords(phi_coords(unit_k, *z))
            if predicted != actual:
                failures += 1
                if witness is None:
                    witness = {"stem_index": si, "z": [str(z[0]), str(z[1])]}
    return trials, failures, witness


def regularity_equivalence_trials(
    sig: AlgebraSignature,
    seed: int,
    n_stems: int,
    n_units: int,
) -> tuple[int, int, Optional[dict]]:
    """The equivalent faces of slice regularity on polynomial stems.

    Holomorphic stems must be annihilated by the slice derivative, by the
    slice-by-slice derivative on every sampled slice, by thetabar and by G;
    stems with a conjugate-linear part must fail all four.
    """
    rng = rng_for(seed, f"regularity:{_sig_label(sig)}")
    units = sample_units(sig, seed, n_units)
    domain = default_domain()
    trials = failures = 0
    witness = None
    for si in range(n_stems):
        for regular in (True, False):
            stem = rand_holomorphic_stem(rng, sig, max_degree=3)
            if not regular:
                stem = stem + StemFunction.zbar(sig).scale_right(
                    rand_nonzero_element(rng, sig)
                )
            f = SliceFunction(domain, stem)
            pf = f.to_point_function()
            zero_faces = [
                stem.dbar().is_zero(),
                thetabar(pf, 1).expr.is_zero(),
                g_op(pf).expr.is_zero(),
                all(dbar_slice(pf, unit, 1).is_zero() for unit in units),
            ]
            trials += 1
            ok = all(zero_faces) if regular else not any(zero_faces)
            if not ok:
                failures += 1
                if witness is None:
                    witness = {"stem_index": si, "regular": regular, "faces": zero_faces}
    return trials, failures, witness


def decomposition_roundtrip_trials(
    sig: AlgebraSignature,
    seed: int,
    n_tuples: int,
    n_units: int,
    max_n: int = 4,
) -> tuple[int, int, Optional[dict]]:
    """Compose, decompose, compare; plus the iterated-derivative identity.

    Builds f = sum_h xbar^h f_h from random regular components, checks exact
    component recovery, that the n-th slice-by-slice derivative vanishes on
    every sampled slice, and that for l < n the l-th derivative equals
    sum_(h>=l) h!/(h-l)! xbar_I^(h-l) (f_h)_I.
    """
    rng = rng_for(seed, f"decomposition:{_sig_label(sig)}")
    units = sample_units(sig, seed, n_units)
    domain = default_domain()
    trials = failures = 0
    witness = None
    for ti in range(n_tuples):
        n = 1 + ti % max_n
        parts = rand_regular_tuple(rng, sig, n, max_degree=2)
        total = StemFunction.zero(sig)
        for h, part in enumerate(parts):
            total = total + StemFunction.zbar_pow(sig, h) * part
        f = SliceFunction(domain, total)
        trials += 1
        ok = True
        dec = decompose(f, n)
        recovered = [c.stem for c in dec.components]
        expected = list(parts)
        while len(expected) > 1 and expected[-1].is_zero():
            expected.pop()
        ok = ok and recovered == expected
        ok = ok and dec.recompose().stem == total
        ok = ok and all(c.stem.dbar().is_zero() for c in dec.components)
        pf = f.to_point_function()
        for unit in units:
            ok = ok and dbar_slice(pf, unit, n).is_zero()
            deriv = restrict_slice_function(f, unit)
            pxbar = plane_x(sig, -unit)
            # each part restricted once per unit; levels start at 1, so parts[0] never enters
            restricted = {
                h: restrict_slice_function(SliceFunction(domain, parts[h]), unit).rf
                for h in range(1, n)
            }
            for level in range(1, n):
                deriv = deriv.dbar()
                total_rhs = None
                for h in range(level, n):
                    term = restricted[h].mul_poly_left(pxbar ** (h - level) * perm(h, level))
                    total_rhs = term if total_rhs is None else total_rhs + term
                if total_rhs is not None and deriv.rf != total_rhs:
                    ok = False
        if not ok:
            failures += 1
            if witness is None:
                witness = {"tuple_index": ti, "order": n}
    return trials, failures, witness


def taylor_independence_trials(
    sig: AlgebraSignature,
    seed: int,
    n_stems: int,
    n_units: int,
) -> tuple[int, int, Optional[dict]]:
    """Series coefficients at a real center do not depend on the slice.

    For holomorphic stems on a ball about 0, the normalized alpha-derivatives
    of f o phi_I at 0 agree across sampled units, and the resulting monomial
    sum reproduces the stem exactly.
    """
    rng = rng_for(seed, f"taylor:{_sig_label(sig)}")
    units = sample_units(sig, seed, n_units)
    domain = default_domain()
    trials = failures = 0
    witness = None
    for si in range(n_stems):
        stem = rand_holomorphic_stem(rng, sig, max_degree=3)
        f = SliceFunction(domain, stem)
        degree = max(stem.total_degree(), 0)
        trials += 1
        base = taylor_alpha_coefficients(f, units[0], 0, degree)
        ok = all(
            taylor_alpha_coefficients(f, unit, 0, degree) == base for unit in units[1:]
        )
        rebuilt = StemFunction.zero(sig)
        for h, coeff in enumerate(base):
            rebuilt = rebuilt + StemFunction.z_pow(sig, h).scale_right(coeff)
        ok = ok and rebuilt == stem
        if not ok:
            failures += 1
            if witness is None:
                witness = {"stem_index": si}
    return trials, failures, witness


# -- campaign table ----------------------------------------------------------------


def _per_signature(
    config: CampaignConfig, check_id: str, *runs: tuple[Callable, dict]
) -> CheckResult:
    """Run each (body, sizes) pair on every signature and merge the verdicts.

    Per signature, trials and failures add up over the bodies and the first
    witness any body returns is kept.
    """
    detail: dict = {}
    passed = True
    witness = None
    for sig in SIGNATURES:
        trials = failures = 0
        first = None
        for body, sizes in runs:
            t, f, w = body(sig, config.seed, **sizes)
            trials += t
            failures += f
            if first is None:
                first = w
        detail[_sig_label(sig)] = {"trials": trials, "failures": failures}
        if failures:
            passed = False
            if witness is None and first is not None:
                witness = {"signature": _sig_label(sig), **first}
    inputs = {
        "check": check_id,
        "seed": config.seed,
        "unit_samples": config.unit_samples,
        "point_samples": config.point_samples,
        "max_order": config.max_order,
    }
    return CheckResult(check_id, passed, digest(inputs), detail, witness)


def _units(config: CampaignConfig, cap: int) -> int:
    return max(2, min(config.unit_samples, cap))


def _budget(config: CampaignConfig, floor: int, per: int) -> int:
    """A share of the per-check trial budget ``point_samples``, at least ``floor``."""
    return max(floor, config.point_samples // per)


def _check_counterexamples(config: CampaignConfig) -> CheckResult:
    report = counterexample_suite(
        QUATERNION, seed=config.seed, unit_count=config.unit_samples
    )
    detail = {c.check_id: c.passed for c in report.checks}
    witness = None
    for c in report.checks:
        if not c.passed:
            witness = {"check": c.check_id, **{k: str(v) for k, v in c.details.items()}}
            break
    inputs = {"check": "counterexamples", "seed": config.seed, "units": config.unit_samples}
    return CheckResult("counterexamples", report.all_passed, digest(inputs), detail, witness)


# One row per check: its bodies and their sizes under a config.  Each value is a
# function of its own, so a profile attributes time to each check separately.
CHECKS: dict[str, Callable[[CampaignConfig], CheckResult]] = {
    "slice-global-coincidence": lambda c: _per_signature(
        c,
        "slice-global-coincidence",
        (
            slice_global_trials,
            dict(n_funcs=_budget(c, 2, 24), n_units=_units(c, 12), n_points=4, n_rational=2),
        ),
    ),
    "slice-derivative-coincidence": lambda c: _per_signature(
        c,
        "slice-derivative-coincidence",
        (slice_derivative_trials, dict(n_stems=_budget(c, 4, 8), n_units=_units(c, 12))),
    ),
    "leibniz": lambda c: _per_signature(
        c,
        "leibniz",
        (leibniz_trials, dict(n_funcs=_budget(c, 2, 24), n_units=_units(c, 6))),
    ),
    "representation": lambda c: _per_signature(
        c,
        "representation",
        (representation_trials, dict(n_stems=_budget(c, 2, 24), n_triples=24)),
    ),
    "regularity-equivalences": lambda c: _per_signature(
        c,
        "regularity-equivalences",
        (
            regularity_equivalence_trials,
            dict(n_stems=_budget(c, 2, 24), n_units=_units(c, 10)),
        ),
        (g_relation_trials, dict(n_funcs=_budget(c, 4, 16))),
    ),
    "decomposition-roundtrip": lambda c: _per_signature(
        c,
        "decomposition-roundtrip",
        (
            decomposition_roundtrip_trials,
            dict(n_tuples=_budget(c, 4, 10), n_units=_units(c, 6), max_n=c.max_order),
        ),
    ),
    "taylor-independence": lambda c: _per_signature(
        c,
        "taylor-independence",
        (taylor_independence_trials, dict(n_stems=_budget(c, 4, 8), n_units=_units(c, 16))),
    ),
    "counterexamples": _check_counterexamples,
}


def run_campaign(config: CampaignConfig) -> CampaignReport:
    selected = config.select or tuple(CHECKS)
    unknown = [s for s in selected if s not in CHECKS]
    if unknown:
        raise ValueError(
            f"unknown check ids {unknown}; valid ids: {', '.join(sorted(CHECKS))}"
        )
    report = CampaignReport(config)
    for check_id in sorted(set(selected)):
        report.results.append(CHECKS[check_id](config))
    return report
