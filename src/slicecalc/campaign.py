"""Seeded verification campaigns over the identity and invariant suites.

Every check body is a plain function parameterized by explicit sample counts,
so the acceptance tests can run the same code at their own sizes.  A body
yields one outcome per trial, None on a pass and the witness dict on a
failure; ``_tally`` counts them into the (trials, failures, first witness)
that its callers get.  The campaign table derives counts from CampaignConfig:
``unit_samples`` sizes the unit pool (at least 2 units for every check) and
``point_samples`` the number of trial tuples per check.  Each row returns
its JSON report entry, and ``run_campaign`` assembles the whole report.
Each check seeds its own generator from (seed, check id, signature), which
makes reports byte-identical for a fixed config regardless of scheduling.  So
a check's signatures run side by side, each after the first in a forked
process, when the machine has more than one usable CPU; the report bytes are
the same either way.
"""

from __future__ import annotations

import os
import threading
from dataclasses import asdict, dataclass
from functools import partial, wraps
from itertools import islice
from math import perm
from typing import Callable, Iterator, Optional

from .algebra import QUATERNION, AlgebraSignature, clifford, sample_units, unit_capacity
from .multipoly import _iterates, coord_s, coord_xbar
from .named import default_domain
from .operators import (
    dbar_slice,
    g_op,
    plane_x,
    restrict_slice_function,
    restrict_to_slice,
    thetabar,
)
from .polyanalytic import compose, counterexample_suite, decompose
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
from .serialize import digest, frac_to_str
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
        # the counterexample suite samples unit_samples quaternion units, uncapped
        cap = unit_capacity(QUATERNION)
        if self.unit_samples > cap:
            raise ValueError(
                f"unit_samples must be at most {cap}, the quaternion units the sampling chart reaches"
            )
        unknown = [s for s in self.select if s not in CHECKS]
        if unknown:
            raise ValueError(
                f"unknown check ids {unknown}; valid ids: {', '.join(sorted(CHECKS))}"
            )


SIGNATURES = (QUATERNION, clifford(3))


def _sig_label(sig: AlgebraSignature) -> str:
    return "quaternion" if sig.kind == "quaternion" else f"clifford_{sig.m}"


def _can_fork() -> bool:
    """Whether a forked child can run beside this process.

    Forking a process with threads copies only the calling thread, so a lock
    another thread holds would stay held in the child.
    """
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count() or 1
    return hasattr(os, "fork") and usable > 1 and threading.active_count() == 1


def _side_by_side(calls: dict[str, Callable[[], object]]) -> list:
    """``[f() for f in calls.values()]``, each call after the first in a forked child.

    The children start first; each pipes back its pickled result, or the
    exception it raised, and leaves with ``os._exit``.  This process runs the
    first call, then reads the children's outcomes in order and raises the
    first exception among all the calls, as running them in turn would.  Every
    child is reaped before this returns or raises; one that ends without
    sending an outcome is named by its key.  Without fork, a second usable CPU
    or with other threads running, the calls run in turn here.
    """
    if len(calls) < 2 or not _can_fork():
        return [f() for f in calls.values()]
    import pickle
    import signal

    (_, first), *rest = calls.items()
    children = []
    try:
        for label, f in rest:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:  # the child: send the outcome and skip this process's cleanup
                status = 1
                try:
                    try:
                        outcome = True, f()
                    except Exception as exc:
                        outcome = False, exc
                    with open(write_end, "wb") as pipe:
                        pipe.write(pickle.dumps(outcome))
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            children.append((label, pid, open(read_end, "rb")))
        results = [first()]
        while children:
            label, pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            if not data:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(
                    f"the {label} run ended with exit status {code} before sending its result"
                )
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for _, pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# -- check bodies (reused verbatim by the acceptance tests) ---------------------


def _tally(body: Callable[..., Iterator[Optional[dict]]]):
    """The body as a function returning (trials, failures, first witness).

    ``body`` yields one outcome per trial: None on a pass, the witness dict on
    a failure.  The name and docstring stay the body's, so profiles and the
    benchmark's spans still name the body.
    """

    @wraps(body)
    def run(*args, **kwargs) -> tuple[int, int, Optional[dict]]:
        outcomes = list(body(*args, **kwargs))
        witnesses = [w for w in outcomes if w is not None]
        return len(outcomes), len(witnesses), next(iter(witnesses), None)

    return run


@_tally
def slice_global_trials(
    sig: AlgebraSignature,
    seed: int,
    n_funcs: int,
    n_units: int,
    n_points: int,
    orders: tuple[int, ...] = (1, 2, 3),
    n_rational: int = 0,
) -> Iterator[Optional[dict]]:
    """Pointwise coincidence of the global operator with slice derivatives.

    For each function g, unit I, off-axis plane point z and order n, compares
    thetabar^n(g) at the point alpha + I beta against the n-th slice
    derivative of the restriction, both exact.
    """
    rng = rng_for(seed, f"slice-global:{_sig_label(sig)}")
    funcs: list[PointFunction] = [
        rand_point_polynomial(rng, sig, max_degree=4) for _ in range(n_funcs)
    ]
    funcs += [rand_rational_point_function(rng, sig) for _ in range(n_rational)]
    units = sample_units(sig, seed, n_units)
    points = [rand_plane_point(rng) for _ in range(n_points)]
    coords = [[phi_coords(unit, *z) for z in points] for unit in units]
    top = max(orders)
    for gi, g in enumerate(funcs):
        thetas = list(islice(_iterates(thetabar, g), top + 1))
        for ui, unit in enumerate(units):
            planes = restrict_to_slice(g, unit).dbar_chain(top)
            for n in sorted(set(orders)):
                for z, x in zip(points, coords[ui]):
                    lhs = thetas[n].expr.eval(x)
                    rhs = planes[n].rf.eval(z)
                    yield None if lhs == rhs else {
                        "function_index": gi,
                        "unit_index": ui,
                        "order": n,
                        "z": [frac_to_str(c) for c in z],
                        "global": repr(lhs),
                        "slice": repr(rhs),
                    }


@_tally
def slice_derivative_trials(
    sig: AlgebraSignature,
    seed: int,
    n_stems: int,
    n_units: int,
    orders: tuple[int, ...] = (1, 2),
    zbar_degree: Optional[int] = None,
) -> Iterator[Optional[dict]]:
    """Slice derivative vs slice-by-slice derivative, symbolically per slice.

    Compares the restriction of the n-th slice derivative of an induced
    function against both the plane derivative of its restriction and the
    slice derivative of its coordinate realization.  With ``zbar_degree`` set,
    stems are sums conj^h * (holomorphic) with h bounded by it.
    """
    rng = rng_for(seed, f"slice-derivative:{_sig_label(sig)}")
    units = sample_units(sig, seed, n_units)
    domain = default_domain()
    top = max(orders)
    for si in range(n_stems):
        if zbar_degree is None:
            stem = rand_stem(rng, sig, max_degree=4)
        else:
            stem = compose(rand_regular_tuple(rng, sig, zbar_degree + 1))
        pf = SliceFunction(domain, stem).to_point_function()
        # each side restricted once per unit; level n is one dbar step from n - 1
        stem_side = [restrict_slice_function(stem, unit).dbar_chain(top) for unit in units]
        coord_side = [restrict_to_slice(pf, unit).dbar_chain(top) for unit in units]
        stem_levels = list(islice(_iterates(StemFunction.dbar, stem), top + 1))
        for n in orders:
            derived = stem_levels[n]
            for ui, unit in enumerate(units):
                want = restrict_slice_function(derived, unit).rf
                via_plane = stem_side[ui][n].rf
                via_coords = coord_side[ui][n].rf
                ok = want == via_plane and want == via_coords
                yield None if ok else {"stem_index": si, "unit_index": ui, "order": n}


@_tally
def g_relation_trials(
    sig: AlgebraSignature, seed: int, n_funcs: int
) -> Iterator[Optional[dict]]:
    """G(g) == 2 |Im|^2 thetabar(g) as exact rational functions."""
    rng = rng_for(seed, f"g-relation:{_sig_label(sig)}")
    two_s = coord_s(sig) * 2
    for gi in range(n_funcs):
        if gi % 3 == 2:
            g = rand_rational_point_function(rng, sig)
        else:
            g = rand_point_polynomial(rng, sig, max_degree=4)
        lhs = g_op(g).expr
        rhs = thetabar(g, 1).expr.mul_poly_left(two_s)
        yield None if lhs == rhs else {"function_index": gi}


@_tally
def leibniz_trials(
    sig: AlgebraSignature,
    seed: int,
    n_funcs: int,
    n_units: int,
) -> Iterator[Optional[dict]]:
    """Product rule against conjugate-coordinate powers xbar^1..xbar^3, slice and global form.

    Slice form: dbar_I((xbar^h g)_I) = h xbar_I^(h-1) g_I + xbar_I^h dbar_I g_I.
    Global form: the same identity through thetabar, compared as rational
    functions after clearing denominators.
    """
    rng = rng_for(seed, f"leibniz:{_sig_label(sig)}")
    units = sample_units(sig, seed, n_units)
    # xbar^0..xbar^3 in the coordinates, and on the slice of each unit
    xbar = list(islice(coord_xbar(sig).powers(), 4))
    plane_xbar = [list(islice(plane_x(sig, -unit).powers(), 4)) for unit in units]
    for gi in range(n_funcs):
        g = rand_point_polynomial(rng, sig, max_degree=3)
        theta_g = thetabar(g, 1)
        # g_I and dbar_I g_I on every unit, from one restriction each
        g_planes = [restrict_to_slice(g, unit).dbar_chain(1) for unit in units]
        for h in (1, 2, 3):
            xg = PointFunction(g.domain, g.expr.mul_poly_left(xbar[h]))
            # global form
            lhs = thetabar(xg, 1).expr
            rhs = g.expr.mul_poly_left(xbar[h - 1] * h) + theta_g.expr.mul_poly_left(xbar[h])
            yield None if lhs == rhs else {"function_index": gi, "power": h, "form": "global"}
            # slice form on every sampled unit
            for ui, (unit, pxbar, (g_slice, dg_slice)) in enumerate(
                zip(units, plane_xbar, g_planes)
            ):
                s_lhs = dbar_slice(xg, unit, 1).rf
                s_rhs = g_slice.rf.mul_poly_left(
                    pxbar[h - 1] * h
                ) + dg_slice.rf.mul_poly_left(pxbar[h])
                yield None if s_lhs == s_rhs else {
                    "function_index": gi,
                    "power": h,
                    "form": "slice",
                    "unit_index": ui,
                }


@_tally
def representation_trials(
    sig: AlgebraSignature,
    seed: int,
    n_stems: int,
    n_units: int,
    n_triples: int,
) -> Iterator[Optional[dict]]:
    """Slice functions satisfy the two-slice reconstruction formula exactly."""
    rng = rng_for(seed, f"representation:{_sig_label(sig)}")
    units = sample_units(sig, seed, n_units)
    domain = default_domain()
    for si in range(n_stems):
        stem = rand_stem(rng, sig, max_degree=4)
        pf = SliceFunction(domain, stem).to_point_function()
        for _ in range(n_triples):
            unit_h = rng.choice(units)
            unit_k = rng.choice(units)
            z = rand_plane_point(rng)
            predicted = representation_eval(pf, unit_h, unit_k, z)
            actual = pf.eval_coords(phi_coords(unit_k, *z))
            witness = {"stem_index": si, "z": [frac_to_str(c) for c in z]}
            yield None if predicted == actual else witness


@_tally
def regularity_equivalence_trials(
    sig: AlgebraSignature,
    seed: int,
    n_stems: int,
    n_units: int,
) -> Iterator[Optional[dict]]:
    """The equivalent faces of slice regularity on polynomial stems.

    Holomorphic stems must be annihilated by the slice derivative, by the
    slice-by-slice derivative on every sampled slice, by thetabar and by G;
    stems with a conjugate-linear part must fail all four.
    """
    rng = rng_for(seed, f"regularity:{_sig_label(sig)}")
    units = sample_units(sig, seed, n_units)
    domain = default_domain()
    for si in range(n_stems):
        for regular in (True, False):
            stem = rand_holomorphic_stem(rng, sig, max_degree=3)
            if not regular:
                stem = stem + StemFunction.zbar(sig).scale_right(
                    rand_nonzero_element(rng, sig)
                )
            pf = SliceFunction(domain, stem).to_point_function()
            zero_faces = [
                stem.dbar().is_zero(),
                thetabar(pf, 1).expr.is_zero(),
                g_op(pf).expr.is_zero(),
                all(dbar_slice(pf, unit, 1).is_zero() for unit in units),
            ]
            ok = all(zero_faces) if regular else not any(zero_faces)
            yield None if ok else {"stem_index": si, "regular": regular, "faces": zero_faces}


@_tally
def decomposition_roundtrip_trials(
    sig: AlgebraSignature,
    seed: int,
    n_tuples: int,
    n_units: int,
    max_n: int = 4,
) -> Iterator[Optional[dict]]:
    """Compose, decompose, compare; plus the iterated-derivative identity.

    Builds f = sum_h xbar^h f_h from random regular components, checks exact
    component recovery, that the n-th slice-by-slice derivative vanishes on
    every sampled slice, and that for l < n the l-th derivative equals
    sum_(h>=l) h!/(h-l)! xbar_I^(h-l) (f_h)_I.
    """
    rng = rng_for(seed, f"decomposition:{_sig_label(sig)}")
    units = sample_units(sig, seed, n_units)
    domain = default_domain()
    # the orders drawn below are 1..min(max_n, n_tuples), so no higher power is read
    reach = min(max_n, n_tuples)
    plane_xbar = [list(islice(plane_x(sig, -unit).powers(), reach)) for unit in units]
    for ti in range(n_tuples):
        n = 1 + ti % max_n
        parts = rand_regular_tuple(rng, sig, n)
        total = compose(parts)
        components = decompose(total, n)
        ok = list(components) == parts
        ok = ok and all(c.dbar().is_zero() for c in components)
        pf = SliceFunction(domain, total).to_point_function()
        for unit, pxbar in zip(units, plane_xbar):
            levels = restrict_to_slice(pf, unit).dbar_chain(n)
            ok = ok and levels[n].is_zero()
            # each part restricted once per unit; levels start at 1, so parts[0] never enters
            restricted = {
                h: restrict_slice_function(parts[h], unit).rf for h in range(1, n)
            }
            for level in range(1, n):
                total_rhs = None
                for h in range(level, n):
                    term = restricted[h].mul_poly_left(pxbar[h - level] * perm(h, level))
                    total_rhs = term if total_rhs is None else total_rhs + term
                if levels[level].rf != total_rhs:
                    ok = False
        yield None if ok else {"tuple_index": ti, "order": n}


@_tally
def taylor_independence_trials(
    sig: AlgebraSignature,
    seed: int,
    n_stems: int,
    n_units: int,
) -> Iterator[Optional[dict]]:
    """Series coefficients at a real center do not depend on the slice.

    For holomorphic stems on a ball about 0, the normalized alpha-derivatives
    of f o phi_I at 0 agree across sampled units, and the resulting monomial
    sum reproduces the stem exactly.
    """
    rng = rng_for(seed, f"taylor:{_sig_label(sig)}")
    units = sample_units(sig, seed, n_units)
    for si in range(n_stems):
        stem = rand_holomorphic_stem(rng, sig, max_degree=3)
        degree = max(stem.total_degree(), 0)
        base = taylor_alpha_coefficients(stem, units[0], 0, degree)
        ok = all(
            taylor_alpha_coefficients(stem, unit, 0, degree) == base for unit in units[1:]
        )
        rebuilt = StemFunction.zero(sig)
        for z_h, coeff in zip(StemFunction.z(sig).powers(), base):
            rebuilt = rebuilt + z_h.scale_right(coeff)
        ok = ok and rebuilt == stem
        yield None if ok else {"stem_index": si}


# -- campaign table ----------------------------------------------------------------


def _entry(check_id: str, inputs: dict, detail: dict, witness: Optional[dict]) -> dict:
    """A check's report entry; it passed exactly when there is no witness."""
    entry = {
        "id": check_id,
        "inputs_digest": digest({"check": check_id, **inputs}),
        "passed": witness is None,
        "detail": detail,
    }
    if witness is not None:
        entry["witness"] = witness
    return entry


def _per_signature(config: CampaignConfig, check_id: str, *runs: tuple[Callable, dict]) -> dict:
    """Run each (body, sizes) pair on every signature and merge the verdicts.

    Per signature, trials and failures add up over the bodies and the first
    witness any body returns is kept.  The signatures run side by side.
    """

    def tally(sig: AlgebraSignature) -> tuple[int, int, Optional[dict]]:
        trials = failures = 0
        first = None
        for body, sizes in runs:
            t, f, w = body(sig, config.seed, **sizes)
            trials += t
            failures += f
            if first is None:
                first = w
        return trials, failures, first

    tallies = _side_by_side({_sig_label(sig): partial(tally, sig) for sig in SIGNATURES})
    detail: dict = {}
    witness = None
    for sig, (trials, failures, first) in zip(SIGNATURES, tallies):
        detail[_sig_label(sig)] = {"trials": trials, "failures": failures}
        if failures and witness is None:
            witness = {"signature": _sig_label(sig), **first}
    inputs = {
        "seed": config.seed,
        "unit_samples": config.unit_samples,
        "point_samples": config.point_samples,
        "max_order": config.max_order,
    }
    return _entry(check_id, inputs, detail, witness)


def _units(config: CampaignConfig, cap: int) -> int:
    return max(2, min(config.unit_samples, cap))


def _budget(config: CampaignConfig, floor: int, per: int) -> int:
    """A share of the per-check trial budget ``point_samples``, at least ``floor``."""
    return max(floor, config.point_samples // per)


def _check_counterexamples(config: CampaignConfig) -> dict:
    """The suite on the quaternions, then (6): the same checks pass under Cl(0,3).

    The two suites run side by side.
    """
    units = max(2, config.unit_samples)
    quaternion, analogue = SIGNATURES
    report, nested = _side_by_side(
        {
            _sig_label(quaternion): partial(
                counterexample_suite, quaternion, seed=config.seed, unit_count=units
            ),
            _sig_label(analogue): partial(
                counterexample_suite, analogue, seed=config.seed, unit_count=min(units, 32)
            ),
        }
    )
    verdicts = {check_id: passed for check_id, (passed, _) in nested.items()}
    report["clifford-analogue"] = (all(verdicts.values()), verdicts)
    detail = {check_id: passed for check_id, (passed, _) in report.items()}
    witness = None
    for check_id, (passed, details) in report.items():
        if not passed:
            witness = {"check": check_id, **details}
            break
    inputs = {"seed": config.seed, "units": config.unit_samples}
    return _entry("counterexamples", inputs, detail, witness)


# One row per check: its bodies and their sizes under a config, returning the
# check's report entry.  Each value is a function of its own, so a profile
# attributes time to each check separately.
CHECKS: dict[str, Callable[[CampaignConfig], dict]] = {
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
        (
            representation_trials,
            dict(n_stems=_budget(c, 2, 24), n_units=_units(c, 8), n_triples=24),
        ),
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


def run_campaign(config: CampaignConfig) -> dict:
    """The JSON report of the checks in ``config.select`` (all when empty).

    Each selected check runs once, in id order, and the report's
    ``config.select`` lists exactly the checks run.
    """
    select = sorted(set(config.select or CHECKS))
    checks = [CHECKS[check_id](config) for check_id in select]
    return {
        "config": {**asdict(config), "select": select},
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
