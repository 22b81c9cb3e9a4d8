"""The four benchmark workloads: inputs derived from the seed, and their items.

An item is one check-body or identity call on one derived seed: a callable
taking the tracer and returning (trials, failures).  An identity that does
not hold is a failed trial, never an exception.  Items are built in set-up, so input generation is part of
``setup_s``, and they reach slicecalc only through public entry points.

Why these four:

* ``verify``: the user-facing ``slicecalc verify`` at default sizes, on two
  seeds derived from the benchmark seed (one verify's cost moves about 10%
  with its seed, so one alone would make the run unsteady).  The only
  workload that runs the campaign wrapper, ``serialize`` and ``cli``; it
  shows how a kernel gain dilutes across the real check mix.
* ``global-eval``: ``slice_global_trials`` with many (unit, point) pairs per
  function, so exact point evaluation (``CoordPoly.eval``) dominates.  The
  "read" use of ``multipoly``.
* ``global-symbolic``: builds thetabar^n and G symbolically (n up to 4) and
  compares exact rational functions; no point evaluation.  The "write" use
  of the same layers, where expression swell matters most.
* ``slice-plane``: slice-derivative and decomposition round-trip bodies.
  Slice restriction, ``SlicePlanePoly.dbar`` and ``RationalFn.__eq__``
  dominate and thetabar is never called: it bypasses the global operator.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass
from typing import Callable

from slicecalc import cli
from slicecalc.algebra import QUATERNION, clifford
from slicecalc.campaign import (
    CHECKS,
    decomposition_roundtrip_trials,
    slice_derivative_trials,
    slice_global_trials,
)
from slicecalc.multipoly import CoordPoly, RationalFn, coord_s
from slicecalc.named import default_domain
from slicecalc.operators import g_op, thetabar
from slicecalc.sampling import (
    rand_nonzero_element,
    rand_point_polynomial,
    rand_rational_point_function,
    rand_stem,
    rng_for,
)
from slicecalc.slicefn import PointFunction, SliceFunction

from tracing import NullTracer

SIGNATURES = (QUATERNION, clifford(3))

# Items (for verify, seeds) per second of --seconds: a run issues
# round(rate * seconds) of them, about --seconds of raw time on an unloaded
# 2-vCPU Xeon VM at the commit that defined the benchmark.  The work of a run
# is fixed by its seed and --seconds, never by the clock.
ITEM_RATE = {
    "verify": 1 / 12,
    "global-eval": 2.75,
    "global-symbolic": 8.0,
    "slice-plane": 12.5,
}
MIN_ITEMS = {"verify": 1, "global-eval": 4, "global-symbolic": 11, "slice-plane": 4}

# The (unit, point) grid of acceptance criteria 01 and 09, one function per item.
GLOBAL_EVAL_POLY = dict(n_funcs=1, n_units=16, n_points=8, orders=(1, 2, 3))
# Rational inputs stop at order 2: at order 3 their cost swings tenfold with
# the drawn denominator, which would make the run's total hinge on a few draws.
# Order-3 rational swell is measured by global-symbolic's G chains instead.
GLOBAL_EVAL_RATIONAL = dict(n_funcs=0, n_rational=1, n_units=16, n_points=8, orders=(1, 2))
SLICE_DERIVATIVE = dict(n_stems=1, n_units=4, orders=(1, 2), zbar_degree=3)
DECOMPOSITION = dict(n_tuples=4, n_units=2, max_n=4)
VERIFY_TINY = ["--units", "2", "--points", "1", "--max-order", "2"]
STEM_ORDERS = 4
POLY_G_STEPS = 4
RATIONAL_G_STEPS = 3


def _no_gate() -> tuple[int, int]:
    return 0, 0


@dataclass
class Workload:
    items: list[Callable]
    # Consecutive items whose latencies add up to one reported item latency.
    group: int = 1
    # Untimed correctness gates around the items; each returns (attempted, failed).
    gate_before: Callable[[], tuple[int, int]] = _no_gate
    gate_after: Callable[[], tuple[int, int]] = _no_gate
    # Thetabar results the swell figures are read from, for workloads whose
    # items do not hand them to the tracer themselves.
    swell_exprs: Callable[[int], list] = lambda count: []


def derived_seeds(seed: int, label: str, count: int) -> list[int]:
    rng = rng_for(seed, f"bench:{label}")
    return [rng.getrandbits(32) for _ in range(count)]


def item_count(name: str, seconds: float, tiny: bool) -> int:
    if tiny:
        return MIN_ITEMS[name]
    return max(MIN_ITEMS[name], round(ITEM_RATE[name] * seconds))


def _trials_item(body, sig, seed: int, sizes: dict) -> Callable:
    def run(tracer):
        with tracer.span(f"campaign.{body.__name__}"):
            trials, failures, _ = body(sig, seed, **sizes)
        return trials, failures

    return run


# -- verify ------------------------------------------------------------------------


def run_verify(argv: list[str], tracer=NullTracer()) -> tuple[int, bytes]:
    """``slicecalc verify`` in-process; returns its exit code and stdout bytes."""
    buf = io.StringIO()
    with tracer.span("cli.main"), contextlib.redirect_stdout(buf):
        code = cli.main(["verify", *argv])
    return code, buf.getvalue().encode()


def report_counts(code: int, output: bytes) -> tuple[int, int]:
    """(trials, failures) summed over every check of one verify report."""
    text = output.decode()
    report = json.loads(text[text.index("{"):])
    trials = failures = 0
    for check in report["checks"]:
        for value in check["detail"].values():
            if isinstance(value, dict):
                trials += value["trials"]
                failures += value["failures"]
            else:  # the counterexample suite reports one verdict per sub-check
                trials += 1
                failures += not value
    if code != 0 and not failures:
        failures = 1
    return trials, failures


def compare_reports(outputs: list[bytes]) -> tuple[int, int]:
    """Determinism gate: each repetition must match the first byte for byte."""
    return len(outputs) - 1, sum(out != outputs[0] for out in outputs[1:])


def verify(seed: int, count: int, tiny: bool) -> Workload:
    """``count`` default-size verifies, one check id per invocation.

    Running the eight checks as ``verify --select <id>`` does the same work as
    one ``verify`` (each check seeds itself from the seed and its id) while
    giving the reference loop a place between checks; the eight latencies of
    one seed add up to one reported item.
    """
    sizes = VERIFY_TINY if tiny else []

    def item(s: int, check_id: str) -> Callable:
        def run(tracer):
            argv = ["--seed", str(s), "--select", check_id, *sizes]
            return report_counts(*run_verify(argv, tracer))

        return run

    seeds = derived_seeds(seed, "verify", count)
    # The repeated report is a small configuration of the first seed, made
    # before and after the measured items: a default-size repeat would double
    # the run, and state the measured runs leave in the process still shows.
    repeat = ["--seed", str(seeds[0]), *VERIFY_TINY]
    outputs: list[bytes] = []

    def record() -> tuple[int, int]:
        outputs.append(run_verify(repeat)[1])
        return 0, 0

    def gate() -> tuple[int, int]:
        record()
        return compare_reports(outputs)

    items = [item(s, check_id) for s in seeds for check_id in sorted(CHECKS)]
    return Workload(items, len(CHECKS), record, gate)


# -- global-eval ---------------------------------------------------------------------


def _global_eval_sizes(i: int) -> dict:
    # One pair of items in four uses a rational input.
    return GLOBAL_EVAL_RATIONAL if (i // 2) % 4 == 3 else GLOBAL_EVAL_POLY


def _sig_label(sig) -> str:
    return "quaternion" if sig.kind == "quaternion" else f"clifford_{sig.m}"


def _slice_global_inputs(sig, seed: int, sizes: dict) -> list[PointFunction]:
    """The functions ``slice_global_trials`` draws for (sig, seed, sizes).

    Mirrors the draw order of the check body, which does not return them.
    """
    rng = rng_for(seed, f"slice-global:{_sig_label(sig)}")
    funcs = [rand_point_polynomial(rng, sig, max_degree=4) for _ in range(sizes["n_funcs"])]
    funcs += [rand_rational_point_function(rng, sig) for _ in range(sizes.get("n_rational", 0))]
    return funcs


# Stratified draws: every run gets the same mix of input shapes, and the seed
# picks the inputs within each shape.  A polynomial input's cost follows the
# sum of its terms' degrees (binning on it halves the per-item spread), and a
# rational input's cost its denominator.  The bins get roughly the shares the
# draw itself gives them; without this, the cost of a 20 s run moved about 5%
# with the seed alone.
POLY_DEGREE_BINS = ((0, 6), (7, 8), (9, 10), (11, 12), (13, 10**9))
POLY_BIN_PATTERN = (0, 1, 2, 3, 1, 2, 0, 4, 1, 2, 3, 0, 2, 1, 3, 4, 0, 2, 1, 3)
DENOMINATOR_PATTERN = ("s", "s^2", "s+1")


def _poly_bin(g: PointFunction) -> int:
    degree_sum = sum(sum(e) for e in g.expr.numer.terms)
    return next(b for b, (lo, hi) in enumerate(POLY_DEGREE_BINS) if lo <= degree_sum <= hi)


def _denominator_kind(g: PointFunction) -> str:
    ((factor, power),) = g.expr.den_factors
    if factor != coord_s(g.signature):
        return "s+1"
    return "s" if power == 1 else "s^2"


def _global_eval_plan(seed: int, count: int) -> list:
    rng = rng_for(seed, "bench:global-eval")
    plan = []
    polys = rationals = 0
    for i in range(count):
        sig, sizes = SIGNATURES[i % 2], _global_eval_sizes(i)
        if sizes is GLOBAL_EVAL_POLY:
            key, want = _poly_bin, POLY_BIN_PATTERN[polys % len(POLY_BIN_PATTERN)]
            polys += 1
        else:
            key, want = _denominator_kind, DENOMINATOR_PATTERN[rationals % len(DENOMINATOR_PATTERN)]
            rationals += 1
        while True:
            s = rng.getrandbits(32)
            if key(_slice_global_inputs(sig, s, sizes)[0]) == want:
                break
        plan.append((sig, s, sizes))
    return plan


def global_eval(seed: int, count: int, tiny: bool) -> Workload:
    plan = _global_eval_plan(seed, count)
    items = [_trials_item(slice_global_trials, sig, s, sizes) for sig, s, sizes in plan]

    def swell_exprs(count: int) -> list:
        out = []
        for sig, s, sizes in plan[:count]:
            for g in _slice_global_inputs(sig, s, sizes):
                for _ in range(max(sizes["orders"])):
                    g = thetabar(g, 1)
                    out.append(g.expr)
        return out

    return Workload(items, swell_exprs=swell_exprs)


# -- global-symbolic -----------------------------------------------------------------


def _support(var_count: int, degree: int):
    return [e for e in itertools.product(range(degree + 1), repeat=var_count) if sum(e) <= degree]


def generic_point_function(rng, sig, degree: int, den: str) -> PointFunction:
    """Every monomial of total degree <= ``degree``, random nonzero coefficients.

    ``den`` picks the denominator: "" (polynomial), "s", "s^2" or "s+1", the
    factor kinds ``rand_rational_point_function`` draws from.
    """
    n = sig.coord_count
    numer = CoordPoly(sig, n, {e: rand_nonzero_element(rng, sig) for e in _support(n, degree)})
    s = coord_s(sig)
    factors = {
        "": (),
        "s": ((s, 1),),
        "s^2": ((s, 2),),
        "s+1": ((s + CoordPoly.constant(sig, n, 1), 1),),
    }[den]
    return PointFunction(default_domain(), RationalFn(numer, factors))


def _stem_chain(f: SliceFunction) -> list[Callable]:
    """thetabar^n(f as a point function) == (n-th slice derivative of f), n = 1..4."""
    state = {}

    def step(n: int) -> Callable:
        def run(tracer):
            if n == 1:
                with tracer.span("slicefn.to_point_function"):
                    state["theta"] = f.to_point_function()
            with tracer.span("operators.thetabar"):
                state["theta"] = thetabar(state["theta"], 1)
            with tracer.span("slicefn.derivative"):
                derived = f.derivative(n)
            with tracer.span("slicefn.to_point_function"):
                want = derived.to_point_function()
            with tracer.span("multipoly.rf_eq"):
                ok = state["theta"].expr == want.expr
            tracer.keep(state["theta"].expr)
            return 1, int(not ok)

        return run

    return [step(n) for n in range(1, STEM_ORDERS + 1)]


def _g_chain(sig, g: PointFunction, steps: int) -> list[Callable]:
    """G(g_k) == 2 s thetabar(g_k) along the iterates g_(k+1) = thetabar(g_k)."""
    state = {"g": g}
    two_s = coord_s(sig) * 2

    def run(tracer):
        current = state["g"]
        with tracer.span("operators.g_op"):
            lhs = g_op(current).expr
        with tracer.span("operators.thetabar"):
            theta = thetabar(current, 1)
        with tracer.span("multipoly.mul_poly_left"):
            rhs = theta.expr.mul_poly_left(two_s)
        with tracer.span("multipoly.rf_eq"):
            ok = lhs == rhs
        tracer.keep(theta.expr)
        state["g"] = theta
        return 1, int(not ok)

    return [run] * steps


RATIONAL_DENOMINATORS = ("s", "s^2", "s+1")
ROUND_ITEMS = STEM_ORDERS + POLY_G_STEPS + RATIONAL_G_STEPS


def global_symbolic(seed: int, count: int, tiny: bool) -> Workload:
    """Rounds of one random stem chain and two generic G chains.

    The G chains use every monomial up to a fixed degree, so the seed moves
    coefficients but not the expression shapes, and the cost of a run does
    not hinge on a few unlucky draws.
    """
    domain = default_domain()
    items: list[Callable] = []
    rounds = -(-count // ROUND_ITEMS)
    for r in range(rounds):
        sig = SIGNATURES[r % 2]
        rng = rng_for(seed, f"bench:global-symbolic:{r}")
        stem = SliceFunction(domain, rand_stem(rng, sig, max_degree=4))
        poly = generic_point_function(rng, sig, 3, "")
        den = RATIONAL_DENOMINATORS[(r // 2) % len(RATIONAL_DENOMINATORS)]
        rational = generic_point_function(rng, sig, 1, den)
        items += _stem_chain(stem)
        items += _g_chain(sig, poly, POLY_G_STEPS)
        items += _g_chain(sig, rational, RATIONAL_G_STEPS)
    return Workload(items)


# -- slice-plane -------------------------------------------------------------------------


def slice_plane(seed: int, count: int, tiny: bool) -> Workload:
    items = []
    for i, s in enumerate(derived_seeds(seed, "slice-plane", count)):
        sig = SIGNATURES[(i // 2) % 2]
        if i % 2 == 0:
            items.append(_trials_item(slice_derivative_trials, sig, s, SLICE_DERIVATIVE))
        else:
            items.append(_trials_item(decomposition_roundtrip_trials, sig, s, DECOMPOSITION))
    return Workload(items)


BUILDERS = {
    "verify": verify,
    "global-eval": global_eval,
    "global-symbolic": global_symbolic,
    "slice-plane": slice_plane,
}


def build(name: str, seed: int, seconds: float, tiny: bool = False) -> Workload:
    return BUILDERS[name](seed, item_count(name, seconds, tiny), tiny)
