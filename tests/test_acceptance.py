"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check here is exact (rational equality) except the finite-difference
oracle comparisons, whose tolerance is pinned at relative 1e-6, and the one
stated runtime target.  The randomized bodies live in slicecalc.campaign and
run here at the criterion sizes.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

from slicecalc.algebra import QUATERNION, AlgebraElement, clifford, sample_units
from slicecalc.campaign import (
    decomposition_roundtrip_trials,
    g_relation_trials,
    leibniz_trials,
    slice_derivative_trials,
    slice_global_trials,
    taylor_independence_trials,
)
from slicecalc.multipoly import CoordPoly, RationalFn
from slicecalc.named import jump_example, rotation_twisted_coordinate
from slicecalc.operators import (
    dbar_slice,
    g_op,
    plane_x,
    restrict_to_slice,
    thetabar,
)
from slicecalc.polyanalytic import counterexample_suite, per_slice_decomposition
from slicecalc.sampling import (
    rand_point_polynomial,
    rand_rational_point_function,
    rng_for,
)
from slicecalc.slicefn import is_slice

from oracles import element_to_float, fd_dbar_slice, fd_g_op, fd_thetabar

H = QUATERNION
CL3 = clifford(3)
SEED = 20240901


def _report(criterion: str, passed: bool, extra: str = ""):
    line = f"acceptance {criterion}: {'PASS' if passed else 'FAIL'}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert passed, line


def _counterexample_ledger(sig) -> tuple[bool, str]:
    """Shared body for criterion 6 and its Clifford re-run in criterion 9."""
    units = sample_units(sig, SEED, 100)
    v = rotation_twisted_coordinate(sig)
    u = AlgebraElement.basis(sig, sig.imag_masks[0])
    minus_one = AlgebraElement.scalar(sig, -1)
    one = AlgebraElement.one(sig)
    half = Fraction(1, 2)

    # first slice derivative is (1 - I u I u)/2: zero on the u-slice, one on the next
    first = dbar_slice(v, units[0], 1)
    second = dbar_slice(v, units[1], 1)
    ok = first.is_zero()
    ok = ok and second == RationalFn.from_poly(CoordPoly.constant(sig, 2, 1))
    # second derivative vanishes on all 100 sampled slices, exactly
    ok = ok and all(dbar_slice(v, unit, 2).is_zero() for unit in units)
    # representation-formula witness on the first two canonical slices
    witness = is_slice(
        v, units[:8], [(Fraction(0), Fraction(1)), (Fraction(1, 3), Fraction(1, 2))]
    )
    ok = ok and witness is not None
    ok = ok and witness.unit_h == u
    ok = ok and witness.unit_k == AlgebraElement.basis(sig, sig.imag_masks[1])
    # per-slice coefficients ((1 + IuIu)/2, (1 - IuIu)/2) on every sampled slice
    for unit in units:
        prod = unit * u * unit * u
        c_plus = (one + prod) * half
        c_minus = (one - prod) * half
        f0, f1 = per_slice_decomposition(v, unit)
        ok = ok and f1 == CoordPoly.constant(sig, 2, c_minus)
        ok = ok and f0 == plane_x(sig, unit).scale_right(c_plus)
    # the sign chase: -u e2 u = -e2 with e2 the second imaginary basis element
    e2 = AlgebraElement.basis(sig, sig.imag_masks[1])
    ok = ok and (-u) * e2 * u == -e2
    ok = ok and u * u == minus_one
    suite = counterexample_suite(sig, seed=SEED, unit_count=100)
    ok = ok and all(passed for passed, _ in suite.values())
    return ok, f"{len(units)} units"


def test_01_slice_global_operator_coincidence():
    t0 = time.time()
    trials, failures, witness = slice_global_trials(
        H, SEED, n_funcs=100, n_units=16, n_points=8, orders=(1, 2, 3)
    )
    elapsed = time.time() - t0
    _report(
        "01 slice-global operator coincidence",
        failures == 0 and elapsed < 60.0,
        f"{trials} trials, {failures} failures, {elapsed:.1f}s",
    )


def test_02_slice_derivative_coincidence():
    trials, failures, witness = slice_derivative_trials(
        H, SEED, n_stems=100, n_units=16, orders=(1, 2), zbar_degree=3
    )
    _report(
        "02 slice-derivative coincidence",
        failures == 0,
        f"{trials} trials, {failures} failures",
    )


def test_03_g_operator_relation():
    trials, failures, witness = g_relation_trials(H, SEED, n_funcs=100)
    _report(
        "03 G = 2|Im|^2 thetabar identity",
        failures == 0,
        f"{trials} functions",
    )


def test_04_leibniz_rules():
    trials, failures, witness = leibniz_trials(H, SEED, n_funcs=100, n_units=4)
    _report(
        "04 Leibniz rules (slice and global)",
        failures == 0,
        f"{trials} trials",
    )


def test_05_decomposition_round_trip():
    trials, failures, witness = decomposition_roundtrip_trials(
        H, SEED, n_tuples=100, n_units=6, max_n=4
    )
    _report(
        "05 decomposition round trip",
        failures == 0,
        f"{trials} tuples",
    )


def test_06_counterexample_ledger():
    ok, extra = _counterexample_ledger(H)
    _report("06 counterexample ledger", ok, extra)


def test_07_jump_function_values_and_restrictions():
    bump = jump_example(H)
    half = AlgebraElement.scalar(H, Fraction(1, 2))
    ok = bump.eval_coords((0, 0, 0, 0)).is_zero()
    for h in range(2, 51):
        coords = (0, Fraction(1, h), Fraction(1, h * h), 0)
        ok = ok and bump.eval_coords(coords) == half
    units = sample_units(H, SEED, 32)
    for unit in units:
        i1, i2, i3 = unit.components()
        beta = CoordPoly.variable(H, 2, 1)
        numer = beta * (i1 * i1 * i2)
        denom = beta**2 * (i1**4) + CoordPoly.constant(H, 2, i2 * i2 + i3 * i3)
        ok = ok and restrict_to_slice(bump, unit) == RationalFn(numer, ((denom, 1),))
    _report("07 jump example: values and slice formulas", ok, "h in 2..50, 32 slices")


def test_08_taylor_coefficient_unit_independence():
    trials, failures, witness = taylor_independence_trials(
        H, SEED, n_stems=50, n_units=16
    )
    _report(
        "08 series coefficients independent of the slice",
        failures == 0,
        f"{trials} stems",
    )


def test_09_clifford_parity():
    results = []
    trials, failures, _ = slice_global_trials(
        CL3, SEED, n_funcs=100, n_units=16, n_points=8, orders=(1, 2, 3)
    )
    results.append(failures == 0)
    trials, failures, _ = slice_derivative_trials(
        CL3, SEED, n_stems=100, n_units=16, orders=(1, 2), zbar_degree=3
    )
    results.append(failures == 0)
    trials, failures, _ = g_relation_trials(CL3, SEED, n_funcs=100)
    results.append(failures == 0)
    trials, failures, _ = leibniz_trials(CL3, SEED, n_funcs=100, n_units=4)
    results.append(failures == 0)
    trials, failures, _ = decomposition_roundtrip_trials(
        CL3, SEED, n_tuples=100, n_units=6, max_n=4
    )
    results.append(failures == 0)
    ok, _extra = _counterexample_ledger(CL3)
    results.append(ok)
    _report(
        "09 Clifford(m=3) parity for criteria 1-6",
        all(results),
        f"sub-results {results}",
    )


def test_10_finite_difference_oracle_agreement():
    rng = rng_for(SEED, "acceptance-oracle")
    units = sample_units(H, SEED, 8)
    failures = 0

    def close(exact: dict, approx: dict) -> bool:
        for mask in set(exact) | set(approx):
            scale = max(1.0, abs(exact.get(mask, 0.0)))
            if abs(exact.get(mask, 0.0) - approx.get(mask, 0.0)) > 1e-6 * scale:
                return False
        return True

    for k in range(20):
        g = (
            rand_point_polynomial(rng, H, max_degree=3)
            if k % 2
            else rand_rational_point_function(rng, H, max_degree=2)
        )
        coords = [rng.uniform(-0.8, 0.8)] + [rng.uniform(0.4, 1.0) for _ in range(3)]
        if not close(element_to_float(thetabar(g, 1).expr.eval(coords)), fd_thetabar(g, coords)):
            failures += 1
        if not close(element_to_float(g_op(g).expr.eval(coords)), fd_g_op(g, coords)):
            failures += 1
        unit = rng.choice(units)
        z = (rng.uniform(-0.5, 0.5), rng.uniform(0.4, 1.0))
        exact_d = element_to_float(dbar_slice(g, unit, 1).eval(z))
        if not close(exact_d, fd_dbar_slice(g, unit, z)):
            failures += 1
    _report(
        "10 oracle agreement at relative 1e-6",
        failures == 0,
        "20 points per operator",
    )


def test_11_cli_determinism(tmp_path, child_env):
    out1 = tmp_path / "out1.json"
    out2 = tmp_path / "out2.json"
    codes = []
    for out in (out1, out2):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "slicecalc",
                "verify",
                "--seed",
                "7",
                "--json",
                str(out),
            ],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=child_env,
        )
        codes.append(proc.returncode)
        if proc.returncode != 0 or not out.exists():
            _report(
                "11 CLI determinism and exit code",
                False,
                f"child exit code {proc.returncode}, {out.name} "
                f"{'written' if out.exists() else 'missing'}, "
                f"stderr tail: {proc.stderr[-500:].strip()!r}",
            )
    identical = out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    _report(
        "11 CLI determinism and exit code",
        codes == [0, 0] and identical and report["all_passed"],
        "verify --seed 7 twice, byte-identical",
    )
