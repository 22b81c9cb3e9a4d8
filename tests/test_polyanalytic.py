from fractions import Fraction

import pytest

from slicecalc.algebra import QUATERNION, AlgebraElement, clifford, sample_units
from slicecalc.campaign import decomposition_roundtrip_trials, taylor_independence_trials
from slicecalc.errors import NotPolyanalyticOfOrderError
from slicecalc.multipoly import CoordPoly
from slicecalc.named import (
    builtin_function,
    conjugate_coordinate,
    coordinate_function,
    default_domain,
    jump_example,
    left_multiplied_coordinate,
    rotation_twisted_coordinate,
)
from slicecalc.operators import plane_x
from slicecalc.polyanalytic import (
    classify,
    counterexample_suite,
    decompose,
    per_slice_decomposition,
    poly_order,
)
from slicecalc.sampling import rand_plane_point, rng_for
from slicecalc.slicefn import SliceFunction
from slicecalc.stem import StemFunction

H = QUATERNION
DOM = default_domain()
UNITS = sample_units(H, 0, 8)
I_U, J_U = UNITS[:2]


def slice_of(stem):
    return SliceFunction(DOM, stem)


def test_poly_order_examples():
    assert poly_order(slice_of(StemFunction.z_pow(H, 3))) == 1
    assert poly_order(slice_of(StemFunction.zbar(H))) == 2
    assert poly_order(slice_of(StemFunction.z(H) * StemFunction.zbar(H))) == 2
    assert poly_order(slice_of(StemFunction.zero(H))) == 1


def test_decompose_holomorphic_is_identity():
    f = slice_of(StemFunction.z_pow(H, 2))
    dec = decompose(f, 1)
    assert dec.order == 1 and dec.components[0].stem == f.stem


def test_decompose_conjugate_coordinate():
    dec = decompose(slice_of(StemFunction.zbar(H)), 2)
    assert dec.order == 2
    assert dec.components[0].stem.is_zero()
    assert dec.components[1].stem == StemFunction.one(H)
    assert dec.recompose().stem == StemFunction.zbar(H)


def test_decompose_zbar_times_z():
    f = slice_of(StemFunction.zbar(H) * StemFunction.z(H))
    dec = decompose(f, 2)
    assert dec.components[0].stem.is_zero()
    assert dec.components[1].stem == StemFunction.z(H)
    assert dec.recompose().stem == f.stem


def test_decompose_requires_the_order():
    f = slice_of(StemFunction.zbar_pow(H, 2))
    with pytest.raises(NotPolyanalyticOfOrderError) as err:
        decompose(f, 2)
    assert err.value.order == 2
    assert not err.value.residual.is_zero()
    dec = decompose(f, 3)
    assert dec.order == 3
    assert dec.components[2].stem == StemFunction.constant(H, 1)


def test_decompose_trims_padding_orders():
    f = slice_of(StemFunction.zbar(H))
    dec = decompose(f, 4)  # order 4 is admissible but not minimal
    assert dec.order == 2
    assert not dec.components[-1].stem.is_zero()


def test_decompose_steps_dbar_once_per_level(monkeypatch):
    # zbar^3 has order 4: dbar^1..dbar^3 are nonzero and dbar^4 is zero, so the
    # levels take four stem derivatives; order 2 stops at its residual
    calls = []
    real = StemFunction.dbar

    def counted(stem):
        calls.append(stem)
        return real(stem)

    monkeypatch.setattr(StemFunction, "dbar", counted)
    f = slice_of(StemFunction.zbar_pow(H, 3))
    dec = decompose(f, 4)
    assert len(calls) == 4
    assert [c.stem for c in dec.components] == [StemFunction.zero(H)] * 3 + [
        StemFunction.one(H)
    ]
    calls.clear()
    with pytest.raises(NotPolyanalyticOfOrderError) as err:
        decompose(f, 2)
    assert len(calls) <= 4
    assert err.value.residual == StemFunction.zbar(H) * 6


def test_per_slice_decomposition_of_the_twist():
    v = rotation_twisted_coordinate(H)
    f0, f1 = per_slice_decomposition(v, I_U)
    assert f1.rf.is_zero()
    assert f0.rf.numer == plane_x(H, I_U)
    f0, f1 = per_slice_decomposition(v, J_U)
    assert f0.rf.is_zero()
    assert f1.rf.numer == CoordPoly.constant(H, 2, 1)


def test_per_slice_decomposition_of_global_function():
    xbar = conjugate_coordinate(H).to_point_function()
    for unit in UNITS[:5]:
        f0, f1 = per_slice_decomposition(xbar, unit)
        assert f0.rf.is_zero()
        assert f1.rf.numer == CoordPoly.constant(H, 2, 1)


def test_per_slice_decomposition_requires_order_two():
    f = slice_of(StemFunction.zbar_pow(H, 2)).to_point_function()
    with pytest.raises(NotPolyanalyticOfOrderError):
        per_slice_decomposition(f, I_U)


def test_not_polyanalytic_residual_is_a_stem_or_none():
    # decompose reports the stem left after differentiating; one slice has no stem
    with pytest.raises(NotPolyanalyticOfOrderError) as err:
        decompose(slice_of(StemFunction.zbar_pow(H, 2)), 2)
    assert isinstance(err.value.residual, StemFunction)
    assert err.value.residual == StemFunction.constant(H, 2)
    pf = slice_of(StemFunction.zbar_pow(H, 2)).to_point_function()
    with pytest.raises(NotPolyanalyticOfOrderError) as err:
        per_slice_decomposition(pf, I_U)
    assert err.value.order == 2
    assert err.value.residual is None


def _classify(g):
    rng = rng_for(7, "classify-points")
    points = [rand_plane_point(rng) for _ in range(5)]
    return classify(g, 4, UNITS[:5], points)


def test_classify_coordinate_function():
    rep = _classify(coordinate_function(H).to_point_function())
    assert (rep.sbs_polyanalytic_order, rep.is_slice, rep.global_order) == (1, True, 1)


def test_classify_twisted_coordinate():
    rep = _classify(rotation_twisted_coordinate(H))
    assert (rep.sbs_polyanalytic_order, rep.is_slice, rep.global_order) == (2, False, None)
    assert rep.slice_witness is not None
    assert rep.slice_witness.unit_h.value == I_U.value
    assert rep.slice_witness.unit_k.value == J_U.value
    assert rep.decomposition is None


def test_classify_conjugate_square():
    pf = slice_of(StemFunction.zbar_pow(H, 2)).to_point_function()
    rep = _classify(pf)
    assert (rep.sbs_polyanalytic_order, rep.is_slice, rep.global_order) == (3, True, 3)
    comps = rep.decomposition.components
    assert comps[0].stem.is_zero() and comps[1].stem.is_zero()
    assert comps[2].stem == StemFunction.one(H)


def test_classify_order_cap():
    pf = slice_of(StemFunction.zbar_pow(H, 2)).to_point_function()
    rng = rng_for(8, "cap")
    points = [rand_plane_point(rng) for _ in range(4)]
    rep = classify(pf, 2, UNITS[:4], points)
    assert rep.sbs_polyanalytic_order is None
    assert rep.is_slice


def test_every_low_order_stem_decomposes():
    # converse direction: a vanishing n-th slice derivative is sufficient
    from slicecalc.sampling import rand_stem

    rng = rng_for(9, "converse")
    for _ in range(50):
        stem = rand_stem(rng, H, max_degree=4)
        f = slice_of(stem)
        n = poly_order(f)
        dec = decompose(f, n)
        assert dec.recompose().stem == stem
        assert all(c.stem.dbar().is_zero() for c in dec.components)


def test_roundtrip_randomized():
    for sig in (H, clifford(3)):
        trials, failures, witness = decomposition_roundtrip_trials(
            sig, 31, n_tuples=20, n_units=4, max_n=4
        )
        assert failures == 0, witness


def test_taylor_independence_randomized():
    for sig in (H, clifford(3)):
        trials, failures, witness = taylor_independence_trials(
            sig, 32, n_stems=10, n_units=8
        )
        assert failures == 0, witness


def test_counterexample_suite_passes_for_both_signatures():
    for sig in (H, clifford(3)):
        report = counterexample_suite(sig, seed=0, unit_count=40)
        assert report.all_passed, [(c.check_id, c.passed) for c in report.checks]
    quaternion_report = counterexample_suite(H, seed=0, unit_count=40)
    ids = [c.check_id for c in quaternion_report.checks]
    assert "clifford-analogue" in ids


def test_jump_example_values():
    bump = jump_example(H)
    half = AlgebraElement.scalar(H, Fraction(1, 2))
    for h in range(2, 51):
        assert bump.eval_coords((0, Fraction(1, h), Fraction(1, h * h), 0)) == half
    assert bump.eval_coords((0, 0, 0, 0)).is_zero()
    assert bump.eval_coords((Fraction(1, 3), 0, 0, 0)).is_zero()


def test_builtin_registry():
    assert isinstance(builtin_function("x"), SliceFunction)
    v_m = builtin_function("v_m")
    assert v_m.signature == clifford(3)
    assert builtin_function("v_r").signature == H
    with pytest.raises(Exception):
        builtin_function("no-such-function")


def test_twist_has_every_order_at_least_two():
    # the twisted coordinate sits in every slice-by-slice order >= 2
    v = rotation_twisted_coordinate(H)
    from slicecalc.operators import dbar_slice

    for unit in UNITS:
        for n in (2, 3, 4):
            assert dbar_slice(v, unit, n).is_zero()
        assert not dbar_slice(v, J_U, 1).is_zero()


def test_left_multiplied_coordinate_checks():
    v_r = left_multiplied_coordinate(H)
    from slicecalc.operators import dbar_slice

    for unit in UNITS:
        assert dbar_slice(v_r, unit, 2).is_zero()
    assert dbar_slice(v_r, I_U, 1).is_zero()  # holomorphic on its own slice
    assert not dbar_slice(v_r, J_U, 1).is_zero()
