from fractions import Fraction
from itertools import islice, takewhile

import pytest

from slicecalc import polyanalytic
from slicecalc.algebra import QUATERNION, AlgebraElement, clifford, sample_units
from slicecalc.campaign import (
    CampaignConfig,
    decomposition_roundtrip_trials,
    run_campaign,
    taylor_independence_trials,
)
from slicecalc.errors import NotPolyanalyticOfOrderError
from slicecalc.multipoly import CoordPoly, RationalFn, _iterates, coord_s, coord_x, coord_xbar
from slicecalc.named import (
    BUILTINS,
    conjugate_coordinate,
    coordinate_function,
    default_domain,
    jump_example,
    left_multiplied_coordinate,
    rotation_twisted_coordinate,
)
from slicecalc.operators import _thetabar_once, plane_x
from slicecalc.polyanalytic import (
    classify,
    compose,
    counterexample_suite,
    decompose,
    per_slice_decomposition,
)
from slicecalc.sampling import (
    rand_holomorphic_stem,
    rand_plane_point,
    rand_plane_points,
    rand_point_polynomial,
    rand_rational_point_function,
    rand_regular_tuple,
    rand_stem,
    rng_for,
)
from slicecalc.slicefn import PointFunction, SliceFunction, is_slice_exact
from slicecalc.stem import StemFunction

from oracles import (
    compose_by_products,
    constant_stem,
    is_slice_all_pairs,
    slice_by_expansion,
    stem_dbar_by_partials,
    stem_powers_by_products,
    stem_product_by_parts,
    zero_stem,
)

H = QUATERNION
DOM = default_domain()
UNITS = sample_units(H, 0, 8)
I_U, J_U = UNITS[:2]
Z_POWERS = stem_powers_by_products(StemFunction.z(H), 4)
ZBAR_POWERS = stem_powers_by_products(StemFunction.zbar(H), 4)
ONE = constant_stem(H, 1)


def slice_of(stem):
    return SliceFunction(DOM, stem)


def poly_order(stem):
    """The order of ``stem``: its component count at an order no stem of its degree exceeds."""
    return len(decompose(stem, max(1, stem.total_degree() + 1)))


def campaign_verdicts(seed, units):
    """The ``counterexamples`` check's detail: sub-check id -> passed, (6) included."""
    config = CampaignConfig(seed=seed, unit_samples=units, select=("counterexamples",))
    return run_campaign(config)["checks"][0]["detail"]


def test_poly_order_examples():
    assert poly_order(Z_POWERS[3]) == 1
    assert poly_order(StemFunction.zbar(H)) == 2
    assert poly_order(stem_product_by_parts(StemFunction.z(H), StemFunction.zbar(H))) == 2
    assert poly_order(zero_stem(H)) == 1


def test_decompose_takes_a_bare_stem_and_returns_its_component_stems():
    # zbar^2 z + zbar (3 + z^2): three components, the first zero
    three = constant_stem(H, 3)
    stem = stem_product_by_parts(ZBAR_POWERS[2], Z_POWERS[1]) + stem_product_by_parts(
        ZBAR_POWERS[1], three + Z_POWERS[2]
    )
    parts = decompose(stem, 3)
    assert parts == (zero_stem(H), three + Z_POWERS[2], Z_POWERS[1])
    assert compose(parts) == stem


def test_decompose_holomorphic_is_identity():
    f = Z_POWERS[2]
    parts = decompose(f, 1)
    assert len(parts) == 1 and parts[0] == f


def test_decompose_conjugate_coordinate():
    parts = decompose(StemFunction.zbar(H), 2)
    assert len(parts) == 2
    assert parts[0].is_zero()
    assert parts[1] == ONE
    assert compose(parts) == StemFunction.zbar(H)


def test_decompose_zbar_times_z():
    f = stem_product_by_parts(StemFunction.zbar(H), StemFunction.z(H))
    parts = decompose(f, 2)
    assert parts[0].is_zero()
    assert parts[1] == StemFunction.z(H)
    assert compose(parts) == f


def test_decompose_requires_the_order():
    f = ZBAR_POWERS[2]
    with pytest.raises(NotPolyanalyticOfOrderError) as err:
        decompose(f, 2)
    assert err.value.order == 2
    assert not err.value.residual.is_zero()
    parts = decompose(f, 3)
    assert len(parts) == 3
    assert parts[2] == ONE


def test_decompose_trims_padding_orders():
    f = StemFunction.zbar(H)
    parts = decompose(f, 4)  # order 4 is admissible but not minimal
    assert len(parts) == 2
    assert not parts[-1].is_zero()


def test_decompose_takes_no_derivative_within_the_order(monkeypatch):
    # zbar^3 has order 4: within it the components are read off the zbar form,
    # and order 2 derives the stem twice, to its residual dbar^2
    calls = []
    real = StemFunction.dbar

    def counted(stem):
        calls.append(stem)
        return real(stem)

    monkeypatch.setattr(StemFunction, "dbar", counted)
    f = ZBAR_POWERS[3]
    parts = decompose(f, 4)
    assert calls == []
    assert list(parts) == [zero_stem(H)] * 3 + [ONE]
    assert classify(slice_of(f), 4, [], []).components == parts
    assert calls == []
    with pytest.raises(NotPolyanalyticOfOrderError) as err:
        decompose(f, 2)
    assert len(calls) == 2
    zb = StemFunction.zbar(H)
    assert err.value.residual == StemFunction(zb.f1 * 6, zb.f2 * 6)


@pytest.mark.parametrize(
    "sig", [H, clifford(3), clifford(5), clifford(8)], ids=lambda s: f"{s.kind}{s.m}"
)
def test_the_zbar_form_gives_the_order_of_the_partials_tower_and_inverts_compose(sig):
    # the order is the count of nonzero levels of dbar taken by partials, and
    # decompose undoes the product chain, on stems up to degree 64
    rng = rng_for(33, f"zbar-form:{sig}")
    for degree in (0, 1, 4, 9, 64):
        for _ in range(3):
            stem = rand_stem(rng, sig, max_degree=degree)
            levels = takewhile(lambda d: not d.is_zero(), _iterates(stem_dbar_by_partials, stem))
            assert len(polyanalytic._zbar_form(stem)) == max(1, len(list(levels)))
    for n in (1, 2, 4):
        for top in (2, 64):
            parts = rand_regular_tuple(rng, sig, n - 1) if n > 1 else []
            parts.append(rand_holomorphic_stem(rng, sig, top))
            stem = compose_by_products(parts)
            assert decompose(stem, n) == tuple(parts)
            assert decompose(stem, top + n) == tuple(parts)


def regular_tuples(sig):
    """rand_regular_tuple draws of length 1-5, and copies with every other lower part zero."""
    rng = rng_for(5, f"compose:{sig}")
    for n in range(1, 6):
        for _ in range(3):
            parts = rand_regular_tuple(rng, sig, n)
            yield parts
            zero = zero_stem(sig)
            yield [zero if h % 2 == 0 and h < n - 1 else p for h, p in enumerate(parts)]


def stem_tuples(sig):
    """rand_stem draws of length 1-5: parts with F2 rows and beta powers, not holomorphic."""
    rng = rng_for(6, f"compose-stems:{sig}")
    for n in range(1, 6):
        for _ in range(3):
            yield [rand_stem(rng, sig, max_degree=3) for _ in range(n)]


@pytest.mark.parametrize(
    "sig", [H, clifford(3), clifford(5)], ids=lambda s: f"{s.kind}{s.m}"
)
def test_compose_matches_the_product_chain_and_decompose_inverts_it(sig):
    for parts in stem_tuples(sig):
        assert compose(parts) == compose_by_products(parts)
    seen_zero_part = False
    for parts in regular_tuples(sig):
        n = len(parts)
        stem = compose(parts)
        assert stem == compose_by_products(parts)
        assert decompose(stem, n) == tuple(parts)
        assert decompose(stem, n + 1) == tuple(parts)
        seen_zero_part = seen_zero_part or any(p.is_zero() for p in parts)
        if n > 1:
            # the residual is dbar^(n-1) of the stem, by partials: (n-1)! times the top part
            residual = stem
            for _ in range(n - 1):
                residual = stem_dbar_by_partials(residual)
            with pytest.raises(NotPolyanalyticOfOrderError) as err:
                decompose(stem, n - 1)
            assert err.value.order == n - 1
            assert err.value.residual == residual
    assert seen_zero_part


def test_compose_makes_one_polynomial_per_component(monkeypatch):
    calls = []
    real = CoordPoly._make.__func__

    def counted(cls, *args):
        calls.append(args)
        return real(cls, *args)

    parts = rand_regular_tuple(rng_for(3, "compose-count"), H, 4)
    want = compose(parts)
    monkeypatch.setattr(CoordPoly, "_make", classmethod(counted))
    assert compose(parts) == want
    assert len(calls) == 2


def test_per_slice_decomposition_of_the_twist():
    v = rotation_twisted_coordinate(H)
    f0, f1 = per_slice_decomposition(v, I_U)
    assert f1.is_zero()
    assert f0.numer == plane_x(H, I_U)
    f0, f1 = per_slice_decomposition(v, J_U)
    assert f0.is_zero()
    assert f1.numer == CoordPoly.constant(H, 2, 1)


def test_per_slice_decomposition_of_global_function():
    xbar = conjugate_coordinate(H).to_point_function()
    for unit in UNITS[:5]:
        f0, f1 = per_slice_decomposition(xbar, unit)
        assert f0.is_zero()
        assert f1.numer == CoordPoly.constant(H, 2, 1)


def test_per_slice_decomposition_requires_order_two():
    f = slice_of(ZBAR_POWERS[2]).to_point_function()
    with pytest.raises(NotPolyanalyticOfOrderError):
        per_slice_decomposition(f, I_U)


def test_not_polyanalytic_residual_is_a_stem_or_none():
    # decompose reports the stem left after differentiating; one slice has no stem
    with pytest.raises(NotPolyanalyticOfOrderError) as err:
        decompose(ZBAR_POWERS[2], 2)
    assert isinstance(err.value.residual, StemFunction)
    assert err.value.residual == constant_stem(H, 2)
    pf = slice_of(ZBAR_POWERS[2]).to_point_function()
    with pytest.raises(NotPolyanalyticOfOrderError) as err:
        per_slice_decomposition(pf, I_U)
    assert err.value.order == 2
    assert err.value.residual is None


def _global_order(rep):
    """The global order a report gives: its number of components, None without them."""
    return len(rep.components) if rep.components else None


def _classify(g):
    rng = rng_for(7, "classify-points")
    points = [rand_plane_point(rng) for _ in range(5)]
    return classify(g, 4, UNITS[:5], points)


def test_classify_coordinate_function():
    rep = _classify(coordinate_function(H).to_point_function())
    assert (rep.sbs_polyanalytic_order, rep.is_slice, _global_order(rep)) == (1, True, 1)


def test_classify_twisted_coordinate():
    rep = _classify(rotation_twisted_coordinate(H))
    assert (rep.sbs_polyanalytic_order, rep.is_slice, _global_order(rep)) == (2, False, None)
    assert rep.slice_witness is not None
    assert rep.slice_witness.unit_h == I_U
    assert rep.slice_witness.unit_k == J_U
    assert rep.components is None
    assert rep.evidence == {"stem_reproduces_input": False}


def x_plus_a_product_vanishing_on(units):
    """x + P, where each linear factor b x_1 - a x_2 of P vanishes on the slice of one unit."""
    sig = units[0].signature
    x = [CoordPoly.variable(sig, sig.coord_count, h) for h in range(3)]
    p = CoordPoly.constant(sig, sig.coord_count, 1)
    for unit in units:
        a, b = unit.components()[:2]
        w = (b, -a) if (a, b) != (0, 0) else (1, 0)
        p = p * (x[1] * w[0] + x[2] * w[1])
    return PointFunction(DOM, RationalFn.from_poly(coord_x(sig) + p))


def test_classify_rejects_x_plus_a_product_vanishing_on_the_sampled_slices():
    units = sample_units(H, 7, 8)
    g = x_plus_a_product_vanishing_on(units)
    rng = rng_for(7, "classify-points")
    points = [rand_plane_point(rng, DOM) for _ in range(8)]
    rep = classify(g, 4, units, points)
    assert (rep.sbs_polyanalytic_order, rep.is_slice, _global_order(rep)) == (1, False, None)
    assert rep.evidence == {"stem_reproduces_input": False}
    assert rep.components is None


SIGNATURES = [H, clifford(3), clifford(5), clifford(8)]


def _label(sig):
    return f"{sig.kind}{sig.m}"


def _exact_slice_polynomials(sig):
    """Three draws, five induced functions, two of them plus x_1 x_2, and v, v_r and x + P.

    v on Cl(0,3) is the builtin v_m.  Only the induced functions are slice.
    """
    rng = rng_for(sig.imag_dim, "exact-slice")
    n = sig.coord_count
    x1x2 = RationalFn.from_poly(CoordPoly.variable(sig, n, 1) * CoordPoly.variable(sig, n, 2))
    induced = [slice_of(rand_stem(rng, sig, max_degree=4)).to_point_function() for _ in range(3)]
    induced += [
        slice_of(compose(rand_regular_tuple(rng, sig, 3))).to_point_function() for _ in range(2)
    ]
    inputs = [rand_point_polynomial(rng, sig, 4) for _ in range(3)] + induced
    inputs += [PointFunction(DOM, g.expr + x1x2) for g in induced[:2]]
    inputs += [rotation_twisted_coordinate(sig), left_multiplied_coordinate(sig)]
    return inputs + [x_plus_a_product_vanishing_on(sample_units(sig, 7, 4))]


@pytest.mark.parametrize("sig", SIGNATURES, ids=_label)
def test_is_slice_exact_agrees_with_expand_and_compare(sig):
    inputs = _exact_slice_polynomials(sig)
    unit = sample_units(sig, 0, 1)[0]
    verdicts = [is_slice_exact(g) for g in inputs]
    assert verdicts == [slice_by_expansion(g, unit) for g in inputs]
    assert verdicts == [False] * 3 + [True] * 5 + [False] * 5


@pytest.mark.parametrize("sig", SIGNATURES, ids=_label)
def test_is_slice_exact_on_rational_inputs(sig):
    rng = rng_for(sig.imag_dim, "exact-slice-rational")
    n = sig.coord_count
    s, one, x0 = coord_s(sig), CoordPoly.constant(sig, n, 1), CoordPoly.variable(sig, n, 0)
    xbar, q = coord_xbar(sig), x0 * x0 + s + one
    for _ in range(2):
        g = slice_of(rand_stem(rng, sig, 3)).to_point_function().expr.numer
        # slice by construction: the product of slice functions xbar g, not g xbar
        for rf in (RationalFn.from_poly(g), RationalFn(g, [(s + one, 1)])):
            assert is_slice_exact(PointFunction(DOM, rf))
        assert is_slice_exact(PointFunction(DOM, RationalFn(xbar * g, [(q, 2)])))
        assert not is_slice_exact(PointFunction(DOM, RationalFn(g * xbar, [(q, 2)])))
    # a witness on four units refutes; a pass proves nothing, since on Cl(0,8) the
    # four units are basis units and can miss what other units refute
    units = sample_units(sig, 0, 4)
    points = rand_plane_points(rng, 3)
    refuted = 0
    for _ in range(12):
        g = rand_rational_point_function(rng, sig)
        if is_slice_all_pairs(g, units, points) is not None:
            refuted += 1
            assert not is_slice_exact(g)
    assert refuted >= 9


@pytest.mark.parametrize("sig", [H, clifford(3)], ids=_label)
def test_classify_decides_rational_inputs_exactly(sig):
    # x_1 x_2 vanishes on the slices of the first two units, where no probe can
    # tell (x_1 x_2 + 1)/(s + 1) from the slice 1/(s + 1)
    n = sig.coord_count
    x = [CoordPoly.variable(sig, n, h) for h in range(3)]
    s, one = coord_s(sig), CoordPoly.constant(sig, n, 1)
    units = sample_units(sig, 0, 3)[:2]
    points = [(Fraction(0), Fraction(1)), (Fraction(1, 3), Fraction(2, 3))]
    g = PointFunction(DOM, RationalFn(x[1] * x[2] + one, [(s + one, 1)]))
    rep = classify(g, 4, units, points)
    assert (rep.is_slice, rep.slice_witness) == (False, None)
    assert rep.evidence["candidate_stem"] == "not polynomial"
    inverse = PointFunction(DOM, RationalFn(coord_xbar(sig), [(x[0] * x[0] + s, 1)]))
    rep = classify(inverse, 4, units, points)
    assert (rep.is_slice, rep.sbs_polyanalytic_order) == (True, 1)
    assert rep.evidence == {"candidate_stem": "not polynomial"}


def thetabar_order(g, max_order):
    """The first n <= max_order with thetabar^n g == 0, None without one.

    thetabar^n g restricted to the slice of I is dbar_I^n g_I, so this is the
    slice-by-slice order over every unit, not only the sampled ones.  A slice
    function's chain runs on its coordinate form, which ``classify`` never builds.
    """
    if isinstance(g, SliceFunction):
        g = g.to_point_function()
    chain = islice(_iterates(_thetabar_once, g.expr), 1, max_order + 1)
    return next((n for n, level in enumerate(chain, 1) if level.is_zero()), None)


def _cross_draws(sig):
    rng = rng_for(3, "cross")
    polys = [rand_point_polynomial(rng, sig, 4) for _ in range(3)]
    return polys + [rand_rational_point_function(rng, sig) for _ in range(3)]


def _order_case(g, case_id):
    return pytest.param(g, sample_units(g.signature, 0, 8), 6, id=case_id)


ORDER_CASES = [
    # x and xbar are stems, passed unexpanded like the compose-built stems
    *[_order_case(make(), name) for name, make in BUILTINS.items()],
    *[
        _order_case(g, f"{label}-{i}")
        for label, sig in (("H", H), ("Cl3", clifford(3)))
        for i, g in enumerate(_cross_draws(sig))
    ],
    *[
        _order_case(
            slice_of(compose(rand_regular_tuple(rng_for(4, f"order:{label}"), sig, n))),
            f"compose-{label}-{n}",
        )
        for label, sig in (("H", H), ("Cl3", clifford(3)), ("Cl8", clifford(8)))
        for n in (1, 2, 3)
    ],
    # sample_units gives the basis units first: on Cl(0,8) these eight read
    # order 4, while the next sampled units read 5
    pytest.param(
        rand_point_polynomial(rng_for(5, "proto8"), clifford(8), 4),
        sample_units(clifford(8), 0, 8),
        6,
        marks=pytest.mark.xfail(
            strict=True, reason="samples order 4; thetabar^5 g is the first zero"
        ),
        id="cl8-basis-units",
    ),
    pytest.param(
        x_plus_a_product_vanishing_on(sample_units(H, 7, 8)),
        sample_units(H, 7, 8),
        12,
        marks=pytest.mark.xfail(
            strict=True, reason="samples order 1; thetabar^9 g is the first zero"
        ),
        id="x-plus-vanishing-product",
    ),
]


@pytest.mark.parametrize("g, units, max_order", ORDER_CASES)
def test_classify_samples_the_exact_thetabar_order(g, units, max_order):
    rng = rng_for(7, "classify-points")
    points = [rand_plane_point(rng, g.domain) for _ in range(5)]
    rep = classify(g, max_order, units, points)
    assert rep.sbs_polyanalytic_order == thetabar_order(g, max_order)


def _slice_rational_inputs(sig):
    """x^-1 = xbar/(x_0^2 + s), and xbar^h/(x - 2) for h = 0..3, of order h + 1.

    1/(x - 2) = (xbar - 2)/((x_0 - 2)^2 + s), real denominators only.
    """
    n = sig.coord_count
    x0, s, xbar = CoordPoly.variable(sig, n, 0), coord_s(sig), coord_xbar(sig)
    two = CoordPoly.constant(sig, n, 2)
    inputs = [RationalFn(xbar, [(x0 * x0 + s, 1)])]
    inputs += [RationalFn(xbar**h * (xbar - two), [((x0 - two) ** 2 + s, 1)]) for h in range(4)]
    return [PointFunction(DOM, rf) for rf in inputs]


@pytest.mark.parametrize("sig", [H, clifford(3)], ids=_label)
def test_classify_reads_a_slice_rational_order_on_one_slice(sig, monkeypatch):
    # dbar_I^n of a slice function is G1 + I G2, G1 even and G2 odd in beta,
    # zero on one slice exactly when on all, so one restriction decides it
    calls = []
    real = polyanalytic.restrict_to_slice

    def counted(g, unit):
        calls.append(unit)
        return real(g, unit)

    monkeypatch.setattr(polyanalytic, "restrict_to_slice", counted)
    units = sample_units(sig, 0, 10)
    rng = rng_for(7, "classify-points")
    points = [rand_plane_point(rng, DOM) for _ in range(5)]
    for g, order in zip(_slice_rational_inputs(sig), (1, 1, 2, 3, 4)):
        calls.clear()
        rep = classify(g, 6, units, points)
        assert calls == units[:1]
        assert rep.is_slice
        assert rep.evidence == {"candidate_stem": "not polynomial"}
        assert rep.sbs_polyanalytic_order == thetabar_order(g, 6) == order


def test_classify_conjugate_square():
    pf = slice_of(ZBAR_POWERS[2]).to_point_function()
    rep = _classify(pf)
    assert (rep.sbs_polyanalytic_order, rep.is_slice, _global_order(rep)) == (3, True, 3)
    comps = rep.components
    assert comps[0].is_zero() and comps[1].is_zero()
    assert comps[2] == ONE


def test_classify_reports_a_global_order_over_the_bound():
    # xbar^3 has global order 4; at max_order 2 it is slice with no components
    pf = slice_of(ZBAR_POWERS[3]).to_point_function()
    units = sample_units(H, 0, 3)
    points = [(Fraction(0), Fraction(1))]
    rep = classify(pf, 2, units, points)
    assert (rep.sbs_polyanalytic_order, rep.is_slice, rep.components) == (None, True, None)
    assert rep.evidence == {"stem_reproduces_input": True, "global_order_exceeds_max": 4}
    rep = classify(pf, 4, units, points)
    assert rep.components == (zero_stem(H),) * 3 + (ONE,)


def test_classify_order_cap():
    pf = slice_of(ZBAR_POWERS[2]).to_point_function()
    rng = rng_for(8, "cap")
    points = [rand_plane_point(rng) for _ in range(4)]
    rep = classify(pf, 2, UNITS[:4], points)
    assert rep.sbs_polyanalytic_order is None
    assert rep.is_slice


def test_classify_refuses_a_point_function_with_no_units():
    # a point function's candidate stem is read on the first unit
    pf = coordinate_function(H).to_point_function()
    points = [rand_plane_point(rng_for(8, "no-units"))]
    with pytest.raises(ValueError, match="at least one unit"):
        classify(pf, 2, [], points)
    # one unit decides a slice polynomial on its stem; a slice function needs none
    for g, units in ((pf, UNITS[:1]), (coordinate_function(H), [])):
        rep = classify(g, 2, units, points)
        assert (rep.sbs_polyanalytic_order, rep.is_slice, _global_order(rep)) == (1, True, 1)


def test_every_low_order_stem_decomposes():
    # converse direction: a vanishing n-th slice derivative is sufficient
    rng = rng_for(9, "converse")
    for _ in range(50):
        stem = rand_stem(rng, H, max_degree=4)
        n = poly_order(stem)
        parts = decompose(stem, n)
        assert compose(parts) == stem
        assert all(c.dbar().is_zero() for c in parts)


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
        checks = report.items()
        assert all(passed for passed, _ in report.values()), [(k, p) for k, (p, _) in checks]
        assert "clifford-analogue" not in report
    # the campaign adds (6) from a second run under Cl(0,3)
    verdicts = campaign_verdicts(0, 40)
    assert list(verdicts)[-1] == "clifford-analogue"
    assert all(verdicts.values()), verdicts


def test_suite_fails_both_split_checks_when_a_slice_has_no_split(monkeypatch):
    # checks (1) and (4) read the split; the others run on and still pass
    def no_split(g, unit):
        raise NotPolyanalyticOfOrderError(2)

    monkeypatch.setattr(polyanalytic, "per_slice_decomposition", no_split)
    report = counterexample_suite(H, seed=1, unit_count=4)
    passed = {check_id: ok for check_id, (ok, _) in report.items()}
    failed = {"slicewise-order-two", "slice-coefficients-depend-on-unit"}
    assert {check_id for check_id, ok in passed.items() if not ok} == failed
    # the Cl(0,3) run the campaign adds fails the same way
    verdicts = campaign_verdicts(1, 4)
    assert {check_id for check_id, ok in verdicts.items() if not ok} == failed | {
        "clifford-analogue"
    }
    assert passed["not-slice"]
    details = {check_id: d for check_id, (_, d) in report.items()}
    assert details["slice-coefficients-depend-on-unit"] == {
        "f1_on_first_unit": None,
        "f1_on_second_unit": None,
    }


def test_suite_reads_the_classify_verdicts(monkeypatch):
    # checks (2), (3) and (7) take their verdicts from classify, so a classifier
    # that calls every input slice fails exactly those three
    def all_slice(g, max_order, units, points):
        return polyanalytic.ClassificationReport(
            sbs_polyanalytic_order=max_order,
            is_slice=True,
            slice_witness=None,
            components=None,
            evidence={"stem_reproduces_input": True},
        )

    monkeypatch.setattr(polyanalytic, "classify", all_slice)
    classify_checks = {"not-slice", "extraction-not-global", "left-multiplier-not-slice"}
    for sig in (clifford(3), H):
        report = counterexample_suite(sig, seed=1, unit_count=4)
        failed = {check_id for check_id, (ok, _) in report.items() if not ok}
        assert failed == classify_checks
        assert report["extraction-not-global"][1] == {"predicted": None, "actual": None}
    # the campaign's Cl(0,3) run reads the same classifier
    verdicts = campaign_verdicts(1, 4)
    failed = {check_id for check_id, ok in verdicts.items() if not ok}
    assert failed == classify_checks | {"clifford-analogue"}

    # (3) asks for no global order as well, and (7) for slice-by-slice order
    # exactly 2, not at most 2
    def order_one_but_global(g, max_order, units, points):
        verdict = classify(g, max_order, units, points)
        verdict.sbs_polyanalytic_order = 1
        verdict.components = (constant_stem(g.signature, 1),) * 2
        return verdict

    monkeypatch.setattr(polyanalytic, "classify", order_one_but_global)
    report = counterexample_suite(clifford(3), seed=1, unit_count=4)
    assert {check_id for check_id, (ok, _) in report.items() if not ok} == {
        "extraction-not-global",
        "left-multiplier-not-slice",
    }


def test_jump_example_values():
    bump = jump_example(H)
    half = AlgebraElement.scalar(H, Fraction(1, 2))
    for h in range(2, 51):
        assert bump.eval_coords((0, Fraction(1, h), Fraction(1, h * h), 0)) == half
    assert bump.eval_coords((0, 0, 0, 0)).is_zero()
    assert bump.eval_coords((Fraction(1, 3), 0, 0, 0)).is_zero()


def test_builtin_registry():
    assert isinstance(BUILTINS["x"](), SliceFunction)
    v_m = BUILTINS["v_m"]()
    assert v_m.signature == clifford(3)
    assert BUILTINS["v_r"]().signature == H
    with pytest.raises(Exception):
        BUILTINS["no-such-function"]


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
