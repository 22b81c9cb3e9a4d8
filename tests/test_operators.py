from fractions import Fraction

import pytest

from slicecalc import campaign, multipoly, operators
from slicecalc.algebra import QUATERNION, AlgebraElement, clifford, sample_units
from slicecalc.campaign import (
    g_relation_trials,
    leibniz_trials,
    slice_derivative_trials,
    slice_global_trials,
)
from slicecalc.multipoly import CoordPoly, RationalFn, _cancel, coord_im, coord_s
from slicecalc.named import (
    conjugate_coordinate,
    coordinate_function,
    default_domain,
    jump_example,
    rotation_twisted_coordinate,
)
from slicecalc.operators import (
    SlicePlanePoly,
    dbar_slice,
    g_op,
    restrict_slice_function,
    restrict_to_slice,
    thetabar,
)
from slicecalc.sampling import (
    rand_point_polynomial,
    rand_poly,
    rand_rational_point_function,
    rand_stem,
    rng_for,
)
from slicecalc.slicefn import PointFunction, SliceFunction, is_slice_exact, phi_coords

from oracles import (
    element_to_float,
    fd_dbar_slice,
    fd_g_op,
    fd_thetabar,
    float_agrees,
    plane_dbar_by_partials,
    radial_by_partials,
    rf_partial,
)

H = QUATERNION
DOM = default_domain()
UNITS = sample_units(H, 0, 8)
I_U, J_U = UNITS[:2]
X_FN = coordinate_function(H).to_point_function()
XBAR_FN = conjugate_coordinate(H).to_point_function()


def test_restrict_coordinate_function():
    for unit in UNITS[:5]:
        plane = restrict_to_slice(X_FN, unit)
        assert plane.numer == CoordPoly(
            H, 2, {(1, 0): AlgebraElement.one(H), (0, 1): unit}
        )


def test_restrict_jump_example_matches_reduced_formula():
    bump = jump_example(H)
    for unit in UNITS[:8]:
        i1, i2, i3 = unit.components()
        beta = CoordPoly.variable(H, 2, 1)
        numer = beta * (i1 * i1 * i2)
        denom = beta**2 * (i1**4) + CoordPoly.constant(H, 2, i2 * i2 + i3 * i3)
        assert restrict_to_slice(bump, unit) == RationalFn(numer, ((denom, 1),))


def test_restrict_twisted_coordinate_on_the_i_slice():
    v = rotation_twisted_coordinate(H)
    plane = restrict_to_slice(v, I_U)
    assert plane.numer == CoordPoly(
        H, 2, {(1, 0): AlgebraElement.one(H), (0, 1): I_U}
    )


@pytest.mark.parametrize("sig", [H, clifford(3)], ids=["H", "Cl3"])
def test_a_restriction_is_its_rational_function_and_compares_by_value(sig):
    # two restrictions of one induced function, and the one read off its stem, are equal
    rng = rng_for(49, "restriction-value")
    for unit in sample_units(sig, 49, 3):
        stem = rand_stem(rng, sig, max_degree=3)
        g = SliceFunction(DOM, stem).to_point_function()
        plane = restrict_to_slice(g, unit)
        assert plane == restrict_to_slice(g, unit) == restrict_slice_function(stem, unit)
        assert isinstance(plane, RationalFn)
        assert plane.unit == unit


def test_dbar_slice_examples():
    for unit in UNITS[:5]:
        assert dbar_slice(X_FN, unit, 1).is_zero()
    v = rotation_twisted_coordinate(H)
    assert dbar_slice(v, I_U, 1).is_zero()
    d_j = dbar_slice(v, J_U, 1)
    assert d_j == RationalFn.from_poly(CoordPoly.constant(H, 2, 1))
    for unit in UNITS:
        assert dbar_slice(v, unit, 2).is_zero()
    with pytest.raises(ValueError):
        dbar_slice(v, I_U, 0)


def test_thetabar_reference_values():
    c = PointFunction(DOM, RationalFn.from_poly(CoordPoly.constant(H, 4, 5)))
    assert thetabar(c, 1).expr.is_zero()
    assert thetabar(X_FN, 1).expr.is_zero()
    assert thetabar(XBAR_FN, 1).expr == RationalFn.from_poly(
        CoordPoly.constant(H, 4, 1)
    )


def test_g_op_reference_values():
    assert g_op(X_FN).expr.is_zero()
    assert g_op(XBAR_FN).expr == RationalFn.from_poly(coord_s(H) * 2)
    c = PointFunction(DOM, RationalFn.from_poly(CoordPoly.constant(H, 4, 5)))
    assert g_op(c).expr.is_zero()


def test_finite_diff_oracle_reference_values():
    approx = fd_thetabar(X_FN, (1.0, 1.0, 1.0, 1.0))
    assert float_agrees(AlgebraElement.zero(H), approx)
    approx = fd_thetabar(XBAR_FN, (0.0, 2.0, 0.0, 0.0))
    assert float_agrees(AlgebraElement.one(H), approx)
    v = rotation_twisted_coordinate(H)
    approx = fd_dbar_slice(v, J_U, (0.0, 1.0))
    assert float_agrees(AlgebraElement.one(H), approx)
    with pytest.raises(ValueError):
        fd_thetabar(X_FN, (1.0, 1e-7, 0.0, 0.0))


def test_exact_operators_agree_with_the_oracle():
    rng = rng_for(9, "oracle")
    for sig in (H, clifford(3)):
        units = sample_units(sig, 3, 6)
        for k in range(20):
            g = (
                rand_point_polynomial(rng, sig, max_degree=3)
                if k % 2
                else rand_rational_point_function(rng, sig, max_degree=2)
            )
            coords = [rng.uniform(-0.8, 0.8)] + [
                rng.uniform(0.4, 1.0) for _ in range(sig.imag_dim)
            ]
            # the exact symbolic operator, evaluated in floats at the oracle point
            exact_t_f = element_to_float(thetabar(g, 1).expr.eval(coords))
            approx_t = fd_thetabar(g, coords)
            for mask in set(exact_t_f) | set(approx_t):
                scale = max(1.0, abs(exact_t_f.get(mask, 0.0)))
                assert abs(exact_t_f.get(mask, 0.0) - approx_t.get(mask, 0.0)) <= 1e-6 * scale
            exact_g_f = element_to_float(g_op(g).expr.eval(coords))
            approx_g = fd_g_op(g, coords)
            for mask in set(exact_g_f) | set(approx_g):
                scale = max(1.0, abs(exact_g_f.get(mask, 0.0)))
                assert abs(exact_g_f.get(mask, 0.0) - approx_g.get(mask, 0.0)) <= 1e-6 * scale
            unit = rng.choice(units)
            z = (rng.uniform(-0.5, 0.5), rng.uniform(0.4, 1.0))
            exact_d = element_to_float(dbar_slice(g, unit, 1).eval(z))
            approx_d = fd_dbar_slice(g, unit, z)
            for mask in set(exact_d) | set(approx_d):
                scale = max(1.0, abs(exact_d.get(mask, 0.0)))
                assert abs(exact_d.get(mask, 0.0) - approx_d.get(mask, 0.0)) <= 1e-6 * scale


def test_slice_global_coincidence_randomized():
    for sig in (H, clifford(3)):
        trials, failures, witness = slice_global_trials(
            sig, 21, n_funcs=8, n_units=6, n_points=3, n_rational=2
        )
        assert failures == 0, witness


def test_slice_derivative_coincidence_randomized():
    for sig in (H, clifford(3)):
        trials, failures, witness = slice_derivative_trials(
            sig, 22, n_stems=10, n_units=6
        )
        assert failures == 0, witness


def test_slice_derivative_trials_catch_a_fault_at_level_zero(monkeypatch):
    # a constant planted in the coordinate form changes every restriction but no
    # slice derivative of it, so only the level-0 comparison sees it
    real = SliceFunction.to_point_function

    def planted(self):
        pf = real(self)
        one = CoordPoly.constant(pf.signature, pf.signature.coord_count, 1)
        return PointFunction(pf.domain, pf.expr + RationalFn.from_poly(one))

    monkeypatch.setattr(SliceFunction, "to_point_function", planted)
    trials, failures, witness = slice_derivative_trials(H, 5, n_stems=2, n_units=3)
    assert (trials, failures) == (12, 12)
    assert witness == {"stem_index": 0, "unit_index": 0, "order": 1}


def test_slice_derivative_trials_derive_only_the_stem_route(monkeypatch):
    # top = 2 dbar steps per stem and unit, on the stem's restriction only; the
    # coordinate form is restricted once per stem and unit
    derived, restricted = [], []
    real_dbar, real_restrict = SlicePlanePoly.dbar, campaign.restrict_to_slice

    def counted_dbar(self):
        derived.append(self)
        return real_dbar(self)

    def counted_restrict(g, unit):
        restricted.append(unit)
        return real_restrict(g, unit)

    monkeypatch.setattr(SlicePlanePoly, "dbar", counted_dbar)
    monkeypatch.setattr(campaign, "restrict_to_slice", counted_restrict)
    assert slice_derivative_trials(H, 5, n_stems=2, n_units=3) == (12, 0, None)
    assert len(derived) == 2 * 3 * 2
    assert len(restricted) == 2 * 3


def test_g_relation_randomized():
    for sig in (H, clifford(3)):
        trials, failures, witness = g_relation_trials(sig, 23, n_funcs=20)
        assert failures == 0, witness


def test_leibniz_randomized():
    for sig in (H, clifford(3)):
        trials, failures, witness = leibniz_trials(sig, 24, n_funcs=6, n_units=4)
        assert failures == 0, witness


def test_leibniz_restricts_each_function_once_per_unit(monkeypatch):
    # one function, two units, three powers: g is restricted once per unit (2)
    # and xbar^h g once per power and unit (6)
    calls = []
    real = operators.restrict_rf

    def counted(rf, direction):
        calls.append(direction)
        return real(rf, direction)

    monkeypatch.setattr(operators, "restrict_rf", counted)
    trials, failures, witness = leibniz_trials(H, 3, n_funcs=1, n_units=2)
    assert (trials, failures) == (9, 0), witness
    assert len(calls) == 8


def test_product_rule_for_slice_valued_left_factor():
    # the two-sided product rule needs the left factor to restrict into the
    # slice plane; real-coefficient polynomials in x do, so it holds for them
    from slicecalc.multipoly import coord_x
    from slicecalc.campaign import regularity_equivalence_trials

    rng = rng_for(11, "product-rule")
    x = coord_x(H)
    for _ in range(25):
        f_poly = CoordPoly.constant(H, 4, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for k in (1, 2):
            f_poly = f_poly + x**k * Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        f_pf = PointFunction(DOM, RationalFn.from_poly(f_poly))
        g = rand_point_polynomial(rng, H, max_degree=2)
        fg = PointFunction(DOM, RationalFn.from_poly(f_poly * g.expr.numer))
        for unit in UNITS[:3]:
            lhs = dbar_slice(fg, unit, 1)
            # every factor is a polynomial on the slice, so the products are of numerators
            parts = [
                dbar_slice(f_pf, unit, 1),
                restrict_to_slice(g, unit),
                restrict_to_slice(f_pf, unit),
                dbar_slice(g, unit, 1),
            ]
            assert all(part.is_polynomial() for part in parts)
            df, g_on, f_on, dg = (part.numer for part in parts)
            assert lhs == RationalFn.from_poly(df * g_on + f_on * dg)
    # the regularity faces are the other half of this contract
    trials, failures, witness = regularity_equivalence_trials(H, 12, n_stems=6, n_units=6)
    assert failures == 0, witness


def test_thetabar_iterates_compose():
    rng = rng_for(10, "compose")
    g = rand_point_polynomial(rng, H, max_degree=3)
    assert thetabar(g, 2).expr == thetabar(thetabar(g, 1), 1).expr


def test_thetabar_against_slice_values_on_the_jump_example():
    bump = jump_example(H)
    tb = thetabar(bump, 1)
    for unit in UNITS[2:6]:
        z = (Fraction(1, 3), Fraction(1, 2))
        got = tb.expr.eval(phi_coords(unit, *z))
        want = dbar_slice(bump, unit, 1).eval(z)
        assert got == want


# -- denominators: thetabar is stored in reduced form ------------------------------

# The exponents below are those of the fully reduced forms: sympy ``cancel`` of
# every blade gives the same denominators on these seeded inputs.


@pytest.mark.parametrize("sig", [H, clifford(3)], ids=["H", "Cl3"])
def test_thetabar_is_stored_over_the_reduced_power_of_s(sig):
    rng = rng_for(11, "s-powers")
    s = coord_s(sig)
    # the s exponent of thetabar^1..3 of each of the three polynomials drawn
    poly_exps = ((1, 1, 2), (1, 1, 2), (1, 1, 1))
    for exps in poly_exps:
        g = rand_point_polynomial(rng, sig, max_degree=4)
        for n, k_n in zip((1, 2, 3), exps):
            assert thetabar(g, n).expr.den_factors == ((s, k_n),)
        assert g_op(g).expr.is_polynomial()
        numer = rand_poly(rng, sig, sig.coord_count, max_degree=3)
        for k in (1, 2):
            over_s = PointFunction(DOM, RationalFn(numer, ((s, k),)))
            for n in (1, 2):
                assert thetabar(over_s, n).expr.den_factors == ((s, k + 1),)
            assert g_op(over_s).expr.den_factors == ((s, k),)


def test_a_factor_not_homogeneous_in_the_imaginary_part_goes_up_once_per_step():
    s = coord_s(H)
    s_plus_one = s + CoordPoly.constant(H, 4, 1)
    numer = rand_poly(rng_for(12, "s-plus-one"), H, 4, max_degree=3)
    bump = jump_example(H)
    bump_den = bump.expr.den_factors[0][0]
    for g, factor in (
        (PointFunction(DOM, RationalFn(numer, ((s_plus_one, 1),))), s_plus_one),
        (bump, bump_den),
    ):
        for n in (1, 2):
            assert dict(thetabar(g, n).expr.den_factors) == {factor: 1 + n, s: 1}
        assert dict(g_op(g).expr.den_factors) == {factor: 2}


@pytest.mark.parametrize("sig", [H, clifford(3)], ids=["H", "Cl3"])
def test_a_radial_factor_other_than_s_keeps_its_power(sig):
    # x_1^2 + x_2^2 is free of x_0 and homogeneous, so G reads it as a shift:
    # each thetabar step keeps its power and holds s^1
    n = sig.coord_count
    s = coord_s(sig)
    x1, x2 = (CoordPoly.variable(sig, n, h) for h in (1, 2))
    q = x1 * x1 + x2 * x2
    rng = rng_for(12, "q")
    for k in (1, 2):
        for _ in range(3):
            g = PointFunction(DOM, RationalFn(rand_poly(rng, sig, n, max_degree=3), ((q, k),)))
            for order in (1, 2):
                assert dict(thetabar(g, order).expr.den_factors) == {q: k, s: 1}
            assert g_op(g).expr.den_factors == ((q, k),)


def test_g_and_the_rotation_test_divide_no_factor(monkeypatch):
    # G raises s + 1 and bump's denominator and reads x_1^2 + x_2^2 as a shift,
    # and a rotation field raises bump's denominator: no factor is tried by division
    s = coord_s(H)
    one = CoordPoly.constant(H, 4, 1)
    x1, x2 = (CoordPoly.variable(H, 4, h) for h in (1, 2))
    bump = jump_example(H)
    numer = rand_poly(rng_for(48, "no-division"), H, 4, max_degree=3)
    factors = (s + one, bump.expr.den_factors[0][0], x1 * x1 + x2 * x2)
    inputs = [PointFunction(DOM, RationalFn(numer, ((p, 1),))) for p in factors]
    divisions = []
    real = multipoly._divide_exact

    def counted(numer, p):
        divisions.append(p)
        return real(numer, p)

    monkeypatch.setattr(multipoly, "_divide_exact", counted)
    for g in inputs:
        g_op(g)
    assert not is_slice_exact(bump)
    assert divisions == []


@pytest.mark.parametrize("sig", [H, clifford(3), clifford(5)], ids=["H", "Cl3", "Cl5"])
def test_thetabar_of_an_induced_function_is_the_induced_slice_derivative(sig):
    # thetabar^n of the function a polynomial stem induces reduces to a
    # polynomial: the function induced by dbar^n of the stem, stored the same way
    rng = rng_for(14, "induced")
    for _ in range(3):
        stem = rand_stem(rng, sig, max_degree=4)
        g = SliceFunction(DOM, stem).to_point_function()
        for n in (1, 2, 3, 4):
            got = thetabar(g, n).expr
            want = SliceFunction(DOM, stem).derivative(n).to_point_function().expr
            assert got.den_factors == ()
            assert (got.numer.rows, got.numer.den) == (want.numer.rows, want.numer.den)


@pytest.mark.parametrize("sig", [H, clifford(3), clifford(5)], ids=["H", "Cl3", "Cl5"])
def test_radial_rule_matches_the_sum_of_partials(sig):
    # G reads s^k as the shift R s^k = 2k s^k: its stored form is that of
    # s d/dx_0 + Im(x) sum_h x_h d/dx_h, one quotient-rule partial per variable,
    # reduced
    rng = rng_for(13, "radial")
    n = sig.coord_count
    s, im = coord_s(sig), coord_im(sig)
    s_plus_one = s + CoordPoly.constant(sig, n, 1)
    bump_den = jump_example(sig).expr.den_factors[0][0]
    x0, x1, x2 = (CoordPoly.variable(sig, n, h) for h in (0, 1, 2))
    q = x1 * x1 + x2 * x2
    denominators = (
        ((s, 1),),
        ((s, 2),),
        ((s_plus_one, 1),),
        ((bump_den, 1),),
        ((s, 1), (s_plus_one, 2)),
        ((bump_den, 2), (s, 1)),
        # radial factors other than s: free of x_0, homogeneous in x_1..x_n
        ((x1, 1),),
        ((q, 2),),
        ((s, 1), (q, 1), (s_plus_one, 1)),
        # homogeneous but not free of x_0, so not radial
        ((x0 * x0 + s, 1),),
    )
    for factors in denominators:
        for _ in range(3):
            rf = RationalFn(rand_poly(rng, sig, n, max_degree=3), factors)
            want = rf_partial(rf, 0).mul_poly_left(s) + radial_by_partials(rf).mul_poly_left(im)
            assert stored(g_op(PointFunction(DOM, rf)).expr) == stored(_cancel(want))


def test_a_thetabar_step_is_two_products_and_no_rational_arithmetic(monkeypatch):
    # G's numerator is one pass of two products, s^k read as a shift, and the
    # division by 2s only adds to the exponent of s
    calls = []
    real = multipoly._int_product

    def counted(*args):
        calls.append(args)
        return real(*args)

    def refused(*args):
        raise AssertionError("thetabar built a rational function by arithmetic")

    s = coord_s(H)
    numer = rand_poly(rng_for(16, "two-products"), H, 4, max_degree=3)
    inputs = [PointFunction(DOM, RationalFn(numer, ((s, k),))) for k in (0, 1, 2)]
    wants = [thetabar(g).expr for g in inputs]
    monkeypatch.setattr(multipoly, "_int_product", counted)
    monkeypatch.setattr(RationalFn, "__mul__", refused)
    monkeypatch.setattr(RationalFn, "__add__", refused)
    for g, want in zip(inputs, wants):
        calls.clear()
        got = thetabar(g).expr
        assert len(calls) == 2
        assert stored(got) == stored(want)


def _g_draws(sig, label):
    """A polynomial, an N/s^2 and an N/(s + 1) point function over ``sig``."""
    rng = rng_for(17, label)
    n = sig.coord_count
    s = coord_s(sig)
    numers = [rand_poly(rng, sig, n, max_degree=3) for _ in range(3)]
    factors = ((), ((s, 2),), ((s + CoordPoly.constant(sig, n, 1), 1),))
    return [PointFunction(DOM, RationalFn(p, f)) for p, f in zip(numers, factors)]


def _fresh(g):
    """The same function as a new object, so nothing kept for ``g`` applies to it."""
    return PointFunction(g.domain, RationalFn._make(g.expr.numer, g.expr.den_factors))


def _count_g_passes(monkeypatch):
    calls = []
    real = CoordPoly.g_op

    def counted(self, shift=0):
        calls.append(shift)
        return real(self, shift)

    monkeypatch.setattr(CoordPoly, "g_op", counted)
    return calls


@pytest.mark.parametrize("sig", [H, clifford(3)], ids=["H", "Cl3"])
def test_g_op_and_thetabar_of_one_function_take_one_g(sig, monkeypatch):
    # either order: the second operator reads the G the first one made
    calls = _count_g_passes(monkeypatch)
    for g in _g_draws(sig, "one-g"):
        for first, second in ((g_op, thetabar), (thetabar, g_op)):
            wants = [stored(op(_fresh(g)).expr) for op in (first, second)]
            calls.clear()
            got_first = first(g).expr
            assert calls
            made = len(calls)
            got_second = second(g).expr
            assert len(calls) == made
            assert [stored(got_first), stored(got_second)] == wants


def test_no_g_is_reused_across_functions(monkeypatch):
    # b equals a in value but is another object; each call on a function other
    # than the last one asked for takes its own G
    calls = _count_g_passes(monkeypatch)
    a, _, c = _g_draws(H, "no-reuse")
    b = _fresh(a)
    order = [(g_op, a), (thetabar, b), (g_op, c), (thetabar, a), (g_op, b), (thetabar, c)]
    wants = []
    for op, g in order:
        calls.clear()
        wants.append((stored(op(_fresh(g)).expr), len(calls)))
    for (op, g), (want, passes) in zip(order, wants):
        calls.clear()
        assert stored(op(g).expr) == want
        assert len(calls) == passes > 0


def test_cancel_refutes_s_at_its_complex_zeros_before_dividing(monkeypatch):
    # x_1^16 over Cl(0,8): s does not divide 8 x_1^16 Im(x), and no long
    # division by s runs to find that out
    sig = clifford(8)
    n = sig.coord_count
    s = coord_s(sig)
    divisions = []
    real = multipoly._divide_exact

    def counted(numer, p):
        divisions.append(p)
        return real(numer, p)

    monkeypatch.setattr(multipoly, "_divide_exact", counted)
    x1_16 = CoordPoly.variable(sig, n, 1) ** 16
    got = thetabar(PointFunction(DOM, RationalFn.from_poly(x1_16))).expr
    assert s not in divisions
    want = RationalFn._make(x1_16 * coord_im(sig) * 8, ((s, 1),))
    assert stored(got) == stored(want)
    # a multiple of s is never refuted, and the division still runs on it
    rng = rng_for(17, "zeros-of-s")
    for _ in range(5):
        numer = rand_poly(rng, sig, n, max_degree=3)
        assert not multipoly._off_a_zero_of_s(numer * s)
        assert _cancel(RationalFn._make(numer * s, ((s, 1),))).numer == numer
    assert divisions.count(s) == 5


def stored(rf):
    return rf.den_factors, rf.numer.rows, rf.numer.den


@pytest.mark.parametrize("sig", [H, clifford(3), clifford(5)], ids=["H", "Cl3", "Cl5"])
def test_plane_dbar_matches_the_sum_of_partials(sig):
    # the one quotient rule gives the stored form of the sum of partials, order by order
    rng = rng_for(15, "plane-dbar")
    units = sample_units(sig, 15, 3)
    for draw in (rand_point_polynomial, rand_rational_point_function):
        for _ in range(3):
            g = draw(rng, sig)
            for unit in units:
                plane = restrict_to_slice(g, unit)
                for _ in (1, 2, 3):
                    want = plane_dbar_by_partials(plane)
                    plane = plane.dbar()
                    assert stored(plane) == stored(want)


def test_plane_dbar_keeps_the_derivative_of_a_factor_on_the_left():
    # j / F with F = 1 + beta^2: dbar(j / F) = -(I beta) j / F^2, and I j != j I
    unit = I_U
    j = AlgebraElement.basis(H, 2)
    assert unit * j != j * unit
    beta = CoordPoly.variable(H, 2, 1)
    f = beta * beta + CoordPoly.constant(H, 2, 1)
    plane = SlicePlanePoly(RationalFn(CoordPoly.constant(H, 2, j), ((f, 1),)), unit)
    got = plane.dbar()
    assert got == RationalFn(-beta.scale_left(unit * j), ((f, 2),))
    assert stored(got) == stored(plane_dbar_by_partials(plane))


@pytest.mark.parametrize("constant", [0, 1], ids=["beta^2", "beta^2+1"])
def test_a_plane_dbar_step_divides_no_factor(monkeypatch, constant):
    # dbar of a real factor F lowers its degree, and F, real-scalar, divides no
    # nonzero polynomial of lower degree, so the quotient rule tries no division
    beta = CoordPoly.variable(H, 2, 1)
    f = beta * beta + CoordPoly.constant(H, 2, constant)
    numer = rand_poly(rng_for(47, "no-division"), H, 2, max_degree=3)
    plane = SlicePlanePoly(RationalFn(numer, ((f, 1),)), I_U)
    want = plane_dbar_by_partials(plane)
    divisions = []
    real = multipoly._divide_exact

    def counted(numer, p):
        divisions.append(p)
        return real(numer, p)

    monkeypatch.setattr(multipoly, "_divide_exact", counted)
    got = plane.dbar()
    assert divisions == []
    assert stored(got) == stored(want)
    assert got.den_factors == ((f, 2),)
