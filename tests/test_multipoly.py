from fractions import Fraction
from math import gcd
from random import Random

import pytest

from slicecalc.algebra import QUATERNION, AlgebraElement, clifford, sample_units
from slicecalc.errors import (
    ArityMismatchError,
    DenominatorVanishesError,
    SignatureMismatchError,
    ZeroDenominatorError,
)
from slicecalc.multipoly import (
    CoordPoly,
    RationalFn,
    _cancel,
    _divide_exact,
    coord_s,
    coord_x,
    coord_xbar,
    restrict_poly,
    restrict_rf,
)
from slicecalc.named import default_domain, jump_example
from slicecalc.operators import g_op
from slicecalc.sampling import rand_poly, rng_for
from slicecalc.slicefn import PointFunction

from oracles import element_to_float, paravector, rf_partial

H = QUATERNION
ONE = AlgebraElement.one(H)
I, J, K = (AlgebraElement.basis(H, m) for m in (1, 2, 3))


def var(idx, n=4):
    return CoordPoly.variable(H, n, idx)


def const(c, n=4):
    return CoordPoly.constant(H, n, c)


def test_product_keeps_coefficients_in_order():
    x1_i = var(1).scale_left(I)
    x1_j = var(1).scale_left(J)
    assert x1_i * x1_j == (var(1) ** 2).scale_left(K)
    assert x1_j * x1_i == (var(1) ** 2).scale_left(-K)


def test_additive_inverse_and_square():
    p = rand_poly(rng_for(1, "p"), H, 4)
    assert (p + (-p)).is_zero()
    x0_plus_x1i = var(0) + var(1).scale_left(I)
    expect = var(0) ** 2 + (var(0) * var(1)).scale_left(I * 2) - var(1) ** 2
    assert x0_plus_x1i * x0_plus_x1i == expect


def test_arity_and_exponent_validation():
    with pytest.raises(ArityMismatchError):
        CoordPoly(H, 4, {(1, 0): ONE})
    with pytest.raises(ValueError):
        CoordPoly(H, 2, {(-1, 0): ONE})
    with pytest.raises(ArityMismatchError):
        var(0, n=4) + CoordPoly.variable(H, 2, 0)


def test_partial_derivatives_polynomial():
    p = (var(1) ** 2).scale_left(J)
    assert p.partial(1) == var(1).scale_left(J * 2)
    assert p.partial(0).is_zero()


def test_partial_quotient_rule_squares_single_factor():
    den = var(1) ** 2 + var(2) ** 2
    f = RationalFn(const(1), ((den, 1),))
    df = rf_partial(f, 1)
    assert df.den_factors == ((den, 2),)
    assert df.numer == var(1) * -2
    # a factor untouched by the derivative keeps its exponent
    assert rf_partial(f, 0).is_zero()
    g = RationalFn(var(0), ((den, 1),))
    assert rf_partial(g, 0) == RationalFn(const(1), ((den, 1),))


def test_partial_with_multiple_denominator_factors():
    s = coord_s(H)
    splus = s + const(1)
    f = RationalFn(var(0) * var(1), ((s, 1), (splus, 2)))
    df = rf_partial(f, 1)
    assert dict(df.den_factors) == {s: 2, splus: 3}
    rng = Random(7)
    step = 1e-5
    for _ in range(10):
        pt = [rng.uniform(0.4, 1.2) for _ in range(4)]
        up, dn = list(pt), list(pt)
        up[1] += step
        dn[1] -= step
        hi, lo = element_to_float(f.eval(up)), element_to_float(f.eval(dn))
        got = element_to_float(df.eval(pt))
        for m in set(got) | set(hi):
            approx = (hi.get(m, 0.0) - lo.get(m, 0.0)) / (2 * step)
            assert abs(got.get(m, 0.0) - approx) <= 1e-6 * max(1.0, abs(got.get(m, 0.0)))


def test_eval_examples():
    p = (var(1) ** 2).scale_left(K)
    assert p.eval((0, 3, 0, 0)) == K * 9
    den = var(1) ** 4 + var(2) ** 2 + var(3) ** 2
    f = RationalFn(var(1) ** 2 * var(2), ((den, 1),))
    for h in (2, 3, 10):
        got = f.eval((0, Fraction(1, h), Fraction(1, h * h), 0))
        assert got == AlgebraElement.scalar(H, Fraction(1, 2))
    g = RationalFn(const(1), ((var(1) ** 2 + var(2) ** 2, 1),))
    with pytest.raises(DenominatorVanishesError):
        g.eval((1, 0, 0, 0))


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominatorError):
        RationalFn(const(1), ((CoordPoly(H, 4, {}), 1),))
    with pytest.raises(ValueError):
        RationalFn(const(1), ((var(1).scale_left(I), 1),))  # non-real denominator


def test_denominator_normalization_folds_content():
    den = (var(1) ** 2) * Fraction(-3, 2)
    f = RationalFn(const(1), ((den, 1),))
    # factor becomes primitive with positive leading coefficient
    assert f.den_factors == ((var(1) ** 2, 1),)
    assert f.numer == const(Fraction(-2, 3))
    assert f.eval((0, 2, 0, 0)) == AlgebraElement.scalar(H, Fraction(1, -6))


def test_value_equality_across_representations():
    s = coord_s(H)
    a = RationalFn(var(1) * s, ((s, 2),))
    b = RationalFn(var(1), ((s, 1),))
    assert a == b
    assert RationalFn.from_poly(var(1)) != b
    # N (s+1) / (s (s+1)) against N / s: over s (s+1), one side takes the
    # cofactor s+1; written as N s / s^2, both sides take one
    one = CoordPoly.constant(H, 4, 1)
    c = RationalFn(var(1) * (s + one), ((s, 1), (s + one, 1)))
    assert c == b
    assert c == RationalFn(var(1) * s, ((s, 2),))
    # N / s against N / (s+1)
    assert b != RationalFn(var(1), ((s + one, 1),))
    # numerators that differ in one term, over the same and over other factors
    assert RationalFn(var(1) + var(2), ((s, 1),)) != RationalFn(var(1) + var(3), ((s, 1),))
    assert RationalFn(var(1) * s + var(2), ((s, 2),)) != b
    # a RationalFn against a CoordPoly, on either side of ==
    assert RationalFn(var(1) * s, ((s, 1),)) == var(1)
    assert var(1) == RationalFn(var(1) * s, ((s, 1),))
    assert b != var(1)


def test_g_op_reads_s_as_a_shift_and_derive_raises_it():
    # G(s) = 2 s Im(x): g_op keeps s^1, reading it as the shift 2, while the
    # generic quotient rule divides nothing, so derive(G) stores s^2 over a
    # numerator that s divides; the two agree in value and after _cancel
    s = coord_s(H)
    rng = rng_for(21, "divides-derivative")
    for _ in range(3):
        rf = RationalFn(rand_poly(rng, H, 4, max_degree=3, n_terms=4), ((s, 1),))
        got = rf.derive(CoordPoly.g_op)
        want = g_op(PointFunction(default_domain(), rf))
        assert want.den_factors == ((s, 1),)
        assert want.numer == rf.numer.g_op(2)
        assert got.den_factors == ((s, 2),)
        assert got == want
        reduced = _cancel(got)
        assert (reduced.den_factors, reduced.numer) == (want.den_factors, want.numer)


def test_partials_commute_on_random_rational_functions():
    rng = rng_for(3, "commute")
    s = coord_s(H)
    for _ in range(200):
        numer = rand_poly(rng, H, 4, max_degree=3, n_terms=3)
        f = RationalFn(numer, ((s, 1),)) if rng.random() < 0.5 else RationalFn.from_poly(numer)
        h, k = rng.randrange(4), rng.randrange(4)
        assert rf_partial(rf_partial(f, h), k) == rf_partial(rf_partial(f, k), h)


def test_eval_is_multiplicative():
    rng = rng_for(4, "mult")
    for _ in range(500):
        p = rand_poly(rng, H, 4, max_degree=3, n_terms=3)
        q = rand_poly(rng, H, 4, max_degree=3, n_terms=3)
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)]
        assert (p * q).eval(x) == p.eval(x) * q.eval(x)


def test_partial_matches_float_finite_differences():
    rng = rng_for(5, "fd")
    s = coord_s(H)
    step = 1e-5
    for _ in range(50):
        numer = rand_poly(rng, H, 4, max_degree=3, n_terms=4)
        f = RationalFn(numer, ((s, 1),))
        point = [rng.uniform(0.5, 1.5) for _ in range(4)]
        idx = rng.randrange(4)
        exact = element_to_float(rf_partial(f, idx).eval(point))
        up = list(point)
        down = list(point)
        up[idx] += step
        down[idx] -= step
        hi, lo = element_to_float(f.eval(up)), element_to_float(f.eval(down))
        for mask in set(exact) | set(hi) | set(lo):
            approx = (hi.get(mask, 0.0) - lo.get(mask, 0.0)) / (2 * step)
            scale = max(1.0, abs(exact.get(mask, 0.0)))
            assert abs(exact.get(mask, 0.0) - approx) <= 1e-6 * scale


def test_restrict_poly_substitution():
    unit = sample_units(H, 0, 5)[4]
    comps = unit.components()
    x = coord_x(H)
    restricted = restrict_poly(x, unit)
    expect = CoordPoly(H, 2, {(1, 0): ONE, (0, 1): unit})
    assert restricted == expect
    # evaluating the restriction equals evaluating at the substituted point
    rng = Random("restrict-eval")
    for _ in range(50):
        p = rand_poly(rng_for(6, f"rp{rng.random()}"), H, 4, max_degree=4, n_terms=4)
        alpha = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        beta = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        coords = [alpha] + [c * beta for c in comps]
        assert restrict_poly(p, unit).eval((alpha, beta)) == p.eval(coords)


def test_restrict_rf_zero_denominator_on_slice():
    unit = sample_units(H, 0, 2)[1]  # j: first component 0
    f = RationalFn(CoordPoly.constant(H, 4, 1), ((CoordPoly.variable(H, 4, 1), 1),))
    with pytest.raises(ZeroDenominatorError):
        restrict_rf(f, unit)


def test_restrict_rejects_a_direction_of_another_signature():
    x = coord_x(H)
    e1 = AlgebraElement.basis(clifford(3), 1)
    with pytest.raises(SignatureMismatchError):
        restrict_poly(x, e1)
    with pytest.raises(SignatureMismatchError):
        restrict_rf(RationalFn.from_poly(x), e1)


@pytest.mark.parametrize(
    "sig, mask", [(H, 0), (clifford(3), 0), (clifford(3), 3), (clifford(3), 7)]
)
def test_restrict_rejects_a_direction_outside_the_imaginary_span(sig, mask):
    # the real blade, and in Cl(0,3) the bivector e12 and the trivector e123
    x = coord_x(sig)
    direction = AlgebraElement.basis(sig, sig.imag_masks[0]) + AlgebraElement.basis(sig, mask)
    with pytest.raises(ValueError, match="imaginary span"):
        restrict_poly(x, direction)
    with pytest.raises(ValueError, match="imaginary span"):
        restrict_rf(RationalFn.from_poly(x), direction)


def test_conjugate_coordinate_polys():
    x = coord_x(H)
    xb = coord_xbar(H)
    point = (Fraction(1), Fraction(2), Fraction(-1), Fraction(3))
    assert x.eval(point) == paravector(H, point)
    assert xb.eval(point) == paravector(H, (1, -2, 1, -3))
    assert (x * xb).eval(point) == AlgebraElement.scalar(H, 15)  # 1 + 4 + 1 + 9


# -- exact division by a known factor ------------------------------------------------


def _known_factors():
    s = coord_s(H)
    two_lead = var(0) ** 2 * 2 + var(1) * var(2) * 3 - const(1)  # primitive, LT 2 x_0^2
    return {
        "s": s,
        "s+1": s + const(1),
        "bump": jump_example(H).den_factors[0][0],
        "2x0^2+3x1x2-1": two_lead,
    }


def _is_canonical(poly):
    nums = [n for row in poly.rows.values() for n in row.values()]
    return poly.den > 0 and gcd(poly.den, *nums) == 1 and all(nums)


@pytest.mark.parametrize("name", list(_known_factors()))
def test_divide_exact_recovers_the_quotient(name):
    p = _known_factors()[name]
    rng = rng_for(15, f"divide-{name}")
    for _ in range(4):
        q = rand_poly(rng, H, 4, max_degree=3) * Fraction(6, 35)
        for j in (1, 2):
            numer = q * p**j
            for _ in range(j):
                numer = _divide_exact(numer, p)
                assert numer is not None and _is_canonical(numer)
            assert numer == q


@pytest.mark.parametrize("name", list(_known_factors()))
def test_divide_exact_reports_a_nonzero_remainder(name):
    p = _known_factors()[name]
    rng = rng_for(16, f"remainder-{name}")
    for _ in range(4):
        q = rand_poly(rng, H, 4, max_degree=3)
        # a nonzero remainder of lower degree than p: no multiple of p
        r = rand_poly(rng, H, 4, max_degree=1) + const(1)
        assert not r.is_zero() and r.total_degree() < p.total_degree()
        assert _divide_exact(q * p + r, p) is None


def test_divide_exact_stops_on_the_leading_term():
    factors = _known_factors()
    # LT(s) = x_1^2 does not divide x_3
    assert _divide_exact(var(3), factors["s"]) is None
    # LT = 2 x_0^2 divides x_0^2 as a monomial, but 1 / 2 is no integer: p is
    # primitive, so by Gauss's lemma p does not divide
    assert _divide_exact(var(0) ** 2, factors["2x0^2+3x1x2-1"]) is None
    assert _divide_exact(CoordPoly(H, 4, {}), factors["s"]) == CoordPoly(H, 4, {})
