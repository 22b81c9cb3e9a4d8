"""The integer inner loops of the kernel against plain ``Fraction`` references.

``AlgebraElement.__mul__``, ``CoordPoly.__mul__``, ``CoordPoly.eval`` and
``RationalFn.eval`` add up integer numerators over a common denominator.  The
references below are the straightforward loops over ``Fraction`` coefficients,
with their own blade sign rule, so they share no arithmetic with the kernel.
Results must also be canonical: no zero coefficient is stored, and ``==`` and
``hash`` agree with a value built through the public constructor.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicecalc.algebra import QUATERNION, AlgebraElement, clifford
from slicecalc.errors import DenominatorVanishesError
from slicecalc.multipoly import CoordPoly, RationalFn

H = QUATERNION
CL3 = clifford(3)
CL4 = clifford(4)
SIGNATURES = (H, CL3, CL4)


# -- references -----------------------------------------------------------------


def ref_blade_mul(ma, mb):
    """Sort the generators of ma then mb: one -1 per inversion and per e_t^2."""
    gens_a = [u for u in range(ma.bit_length()) if ma >> u & 1]
    gens_b = [t for t in range(mb.bit_length()) if mb >> t & 1]
    inversions = sum(u > t for u in gens_a for t in gens_b)
    shared = len(set(gens_a) & set(gens_b))
    return ma ^ mb, (-1) ** (inversions + shared)


def ref_element_mul(a, b):
    acc = {}
    for ma, ca in a.coeffs.items():
        for mb, cb in b.coeffs.items():
            mask, sign = ref_blade_mul(ma, mb)
            acc[mask] = acc.get(mask, Fraction(0)) + sign * ca * cb
    return AlgebraElement(a.signature, acc)


def ref_poly_mul(p, q):
    acc = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            prod = ref_element_mul(ca, cb)
            acc[key] = acc[key] + prod if key in acc else prod
    return CoordPoly(p.signature, p.var_count, acc)


def ref_eval(p, point):
    pt = [Fraction(x) for x in point]
    acc = {}
    for e, c in p.terms.items():
        scalar = Fraction(1)
        for x, k in zip(pt, e):
            scalar *= x**k
        for mask, q in c.coeffs.items():
            acc[mask] = acc.get(mask, Fraction(0)) + scalar * q
    return AlgebraElement(p.signature, acc)


def ref_rf_eval(rf, point):
    den = Fraction(1)
    for p, k in rf.den_factors:
        den *= ref_eval(p, point).scalar_part() ** k
    if not den:
        raise ZeroDivisionError("denominator vanishes")
    value = ref_eval(rf.numer, point)
    return AlgebraElement(rf.signature, {m: c / den for m, c in value.coeffs.items()})


def assert_canonical_element(value, ref):
    assert all(isinstance(c, Fraction) and c for c in value.coeffs.values())
    rebuilt = AlgebraElement(value.signature, dict(value.coeffs))
    assert value == rebuilt == ref
    assert hash(value) == hash(rebuilt) == hash(ref)


# -- strategies -------------------------------------------------------------------

fracs = st.fractions(min_value=-6, max_value=6, max_denominator=12)
point_coords = st.one_of(
    fracs,
    st.sampled_from([Fraction(0), Fraction(-1), Fraction(-3, 2)]),
    st.integers(min_value=-5, max_value=5),
    st.floats(min_value=-4, max_value=4, allow_nan=False, allow_subnormal=False),
)


def elements(signature, max_terms=4):
    return st.dictionaries(
        st.integers(min_value=0, max_value=signature.dim - 1), fracs, max_size=max_terms
    ).map(lambda coeffs: AlgebraElement(signature, coeffs))


def polys(signature, var_count, max_terms=5):
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * var_count)
    return st.dictionaries(exps, elements(signature, 3), max_size=max_terms).map(
        lambda terms: CoordPoly(signature, var_count, terms)
    )


@st.composite
def element_pairs(draw):
    sig = draw(st.sampled_from(SIGNATURES))
    return draw(elements(sig)), draw(elements(sig))


@st.composite
def poly_pairs(draw):
    sig = draw(st.sampled_from(SIGNATURES))
    n = draw(st.integers(min_value=1, max_value=3))
    return draw(polys(sig, n)), draw(polys(sig, n))


@st.composite
def poly_points(draw):
    sig = draw(st.sampled_from(SIGNATURES))
    n = sig.coord_count
    return draw(polys(sig, n)), draw(st.lists(point_coords, min_size=n, max_size=n))


@st.composite
def rational_points(draw):
    sig = draw(st.sampled_from(SIGNATURES))
    n = sig.coord_count
    factors = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        den = draw(polys(sig, n, max_terms=3).map(_real_part))
        if not den.is_zero():
            factors.append((den, draw(st.integers(min_value=1, max_value=2))))
    rf = RationalFn(draw(polys(sig, n)), factors)
    return rf, draw(st.lists(point_coords, min_size=n, max_size=n))


def _real_part(poly):
    return CoordPoly(
        poly.signature,
        poly.var_count,
        {e: AlgebraElement.scalar(poly.signature, c.scalar_part()) for e, c in poly.terms.items()},
    )


# -- products ---------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(element_pairs())
def test_element_product_matches_the_fraction_reference(pair):
    a, b = pair
    assert_canonical_element(a * b, ref_element_mul(a, b))


@settings(max_examples=60, deadline=None)
@given(poly_pairs())
def test_poly_product_matches_the_fraction_reference(pair):
    p, q = pair
    value, ref = p * q, ref_poly_mul(p, q)
    assert value.terms.keys() == ref.terms.keys()
    for e, c in value.terms.items():
        assert_canonical_element(c, ref.terms[e])
    assert value == CoordPoly(p.signature, p.var_count, dict(value.terms))
    assert hash(value) == hash(ref)


@pytest.mark.parametrize("sig", SIGNATURES, ids=lambda s: f"{s.kind}{s.m}")
def test_products_whose_terms_cancel(sig):
    e1, e2 = (AlgebraElement.basis(sig, m) for m in sig.imag_masks[:2])
    half = Fraction(1, 2)
    # (e1/2 + e2/3)^2 = -1/4 - 1/9: the two bivector terms cancel exactly
    a = e1 * half + e2 * Fraction(1, 3)
    square = a * a
    assert square.coeffs == {0: Fraction(-13, 36)}
    assert_canonical_element(square, ref_element_mul(a, a))
    assert (e1 * e2 + e2 * e1).is_zero()
    n = sig.coord_count
    x0, x1 = CoordPoly.variable(sig, n, 0), CoordPoly.variable(sig, n, 1)
    z = x0 + x1.scale_right(e1 * half)
    zbar = x0 - x1.scale_right(e1 * half)
    # (x0 + x1 e1/2)(x0 - x1 e1/2) = x0^2 + x1^2/4: the mixed terms cancel
    product = z * zbar
    assert product == x0 * x0 + (x1 * x1) * Fraction(1, 4)
    assert set(product.terms) == {(2,) + (0,) * (n - 1), (0, 2) + (0,) * (n - 2)}
    assert hash(product) == hash(ref_poly_mul(z, zbar))


def test_zero_products_and_evaluation():
    zero = CoordPoly.zero(CL3, 4)
    p = CoordPoly.variable(CL3, 4, 2).scale_left(AlgebraElement.basis(CL3, 5))
    assert (zero * p).is_zero() and (p * zero).is_zero()
    assert (zero * p) == zero and hash(zero * p) == hash(zero)
    assert zero.eval([1, Fraction(2, 3), -1, 0]) == AlgebraElement.zero(CL3)
    assert RationalFn.from_poly(zero).eval([0, 0, 0, 0]).is_zero()
    assert (AlgebraElement.zero(CL4) * AlgebraElement.one(CL4)).coeffs == {}


def test_basis_product_in_a_large_clifford_algebra_returns_at_once():
    # no dense dim x dim blade table: Cl(0, 40) has 2^40 blades
    sig = clifford(40)
    ma, mb = (1 << 39) | 1, (1 << 40) - 1
    value = AlgebraElement.basis(sig, ma) * AlgebraElement.basis(sig, mb)
    mask, sign = ref_blade_mul(ma, mb)
    assert value.coeffs == {mask: Fraction(sign)}


# -- evaluation -------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(poly_points())
def test_poly_eval_matches_the_fraction_reference(case):
    poly, point = case
    assert_canonical_element(poly.eval(point), ref_eval(poly, point))
    # the cached integer form gives the same value on a second call
    assert poly.eval(point) == ref_eval(poly, point)


@settings(max_examples=80, deadline=None)
@given(rational_points())
def test_rational_eval_matches_the_fraction_reference(case):
    rf, point = case
    try:
        ref = ref_rf_eval(rf, point)
    except ZeroDivisionError:
        with pytest.raises(DenominatorVanishesError):
            rf.eval(point)
        return
    assert_canonical_element(rf.eval(point), ref)


@pytest.mark.parametrize("sig", SIGNATURES, ids=lambda s: f"{s.kind}{s.m}")
def test_eval_at_zero_negative_and_float_coordinates(sig):
    n = sig.coord_count
    x = [CoordPoly.variable(sig, n, h) for h in range(n)]
    e1 = AlgebraElement.basis(sig, sig.imag_masks[0])
    poly = x[0] ** 3 + (x[1] * x[1]).scale_left(e1) * Fraction(-2, 3) + x[n - 1] * 5
    for point in (
        [0] * n,
        [-1] + [Fraction(-3, 7)] * (n - 1),
        [0.5] + [-0.25] * (n - 1),
        [Fraction(1, 3), 0] + [Fraction(-2, 5)] * (n - 2),
    ):
        assert_canonical_element(poly.eval(point), ref_eval(poly, point))
    s = sum((xh * xh for xh in x[1:]), CoordPoly.zero(sig, n))
    rf = RationalFn(poly, [(s + CoordPoly.constant(sig, n, 1), 2), (s, 1)])
    point = [Fraction(-1, 2), 0.75] + [Fraction(-2)] * (n - 2)
    assert_canonical_element(rf.eval(point), ref_rf_eval(rf, point))
    with pytest.raises(DenominatorVanishesError):
        rf.eval([1] + [0] * (n - 1))
