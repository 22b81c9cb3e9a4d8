"""The integer inner loops of the kernel against plain ``Fraction`` references.

``AlgebraElement`` and ``CoordPoly`` store integer numerators over one
denominator, so ``+``, binary and unary ``-`` and ``*`` on both,
``CoordPoly.eval``, ``RationalFn.eval``, scalar scaling,
``scale_left``/``scale_right``, ``CoordPoly.partial``, ``CoordPoly.g_op``, ``restrict_poly``, the
content split of ``RationalFn(numer, factors)`` and ``RationalFn.__add__`` all
add up integers.  The references below are the straightforward loops over
``Fraction`` coefficients, with their own blade sign rule.  Results must also
be canonical: the stored denominator is positive and shares no factor with all
numerators, no zero numerator is stored, and ``==`` and ``hash`` agree with a
value built through the public constructor.
"""

import re
from collections import Counter
from fractions import Fraction
from itertools import count
from math import gcd, lcm, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slicecalc.algebra
import slicecalc.campaign
import slicecalc.multipoly
import slicecalc.operators
import slicecalc.sampling
from slicecalc.algebra import (
    QUATERNION,
    AlgebraElement,
    AlgebraSignature,
    clifford,
    sample_units,
)
from slicecalc.campaign import (
    CampaignConfig,
    decomposition_roundtrip_trials,
    g_relation_trials,
    leibniz_trials,
    regularity_equivalence_trials,
    representation_trials,
    run_campaign,
    slice_derivative_trials,
    slice_global_trials,
    taylor_independence_trials,
)
from slicecalc.errors import ArityMismatchError, DenominatorVanishesError
from slicecalc.multipoly import (
    CoordPoly,
    RationalFn,
    _apply_n,
    coord_s,
    coord_x,
    coord_xbar,
    restrict_poly,
)
from slicecalc.named import default_domain
from slicecalc.operators import SlicePlanePoly
from slicecalc.slicefn import PointFunction
from slicecalc.stem import StemFunction

from oracles import slice_global_pointwise

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
        den *= ref_eval(p, point).coeff(0) ** k
    if not den:
        raise ZeroDivisionError("denominator vanishes")
    value = ref_eval(rf.numer, point)
    return AlgebraElement(rf.signature, {m: c / den for m, c in value.coeffs.items()})


def assert_canonical_element(value, ref):
    assert value.den > 0 and all(value.nums.values())
    assert gcd(value.den, *value.nums.values()) == 1
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
        {e: AlgebraElement.scalar(poly.signature, c.coeff(0)) for e, c in poly.terms.items()},
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
    zero = CoordPoly(CL3, 4, {})
    p = CoordPoly.variable(CL3, 4, 2).scale_left(AlgebraElement.basis(CL3, 5))
    assert (zero * p).is_zero() and (p * zero).is_zero()
    assert (zero * p) == zero and hash(zero * p) == hash(zero)
    assert zero.eval([1, Fraction(2, 3), -1, 0]) == AlgebraElement.zero(CL3)
    assert RationalFn.from_poly(zero).eval([0, 0, 0, 0]).is_zero()
    assert (AlgebraElement.zero(CL4) * AlgebraElement.one(CL4)).coeffs == {}


def test_basis_products_in_the_widest_clifford_algebra_match_the_reference():
    # Cl(0, 8) is the widest signature that can be built
    with pytest.raises(ValueError, match="exceeds the limit 8"):
        AlgebraSignature("clifford", 9)
    sig = clifford(8)
    for ma in range(sig.dim):
        for mb in (1, 1 << 7, (1 << 7) | 1, 0b1010_0110, sig.dim - 1):
            value = AlgebraElement.basis(sig, ma) * AlgebraElement.basis(sig, mb)
            mask, sign = ref_blade_mul(ma, mb)
            assert value.coeffs == {mask: Fraction(sign)}


def ref_int_product(left, right, acc):
    """``_int_product`` blade by blade: every pair of masks through the reference sign rule."""
    for ka, nums_a in left:
        for kb, nums_b in right:
            out = acc.setdefault(tuple(x + y for x, y in zip(ka, kb)) or ka or kb, {})
            for ma, na in nums_a.items():
                for mb, nb in nums_b.items():
                    mask, sign = ref_blade_mul(ma, mb)
                    out[mask] = out.get(mask, 0) + sign * na * nb
    return acc


def ordered(acc):
    return [(key, list(nums.items())) for key, nums in acc.items()]


CL5 = clifford(5)
MIXED = ((1, 0), {3: 2, 0: -5, 1: 7})
REAL_ROW_CASES = {
    "real-left": (CL3, [((1, 0), {0: 3})], [MIXED, ((0, 2), {6: -1, 5: 4})]),
    "real-right": (CL3, [MIXED, ((0, 1), {7: 9})], [((2, 1), {0: 4})]),
    "real-both": (H, [((1, 1), {0: 2}), ((0, 0), {0: 1})], [((0, 1), {0: 5}), MIXED]),
    "negative-real": (H, [((0, 0), {0: -6})], [MIXED, ((1, 0), {0: -1})]),
    "element-keys": (CL5, [((), {0: -3})], [((), {31: 2, 0: 1, 17: -4})]),
    "cl5-rows": (
        CL5,
        [((1, 0), {0: 2}), ((0, 1), {9: 1, 22: -3}), ((1, 0), {0: -7})],
        [((0, 1), {30: 5, 1: 1}), ((1, 1), {0: -2}), ((0, 0), {16: 3, 0: 4, 7: -1})],
    ),
}


@pytest.mark.parametrize("case", REAL_ROW_CASES.values(), ids=REAL_ROW_CASES)
def test_a_real_row_scales_the_other_row_like_the_blade_products(case, monkeypatch):
    sig, left, right = case
    # an accumulator that already holds the last pair's product, as a sum of products passes it
    start = ref_int_product(left[-1:], right[-1:], {})
    want = ref_int_product(left, right, {k: dict(v) for k, v in start.items()})
    lookups = []
    real = slicecalc.algebra._blade_mul
    monkeypatch.setattr(slicecalc.algebra, "_blade_mul", lambda a, b: lookups.append(1) or real(a, b))
    got = slicecalc.algebra._int_product(left, right, {k: dict(v) for k, v in start.items()})
    assert ordered(got) == ordered(want)
    # only the pairs of two rows with another blade look up blade products
    mixed_pairs = sum(
        len(a) * len(b)
        for _, a in left
        for _, b in right
        if not (a.keys() == {0} or b.keys() == {0})
    )
    assert len(lookups) == mixed_pairs


def test_a_row_with_a_scalar_and_another_blade_is_not_a_scale():
    # {0: n, 1: m} times e2: the e1 part gives the e1e2 blade, which a scale would drop
    left, right = [((), {0: 3, 1: 2})], [((), {2: 5})]
    got = slicecalc.algebra._int_product(left, right)
    assert ordered(got) == ordered(ref_int_product(left, right, {})) == [((), [(2, 15), (3, 10)])]
    got = slicecalc.algebra._int_product(right, left)
    assert ordered(got) == ordered(ref_int_product(right, left, {})) == [((), [(2, 15), (3, -10)])]


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
    s = sum((xh * xh for xh in x[1:]), CoordPoly(sig, n, {}))
    rf = RationalFn(poly, [(s + CoordPoly.constant(sig, n, 1), 2), (s, 1)])
    point = [Fraction(-1, 2), 0.75] + [Fraction(-2)] * (n - 2)
    assert_canonical_element(rf.eval(point), ref_rf_eval(rf, point))
    with pytest.raises(DenominatorVanishesError):
        rf.eval([1] + [0] * (n - 1))
    # a denominator negative at the point: the stored denominator of the value stays positive
    rf = RationalFn(poly, [(x[0] + CoordPoly.constant(sig, n, 2), 1)])
    point = [-3] + [Fraction(1, 2)] * (n - 1)
    assert_canonical_element(rf.eval(point), ref_rf_eval(rf, point))


@pytest.mark.parametrize("sig", SIGNATURES, ids=lambda s: f"{s.kind}{s.m}")
def test_eval_rejects_a_point_of_the_wrong_arity(sig):
    n = sig.coord_count
    x = [CoordPoly.variable(sig, n, h) for h in range(n)]
    s = sum((xh * xh for xh in x[1:]), CoordPoly(sig, n, {}))
    for f in (x[0], RationalFn.from_poly(x[0]), RationalFn(x[0], [(s, 1), (x[1], 2)])):
        for point in ([1] * (n - 1), [Fraction(1, 2)] * (n + 1), []):
            message = re.escape(f"point arity {len(point)} != var count {n}")
            with pytest.raises(ArityMismatchError, match=message):
                f.eval(point)


@pytest.mark.parametrize("sig", SIGNATURES, ids=lambda s: f"{s.kind}{s.m}")
def test_a_vanishing_denominator_reports_the_point_as_fractions(sig):
    n = sig.coord_count
    x = [CoordPoly.variable(sig, n, h) for h in range(n)]
    s = sum((xh * xh for xh in x[1:]), CoordPoly(sig, n, {}))
    quarter = CoordPoly.constant(sig, n, Fraction(1, 4))
    one = CoordPoly.constant(sig, n, 1)
    # 4s - 1 vanishes on |Im x| = 1/2; the first factor does not vanish there
    rf = RationalFn(x[0] * x[1], [(x[0] * x[0] + one, 1), (s - quarter, 2)])
    for point in (
        [3, 0] + [0] * (n - 3) + [Fraction(1, 2)],
        [Fraction(-2, 3), Fraction(1, 2)] + [Fraction(0)] * (n - 2),
        [0.75, -0.5] + [0.0] * (n - 2),
        [-1, Fraction(0), 0.5] + [0] * (n - 3),
    ):
        with pytest.raises(DenominatorVanishesError) as info:
            rf.eval(point)
        assert info.value.point == tuple(Fraction(c) for c in point)
        assert all(type(c) is Fraction for c in info.value.point)


@pytest.mark.parametrize("sig", SIGNATURES, ids=lambda s: f"{s.kind}{s.m}")
def test_a_vanishing_factor_raises_and_is_not_stored(sig, monkeypatch):
    n = sig.coord_count
    x = [CoordPoly.variable(sig, n, h) for h in range(n)]
    s = sum((xh * xh for xh in x[1:]), CoordPoly(sig, n, {}))
    one = CoordPoly.constant(sig, n, 1)
    quarter = CoordPoly.constant(sig, n, Fraction(1, 4))
    # the second factor vanishes where s = 1/4; the first factor does not
    rf = RationalFn(x[0] * x[1], [(x[0] * x[0] + one, 1), (s - quarter, 2)])
    point = [Fraction(-2, 3), Fraction(1, 2)] + [Fraction(0)] * (n - 2)
    evaluated = []
    eval_int = CoordPoly._eval_int

    def recorded(self, coords, d):
        evaluated.append(self)
        return eval_int(self, coords, d)

    monkeypatch.setattr(CoordPoly, "_eval_int", recorded)
    # the point is named, and every factor is read before the numerator
    with pytest.raises(DenominatorVanishesError) as info:
        rf.eval(point)
    assert info.value.point == tuple(point)
    assert evaluated == [p for p, _ in rf.den_factors]


# -- the slice/global check ---------------------------------------------------------


@pytest.mark.parametrize("sig", (QUATERNION, CL3), ids=lambda s: f"{s.kind}{s.m}")
def test_slice_global_trials_compare_each_slice_once_and_evaluate_only_its_factors(
    sig, monkeypatch
):
    n_units, n_points, orders = 3, 4, (1, 2, 3)
    drawn = []
    thetas = []
    restrictions = []  # (polynomial, direction, restriction), the polynomials held
    evaluations = []  # (polynomial, point)
    draw_points = slicecalc.campaign.rand_plane_points
    thetabar_op = slicecalc.campaign.thetabar
    restrict = slicecalc.campaign.restrict_poly
    eval_int = CoordPoly._eval_int

    def recorded_points(rng, size):
        drawn.append(draw_points(rng, size))
        return drawn[-1]

    def recorded_thetabar(g, order=1):
        thetas.append(thetabar_op(g, order))
        return PointFunction(g.domain, thetas[-1])

    def recorded_restrict(poly, direction):
        restrictions.append((poly, direction, restrict(poly, direction)))
        return restrictions[-1][2]

    def recorded_eval(self, coords, d):
        evaluations.append((self, tuple(Fraction(a, d) for a in coords)))
        return eval_int(self, coords, d)

    def no_points(*args):
        raise AssertionError("the global side builds no point alpha + I beta")

    monkeypatch.setattr(slicecalc.campaign, "rand_plane_points", recorded_points)
    monkeypatch.setattr(slicecalc.campaign, "thetabar", recorded_thetabar)
    monkeypatch.setattr(slicecalc.campaign, "restrict_poly", recorded_restrict)
    monkeypatch.setattr(slicecalc.campaign, "phi_coords", no_points)
    monkeypatch.setattr(CoordPoly, "_eval_int", recorded_eval)
    trials, failures, _ = slice_global_trials(
        sig, 6, n_funcs=2, n_units=n_units, n_points=n_points, n_rational=2
    )
    assert (trials, failures) == (4 * n_units * len(orders) * n_points, 0)
    [plane] = drawn
    # each numerator is restricted once per (unit, order), each factor once per
    # (unit, factor), however many functions and orders share it
    units = [u for u in sample_units(sig, 6, n_units)]
    numerators = [theta.numer for theta in thetas]
    factors = list({p: None for theta in thetas for p, _ in theta.den_factors})
    assert len(numerators) == 4 * len(orders) and factors
    numerator_calls = [(p, c) for p, c, _ in restrictions if any(p is q for q in numerators)]
    factor_calls = [(p, c) for p, c, _ in restrictions if any(p is q for q in factors)]
    assert len(numerator_calls) + len(factor_calls) == len(restrictions)
    assert sorted(map(id, (p for p, _ in numerator_calls))) == sorted(
        id(p) for p in numerators for _ in units
    )
    assert sorted(Counter(numerator_calls).values()) == [1] * len(numerators) * n_units
    assert Counter(factor_calls) == Counter((p, c) for p in factors for c in units)
    # every slice is equal as a function, so no numerator of either side is
    # evaluated: only each distinct restricted factor, once at each plane point
    # when it is first met, however many units restrict a factor to it
    restricted = [r for p, _, r in restrictions if any(p is q for q in factors)]
    distinct = list(dict.fromkeys(restricted))
    assert len(distinct) < len(restricted)
    assert evaluations == [(r, z) for r in distinct for z in plane]


def test_slice_global_trials_draw_each_plane_point_once(monkeypatch):
    # this seed's plane draws hold (8/9, 4/9) twice; the repeat is drawn again
    raw, drawn = [], []
    draw_point = slicecalc.sampling.rand_plane_point
    draw_points = slicecalc.campaign.rand_plane_points

    def recorded_point(rng, domain=None):
        raw.append(draw_point(rng, domain))
        return raw[-1]

    def recorded_points(rng, size):
        drawn.append(draw_points(rng, size))
        return drawn[-1]

    monkeypatch.setattr(slicecalc.sampling, "rand_plane_point", recorded_point)
    monkeypatch.setattr(slicecalc.campaign, "rand_plane_points", recorded_points)
    trials, failures, _ = slice_global_trials(
        QUATERNION, 5, n_funcs=2, n_units=3, n_points=4, n_rational=2
    )
    assert (trials, failures) == (4 * 3 * 3 * 4, 0)
    assert raw.count((Fraction(8, 9), Fraction(4, 9))) == 2
    assert drawn == [list(dict.fromkeys(raw))] and len(set(drawn[0])) == 4
    # the grid holds 36 points: all of them can be drawn, and not one more
    slice_global_trials(QUATERNION, 0, n_funcs=1, n_units=1, n_points=36, orders=(1,))
    assert len(set(drawn[-1])) == 36
    with pytest.raises(ValueError, match="at most 36"):
        slice_global_trials(QUATERNION, 0, n_funcs=1, n_units=1, n_points=37)


# -- scalar paths -------------------------------------------------------------------


def ref_poly_from(p, var_count, pairs):
    """The polynomial of (key, element) pairs, equal keys added up."""
    acc = {}
    for key, value in pairs:
        acc[key] = acc[key] + value if key in acc else value
    return CoordPoly(p.signature, var_count, acc)


def ref_scale(p, q):
    pairs = ((e, AlgebraElement(p.signature, {m: c * q for m, c in a.coeffs.items()}))
             for e, a in p.terms.items())
    return ref_poly_from(p, p.var_count, pairs)


def ref_partial(p, index):
    pairs = []
    for e, a in p.terms.items():
        k = e[index]
        if k:
            key = tuple(x - (h == index) for h, x in enumerate(e))
            pairs.append((key, AlgebraElement(p.signature, {m: c * k for m, c in a.coeffs.items()})))
    return ref_poly_from(p, p.var_count, pairs)


def ref_g_op(p, shift):
    """s d/dx_0 + Im(x) (sum_h x_h d/dx_h - shift), one product term by term."""
    sig = p.signature
    pairs = []
    for e, a in p.terms.items():
        k = sum(e[1:]) - shift
        for h, mask in enumerate(sig.imag_masks, start=1):
            if e[0]:
                key = tuple(x - (j == 0) + 2 * (j == h) for j, x in enumerate(e))
                pairs.append((key, AlgebraElement(sig, {m: c * e[0] for m, c in a.coeffs.items()})))
            if k:
                im_a = ref_element_mul(AlgebraElement.basis(sig, mask), a)
                key = tuple(x + (j == h) for j, x in enumerate(e))
                pairs.append((key, AlgebraElement(sig, {m: c * k for m, c in im_a.coeffs.items()})))
    return ref_poly_from(p, p.var_count, pairs)


def ref_restrict(p, components):
    pairs = []
    for e, a in p.terms.items():
        scalar = Fraction(1)
        for comp, k in zip(components, e[1:]):
            scalar *= Fraction(comp) ** k
        coeffs = {m: c * scalar for m, c in a.coeffs.items()}
        pairs.append(((e[0], sum(e[1:])), AlgebraElement(p.signature, coeffs)))
    return ref_poly_from(p, 2, pairs)


def assert_canonical_poly(value, ref):
    numerators = [n for nums in value.rows.values() for n in nums.values()]
    assert value.den > 0 and all(value.rows.values()) and all(numerators)
    assert gcd(value.den, *numerators) == 1
    assert value.terms.keys() == ref.terms.keys()
    for e, c in value.terms.items():
        assert c.coeffs, f"zero coefficient stored at {e}"
        assert_canonical_element(c, ref.terms[e])
    rebuilt = CoordPoly(value.signature, value.var_count, dict(value.terms))
    assert value == rebuilt == ref
    assert hash(value) == hash(rebuilt) == hash(ref)


scalars = st.one_of(fracs, st.integers(min_value=-7, max_value=7), st.just(0), st.just(Fraction(0)))


@st.composite
def poly_scalars(draw):
    sig = draw(st.sampled_from(SIGNATURES))
    return draw(polys(sig, draw(st.integers(min_value=1, max_value=4)))), draw(scalars)


@settings(max_examples=80, deadline=None)
@given(poly_scalars())
def test_scalar_scaling_matches_the_fraction_reference(case):
    p, q = case
    assert_canonical_poly(p * q, ref_scale(p, q))
    for e, c in p.terms.items():
        assert_canonical_element(c * q, ref_scale(p, q).terms.get(e, AlgebraElement.zero(p.signature)))


@st.composite
def poly_elements(draw):
    sig = draw(st.sampled_from(SIGNATURES))
    p = draw(polys(sig, draw(st.integers(min_value=1, max_value=3))))
    return p, draw(elements(sig))


@settings(max_examples=80, deadline=None)
@given(poly_elements())
def test_scale_left_and_right_match_the_fraction_reference(case):
    p, a = case
    left = ref_poly_from(p, p.var_count, ((e, ref_element_mul(a, c)) for e, c in p.terms.items()))
    right = ref_poly_from(p, p.var_count, ((e, ref_element_mul(c, a)) for e, c in p.terms.items()))
    assert_canonical_poly(p.scale_left(a), left)
    assert_canonical_poly(p.scale_right(a), right)


@settings(max_examples=80, deadline=None)
@given(poly_pairs())
def test_partial_matches_the_fraction_reference_on_every_index(pair):
    p, _ = pair
    for index in range(p.var_count):
        assert_canonical_poly(p.partial(index), ref_partial(p, index))


@settings(max_examples=80, deadline=None)
@given(poly_points(), st.integers(min_value=1, max_value=3))
def test_g_op_matches_the_fraction_reference(case, k):
    # shift 0 is G itself, shift 2k its numerator over s^k
    p, _ = case
    for shift in (0, 2 * k):
        assert_canonical_poly(p.g_op(shift), ref_g_op(p, shift))


@st.composite
def restrictions(draw):
    """A polynomial and a slice direction: I, -I or 2I for a unit I, or any imaginary element."""
    sig = draw(st.sampled_from((H, CL3, CL5)))
    p = draw(polys(sig, sig.coord_count))
    n = sig.imag_dim
    if draw(st.booleans()):
        # drawn by index: st.sampled_from hashes its elements, and units have no hash
        units = sample_units(sig, draw(st.integers(0, 3)), n + 3)
        unit = units[draw(st.integers(0, len(units) - 1))]
        return p, unit * draw(st.sampled_from((1, -1, 2)))
    comps = st.one_of(fracs, st.just(Fraction(0)), st.integers(min_value=-3, max_value=3))
    drawn = draw(st.lists(comps, min_size=n, max_size=n))
    return p, AlgebraElement(sig, dict(zip(sig.imag_masks, drawn)))


@settings(max_examples=100, deadline=None)
@given(restrictions())
def test_restrict_poly_matches_the_fraction_reference(case):
    p, direction = case
    components = [direction.coeff(m) for m in p.signature.imag_masks]
    assert_canonical_poly(restrict_poly(p, direction), ref_restrict(p, components))


# -- sums, conjugation and norms ---------------------------------------------------


def ref_element_add(a, b, sign=1):
    acc = dict(a.coeffs)
    for mask, c in b.coeffs.items():
        acc[mask] = acc.get(mask, Fraction(0)) + sign * c
    return AlgebraElement(a.signature, acc)


def ref_poly_add(p, q, sign=1):
    acc = {}
    for poly, k in ((p, 1), (q, sign)):
        for e, c in poly.terms.items():
            row = acc.setdefault(e, {})
            for mask, x in c.coeffs.items():
                row[mask] = row.get(mask, Fraction(0)) + k * x
    terms = {e: AlgebraElement(p.signature, row) for e, row in acc.items()}
    return CoordPoly(p.signature, p.var_count, terms)


@settings(max_examples=150, deadline=None)
@given(element_pairs())
def test_element_sum_and_difference_match_the_fraction_reference(pair):
    a, b = pair
    assert_canonical_element(a + b, ref_element_add(a, b))
    assert_canonical_element(a - b, ref_element_add(a, b, -1))
    assert_canonical_element(a - a, AlgebraElement.zero(a.signature))
    assert_canonical_element(-a, ref_element_add(AlgebraElement.zero(a.signature), a, -1))


def paravector_coords(signature):
    return st.tuples(*[fracs] * signature.coord_count).map(lambda xs: (signature, xs))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SIGNATURES).flatmap(paravector_coords))
def test_conj_and_norm_match_the_fraction_reference(case):
    # conjugate and norm of the paravector x are coord_xbar and x * xbar at its coordinates
    sig, xs = case
    masks = (0, *sig.imag_masks)
    conj = AlgebraElement(sig, {m: c if m == 0 else -c for m, c in zip(masks, xs)})
    assert_canonical_element(coord_xbar(sig).eval(xs), conj)
    norm = sum((c * c for c in xs), Fraction(0))
    x_xbar = (coord_x(sig) * coord_xbar(sig)).eval(xs)
    assert_canonical_element(x_xbar, AlgebraElement.scalar(sig, norm))


@settings(max_examples=80, deadline=None)
@given(poly_pairs())
def test_poly_sum_and_difference_match_the_fraction_reference(pair):
    p, q = pair
    assert_canonical_poly(p + q, ref_poly_add(p, q))
    assert_canonical_poly(p - q, ref_poly_add(p, q, -1))
    assert_canonical_poly(p - p, CoordPoly(p.signature, p.var_count, {}))
    assert_canonical_poly(-p, ref_poly_add(CoordPoly(p.signature, p.var_count, {}), p, -1))


# -- RationalFn ----------------------------------------------------------------------------


def ref_split(p):
    """(primitive, content) of a real-scalar polynomial, over ``Fraction``s."""
    coeffs = {e: c.coeff(0) for e, c in p.terms.items()}
    den = lcm(*[c.denominator for c in coeffs.values()])
    content = Fraction(gcd(*[int(c * den) for c in coeffs.values()]), den)
    if coeffs[max(coeffs, key=lambda e: (sum(e), e))] < 0:
        content = -content
    return ref_scale(p, 1 / content), content


@st.composite
def factored_numerators(draw):
    sig = draw(st.sampled_from(SIGNATURES))
    n = draw(st.integers(min_value=1, max_value=3))
    factor = st.tuples(polys(sig, n, max_terms=3).map(_real_part), st.integers(1, 2))
    factors = [(p, k) for p, k in draw(st.lists(factor, max_size=3)) if not p.is_zero()]
    if factors and draw(st.booleans()):
        p, k = factors[0]
        factors.append((p * draw(fracs.filter(bool)), k))  # same primitive part
    return draw(polys(sig, n)), factors


@settings(max_examples=80, deadline=None)
@given(factored_numerators())
def test_rational_constructor_splits_content_like_the_fraction_reference(case):
    numer, factors = case
    rf = RationalFn(numer, factors)
    scale = Fraction(1)
    expected = {}
    for p, k in factors:
        primitive, content = ref_split(p)
        coeffs = [c.coeff(0) for c in primitive.terms.values()]
        assert all(c.denominator == 1 for c in coeffs) and gcd(*map(int, coeffs)) == 1
        scale /= content**k
        if primitive.total_degree() > 0:
            expected[primitive] = expected.get(primitive, 0) + k
    assert_canonical_poly(rf.numer, ref_scale(numer, scale))
    assert dict(rf.den_factors) == expected
    for p, _ in rf.den_factors:
        assert_canonical_poly(p, p)



def _factor_pool(sig):
    n = sig.coord_count
    x = [CoordPoly.variable(sig, n, h) for h in range(n)]
    one = CoordPoly.constant(sig, n, 1)
    s = sum((xh * xh for xh in x[1:]), CoordPoly(sig, n, {}))
    return (s, x[0] + one * 2, x[1] * 3 - x[0] + one)


@st.composite
def rational_pairs(draw):
    sig = draw(st.sampled_from(SIGNATURES))
    n = sig.coord_count
    pool = _factor_pool(sig)
    exps = st.lists(st.integers(min_value=0, max_value=2), min_size=len(pool), max_size=len(pool))

    def rf():
        factors = [(p, k) for p, k in zip(pool, draw(exps)) if k]
        return RationalFn(draw(polys(sig, n, max_terms=3)), factors)

    return rf(), rf()


def ref_rf_add(f, g):
    """(numerator, {factor: exponent}) of f + g over the least common denominator."""
    mine, theirs = dict(f.den_factors), dict(g.den_factors)
    shared = {p: max(mine.get(p, 0), theirs.get(p, 0)) for p in {**mine, **theirs}}

    def lift(numer, own):
        for p, k in shared.items():
            for _ in range(k - own.get(p, 0)):
                numer = ref_poly_mul(numer, p)
        return numer

    lifted = [lift(f.numer, mine), lift(g.numer, theirs)]
    pairs = [(e, c) for q in lifted for e, c in q.terms.items()]
    return ref_poly_from(f.numer, f.var_count, pairs), shared


@settings(max_examples=60, deadline=None)
@given(rational_pairs())
def test_rational_sum_matches_the_fraction_reference(pair):
    f, g = pair
    total = f + g
    numer, shared = ref_rf_add(f, g)
    assert_canonical_poly(total.numer, numer)
    assert dict(total.den_factors) == shared


def test_rational_sums_over_equal_different_and_disjoint_denominators():
    sig = CL3
    n = sig.coord_count
    s, lin, other = _factor_pool(sig)
    num = CoordPoly.variable(sig, n, 2).scale_left(AlgebraElement.basis(sig, 3))
    for den_f, den_g in (
        ([(s, 1)], [(s, 1)]),
        ([(s, 1)], [(s, 2), (lin, 1)]),
        ([(lin, 2)], [(other, 1)]),
        ([], [(s, 1)]),
    ):
        f, g = RationalFn(num, den_f), RationalFn(num * 3 + CoordPoly.constant(sig, n, 1), den_g)
        numer, shared = ref_rf_add(f, g)
        assert_canonical_poly((f + g).numer, numer)
        assert dict((f + g).den_factors) == shared
        assert f + g == g + f and (f + g) - g == f


def test_adding_polynomials_runs_no_product(monkeypatch):
    calls = []
    real = slicecalc.algebra._int_product

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(slicecalc.algebra, "_int_product", counted)
    monkeypatch.setattr(slicecalc.multipoly, "_int_product", counted)
    sig = QUATERNION
    p = CoordPoly.variable(sig, 4, 1).scale_left(AlgebraElement.basis(sig, 2))
    q = CoordPoly.variable(sig, 4, 0) * Fraction(2, 3)
    calls.clear()
    total = RationalFn.from_poly(p) + RationalFn.from_poly(q)
    assert calls == []
    assert total.numer == p + q and total.is_polynomial()
    assert RationalFn.from_poly(p) - RationalFn.from_poly(p) == RationalFn.from_poly(p * 0)
    assert calls == []
    p * q  # the counter sees products
    assert len(calls) == 1


def test_comparing_rational_functions_over_the_same_factors_builds_no_polynomial(monkeypatch):
    calls = []
    real = CoordPoly._make.__func__

    def counted(cls, *args):
        calls.append(args)
        return real(cls, *args)

    sig = QUATERNION
    s = coord_s(sig)
    p = CoordPoly.variable(sig, 4, 1).scale_left(AlgebraElement.basis(sig, 2))
    q = CoordPoly.variable(sig, 4, 0) * Fraction(2, 3)
    a = RationalFn(p + q, ((s, 2),))
    b = RationalFn(q + p, ((s, 2),))
    c = RationalFn(p, ((s, 2),))
    monkeypatch.setattr(CoordPoly, "_make", classmethod(counted))
    assert a == b
    assert a != c
    assert calls == []
    a + c  # the counter sees a sum
    assert len(calls) == 1


def test_a_difference_builds_one_value(monkeypatch):
    calls = []

    def counting(owner):
        real = owner._make.__func__

        def counted(cls, *args):
            calls.append(cls)
            return real(cls, *args)

        monkeypatch.setattr(owner, "_make", classmethod(counted))

    sig = QUATERNION
    p = CoordPoly.variable(sig, 4, 1).scale_left(AlgebraElement.basis(sig, 2))
    q = CoordPoly.variable(sig, 4, 0) * Fraction(2, 3)
    a = AlgebraElement(sig, {0: Fraction(1, 2), 3: 2})
    b = AlgebraElement(sig, {1: Fraction(-1, 3), 3: 1})
    counting(CoordPoly)
    counting(AlgebraElement)
    p - q
    assert calls == [CoordPoly]
    calls.clear()
    a - b
    assert calls == [AlgebraElement]


# -- campaign bodies -----------------------------------------------------------------------

# (trials, failures, witness) of the two bodies before each one restricted once
# per unit and stepped dbar from order to order.
SLICE_DERIVATIVE_CASES = [
    (sig, seed, sizes, (trials, 0, None))
    for sig in (QUATERNION, CL3)
    for seed in (3, 8)
    for sizes, trials in (
        (dict(n_stems=2, n_units=3), 12),
        (dict(n_stems=1, n_units=3, orders=(1, 2, 3), zbar_degree=2), 9),
    )
]


@pytest.mark.parametrize("sig, seed, sizes, expected", SLICE_DERIVATIVE_CASES)
def test_slice_derivative_trials_keep_their_counts(sig, seed, sizes, expected):
    assert slice_derivative_trials(sig, seed, **sizes) == expected


@pytest.mark.parametrize("sig", (QUATERNION, CL3), ids=lambda s: f"{s.kind}{s.m}")
def test_decomposition_trials_keep_their_counts(sig):
    for seed in (3, 8):
        assert decomposition_roundtrip_trials(sig, seed, 4, 2, 4) == (4, 0, None)


# (signature, seed, sizes): polynomial and rational inputs at 1 to 36 plane points
SLICE_GLOBAL_CASES = [
    (H, 0, dict(n_funcs=2, n_units=3, n_points=1)),
    (H, 4, dict(n_funcs=1, n_units=2, n_points=36, orders=(1,), n_rational=1)),
    (H, 9, dict(n_funcs=0, n_units=3, n_points=7, orders=(1, 2), n_rational=2)),
    (CL3, 2, dict(n_funcs=1, n_units=3, n_points=8, n_rational=1)),
    (CL3, 7, dict(n_funcs=2, n_units=2, n_points=3, orders=(2,), n_rational=1)),
    (CL5, 3, dict(n_funcs=1, n_units=2, n_points=5, orders=(1, 2), n_rational=1)),
]


def _thetabar_doubled_on_odd_term_counts(monkeypatch):
    once = slicecalc.operators._thetabar_once
    monkeypatch.setattr(
        slicecalc.operators,
        "_thetabar_once",
        lambda rf: once(rf) * (1 + len(rf.numer.rows) % 2),
    )


def _slice_side_doubled_on_some_units(monkeypatch):
    dbar = SlicePlanePoly.dbar
    monkeypatch.setattr(
        SlicePlanePoly,
        "dbar",
        lambda self: SlicePlanePoly(
            dbar(self) * (1 + (self.unit.components()[0] > 0)), self.unit
        ),
    )


# faults that both routes read, through the operators they share
SLICE_GLOBAL_FAULTS = {
    "none": lambda monkeypatch: None,
    "global": _thetabar_doubled_on_odd_term_counts,
    "slice": _slice_side_doubled_on_some_units,
}


@pytest.mark.parametrize("fault", sorted(SLICE_GLOBAL_FAULTS))
@pytest.mark.parametrize(
    "sig, seed, sizes", SLICE_GLOBAL_CASES, ids=lambda v: getattr(v, "kind", None) and f"{v.kind}{v.m}"
)
def test_slice_global_trials_match_the_pointwise_loop(sig, seed, sizes, fault, monkeypatch):
    SLICE_GLOBAL_FAULTS[fault](monkeypatch)
    result = slice_global_trials(sig, seed, **sizes)
    assert result == slice_global_pointwise(sig, seed, **sizes)
    assert (result[1] > 0) == (fault != "none")


@pytest.mark.parametrize("sig", (QUATERNION, CL3), ids=lambda s: f"{s.kind}{s.m}")
def test_slice_global_trials_name_alpha_plus_i_beta_where_a_denominator_vanishes(
    sig, monkeypatch
):
    # the rational input's denominator is s - (r/9)^2, r the default radius, which
    # vanishes at every point alpha + I beta with beta = r/9 on the plane grid
    draw = slicecalc.campaign.rand_rational_point_function
    c = (default_domain().radius * Fraction(1, 9)) ** 2
    shifted_s = coord_s(sig) - CoordPoly.constant(sig, sig.coord_count, c)

    def vanishing(rng, signature):
        g = draw(rng, signature)
        return PointFunction(g.domain, RationalFn(g.numer, [(shifted_s, 1)]))

    monkeypatch.setattr(slicecalc.campaign, "rand_rational_point_function", vanishing)
    sizes = dict(n_funcs=1, n_units=2, n_points=36, orders=(1, 2), n_rational=1)
    with pytest.raises(DenominatorVanishesError) as info:
        slice_global_trials(sig, 5, **sizes)
    with pytest.raises(DenominatorVanishesError) as pointwise:
        slice_global_pointwise(sig, 5, **sizes)
    point = info.value.point
    assert point == pointwise.value.point
    assert len(point) == sig.coord_count and sum(x * x for x in point[1:]) == c


@pytest.mark.parametrize("sig", (QUATERNION, CL3), ids=lambda s: f"{s.kind}{s.m}")
def test_slice_global_trials_read_a_direction_dependent_factor_on_each_slice(
    sig, monkeypatch
):
    # the rational input's denominator is x_2^2 - (r/9)^2, r the default radius:
    # on the slice of the first unit, e_1 (or i), it restricts to the constant
    # -(r/9)^2; on the second unit's, e_2 (or j), to beta^2 - (r/9)^2, which
    # vanishes on the plane grid.  The factor is the same polynomial on both
    # slices, its restrictions are not, so the second is read too.
    draw = slicecalc.campaign.rand_rational_point_function
    n = sig.coord_count
    c = (default_domain().radius * Fraction(1, 9)) ** 2
    x2 = CoordPoly.variable(sig, n, 2)
    factor = x2 * x2 - CoordPoly.constant(sig, n, c)

    def vanishing(rng, signature):
        g = draw(rng, signature)
        return PointFunction(g.domain, RationalFn(g.numer, [(factor, 1)]))

    monkeypatch.setattr(slicecalc.campaign, "rand_rational_point_function", vanishing)
    sizes = dict(n_funcs=1, n_units=2, n_points=36, orders=(1, 2), n_rational=1)
    first, second = (u for u in sample_units(sig, 5, 2))
    assert restrict_poly(factor, first) == CoordPoly.constant(sig, 2, -c)
    assert restrict_poly(factor, second) != restrict_poly(factor, first)
    with pytest.raises(DenominatorVanishesError) as info:
        slice_global_trials(sig, 5, **sizes)
    with pytest.raises(DenominatorVanishesError) as pointwise:
        slice_global_pointwise(sig, 5, **sizes)
    point = info.value.point
    assert point == pointwise.value.point
    assert point[1] == 0 and point[2] ** 2 == c and not any(point[3:])


@pytest.mark.parametrize("sig", (QUATERNION, CL3), ids=lambda s: f"{s.kind}{s.m}")
def test_campaign_bodies_keep_failure_counts_and_witnesses(sig, monkeypatch):
    # a wrong second derivative and a wrong coefficient at level 2 make the
    # bodies fail; the counts and the first witness are those recorded before.
    # The slice-derivative body reads its stem levels from one _iterates chain,
    # so the chain is replaced by one whose level 2 is dbar^3.
    monkeypatch.setattr(
        slicecalc.campaign,
        "_iterates",
        lambda step, stem: (_apply_n(StemFunction.dbar, stem, n + (n == 2)) for n in count()),
    )
    assert slice_derivative_trials(sig, 5, n_stems=2, n_units=3) == (
        12, 6, {"stem_index": 0, "unit_index": 0, "order": 2},
    )
    assert slice_derivative_trials(
        sig, 5, n_stems=1, n_units=3, orders=(1, 2, 3), zbar_degree=2
    ) == (9, 3, {"stem_index": 0, "unit_index": 0, "order": 2})
    monkeypatch.setattr(slicecalc.campaign, "perm", lambda h, l: perm(h, l) + (l == 2))
    assert decomposition_roundtrip_trials(sig, 5, 4, 2, 4) == (
        4, 2, {"tuple_index": 2, "order": 3},
    )


def _doubled(op):
    """``op`` with its result scaled by 2."""
    return lambda g, *args: PointFunction(g.domain, op(g, *args) * 2)


def _direction_doubled(restrict):
    """``restrict_poly`` along twice the slice direction.

    The global side restricted with it is thetabar^n g at alpha + 2 I beta.
    """
    return lambda poly, direction: restrict(poly, direction * 2)


def _at_alpha_plus_one(stem):
    """The stem F(alpha + 1, beta): its Taylor coefficients at 0 are F's at 1."""
    sig = stem.signature
    alpha_1 = CoordPoly.variable(sig, 2, 0) + CoordPoly.constant(sig, 2, 1)
    beta = CoordPoly.variable(sig, 2, 1)

    def shifted(poly):
        out = CoordPoly(sig, 2, {})
        for (a, b), c in poly.terms.items():
            out = out + (alpha_1**a * beta**b).scale_right(c)
        return out

    return StemFunction(shifted(stem.f1), shifted(stem.f2))


# Each case replaces one name a body reads from ``slicecalc.campaign`` by a
# wrapper of the original that makes some trials fail: (name, wrapper, run).
FORCED_FAILURES = {
    "slice-global": (
        "restrict_poly",
        _direction_doubled,
        lambda sig: slice_global_trials(
            sig, 5, n_funcs=1, n_units=2, n_points=3, n_rational=1
        ),
    ),
    "g-relation": (
        "g_op",
        lambda op: lambda g: op(g) if g.is_polynomial() else _doubled(op)(g),
        lambda sig: g_relation_trials(sig, 5, n_funcs=6),
    ),
    "leibniz-global": (
        "thetabar",
        lambda op: lambda g, order=1: (
            op(g, order) if g.numer.total_degree() < 5 else _doubled(op)(g, order)
        ),
        lambda sig: leibniz_trials(sig, 5, n_funcs=2, n_units=2),
    ),
    "leibniz-slice": (
        "plane_x",
        lambda px: lambda s, unit: px(s, unit if unit.components()[0] > 0 else -unit),
        lambda sig: leibniz_trials(sig, 5, n_funcs=2, n_units=2),
    ),
    "representation": (
        "representation_eval",
        lambda rep: lambda g, h, k, z: rep(g, h, k, (z[0], z[1] * (1 + (z[0] > 0)))),
        lambda sig: representation_trials(sig, 5, n_stems=2, n_units=8, n_triples=3),
    ),
    "regularity": (
        "thetabar",
        lambda op: lambda g, order=1: g if g.numer.total_degree() >= 3 else op(g, order),
        lambda sig: regularity_equivalence_trials(sig, 5, n_stems=3, n_units=2),
    ),
    "taylor": (
        "taylor_alpha_coefficients",
        # the coefficients at 1 in place of 0 for stems with an odd F1 row count
        lambda ta: lambda f, unit, top: ta(
            _at_alpha_plus_one(f) if len(f.f1.rows) % 2 else f, unit, top
        ),
        lambda sig: taylor_independence_trials(sig, 5, n_stems=4, n_units=3),
    ),
}

# (trials, failures, witness) of each case, recorded before the bodies yielded
# one outcome per trial and ``_tally`` counted them.  The slice-global pair was
# recorded again when its seam moved to ``restrict_poly``; it is what
# ``slice_global_pointwise`` gives with beta doubled in its points alpha + I beta.
FORCED_OUTCOMES = {
    ("slice-global", "quaternion"): (36, 18, {
        "function_index": 1, "unit_index": 0, "order": 1, "z": ["-4/9", "4/9"],
        "global": "295245/16384 + 177147/16384*i + -413343/32768*k",
        "slice": "295245/512 + 177147/512*i + -413343/1024*k",
    }),
    ("slice-global", "clifford"): (36, 27, {
        "function_index": 0, "unit_index": 0, "order": 1, "z": ["8/9", "4/3"],
        "global": "2/3*e1 + 4096/243*e2 + 6005/1458*e12 + -512/135*e3 + -512/405*e13 + -1*e23",
        "slice": "2/3*e1 + 1024/243*e2 + 1909/1458*e12 + -128/135*e3 + -256/405*e13 + -1*e23",
    }),
    ("g-relation", "quaternion"): (6, 2, {"function_index": 2}),
    ("g-relation", "clifford"): (6, 2, {"function_index": 2}),
    ("leibniz-global", "quaternion"): (
        18, 1, {"function_index": 1, "power": 3, "form": "global"},
    ),
    ("leibniz-global", "clifford"): (
        18, 3, {"function_index": 0, "power": 3, "form": "global"},
    ),
    ("leibniz-slice", "quaternion"): (
        18, 12, {"function_index": 0, "power": 1, "form": "slice", "unit_index": 0},
    ),
    ("leibniz-slice", "clifford"): (
        18, 11, {"function_index": 0, "power": 1, "form": "slice", "unit_index": 1},
    ),
    ("representation", "quaternion"): (6, 4, {"stem_index": 0, "z": ["8/9", "4/9"]}),
    ("representation", "clifford"): (6, 1, {"stem_index": 0, "z": ["16/9", "4/3"]}),
    ("regularity", "quaternion"): (
        6, 2, {"stem_index": 0, "regular": True, "faces": [True, False, True, True]},
    ),
    ("regularity", "clifford"): (
        6, 2, {"stem_index": 1, "regular": True, "faces": [True, False, True, True]},
    ),
    ("taylor", "quaternion"): (4, 1, {"stem_index": 2}),
    ("taylor", "clifford"): (4, 3, {"stem_index": 1}),
}


@pytest.mark.parametrize("case, kind", sorted(FORCED_OUTCOMES))
def test_forced_failures_keep_their_counts_and_first_witness(case, kind, monkeypatch):
    name, wrap, run = FORCED_FAILURES[case]
    monkeypatch.setattr(slicecalc.campaign, name, wrap(getattr(slicecalc.campaign, name)))
    sig = H if kind == "quaternion" else CL3
    assert run(sig) == FORCED_OUTCOMES[case, kind]


@pytest.mark.parametrize("sig", (QUATERNION, CL3), ids=lambda s: f"{s.kind}{s.m}")
def test_representation_trials_never_predict_a_slice_from_itself(sig, monkeypatch):
    # on equal units the formula reads f_K = f_K, so such a trial could not fail
    pairs = []
    rep = slicecalc.campaign.representation_eval

    def recorded(g, unit_h, unit_k, z):
        pairs.append((unit_h, unit_k))
        return rep(g, unit_h, unit_k, z)

    monkeypatch.setattr(slicecalc.campaign, "representation_eval", recorded)
    for n_units in (2, 3, 8):
        trials = representation_trials(sig, 0, n_stems=2, n_units=n_units, n_triples=12)
        assert trials[:2] == (24, 0)
    assert len(pairs) == 72
    assert all(h != k for h, k in pairs)


P_OVER_Q = "[+-]?[0-9]+/[0-9]+"

# For the cases whose witnesses carry z: a wrapper of the same name and a run
# whose first witness has alpha = 0, so an integer coordinate.  The
# representation wrapper fails exactly the trials at alpha = 0; the
# slice/global one fails whole slices, so its run is one whose first plane
# point has alpha = 0.
AT_ALPHA_ZERO = {
    "slice-global": (
        _direction_doubled,
        lambda sig: slice_global_trials(sig, 26, n_funcs=1, n_units=2, n_points=3, n_rational=1),
    ),
    "representation": (
        lambda rep: lambda g, h, k, z: rep(g, h, k, (z[0], z[1] * (1 + (z[0] == 0)))),
        lambda sig: representation_trials(sig, 5, n_stems=2, n_units=2, n_triples=12),
    ),
}


@pytest.mark.parametrize("case", sorted(AT_ALPHA_ZERO))
@pytest.mark.parametrize("sig", (QUATERNION, CL3), ids=lambda s: f"{s.kind}{s.m}")
def test_forced_witnesses_write_z_as_p_over_q(case, sig, monkeypatch):
    name = FORCED_FAILURES[case][0]
    original = getattr(slicecalc.campaign, name)
    for wrap, run in (FORCED_FAILURES[case][1:], AT_ALPHA_ZERO[case]):
        monkeypatch.setattr(slicecalc.campaign, name, wrap(original))
        _, failures, witness = run(sig)
        assert failures and all(re.fullmatch(P_OVER_Q, c) for c in witness["z"])
    assert witness["z"][0] == "0/1"


def test_a_counterexamples_witness_keeps_its_details_as_json_values(monkeypatch):
    suite = slicecalc.campaign.counterexample_suite

    def not_slice_fails(*args, **kwargs):
        report = suite(*args, **kwargs)
        report["not-slice"] = (False, report["not-slice"][1])
        return report

    monkeypatch.setattr(slicecalc.campaign, "counterexample_suite", not_slice_fails)
    report = run_campaign(CampaignConfig(unit_samples=2, select=("counterexamples",)))
    witness = report["checks"][0]["witness"]
    assert witness["check"] == "not-slice"
    # the suite's first point is (0, 1)
    assert witness["witness_z"] == ["0/1", "1/1"]
