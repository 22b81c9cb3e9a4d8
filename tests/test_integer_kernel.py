"""The integer inner loops of the kernel against plain ``Fraction`` references.

``AlgebraElement`` and ``CoordPoly`` store integer numerators over one
denominator, so ``+``, ``-`` and ``*`` on both, ``conj``, ``norm_sq``,
``CoordPoly.eval``, ``RationalFn.eval``, scalar scaling,
``scale_left``/``scale_right``, ``CoordPoly.partial``, ``restrict_poly``, the
content split of ``RationalFn(numer, factors)`` and ``RationalFn.__add__`` all
add up integers.  The references below are the straightforward loops over
``Fraction`` coefficients, with their own blade sign rule.  Results must also
be canonical: the stored denominator is positive and shares no factor with all
numerators, no zero numerator is stored, and ``==`` and ``hash`` agree with a
value built through the public constructor.
"""

from fractions import Fraction
from math import gcd, lcm, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slicecalc.algebra
import slicecalc.campaign
import slicecalc.multipoly
from slicecalc.algebra import QUATERNION, AlgebraElement, clifford, sample_units
from slicecalc.campaign import (
    decomposition_roundtrip_trials,
    g_relation_trials,
    leibniz_trials,
    regularity_equivalence_trials,
    representation_trials,
    slice_derivative_trials,
    slice_global_trials,
    taylor_independence_trials,
)
from slicecalc.errors import DenominatorVanishesError
from slicecalc.multipoly import CoordPoly, RationalFn, restrict_poly
from slicecalc.slicefn import PointFunction, SliceFunction

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
    # a denominator negative at the point: the stored denominator of the value stays positive
    rf = RationalFn(poly, [(x[0] + CoordPoly.constant(sig, n, 2), 1)])
    point = [-3] + [Fraction(1, 2)] * (n - 1)
    assert_canonical_element(rf.eval(point), ref_rf_eval(rf, point))


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
    for value in (p * q, q * p):
        assert_canonical_poly(value, ref_scale(p, q))
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


@st.composite
def restrictions(draw):
    sig = draw(st.sampled_from(SIGNATURES))
    p = draw(polys(sig, sig.coord_count))
    n = sig.imag_dim
    if draw(st.booleans()):
        unit = draw(st.sampled_from(sample_units(sig, draw(st.integers(0, 3)), n + 3)))
        return p, unit.components()
    comps = st.one_of(fracs, st.just(Fraction(0)), st.integers(min_value=-3, max_value=3))
    return p, draw(st.lists(comps, min_size=n, max_size=n))


@settings(max_examples=100, deadline=None)
@given(restrictions())
def test_restrict_poly_matches_the_fraction_reference(case):
    p, components = case
    assert_canonical_poly(restrict_poly(p, components), ref_restrict(p, components))


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


def paravectors(signature):
    masks = st.sampled_from(sorted(signature.paravector_masks))
    return st.dictionaries(masks, fracs, max_size=4).map(
        lambda coeffs: AlgebraElement(signature, coeffs)
    )


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SIGNATURES).flatmap(paravectors))
def test_conj_and_norm_match_the_fraction_reference(x):
    coeffs = x.coeffs
    conj = AlgebraElement(x.signature, {m: c if m == 0 else -c for m, c in coeffs.items()})
    assert_canonical_element(x.conj(), conj)
    norm = x.norm_sq()
    assert isinstance(norm, Fraction)
    assert norm == sum((c * c for c in coeffs.values()), Fraction(0))


@settings(max_examples=80, deadline=None)
@given(poly_pairs())
def test_poly_sum_and_difference_match_the_fraction_reference(pair):
    p, q = pair
    assert_canonical_poly(p + q, ref_poly_add(p, q))
    assert_canonical_poly(p - q, ref_poly_add(p, q, -1))
    assert_canonical_poly(p - p, CoordPoly.zero(p.signature, p.var_count))


# -- RationalFn ----------------------------------------------------------------------------


def ref_split(p):
    """(primitive, content) of a real-scalar polynomial, over ``Fraction``s."""
    coeffs = {e: c.scalar_part() for e, c in p.terms.items()}
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
        coeffs = [c.scalar_part() for c in primitive.terms.values()]
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
    s = sum((xh * xh for xh in x[1:]), CoordPoly.zero(sig, n))
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


@pytest.mark.parametrize("sig", (QUATERNION, CL3), ids=lambda s: f"{s.kind}{s.m}")
def test_campaign_bodies_keep_failure_counts_and_witnesses(sig, monkeypatch):
    # a wrong second derivative and a wrong coefficient at level 2 make the
    # bodies fail; the counts and the first witness are those recorded before
    derivative = SliceFunction.derivative
    monkeypatch.setattr(
        SliceFunction, "derivative", lambda self, order=1: derivative(self, order + (order == 2))
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
    return lambda g, *args: PointFunction(g.domain, op(g, *args).expr * 2)


# Each case replaces one name a body reads from ``slicecalc.campaign`` by a
# wrapper of the original that makes some trials fail: (name, wrapper, run).
FORCED_FAILURES = {
    "slice-global": (
        "phi_coords",
        lambda phi: lambda unit, a, b: phi(unit, a, b * (1 + (a > 0))),
        lambda sig: slice_global_trials(
            sig, 5, n_funcs=1, n_units=2, n_points=3, n_rational=1
        ),
    ),
    "g-relation": (
        "g_op",
        lambda op: lambda g: op(g) if g.expr.is_polynomial() else _doubled(op)(g),
        lambda sig: g_relation_trials(sig, 5, n_funcs=6),
    ),
    "leibniz-global": (
        "thetabar",
        lambda op: lambda g, order=1: (
            op(g, order) if g.expr.numer.total_degree() < 5 else _doubled(op)(g, order)
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
        lambda sig: representation_trials(sig, 5, n_stems=2, n_triples=3),
    ),
    "regularity": (
        "thetabar",
        lambda op: lambda g, order=1: g if g.expr.numer.total_degree() >= 3 else op(g, order),
        lambda sig: regularity_equivalence_trials(sig, 5, n_stems=3, n_units=2),
    ),
    "taylor": (
        "taylor_alpha_coefficients",
        lambda ta: lambda f, unit, center, top: ta(f, unit, center + len(f.stem.f1.rows) % 2, top),
        lambda sig: taylor_independence_trials(sig, 5, n_stems=4, n_units=3),
    ),
}

# (trials, failures, witness) of each case, recorded before the bodies yielded
# one outcome per trial and ``_tally`` counted them.
FORCED_OUTCOMES = {
    ("slice-global", "quaternion"): (36, 12, {
        "function_index": 1, "unit_index": 0, "order": 1, "z": ["4/3", "4/9"],
        "global": "295245/16384 + 177147/16384*i + -413343/32768*k",
        "slice": "295245/512 + 177147/512*i + -413343/1024*k",
    }),
    ("slice-global", "clifford"): (36, 18, {
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
    ("representation", "quaternion"): (6, 2, {"stem_index": 0, "z": ["4/9", "16/9"]}),
    ("representation", "clifford"): (6, 3, {"stem_index": 0, "z": ["4/3", "8/9"]}),
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
