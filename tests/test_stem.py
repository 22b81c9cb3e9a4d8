from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicecalc.algebra import QUATERNION, AlgebraElement, clifford
from slicecalc.errors import ParityViolationError
from slicecalc.multipoly import CoordPoly
from slicecalc.polyanalytic import compose
from slicecalc.sampling import rand_stem, rng_for
from slicecalc.stem import StemFunction

from oracles import (
    compose_by_products,
    constant_stem,
    element_to_float,
    paravector,
    sample_stems,
    stem_dbar_by_partials,
    stem_powers_by_products,
    zero_stem,
)

H = QUATERNION
ALPHA = CoordPoly.variable(H, 2, 0)
BETA = CoordPoly.variable(H, 2, 1)
ZERO2 = CoordPoly(H, 2, {})
ZBAR_SQUARED = stem_powers_by_products(StemFunction.zbar(H), 3)[2]


def test_stem_constructor_accepts_the_coordinate_stems():
    z = StemFunction(ALPHA, BETA)
    zbar = StemFunction(ALPHA, -BETA)
    assert z == StemFunction.z(H)
    assert zbar == StemFunction.zbar(H)


def test_stem_constructor_rejects_odd_f1():
    with pytest.raises(ParityViolationError) as err:
        StemFunction(BETA, ZERO2)
    assert "beta^1" in str(err.value)
    with pytest.raises(ParityViolationError):
        StemFunction(ALPHA, ALPHA)  # F2 even in beta


def _fd_dbar_oracle(stem, alpha, beta, step=1e-5):
    """Central-difference estimate of both components of dF/dz-bar."""

    def f1(a, b):
        return element_to_float(stem.f1.eval((a, b)))

    def f2(a, b):
        return element_to_float(stem.f2.eval((a, b)))

    def diff(fn, da, db):
        hi = fn(alpha + da * step, beta + db * step)
        lo = fn(alpha - da * step, beta - db * step)
        return {m: (hi.get(m, 0.0) - lo.get(m, 0.0)) / (2 * step) for m in set(hi) | set(lo)}

    d1a, d1b = diff(f1, 1, 0), diff(f1, 0, 1)
    d2a, d2b = diff(f2, 1, 0), diff(f2, 0, 1)
    masks = set(d1a) | set(d1b) | set(d2a) | set(d2b)
    g1 = {m: 0.5 * (d1a.get(m, 0.0) - d2b.get(m, 0.0)) for m in masks}
    g2 = {m: 0.5 * (d1b.get(m, 0.0) + d2a.get(m, 0.0)) for m in masks}
    return g1, g2


def _assert_close(exact: AlgebraElement, approx: dict, tol=1e-6):
    for mask in set(exact.coeffs) | set(approx):
        want = float(exact.coeff(mask))
        got = approx.get(mask, 0.0)
        assert abs(want - got) <= tol * max(1.0, abs(want))


def test_dbar_on_the_coordinate_stems():
    assert StemFunction.z(H).dbar().is_zero()
    assert StemFunction.zbar(H).dbar() == constant_stem(H, 1)


def test_dbar_of_zbar_squared():
    # frozen from the finite-difference oracle below: d/dz-bar (z-bar^2) = 2 z-bar
    zb2 = ZBAR_SQUARED
    assert zb2.f1 == ALPHA * ALPHA - BETA * BETA
    assert zb2.f2 == (ALPHA * BETA) * -2
    got = zb2.dbar()
    zb = StemFunction.zbar(H)
    assert got == StemFunction(zb.f1 * 2, zb.f2 * 2)
    for alpha, beta in ((0.3, 0.7), (-1.1, 0.4)):
        g1, g2 = _fd_dbar_oracle(zb2, alpha, beta)
        v1 = element_to_float(got.f1.eval((alpha, beta)))
        v2 = element_to_float(got.f2.eval((alpha, beta)))
        for m in set(g1) | set(v1):
            assert abs(g1.get(m, 0.0) - v1.get(m, 0.0)) <= 1e-6
        for m in set(g2) | set(v2):
            assert abs(g2.get(m, 0.0) - v2.get(m, 0.0)) <= 1e-6


def test_dbar_matches_oracle_on_random_stems():
    rng = rng_for(2, "stem-oracle")
    for _ in range(25):
        stem = rand_stem(rng, H, max_degree=4)
        got = stem.dbar()
        alpha, beta = rng.uniform(-1, 1), rng.uniform(0.2, 1.2)
        g1, g2 = _fd_dbar_oracle(stem, alpha, beta)
        _assert_close_at = element_to_float(got.f1.eval((alpha, beta)))
        for m in set(g1) | set(_assert_close_at):
            assert abs(g1.get(m, 0.0) - _assert_close_at.get(m, 0.0)) <= 1e-5
        f2f = element_to_float(got.f2.eval((alpha, beta)))
        for m in set(g2) | set(f2f):
            assert abs(g2.get(m, 0.0) - f2f.get(m, 0.0)) <= 1e-5


def test_stem_eval_examples():
    zbar = StemFunction.zbar(H)
    assert zbar.f1.eval((2, 3)) == AlgebraElement.scalar(H, 2)
    assert zbar.f2.eval((2, 3)) == AlgebraElement.scalar(H, -3)
    zb2 = ZBAR_SQUARED
    assert zb2.f1.eval((1, 1)) == AlgebraElement.scalar(H, 0)
    assert zb2.f2.eval((1, 1)) == AlgebraElement.scalar(H, -2)
    g = rand_stem(rng_for(4, "real-axis"), H)
    assert g.f2.eval((Fraction(5, 7), 0)).is_zero()  # F2 odd in beta


def test_left_multiplication_leibniz_rule():
    # d/dz-bar (z-bar G) = G + z-bar dG/dz-bar, exercised on 200 random stems
    rng = rng_for(5, "leibniz")
    zero = zero_stem(H)
    for _ in range(200):
        g = rand_stem(rng, H, max_degree=3)
        assert compose([zero, g]).dbar() == g + compose([zero, g.dbar()])


coeff_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def stems(draw, signature=H):
    f1_terms = {}
    f2_terms = {}
    for _ in range(draw(st.integers(1, 3))):
        a = draw(st.integers(0, 2))
        b = draw(st.integers(0, 1)) * 2
        coords = draw(st.lists(coeff_fracs, min_size=4, max_size=4))
        f1_terms[(a, b)] = paravector(signature, coords)
        coords2 = draw(st.lists(coeff_fracs, min_size=4, max_size=4))
        f2_terms[(a, b + 1)] = paravector(signature, coords2)
    return StemFunction(
        CoordPoly(signature, 2, f1_terms), CoordPoly(signature, 2, f2_terms)
    )


@settings(max_examples=80, deadline=None)
@given(stems(), stems())
def test_parity_survives_dbar_and_products(f, g):
    # constructors re-validate parity, so surviving construction is the assertion;
    # compose multiplies g by zbar and f by 1
    StemFunction(*(lambda s: (s.f1, s.f2))(f.dbar()))
    composed = compose([f, g])
    StemFunction(composed.f1, composed.f2)
    StemFunction((f + g).f1, (f + g).f2)


def test_clifford_stems_share_the_machinery():
    sig = clifford(3)
    zb = StemFunction.zbar(sig)
    one, zero = constant_stem(sig, 1), zero_stem(sig)
    assert zb.dbar() == one
    assert compose([zero, zero, one]).dbar() == StemFunction(zb.f1 * 2, zb.f2 * 2)


def stored(stem):
    return (stem.f1.rows, stem.f1.den), (stem.f2.rows, stem.f2.den)


@pytest.mark.parametrize("sig", [H, clifford(3), clifford(5)], ids=["H", "Cl3", "Cl5"])
def test_fused_dbar_and_product_match_the_coordpoly_formulas(sig):
    stems = sample_stems(sig, "fused-stem")
    for f in stems:
        assert stored(f.dbar()) == stored(stem_dbar_by_partials(f))
        assert stored(f.dbar().dbar()) == stored(stem_dbar_by_partials(stem_dbar_by_partials(f)))
        for g in stems:
            assert stored(compose([f, g])) == stored(compose_by_products([f, g]))
