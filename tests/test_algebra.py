from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slicecalc.algebra
from slicecalc.algebra import (
    MAX_CLIFFORD_M,
    QUATERNION,
    AlgebraElement,
    AlgebraSignature,
    ImaginaryUnit,
    clifford,
    sample_units,
    stereographic_unit,
)
from slicecalc.errors import FunctionSpecError, SignatureMismatchError
from slicecalc.multipoly import coord_im, coord_s, coord_x, coord_xbar
from slicecalc.serialize import element_from_json, element_to_json

from oracles import paravector

H = QUATERNION
CL3 = clifford(3)


def q(*coords):
    return paravector(H, coords)


def coords(x):
    """Coordinates of a quaternion: every quaternion is a paravector."""
    return [x.coeff(m) for m in (0, *H.imag_masks)]


def conj(x):
    return coord_xbar(H).eval(coords(x))


I, J, K = (AlgebraElement.basis(H, m) for m in (1, 2, 3))
ONE = AlgebraElement.one(H)


def test_quaternion_multiplication_table():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert J * I == -K
    assert I * I == -ONE and J * J == -ONE and K * K == -ONE


def test_clifford_bivector_contraction():
    e1 = AlgebraElement.basis(CL3, 0b001)
    e2 = AlgebraElement.basis(CL3, 0b010)
    e12 = e1 * e2
    assert e12 == AlgebraElement.basis(CL3, 0b011)
    assert e12 * e2 == -e1
    assert e2 * e1 == -e12


def test_product_minus_i_j_i():
    # the sign chase behind the twisted coordinate: -iji = -j
    assert (-I) * J * I == -J


def test_mul_requires_same_signature():
    with pytest.raises(SignatureMismatchError):
        I * AlgebraElement.basis(CL3, 1)


def test_conj_re_im_norm():
    # conjugate, imaginary part and |Im x|^2 are the coordinate point functions
    assert conj(ONE + I * 2) == ONE - I * 2
    assert coord_s(H).eval(coords(I + J)) == AlgebraElement.scalar(H, 2)
    y = q(3, 0, 0, 4)
    assert conj(y) * y == AlgebraElement.scalar(H, 25)
    assert coord_x(H).eval(coords(y)).coeff(0) == 3
    assert coord_im(H).eval(coords(y)) == K * 4
    x = (1, 2, 0, -1)
    assert (coord_x(CL3) * coord_xbar(CL3)).eval(x) == AlgebraElement.scalar(CL3, 6)


def test_signature_validation():
    with pytest.raises(ValueError):
        clifford(1)
    with pytest.raises(ValueError):
        AlgebraSignature("quaternion", 3)
    assert CL3.dim == 8
    assert H.dim == 4
    assert H.coord_count == 4 and CL3.coord_count == 4


def test_blade_names_round_trip():
    # the spec parser reads exactly the names reports write, and no other spelling
    for sig in (H, *(clifford(m) for m in range(2, 9))):
        for mask in range(sig.dim):
            basis = AlgebraElement.basis(sig, mask)
            assert element_from_json(sig, element_to_json(basis)) == basis
    near_misses = [(H, name) for name in ("e1", "I", "")] + [
        (CL3, name) for name in ("i", "e0", "e4", "e11", "e21", "e1_2", "E1", "e\u0661")
    ]
    for sig, name in near_misses:
        with pytest.raises(FunctionSpecError) as info:
            element_from_json(sig, {name: "1"})
        assert f"bad blade {name!r}" in str(info.value)
    # no signature past Cl(0, 8) is built, so no table of more than 2^8 names
    with pytest.raises(ValueError, match="exceeds the limit 8"):
        clifford(MAX_CLIFFORD_M + 1)


def test_stereographic_chart_reference_points():
    assert stereographic_unit(H, (0, 0)) == I
    assert stereographic_unit(H, (1, 0)) == J
    assert stereographic_unit(H, (0, 1)) == K
    assert stereographic_unit(CL3, (0, 0)) == AlgebraElement.basis(CL3, 1)


def test_sample_units_stops_at_the_units_the_chart_reaches():
    # each chart parameter is one of 127 rationals a/b (|a| <= 12, 1 <= b <= 8),
    # so the chart reaches 127 units on Cl(0,2) and 127^2 on the quaternions
    plane = clifford(2)
    assert len({u for u in sample_units(plane, 0, 127)}) == 127
    with pytest.raises(ValueError, match="exceeds the 127 units"):
        sample_units(plane, 0, 128)
    with pytest.raises(ValueError, match="exceeds the 16129 units"):
        sample_units(H, 0, 16130)


def _fraction_chart(signature, params):
    """Reference chart: I = ((1 - s) u_1 + sum_h 2 p_h u_h) / (1 + s) in ``Fraction``s."""
    params = [Fraction(p) for p in params]
    s = sum(p * p for p in params)
    coeffs = [(1 - s) / (1 + s), *(2 * p / (1 + s) for p in params)]
    return AlgebraElement(signature, dict(zip(signature.imag_masks, coeffs)))


def test_stereographic_unit_matches_the_fraction_chart():
    grid = [[Fraction(a, b)] for a in range(-12, 13) for b in range(1, 9)]
    rng = Random("chart-reference")
    cases = [(clifford(2), params) for params in grid]
    for sig in (H, CL3, clifford(8)):
        for _ in range(300):
            params = [Fraction(rng.randint(-60, 60), rng.randint(1, 40)) for _ in sig.imag_masks[1:]]
            cases.append((sig, params))
    for sig, params in cases:
        value = stereographic_unit(sig, params)
        expected = _fraction_chart(sig, params)
        assert (value.nums, value.den) == (expected.nums, expected.den)


def test_sample_units_reaches_every_quaternion_chart_unit():
    units = sample_units(H, 0, 16129)
    assert [u for u in units[:3]] == [I, J, K]
    assert len({u for u in units}) == 16129


@pytest.mark.parametrize("signature", [H, CL3], ids=["quaternion", "cl3"])
def test_sample_units_is_a_prefix_of_a_longer_sample(signature):
    for seed in range(3):
        longest = sample_units(signature, seed, 64)
        for count in range(1, 64):
            assert sample_units(signature, seed, count) == longest[:count]


def test_sample_units_pins_the_first_chart_units():
    # a change to the seeded stream of chart indices shows here first
    assert [u.components() for u in sample_units(H, 0, 6)[3:]] == [
        (Fraction(-548, 557), Fraction(99, 557), Fraction(12, 557)),
        (Fraction(-7305, 13577), Fraction(10752, 13577), Fraction(-3920, 13577)),
        (Fraction(-329, 337), Fraction(12, 337), Fraction(72, 337)),
    ]


def test_sample_units_builds_each_unit_once(monkeypatch):
    calls = []

    def counting_chart(signature, params):
        calls.append(params)
        return stereographic_unit(signature, params)

    monkeypatch.setattr(slicecalc.algebra, "stereographic_unit", counting_chart)
    # each of the 125 non-canonical chart indices is drawn once
    units = sample_units(clifford(2), 0, 127)
    assert len(units) == 127
    assert len(calls) == 125  # the two canonical units need no chart call


def test_sample_units_contract():
    units = sample_units(H, 5, 40)
    assert [u for u in units[:3]] == [I, J, K]
    minus_one = AlgebraElement.scalar(H, -1)
    for u in units:
        assert u * u == minus_one
        assert u.coeff(0) == 0
        assert sum(c * c for c in u.components()) == 1
    assert sample_units(H, 5, 40) == units  # deterministic
    assert sample_units(H, 6, 40) != units  # seed-sensitive
    assert len({u for u in units}) == 40
    assert len(sample_units(H, 5, 2)) == 2

    cl_units = sample_units(CL3, 5, 20)
    assert [u for u in cl_units[:3]] == [
        AlgebraElement.basis(CL3, 1 << t) for t in range(3)
    ]
    for u in cl_units:
        assert u * u == AlgebraElement.scalar(CL3, -1)


def test_imaginary_unit_validation():
    with pytest.raises(ValueError):
        ImaginaryUnit(I * 2)  # squares to -4
    with pytest.raises(ValueError):
        ImaginaryUnit(ONE)  # not in the imaginary span
    with pytest.raises(ValueError):
        ImaginaryUnit(AlgebraElement.basis(CL3, 0b011))  # bivector, not paravector


def test_a_unit_is_its_element_checked_once():
    # units hash, multiply and negate as elements; the checks still refuse non-units
    units = sample_units(H, 0, 64)
    assert len(set(units)) == 64
    for u in units:
        assert isinstance(u, AlgebraElement)
        assert u * u == AlgebraElement.scalar(H, -1)
        assert isinstance(-u, ImaginaryUnit)
        assert -u == u * -1
    with pytest.raises(ValueError, match="square to -1"):
        ImaginaryUnit(J * 2)
    with pytest.raises(ValueError, match="imaginary span"):
        ImaginaryUnit(ONE + J)


def _is_unit_by_product(value):
    """The product rule: in the imaginary span, and value * value == -1 as elements."""
    sig = value.signature
    in_span = all(mask in sig.imag_masks for mask in value.nums)
    return in_span and value * value == AlgebraElement.scalar(sig, -1)


def _is_unit(value):
    try:
        ImaginaryUnit(value)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("sig", (H, CL3, clifford(5), clifford(8)), ids=lambda s: f"{s.kind}{s.m}")
def test_imaginary_unit_accepts_what_the_product_rule_accepts(sig, monkeypatch):
    units = [u for u in sample_units(sig, 5, 40)]
    values = units + [-v for v in units]
    assert all(_is_unit_by_product(v) for v in values)

    def no_product(self, other):
        raise AssertionError("the unit check reads the norm off the integer numerators")

    monkeypatch.setattr(AlgebraElement, "__mul__", no_product)
    assert all(_is_unit(v) for v in values)


def test_imaginary_unit_rejects_what_the_product_rule_rejects():
    e1, e2, e3 = (AlgebraElement.basis(CL3, 1 << t) for t in range(3))
    near_units = [
        I * Fraction(3, 5) + J * Fraction(3, 5),
        I * 2,
        ONE + I,
        AlgebraElement.zero(H),
        e1 * Fraction(3, 5) + e2 * Fraction(4, 5) + e3,
        e1 * e2,  # refused by the span check
    ]
    for value in near_units:
        assert not _is_unit_by_product(value)
        assert not _is_unit(value)


def test_quaternions_agree_with_two_generator_clifford():
    # i -> e1, j -> e2, k -> e1 e2 is an algebra isomorphism; on the blade
    # encoding the coefficient masks coincide, so transport is the identity.
    cl2 = clifford(2)
    rng = Random("h-vs-cl2")

    def rand_pair():
        a = {m: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for m in range(4)}
        b = {m: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for m in range(4)}
        return a, b

    for _ in range(1000):
        a, b = rand_pair()
        lhs = AlgebraElement(H, a) * AlgebraElement(H, b)
        rhs = AlgebraElement(cl2, a) * AlgebraElement(cl2, b)
        assert lhs.coeffs == rhs.coeffs


small_fracs = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


@st.composite
def quaternions(draw):
    coords = draw(st.lists(small_fracs, min_size=4, max_size=4))
    return paravector(H, coords)


@settings(max_examples=100, deadline=None)
@given(quaternions(), quaternions())
def test_conj_is_an_anti_involution(a, b):
    assert conj(conj(a)) == a
    assert conj(a * b) == conj(b) * conj(a)


@settings(max_examples=100, deadline=None)
@given(quaternions(), quaternions(), quaternions())
def test_mul_associative_and_bilinear(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert (a + b) * c == a * c + b * c
    assert a * (b + c) == a * b + a * c
