from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slicecalc.algebra
from slicecalc.algebra import (
    QUATERNION,
    AlgebraElement,
    AlgebraSignature,
    ImaginaryUnit,
    clifford,
    sample_units,
    stereographic_unit,
)
from slicecalc.errors import SignatureMismatchError
from slicecalc.multipoly import coord_im, coord_s, coord_x, coord_xbar

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
    for sig in (H, CL3, clifford(4)):
        for mask in range(sig.dim):
            assert sig.blade_mask(sig.blade_name(mask)) == mask


def test_stereographic_chart_reference_points():
    assert stereographic_unit(H, (0, 0)).value == I
    assert stereographic_unit(H, (1, 0)).value == J
    assert stereographic_unit(H, (0, 1)).value == K
    assert stereographic_unit(CL3, (0, 0)).value == AlgebraElement.basis(CL3, 1)


def test_sample_units_stops_at_the_units_the_chart_reaches():
    # each chart parameter is one of 127 rationals a/b (|a| <= 12, 1 <= b <= 8),
    # so the chart reaches 127 units on Cl(0,2) and 127^2 on the quaternions
    plane = clifford(2)
    assert len({u.value for u in sample_units(plane, 0, 127)}) == 127
    with pytest.raises(ValueError, match="exceeds the 127 units"):
        sample_units(plane, 0, 128)
    with pytest.raises(ValueError, match="exceeds the 16129 units"):
        sample_units(H, 0, 16130)


def _rejection_sample_units(signature, seed, count):
    """Reference sampler: builds a unit for every draw and rejects repeated units."""
    units = [ImaginaryUnit(AlgebraElement.basis(signature, m)) for m in signature.imag_masks]
    seen = {u.value for u in units}
    rng = Random(f"slicecalc-units:{seed}")
    while len(units) < count:
        params = [
            Fraction(rng.randint(-12, 12), rng.randint(1, 8))
            for _ in range(signature.imag_dim - 1)
        ]
        unit = stereographic_unit(signature, params)
        if unit.value not in seen:
            seen.add(unit.value)
            units.append(unit)
    return units[:count]


@pytest.mark.parametrize(
    "signature, count",
    [(H, 2), (H, 64), (H, 2000), (CL3, 64), (CL3, 2000), (clifford(2), 127)],
    ids=["quaternion-2", "quaternion-64", "quaternion-2000", "cl3-64", "cl3-2000", "cl2-127"],
)
def test_sample_units_matches_the_rejection_sampler(signature, count):
    for seed in (0, 5):
        assert sample_units(signature, seed, count) == _rejection_sample_units(
            signature, seed, count
        )


def test_sample_units_builds_each_unit_once(monkeypatch):
    calls = []

    def counting_chart(signature, params):
        calls.append(params)
        return stereographic_unit(signature, params)

    monkeypatch.setattr(slicecalc.algebra, "stereographic_unit", counting_chart)
    # every one of the 127 chart values is drawn, most of them many times over
    units = sample_units(clifford(2), 0, 127)
    assert len(units) == 127
    assert len(calls) == 125  # the two canonical units need no chart call


def test_sample_units_contract():
    units = sample_units(H, 5, 40)
    assert [u.value for u in units[:3]] == [I, J, K]
    minus_one = AlgebraElement.scalar(H, -1)
    for u in units:
        assert u.value * u.value == minus_one
        assert u.value.coeff(0) == 0
        assert sum(c * c for c in u.components()) == 1
    assert sample_units(H, 5, 40) == units  # deterministic
    assert sample_units(H, 6, 40) != units  # seed-sensitive
    assert len({u.value for u in units}) == 40
    assert len(sample_units(H, 5, 2)) == 2

    cl_units = sample_units(CL3, 5, 20)
    assert [u.value for u in cl_units[:3]] == [
        AlgebraElement.basis(CL3, 1 << t) for t in range(3)
    ]
    for u in cl_units:
        assert u.value * u.value == AlgebraElement.scalar(CL3, -1)


def test_imaginary_unit_validation():
    with pytest.raises(ValueError):
        ImaginaryUnit(I * 2)  # squares to -4
    with pytest.raises(ValueError):
        ImaginaryUnit(ONE)  # not in the imaginary span
    with pytest.raises(ValueError):
        ImaginaryUnit(AlgebraElement.basis(CL3, 0b011))  # bivector, not paravector


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
