from fractions import Fraction

import pytest

from slicecalc.algebra import MAX_CLIFFORD_M, QUATERNION, AlgebraElement, clifford
from slicecalc.errors import FunctionSpecError
from slicecalc.multipoly import CoordPoly
from slicecalc.serialize import (
    MAX_EXPONENT,
    MAX_TERMS,
    domain_from_json,
    domain_to_json,
    element_from_json,
    element_to_json,
    frac_from_json,
    frac_to_str,
    function_spec_from_json,
    poly_from_terms,
    poly_to_terms,
    signature_from_json,
    signature_to_json,
)
from slicecalc.slicefn import CircularDomain, PointFunction, SliceFunction
from slicecalc.stem import StemFunction

H = QUATERNION


def test_fraction_round_trip():
    for raw, want in (
        ("3/4", Fraction(3, 4)),
        ("-2/6", Fraction(-1, 3)),
        (5, Fraction(5)),
        ("7", Fraction(7)),
        ([3, 9], Fraction(1, 3)),
    ):
        assert frac_from_json(raw) == want
    assert frac_to_str(Fraction(-1, 3)) == "-1/3"
    assert frac_from_json(frac_to_str(Fraction(22, 7))) == Fraction(22, 7)
    for bad in ("x", [1], [1, 0], True, None, 1.5):
        with pytest.raises(FunctionSpecError):
            frac_from_json(bad)


def test_element_round_trip():
    value = AlgebraElement(H, {0: Fraction(1, 2), 3: Fraction(-3)})
    assert element_from_json(H, element_to_json(value)) == value
    cl = clifford(3)
    value = AlgebraElement(cl, {0b011: Fraction(2, 5), 0b111: Fraction(1)})
    dumped = element_to_json(value)
    assert set(dumped) == {"e12", "e123"}
    assert element_from_json(cl, dumped) == value
    with pytest.raises(FunctionSpecError):
        element_from_json(H, {"e9": "1/1"})


def test_signature_and_domain_round_trip():
    for sig in (H, clifford(4)):
        assert signature_from_json(signature_to_json(sig)) == sig
    with pytest.raises(FunctionSpecError):
        signature_from_json({"kind": "octonion"})
    for dom in (CircularDomain.ball(0, 4), CircularDomain.annulus(1, Fraction(1, 2), 3)):
        assert domain_from_json(domain_to_json(dom)) == dom
    assert domain_from_json(None) == CircularDomain.ball(0, 4)


def test_poly_terms_round_trip():
    poly = CoordPoly(
        H,
        2,
        {
            (2, 0): AlgebraElement(H, {1: Fraction(1, 3)}),
            (0, 2): AlgebraElement.one(H),
        },
    )
    assert poly_from_terms(H, 2, poly_to_terms(poly), "test") == poly


def test_repeated_exponents_sum_with_no_zero_element(monkeypatch):
    # a coefficient is added to the earlier one only when its exponents repeat
    want = CoordPoly(H, 2, {(1, 0): AlgebraElement(H, {0: Fraction(5, 6), 2: 2})})
    items = [
        {"exponents": [1, 0], "coefficient": {"1": "1/2"}},
        {"exponents": [0, 1], "coefficient": {"i": "1"}},
        {"exponents": [1, 0], "coefficient": {"1": "1/3", "j": "2"}},
        {"exponents": [0, 1], "coefficient": {"i": "-1"}},
    ]

    def refused(signature):
        raise AssertionError("poly_from_terms built AlgebraElement.zero")

    monkeypatch.setattr(AlgebraElement, "zero", refused)
    assert poly_from_terms(H, 2, items, "f1_terms") == want


def test_stem_spec_parses_to_slice_function():
    spec = {
        "signature": {"kind": "quaternion"},
        "domain": {"shape": "ball", "center": "0", "radius": "4"},
        "representation": "stem",
        "f1_terms": [{"exponents": [1, 0], "coefficient": {"1": "1"}}],
        "f2_terms": [{"exponents": [0, 1], "coefficient": {"1": "-1"}}],
    }
    f = function_spec_from_json(spec)
    assert isinstance(f, SliceFunction)
    assert f == StemFunction.zbar(H)


def test_rational_spec_parses_to_point_function():
    spec = {
        "signature": {"kind": "quaternion"},
        "representation": "rational",
        "numerator_terms": [
            {"exponents": [0, 2, 1, 0], "coefficient": {"1": [1, 1]}}
        ],
        "denominator_terms": [
            {"exponents": [0, 4, 0, 0], "coefficient": {"1": "1"}},
            {"exponents": [0, 0, 2, 0], "coefficient": {"1": "1"}},
            {"exponents": [0, 0, 0, 2], "coefficient": {"1": "1"}},
        ],
        "real_axis_value": {"1": "0"},
    }
    g = function_spec_from_json(spec)
    assert isinstance(g, PointFunction)
    assert g.eval_coords((0, Fraction(1, 2), Fraction(1, 4), 0)) == AlgebraElement.scalar(
        H, Fraction(1, 2)
    )
    assert g.eval_coords((0, 0, 0, 0)).is_zero()


def test_spec_parse_failures():
    with pytest.raises(FunctionSpecError):
        function_spec_from_json([])
    with pytest.raises(FunctionSpecError):
        function_spec_from_json({"representation": "series"})
    # stem parity violated: F1 odd in beta
    with pytest.raises(FunctionSpecError):
        function_spec_from_json(
            {
                "representation": "stem",
                "f1_terms": [{"exponents": [0, 1], "coefficient": {"1": "1"}}],
                "f2_terms": [],
            }
        )
    # zero denominator
    with pytest.raises(FunctionSpecError):
        function_spec_from_json(
            {
                "representation": "rational",
                "numerator_terms": [
                    {"exponents": [0, 0, 0, 0], "coefficient": {"1": "1"}}
                ],
                "denominator_terms": [],
            }
        )
    # denominator with a non-scalar coefficient
    with pytest.raises(FunctionSpecError):
        function_spec_from_json(
            {
                "representation": "rational",
                "numerator_terms": [
                    {"exponents": [0, 0, 0, 0], "coefficient": {"1": "1"}}
                ],
                "denominator_terms": [
                    {"exponents": [0, 2, 0, 0], "coefficient": {"i": "1"}}
                ],
            }
        )


def test_spec_values_at_the_input_limits_parse():
    widest = {"kind": "clifford", "m": MAX_CLIFFORD_M}
    assert signature_from_json(widest) == clifford(MAX_CLIFFORD_M)
    high = poly_from_terms(
        H, 2, [{"exponents": [MAX_EXPONENT, 0], "coefficient": {"1": "1"}}], "f1_terms"
    )
    assert high.total_degree() == MAX_EXPONENT
    many = [
        {"exponents": [k, 0], "coefficient": {"1": "1"}} for k in range(MAX_TERMS // 32)
    ] * 32
    assert len(many) == MAX_TERMS
    assert len(poly_from_terms(H, 2, many, "f1_terms").terms) == MAX_TERMS // 32
    for bad in ({"kind": "clifford", "m": MAX_CLIFFORD_M + 1}, {"kind": "clifford", "m": 1}):
        with pytest.raises(FunctionSpecError):
            signature_from_json(bad)
