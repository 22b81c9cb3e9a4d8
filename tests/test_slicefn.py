from fractions import Fraction

import pytest

from slicecalc.algebra import QUATERNION, clifford, sample_units
from slicecalc.errors import PointOutsideDomainError
from slicecalc.multipoly import CoordPoly, RationalFn, restrict_rf
from slicecalc.named import (
    conjugate_coordinate,
    coordinate_function,
    default_domain,
    left_multiplied_coordinate,
    rotation_twisted_coordinate,
)
from slicecalc.operators import restrict_to_slice
from slicecalc.polyanalytic import decompose
from slicecalc.sampling import (
    rand_plane_point,
    rand_plane_points,
    rand_point_polynomial,
    rand_rational_point_function,
    rand_stem,
    rng_for,
)
from slicecalc.slicefn import (
    CircularDomain,
    PointFunction,
    SliceFunction,
    _im_s_powers,
    _s_powers,
    extract_stem,
    is_slice,
    phi_coords,
    representation_eval,
    taylor_alpha_coefficients,
)
from slicecalc.stem import StemFunction

from oracles import (
    constant_stem,
    is_slice_all_pairs,
    paravector,
    point_poly_term_by_term,
    sample_stems,
    stem_powers_by_products,
)

H = QUATERNION
DOM = default_domain()
UNITS = sample_units(H, 0, 8)
I_U, J_U, K_U = UNITS[:3]


def zbar_power(n):
    return stem_powers_by_products(StemFunction.zbar(H), n + 1)[n]


def q(*coords):
    return paravector(H, coords)


def test_domain_validation():
    with pytest.raises(ValueError, match="ball radius must be positive"):
        CircularDomain.ball(0, 0)
    with pytest.raises(ValueError, match="annulus requires 0 <= r_in < r_out"):
        CircularDomain.annulus(0, 2, 2)
    with pytest.raises(ValueError, match="annulus requires 0 <= r_in < r_out"):
        CircularDomain.annulus(0, -1, 2)
    ring = CircularDomain.annulus(0, 1, 3)
    # contains_sq takes (alpha, beta^2)
    assert ring.contains_sq(2, 0)           # an axis-centered annulus meets the reals
    assert not ring.contains_sq(Fraction(1, 2), 0)
    assert not ring.contains_sq(3, 1)
    ball = CircularDomain.ball(1, 2)
    assert ball.contains_sq(1, Fraction(9, 4))
    assert not ball.contains_sq(1, 4)


def test_slice_eval_examples():
    x = coordinate_function(H)
    assert x.plane_poly(J_U).eval((2, 3)) == q(2, 0, 3, 0)
    xbar = conjugate_coordinate(H)
    assert xbar.plane_poly(I_U).eval((0, 1)) == q(0, -1, 0, 0)
    zb2 = zbar_power(2)
    assert zb2.plane_poly(K_U).eval((1, 1)) == q(0, 0, 0, -2)  # (1 - k)^2 = -2k
    for unit in (I_U, K_U):
        assert zb2.plane_poly(unit).eval((3, 0)) == q(9, 0, 0, 0)  # real axis: F1 only
    with pytest.raises(PointOutsideDomainError):
        x.to_point_function().eval_coords((5, 0, 0, 0))


def test_well_definedness_across_sign_choice():
    # (I, beta) and (-I, -beta) name the same point; parity makes the values agree
    rng = rng_for(1, "well-defined")
    for _ in range(30):
        f = rand_stem(rng, H)
        alpha, beta = rand_plane_point(rng)
        for unit in UNITS[:4]:
            value = f.plane_poly(unit).eval((alpha, beta))
            assert value == f.plane_poly(-unit).eval((alpha, -beta))


def test_extract_stem_of_coordinate_function():
    g = coordinate_function(H).to_point_function()
    for unit in UNITS[:5]:
        f1, f2 = extract_stem(g, unit)
        assert f1.numer == CoordPoly.variable(H, 2, 0)
        assert f2.numer == CoordPoly.variable(H, 2, 1)


def test_extract_stem_of_twisted_coordinate_depends_on_unit():
    v = rotation_twisted_coordinate(H)
    alpha = CoordPoly.variable(H, 2, 0)
    beta = CoordPoly.variable(H, 2, 1)
    f1, f2 = extract_stem(v, I_U)
    assert (f1, f2) == (alpha, beta)  # v restricted to the i-slice is x
    f1, f2 = extract_stem(v, J_U)
    assert (f1, f2) == (alpha, -beta)  # on the j-slice it conjugates


def test_extraction_is_unit_independent_for_slice_functions():
    rng = rng_for(2, "uniqueness")
    for _ in range(20):
        stem = rand_stem(rng, H)
        pf = SliceFunction(DOM, stem).to_point_function()
        for unit in UNITS[:6]:
            f1, f2 = extract_stem(pf, unit)
            assert f1.is_polynomial() and f2.is_polynomial()
            assert StemFunction(f1.numer, f2.numer) == stem


def test_slice_derivative_examples():
    x = coordinate_function(H)
    assert x.derivative(1).is_zero()
    xbar = conjugate_coordinate(H)
    assert xbar.derivative(1) == constant_stem(H, 1)
    zb2 = SliceFunction(DOM, zbar_power(2))
    assert zb2.derivative(2) == constant_stem(H, 2)


def test_representation_formula_collapses_when_slices_agree():
    v = rotation_twisted_coordinate(H)
    z = (Fraction(1, 3), Fraction(1, 2))
    same = representation_eval(v, I_U, I_U, z)
    assert same == v.eval_coords(phi_coords(I_U, *z))


def test_representation_formula_on_conjugation():
    xbar = conjugate_coordinate(H).to_point_function()
    predicted = representation_eval(xbar, I_U, J_U, (Fraction(0), Fraction(1)))
    assert predicted == q(0, 0, -1, 0)


def test_representation_formula_detects_the_twist():
    v = rotation_twisted_coordinate(H)
    predicted = representation_eval(v, I_U, J_U, (Fraction(0), Fraction(1)))
    actual = v.eval_coords(phi_coords(J_U, Fraction(0), Fraction(1)))
    assert predicted == q(0, 0, 1, 0)   # formula predicts +j
    assert actual == q(0, 0, -1, 0)     # the function value is -j


def test_is_slice_verdicts():
    rng = rng_for(3, "is-slice")
    points = [rand_plane_point(rng) for _ in range(4)]
    stem_fn = SliceFunction(DOM, rand_stem(rng, H)).to_point_function()
    witness = is_slice(stem_fn, UNITS[:4], points)
    assert witness is None

    v = rotation_twisted_coordinate(H)
    witness = is_slice(v, UNITS[:4], points)
    assert witness is not None
    assert witness.unit_h == I_U
    assert witness.unit_k == J_U

    v_r = left_multiplied_coordinate(H)
    witness = is_slice(v_r, UNITS[:4], points)
    assert witness is not None

    # no unit, or one unit and so no pair of slices to compare
    for units in ([], UNITS[:1]):
        with pytest.raises(ValueError):
            is_slice(v, units, points)


def _probe_inputs(sig, rng):
    """A polynomial, a rational function, an induced one and that plus x_1 x_2 x_3."""
    induced = SliceFunction(DOM, rand_stem(rng, sig, max_degree=3)).to_point_function()
    x1, x2, x3 = (CoordPoly.variable(sig, sig.coord_count, h) for h in (1, 2, 3))
    return [
        rand_point_polynomial(rng, sig, max_degree=3),
        rand_rational_point_function(rng, sig, max_degree=2),
        induced,
        PointFunction(DOM, induced + RationalFn.from_poly(x1 * x2 * x3)),
    ]


def _verdict(witness):
    return witness and (witness.unit_h, witness.unit_k, witness.z)


@pytest.mark.parametrize(
    "sig", [H, clifford(3), clifford(5)], ids=["quaternion", "clifford3", "clifford5"]
)
@pytest.mark.parametrize("n_units", [2, 3, 5])
def test_is_slice_finds_what_the_all_pairs_probe_finds(sig, n_units):
    # the first units of a pool are canonical, later ones chart units; the verdict
    # and the witness (H, K, z) are those of the probe over every ordered pair
    for seed in range(3):
        rng = rng_for(seed, f"probe:{sig.kind}{sig.m}:{n_units}")
        points = rand_plane_points(rng, 4)
        pool = sample_units(sig, seed, n_units + 6)
        for units in (pool[:n_units], pool[6:]):
            for g in _probe_inputs(sig, rng):
                assert _verdict(is_slice(g, units, points)) == _verdict(
                    is_slice_all_pairs(g, units, points)
                )


def test_is_slice_reads_each_other_unit_and_its_negative_from_the_first(monkeypatch):
    # on an induced function nothing fails, so the probe makes 2 evaluations on
    # the first unit per point and 1 for each other unit, sign and point:
    # 2 n p, where every ordered pair of units would make 3 n (n - 1) p
    n, p = 5, 4
    units = sample_units(H, 1, n)
    points = rand_plane_points(rng_for(1, "probe-count"), p)
    g = SliceFunction(DOM, rand_stem(rng_for(1, "probe-stem"), H)).to_point_function()
    calls = []
    real = PointFunction.eval_coords

    def counted(self, coords):
        calls.append(coords)
        return real(self, coords)

    monkeypatch.setattr(PointFunction, "eval_coords", counted)
    assert is_slice(g, units, points) is None
    assert len(calls) == 2 * n * p
    calls.clear()
    assert is_slice_all_pairs(g, units, points) is None
    assert len(calls) == 3 * n * (n - 1) * p


def test_representation_formula_holds_for_induced_functions():
    rng = rng_for(4, "rep-random")
    units = sample_units(H, 4, 10)
    for _ in range(100):
        stem = rand_stem(rng, H, max_degree=3)
        pf = SliceFunction(DOM, stem).to_point_function()
        unit_h, unit_k = rng.choice(units), rng.choice(units)
        z = rand_plane_point(rng)
        assert representation_eval(pf, unit_h, unit_k, z) == pf.eval_coords(
            phi_coords(unit_k, *z)
        )


def test_taylor_coefficients_do_not_depend_on_the_unit():
    rng = rng_for(5, "taylor")
    from slicecalc.sampling import rand_holomorphic_stem

    for _ in range(25):
        stem = rand_holomorphic_stem(rng, H, max_degree=3)
        degree = max(stem.total_degree(), 0)
        table = [taylor_alpha_coefficients(stem, unit, degree) for unit in UNITS[:6]]
        assert all(row == table[0] for row in table)


def test_to_point_function_matches_slice_eval():
    rng = rng_for(6, "to-point")
    for _ in range(30):
        stem = rand_stem(rng, H)
        pf = SliceFunction(DOM, stem).to_point_function()
        alpha, beta = rand_plane_point(rng)
        unit = rng.choice(UNITS)
        coords = phi_coords(unit, alpha, beta)
        assert pf.eval_coords(coords) == stem.plane_poly(unit).eval((alpha, beta))


@pytest.mark.parametrize("sig", [H, clifford(3), clifford(5)], ids=["H", "Cl3", "Cl5"])
def test_to_point_function_reads_cached_tables_without_changing_them(sig):
    _s_powers.cache_clear()
    _im_s_powers.cache_clear()
    stems = sample_stems(sig, "to-point-cache")
    for _ in range(2):  # from cold tables, then with every count cached
        for stem in stems:
            got = SliceFunction(DOM, stem).to_point_function().numer
            want = point_poly_term_by_term(stem)
            assert (got.rows, got.den) == (want.rows, want.den)
    for table in (_s_powers, _im_s_powers):
        info = table.cache_info()
        assert info.hits >= len(stems) and info.misses >= 2
        # each cached table still equals a fresh, uncached build
        for count in range(6):
            cached, fresh = table(sig, count), table.__wrapped__(sig, count)
            assert [(p.rows, p.den) for p in cached] == [(p.rows, p.den) for p in fresh]


@pytest.mark.parametrize("sig", [H, clifford(3), clifford(5)], ids=["H", "Cl3", "Cl5"])
def test_to_point_function_matches_the_term_by_term_sum(sig):
    for stem in sample_stems(sig, "to-point-sum"):
        got = SliceFunction(DOM, stem).to_point_function()
        want = point_poly_term_by_term(stem)
        assert got.is_polynomial()
        assert (got.numer.rows, got.numer.den) == (want.rows, want.den)


@pytest.mark.parametrize(
    "sig", (H, clifford(3), clifford(5), clifford(8)), ids=lambda s: f"{s.kind}{s.m}"
)
def test_phi_int_and_phi_coords_give_the_point_alpha_plus_i_beta(sig):
    # the canonical units, then chart units; alpha = 0, ball grid points and
    # annulus points, against (alpha, i_1 beta, ..., i_n beta) built in Fractions
    rng = rng_for(0, f"phi-int:{sig.kind}{sig.m}")
    units = sample_units(sig, 0, sig.imag_dim + 4)
    ring = CircularDomain.annulus(1, Fraction(1, 2), Fraction(5, 2))
    points = [(Fraction(0), Fraction(1)), (Fraction(0), Fraction(-2, 3))]
    points += [rand_plane_point(rng) for _ in range(6)]
    points += [rand_plane_point(rng, ring) for _ in range(6)]
    for unit in units:
        for alpha, beta in points:
            want = (alpha, *(c * beta for c in unit.components()))
            assert phi_coords(unit, alpha, beta) == want


@pytest.mark.parametrize("sig", [H, clifford(3)], ids=["H", "Cl3"])
def test_a_slice_function_is_its_stem_and_a_point_function_its_rational_function(sig):
    stem = rand_stem(rng_for(0, "values-not-holders"), sig, 3)
    f = SliceFunction(DOM, stem)
    assert isinstance(f, StemFunction) and f == stem
    order = stem.total_degree() + 1
    assert decompose(f, order) == decompose(stem, order)
    g = f.to_point_function()
    assert isinstance(g, RationalFn) and g.domain is DOM
    # compared by value: a second reading of the same function equals the first
    assert g == f.to_point_function()
    unit = sample_units(sig, 0, 2)[1]
    assert restrict_rf(g, unit) == restrict_to_slice(g, unit)
