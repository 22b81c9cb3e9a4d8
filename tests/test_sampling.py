"""The samplers against their product-built references in ``oracles``.

``rand_element`` builds its numerators over one denominator and
``rand_holomorphic_stem`` reads sum_h z^h a_h off the binomial form of z^h.
Both must give the values of the ``Fraction`` and stem-product references,
in the same row order, and leave the generator in the same state: every
later draw of a campaign depends on it.
"""

from itertools import product
from random import Random

import pytest

from slicecalc.algebra import QUATERNION, clifford
from slicecalc.sampling import rand_element, rand_holomorphic_stem

from oracles import rand_element_by_fractions, rand_holomorphic_stem_by_products

SIGNATURES = (QUATERNION, clifford(3), clifford(5))


def row_order(stem):
    return [[(e, list(nums.items())) for e, nums in c.rows.items()] for c in (stem.f1, stem.f2)]


@pytest.mark.parametrize("sig", SIGNATURES, ids=lambda s: f"{s.kind}{s.m}")
def test_rand_element_matches_the_fraction_reference(sig):
    for seed in range(200):
        rng, ref_rng = Random(seed), Random(seed)
        value, ref = rand_element(rng, sig), rand_element_by_fractions(ref_rng, sig)
        assert value == ref
        assert list(value.nums.items()) == list(ref.nums.items())
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("sig", SIGNATURES, ids=lambda s: f"{s.kind}{s.m}")
def test_rand_holomorphic_stem_matches_the_product_reference(sig):
    zero_draws = 0
    for seed, max_degree, nonzero in product(range(100), range(6), (True, False)):
        rng, ref_rng = Random(seed), Random(seed)
        stem = rand_holomorphic_stem(rng, sig, max_degree, nonzero)
        ref = rand_holomorphic_stem_by_products(ref_rng, sig, max_degree, nonzero)
        assert stem == ref, (seed, max_degree, nonzero)
        assert row_order(stem) == row_order(ref)
        assert rng.getstate() == ref_rng.getstate()
        assert stem.dbar().is_zero()
        zero_draws += stem.is_zero()
        assert not (nonzero and stem.is_zero())
    # the sampler's all-skipped case is reached, so the nonzero redraw is too
    assert zero_draws > 0
