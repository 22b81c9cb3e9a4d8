"""Fuzzing the input contract of spec files.

Any JSON value handed to ``function_spec_from_json`` either parses into a
function or raises ``FunctionSpecError``; ``slicecalc classify`` and
``slicecalc decompose`` on any JSON file exit 0, 1 or 2 and never let an
exception escape.  Two strategies:
arbitrary JSON values, and spec-shaped objects whose leaves are arbitrary.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from slicecalc import cli
from slicecalc.errors import FunctionSpecError
from slicecalc.serialize import function_spec_from_json
from slicecalc.slicefn import PointFunction, SliceFunction

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=8),
)
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def mostly(valid, other):
    """``valid`` three times in four, so most specs get past their first keys."""
    return st.integers(min_value=0, max_value=3).flatmap(lambda k: valid if k else other)


rationals = mostly(
    st.integers(min_value=-3, max_value=3)
    | st.sampled_from(["1/2", "-3/4", "+2", "5", "1e5", "1.5", " 1", "1_0", "2/0"]),
    st.lists(leaves | st.integers(min_value=-3, max_value=3), min_size=2, max_size=2) | leaves,
)
coefficients = mostly(
    st.dictionaries(
        st.sampled_from(["1", "i", "j", "k", "e1", "e2", "e12", "e4", "x"]), rationals, max_size=3
    ),
    leaves,
)
exponents = mostly(
    st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=4),
    st.lists(leaves, max_size=4) | leaves,
)
term_lists = mostly(
    st.lists(st.fixed_dictionaries({"exponents": exponents, "coefficient": coefficients}), max_size=3),
    json_values,
)
signatures = mostly(
    st.sampled_from([{"kind": "quaternion"}, {"kind": "clifford", "m": 2}, {"kind": "clifford", "m": 3}]),
    st.fixed_dictionaries({"kind": st.sampled_from(["clifford", "quaternion"]) | leaves, "m": leaves})
    | json_values,
)
domains = mostly(
    st.none()
    | st.fixed_dictionaries(
        {"shape": st.just("ball"), "radius": rationals}, optional={"center": rationals}
    )
    | st.fixed_dictionaries(
        {"shape": st.just("annulus"), "r_in": rationals, "r_out": rationals},
        optional={"center": rationals},
    ),
    st.dictionaries(st.sampled_from(["shape", "center", "radius"]), leaves) | json_values,
)
specs = st.fixed_dictionaries(
    {
        "signature": signatures,
        "domain": domains,
        "representation": mostly(st.sampled_from(["stem", "rational"]), leaves),
    },
    optional={
        "f1_terms": term_lists,
        "f2_terms": term_lists,
        "numerator_terms": term_lists,
        "denominator_terms": term_lists,
        "real_axis_value": coefficients,
    },
)
inputs = json_values | specs


@settings(max_examples=150, deadline=None)
@given(inputs)
def test_spec_parsing_ends_in_a_function_or_a_spec_error(value):
    try:
        parsed = function_spec_from_json(value)
    except FunctionSpecError:
        return
    assert isinstance(parsed, (SliceFunction, PointFunction))


# a point function, so that classify samples plane points in the annulus;
# 1 / (1 + s) is slice with a rational stem, so every sampled point is evaluated
THIN_ANNULUS = {
    "representation": "rational",
    "domain": {"shape": "annulus", "center": 0, "r_in": "199/200", "r_out": 1},
    "numerator_terms": [{"exponents": [0, 0, 0, 0], "coefficient": {"1": 1}}],
    "denominator_terms": [
        {"exponents": e, "coefficient": {"1": 1}}
        for e in ([0, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2])
    ],
}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inputs)
@example(THIN_ANNULUS)
def test_classify_exits_with_a_contract_code_on_any_json(value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(value), encoding="utf-8")
        argv = ["classify", "--input", str(path), "--units", "1", "--points", "1", "--seed", "0"]
        assert cli.main(argv + ["--max-order", "2"]) in (0, 1, 2)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inputs, st.integers(min_value=1, max_value=3))
def test_decompose_exits_with_a_contract_code_on_any_json(value, order):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(value), encoding="utf-8")
        argv = ["decompose", "--input", str(path), "--order", str(order)]
        assert cli.main(argv) in (0, 1, 2)
