"""The package holds no floating point.

A float constant, a use of ``float`` or a call of ``random()`` anywhere in
``slicecalc`` would let rounding into identities that are checked as exact
equalities.  The finite-difference oracle that compares against floats lives
in the tests (``tests/oracles.py``).
"""

import ast
from fractions import Fraction
from pathlib import Path
from random import Random

import slicecalc

PACKAGE = Path(slicecalc.__file__).parent


def _float_uses(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{path.name}:{node.lineno}: constant {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{path.name}:{node.lineno}: name float")
        elif isinstance(node, ast.Attribute) and node.attr == "random":
            # random() returns a float, and so does a bound copy of it
            found.append(f"{path.name}:{node.lineno}: attribute .random")
    return found


def test_exact_modules_use_no_float():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 14
    found = [use for path in modules for use in _float_uses(path)]
    assert found == []


def test_a_planted_float_draw_is_found(tmp_path):
    path = tmp_path / "planted.py"
    path.write_text("def skip(rng):\n    return rng.random() < 0.3\n")
    found = sorted(_float_uses(path))
    assert found == ["planted.py:2: attribute .random", "planted.py:2: constant 0.3"]


def test_the_integer_skip_draw_matches_random_below_three_tenths():
    # rand_holomorphic_stem's integer test reads the same two Mersenne Twister
    # words as random() and gives the same verdict, so the streams stay in step
    for seed in range(100):
        floats, ints = Random(seed), Random(seed)
        for _ in range(200):
            want = floats.random() < Fraction(3, 10)
            got = 10 * (ints.getrandbits(27) * 2**26 + ints.getrandbits(26)) < 3 * 2**53
            assert got == want
            assert floats.randint(-8, 8) == ints.randint(-8, 8)
