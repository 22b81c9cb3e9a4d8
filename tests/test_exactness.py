"""The package holds no floating point.

A float constant or a use of ``float`` anywhere in ``slicecalc`` would let
rounding into identities that are checked as exact equalities.  The
finite-difference oracle that compares against floats lives in the tests
(``tests/oracles.py``).
"""

import ast
from pathlib import Path

import slicecalc

PACKAGE = Path(slicecalc.__file__).parent


def _float_uses(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{path.name}:{node.lineno}: constant {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{path.name}:{node.lineno}: name float")
    return found


def test_exact_modules_use_no_float():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 14
    found = [use for path in modules for use in _float_uses(path)]
    assert found == []
