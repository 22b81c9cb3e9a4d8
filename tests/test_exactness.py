"""The exact kernel holds no floating point.

Floats belong to the finite-difference oracle in ``operators`` and nowhere in
the modules below; a float constant or a use of ``float`` there would let
rounding into identities that are checked as exact equalities.
"""

import ast
from pathlib import Path

import slicecalc

PACKAGE = Path(slicecalc.__file__).parent
EXACT_MODULES = ("algebra", "multipoly", "stem", "slicefn", "polyanalytic")


def _float_uses(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{path.name}:{node.lineno}: constant {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{path.name}:{node.lineno}: name float")
    return found


def test_exact_modules_use_no_float():
    found = [use for name in EXACT_MODULES for use in _float_uses(PACKAGE / f"{name}.py")]
    assert found == []
