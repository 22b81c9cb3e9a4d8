"""Every public function and class of the package has a caller in the program.

A public name (no leading underscore) defined in a package module must occur
as a whole word in the package modules or the benchmark harness more often
than it is defined there, so a name used only by the tests, or by nothing,
fails here.  ``__init__.py`` is left out on both sides: re-exporting a name is
not a use.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(p for p in (ROOT / "src" / "slicecalc").glob("*.py") if p.name != "__init__.py")
CORPUS = "\n".join(p.read_text() for p in PACKAGE + sorted((ROOT / "benchmarks").glob("*.py")))


def _public_definitions() -> set[str]:
    names = set()
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    names.add(node.name)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = []
    for name in sorted(_public_definitions()):
        uses = len(re.findall(rf"\b{name}\b", CORPUS))
        definitions = len(re.findall(rf"\b(?:def|class)\s+{name}\b", CORPUS))
        if uses <= definitions:
            unused.append(name)
    assert unused == []
