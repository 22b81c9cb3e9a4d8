"""Every module-level import of a package or test module is read by that module.

Deleting code, in the package or in a test, can leave an import behind that
nothing reads any more.  The rule covers ``src/slicecalc/*.py`` and
``tests/*.py``.  A name counts as read when the module's syntax tree loads it
anywhere, type annotations included.  ``from __future__`` is left out, since
it binds no name.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "slicecalc"
MODULES = (*sorted(PACKAGE.glob("*.py")), *sorted(TESTS.glob("*.py")))


def unread_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_every_module_level_import_is_read():
    unread = {
        f"{path.parent.name}/{path.name}": names
        for path in MODULES
        for names in [unread_imports(ast.parse(path.read_text()))]
        if names
    }
    assert unread == {}, unread
