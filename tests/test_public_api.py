"""Every public function, class and method of the package is reached by the program.

The test parses the package and the benchmark harness and follows references
outward from the program's entry points: ``cli.main``, the module-level
statements of every package module, and all of ``benchmarks/*.py``, including
the ``(module, "Dotted.name")`` pairs that ``tracing.layer_functions`` looks up.

* A function or class is reached when a reached body names it: directly, through
  an import, or as an attribute of its module.
* A method is reached only through attribute access: its class is reached and a
  reached body reads an attribute of that name.  Dunder methods come with their
  class, since Python calls them implicitly.
* Type annotations are not uses.

A public name the program never reaches is used only by the tests, or by
nothing, and fails here.

Operator overloads (``__add__``, ``__mul__``, ``__eq__`` and the like) and
``__hash__`` are called through operator syntax or by sets and dicts, which the
parse cannot tie to a class, so they are
checked at run time: ``cli.main`` runs a small ``verify``, ``classify`` on every
builtin and on an annulus spec, and ``decompose`` under ``sys.setprofile``, and
an overload that a package class defines and that run never calls fails.

Dataclass fields are checked on the same run, since the parse cannot tell which
class a receiver such as ``config`` or ``verdict`` belongs to: each package
dataclass records the reads that package code makes on its instances, and a
public field the parse finds but the run never reads on its own class fails.
The program fills such a field and never looks at it.  Reads made by
``dataclasses`` helpers and by the generated ``__eq__``, ``__hash__`` and
``__repr__`` do not count.
"""

import ast
import contextlib
import copy
import dataclasses
import importlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from slicecalc import algebra, cli, multipoly
from slicecalc.named import BUILTINS

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "slicecalc"
MODULES = {p.stem: ast.parse(p.read_text()) for p in SOURCE.glob("*.py")}
HARNESS = [ast.parse(p.read_text()) for p in sorted((ROOT / "benchmarks").glob("*.py"))]
PACKAGE = "slicecalc"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _uses(*nodes):
    """Every node under ``nodes``, type annotations left out."""
    stack = [n for n in nodes if n is not None]
    while stack:
        node = stack.pop()
        yield node
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    stack.append(child)


def _header(node):
    """What a def or class statement evaluates where it stands: decorators,
    defaults and bases, not the body."""
    if isinstance(node, ast.ClassDef):
        return [*node.decorator_list, *node.bases, *node.keywords]
    return [*node.decorator_list, *node.args.defaults, *node.args.kw_defaults]


def _body_uses(statements):
    """Uses made by running ``statements`` as a module or class body."""
    for stmt in statements:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield from _uses(*_header(stmt))
        else:
            yield from _uses(stmt)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        (isinstance(d, ast.Name) and d.id == "dataclass")
        or (isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass")
        for d in node.decorator_list
    )


class Program:
    def __init__(self, modules=MODULES):
        # (module, name) of every top-level def and class; (module, "Class.name") of
        # methods, and of the fields of dataclasses
        self.modules = modules
        self.defs = {}
        self.methods = {}
        self.fields = set()
        for mod, tree in modules.items():
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    self.defs[(mod, node.name)] = node
                if isinstance(node, ast.ClassDef):
                    for member in node.body:
                        if isinstance(member, ast.FunctionDef):
                            self.methods[(mod, f"{node.name}.{member.name}")] = member
                        if (
                            _is_dataclass(node)
                            and isinstance(member, ast.AnnAssign)
                            and isinstance(member.target, ast.Name)
                        ):
                            self.fields.add((mod, f"{node.name}.{member.target.id}"))
        self.imports = {id(tree): self._imports(tree) for tree in [*modules.values(), *HARNESS]}
        self.reached: set = set()
        self.attrs: set = set()

    @staticmethod
    def _imports(tree):
        """Local name -> what it imports from the package: ("package",) for the
        package itself, ("package_attr", name) for a name read off the package,
        ("name", m, name) for a name read off module m."""
        table = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == PACKAGE:
                        table[alias.asname or PACKAGE] = ("package",)
            elif isinstance(node, ast.ImportFrom):
                if node.level == 1:
                    mod = node.module
                elif node.level == 0 and (node.module or "").split(".")[0] == PACKAGE:
                    mod = node.module.partition(".")[2] or None
                else:
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    if mod is None:
                        table[local] = ("package_attr", alias.name)
                    else:
                        table[local] = ("name", mod, alias.name)
        return table

    def _target(self, node, tree, mod):
        """What an expression names: ("module", m), ("name", m, name) or None."""
        if isinstance(node, ast.Name):
            entry = self.imports[id(tree)].get(node.id)
            if entry is None:
                return ("name", mod, node.id) if (mod, node.id) in self.defs else None
            return self._resolve(entry)
        if isinstance(node, ast.Attribute):
            base = self._target(node.value, tree, mod)
            if base and base[0] == "module":
                return self._resolve(("name", base[1], node.attr))
            if base and base[0] == "package":
                return self._resolve(("package_attr", node.attr))
        return None

    def _resolve(self, entry):
        """Follow re-exports: a name imported into a module resolves to its definition."""
        kind = entry[0]
        if kind == "package_attr":
            return ("module", entry[1]) if entry[1] in self.modules else None
        if kind == "name":
            _, mod, name = entry
            if (mod, name) in self.defs:
                return entry
            forwarded = (
                self.imports[id(self.modules[mod])].get(name) if mod in self.modules else None
            )
            return self._resolve(forwarded) if forwarded else None
        return entry

    def visit(self, nodes, tree, mod):
        """Record what ``nodes`` name and which attributes they read."""
        for node in nodes:
            if isinstance(node, ast.Attribute):
                self.attrs.add(node.attr)
            # a (module, "Class.method") pair, looked up with getattr by the tracer
            if isinstance(node, ast.Tuple) and len(node.elts) == 2:
                base, dotted = self._target(node.elts[0], tree, mod), node.elts[1]
                if base and base[0] == "module" and isinstance(dotted, ast.Constant):
                    first, *rest = str(dotted.value).split(".")
                    self._reach(self._resolve(("name", base[1], first)))
                    self.attrs.update(rest)
            if isinstance(node, (ast.Name, ast.Attribute)):
                self._reach(self._target(node, tree, mod))

    def _reach(self, target):
        if target and target[0] == "name":
            self.reached.add(target[1:])

    def run(self):
        for tree in HARNESS:
            self.visit(_uses(tree), tree, None)
        for mod, tree in self.modules.items():
            self.visit(_body_uses(tree.body), tree, mod)
        self.reached.add(("cli", "main"))
        scanned = set()
        while True:
            todo = {key for key in self.reached if key not in scanned}
            for mod, qual in self.methods:
                cls, _, name = qual.partition(".")
                if (mod, cls) in self.reached and (_is_dunder(name) or name in self.attrs):
                    todo.add((mod, qual))
            todo -= scanned
            if not todo:
                return
            for mod, qual in todo:
                scanned.add((mod, qual))
                self.reached.add((mod, qual))
                node = self.defs.get((mod, qual)) or self.methods[(mod, qual)]
                if isinstance(node, ast.ClassDef):
                    # the class header ran with its module; a reached class adds its body
                    self.visit(_body_uses(node.body), self.modules[mod], mod)
                else:
                    self.visit(_uses(node), self.modules[mod], mod)

    def unreached(self) -> list[str]:
        public = [*self.defs, *self.methods]
        return sorted(
            f"{mod}.{qual}"
            for mod, qual in public
            if not qual.rpartition(".")[2].startswith("_") and (mod, qual) not in self.reached
        )

    def unread_fields(self, reads) -> list[str]:
        """The public fields whose (module, "Class.field") is not in ``reads``."""
        return sorted(
            f"{mod}.{qual}"
            for mod, qual in self.fields - reads
            if not qual.rpartition(".")[2].startswith("_")
        )


def test_every_public_name_has_a_caller_outside_the_tests():
    program = Program()
    program.run()
    unreached = program.unreached()
    assert unreached == [], "reached from no entry point: " + ", ".join(unreached)


def test_every_dataclass_field_is_read(program_runs):
    program = Program()
    assert ("campaign", "CampaignConfig.seed") in program.fields
    unread = program.unread_fields(program_runs.reads)
    assert unread == [], "fields the program never reads: " + ", ".join(unread)


def test_an_unread_dataclass_field_fails(program_runs):
    # ``signature`` is a field name the program reads on other classes; read on
    # no ClassificationReport, it fails like a name read nowhere
    modules = dict(MODULES)
    tree = modules["polyanalytic"] = copy.deepcopy(MODULES["polyanalytic"])
    report = next(
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "ClassificationReport"
    )
    report.body += ast.parse("probe: int = 0\nsignature: int = 0").body
    assert Program(modules).unread_fields(program_runs.reads) == [
        "polyanalytic.ClassificationReport.probe",
        "polyanalytic.ClassificationReport.signature",
    ]


OPERATORS = (
    "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__truediv__", "__pow__", "__eq__",
    "__hash__",
)

# Small runs of every command; together they call each operator the program uses.
PROGRAM_RUNS = [
    ["verify", "--seed", "0", "--units", "2", "--points", "1", "--max-order", "2"],
    *(["classify", "--input", name] for name in BUILTINS),
    *(["decompose", "--order", "2", "--input", name] for name in ("x", "xbar")),
]


# An annulus domain, so that the run reads the annulus fields of CircularDomain.
ANNULUS_SPEC = {
    "representation": "stem",
    "domain": {"shape": "annulus", "center": 0, "r_in": "1/2", "r_out": 2},
    "f1_terms": [{"exponents": [1, 0], "coefficient": {"1": 1}}],
    "f2_terms": [{"exponents": [0, 1], "coefficient": {"1": 1}}],
}


def package_classes():
    """(module name, class) for every class a package module defines."""
    for mod in sorted(MODULES.keys() - {"__main__"}):
        module = importlib.import_module(f"{PACKAGE}.{mod}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                yield mod, cls


def _read_recorder(mod, cls, reads):
    """A ``__getattribute__`` for the dataclass ``cls`` that adds each field read
    made by package code to ``reads`` as (module, "Class.field")."""
    names = {f.name for f in dataclasses.fields(cls)}
    source = str(SOURCE)

    def getattribute(self, name):
        if name in names and sys._getframe(1).f_code.co_filename.startswith(source):
            reads.add((mod, f"{cls.__name__}.{name}"))
        return object.__getattribute__(self, name)

    return getattribute


@pytest.fixture(scope="module")
def program_runs(tmp_path_factory):
    """What PROGRAM_RUNS and a classify of ANNULUS_SPEC do: the code objects of
    every Python function they call (``called``) and the dataclass fields that
    package code reads (``reads``)."""
    spec = tmp_path_factory.mktemp("spec") / "annulus.json"
    spec.write_text(json.dumps(ANNULUS_SPEC), encoding="utf-8")
    runs = [*PROGRAM_RUNS, ["classify", "--input", str(spec)]]
    called, reads = set(), set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    with pytest.MonkeyPatch.context() as patch:
        # one usable CPU: verify runs every signature in this process, under the hook
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        for mod, cls in package_classes():
            if dataclasses.is_dataclass(cls):
                patch.setattr(cls, "__getattribute__", _read_recorder(mod, cls, reads))
        sys.setprofile(record)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                codes = [cli.main(argv) for argv in runs]
        finally:
            sys.setprofile(previous)
    assert codes == [0] * len(runs)
    return SimpleNamespace(called=called, reads=reads)


def uncalled_operators(called) -> list[str]:
    """The operator overloads that package classes define and ``called`` lacks."""
    out = []
    for mod, cls in package_classes():
        for op in OPERATORS:
            code = getattr(cls.__dict__.get(op), "__code__", None)
            # dataclass-made methods are compiled from a string, not written in the package
            if code is not None and code.co_filename != "<string>" and code not in called:
                out.append(f"{mod}.{cls.__name__}.{op}")
    return sorted(out)


def test_every_operator_overload_is_called_by_the_program(program_runs):
    assert uncalled_operators(program_runs.called) == []


def test_an_operator_overload_only_the_tests_call_fails(program_runs, monkeypatch):
    def truediv(self, other):
        return self * Fraction(1, other)

    def rmul(self, other):
        return self * other

    monkeypatch.setattr(algebra.AlgebraElement, "__truediv__", truediv, raising=False)
    monkeypatch.setattr(multipoly.CoordPoly, "__rmul__", rmul, raising=False)
    assert uncalled_operators(program_runs.called) == [
        "algebra.AlgebraElement.__truediv__",
        "multipoly.CoordPoly.__rmul__",
    ]


def test_importing_the_package_loads_no_module(child_env):
    code = (
        "import sys, slicecalc; "
        "print(sorted(m for m in sys.modules if m.startswith('slicecalc.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env, check=True
    )
    assert proc.stdout == "[]\n"
