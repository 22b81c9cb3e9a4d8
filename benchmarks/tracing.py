"""Spans and per-layer figures for the traced benchmark run.

Two sources, both active only when ``--trace 1``:

* Spans, recorded by the benchmark around every call it makes into a public
  slicecalc function (name, start, end, parent span, item id).  They are kept
  in memory and written out when the run ends; a span's self time is its
  duration minus the time its child spans cover.
* A cProfile hook over the whole traced pass.  It gives self time and exact
  call counts per module for the kernel layers (``fractions``, ``algebra``,
  ``multipoly``) that other layers call, and inclusive busy time for the
  functions named in ``layer_functions`` and the modules in ``BUSY_MODULES``.

"Busy" is inclusive time: for a function, cProfile's cumulative time; for a
module, the cumulative time of calls that enter the module from outside it.
Self time follows cProfile with builtins off, so a builtin such as
``math.gcd`` counts toward the Python function that called it.
"""

from __future__ import annotations

import contextlib
from pathlib import Path
from time import perf_counter

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracer used in untraced passes: every hook is a no-op."""

    item_id = None

    def span(self, name: str):
        return _NULL

    def keep(self, expr) -> None:
        pass


class Tracer:
    """Records spans in memory and keeps thetabar results for swell figures."""

    def __init__(self):
        self.spans: list[list] = []
        self.kept: list = []
        self.item_id = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), None, parent, self.item_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = perf_counter()

    def keep(self, expr) -> None:
        self.kept.append(expr)

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus time covered by children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out


def _module_of(filename: str):
    path = Path(filename)
    if path.parent.name == "slicecalc":
        return path.stem
    if path.name == "fractions.py":
        return "fractions"
    return None


def _code_key(fn):
    code = getattr(fn, "__code__", None)
    return code and (code.co_filename, code.co_firstlineno, code.co_name)


def _lookup(module, dotted: str):
    obj = module
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
    return obj


def layer_functions() -> dict[str, list]:
    """Metric name prefix -> cProfile keys of the functions it measures.

    Looked up on the live modules; a name that no longer resolves yields no
    key, so its figures read 0 and ``missing_functions`` lists it.
    """
    from slicecalc import algebra, campaign, multipoly, operators

    table = {
        "multipoly.eval": [(multipoly, "CoordPoly.eval")],
        "algebra.mul": [(algebra, "AlgebraElement.__mul__")],
        "multipoly.partial": [(multipoly, "CoordPoly.partial")],
        "multipoly.rf_eq": [(multipoly, "RationalFn.__eq__")],
        "operators.thetabar": [(operators, "thetabar")],
        "operators.g_op": [(operators, "g_op")],
        "operators.restrict": [
            (operators, "restrict_to_slice"),
            (operators, "restrict_slice_function"),
        ],
        "operators.plane_dbar": [(operators, "SlicePlanePoly.dbar")],
    }
    for check_id, fn in campaign.CHECKS.items():
        table[f"campaign.{check_id}"] = [fn]
    out = {}
    for name, targets in table.items():
        fns = [t if callable(t) else _lookup(*t) for t in targets]
        out[name] = [_code_key(fn) if fn is not None else None for fn in fns]
    return out


SELF_MODULES = ("fractions", "algebra", "multipoly")
BUSY_MODULES = ("stem", "polyanalytic", "slicefn", "serialize", "cli", "sampling")


def profile_layers(stats: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer figures from ``cProfile.Profile.stats`` of one traced pass,
    and the layer names whose functions no longer resolve."""
    out: dict[str, float] = {}
    self_s = dict.fromkeys(SELF_MODULES, 0.0)
    calls = dict.fromkeys(SELF_MODULES, 0)
    busy = dict.fromkeys(BUSY_MODULES, 0.0)
    for key, (_, ncalls, tottime, _, callers) in stats.items():
        module = _module_of(key[0])
        if module in self_s:
            self_s[module] += tottime
            calls[module] += ncalls
        if module in busy:
            for caller, edge in callers.items():
                if _module_of(caller[0]) != module:
                    busy[module] += edge[3]
    for module in SELF_MODULES:
        out[f"{module}.self_s"] = self_s[module]
    out["fractions.calls"] = calls["fractions"]
    for module in BUSY_MODULES:
        out[f"{module}.busy_s"] = busy[module]
    missing = []
    for name, keys in layer_functions().items():
        missing += [name] * keys.count(None)
        entries = [stats[k] for k in keys if k in stats]
        if name.startswith("campaign."):
            out[f"{name}.wall_s"] = sum(e[3] for e in entries)
            continue
        out[f"{name}.busy_s"] = sum(e[3] for e in entries)
        out[f"{name}.calls"] = sum(e[1] for e in entries)
    return out, missing


def swell(exprs, s_factor) -> dict[str, int]:
    """Expression-size figures over thetabar results, read from public fields.

    ``numer_terms`` is the total numerator term count over all results; the
    others are maxima: coefficient bit length (numerator or denominator of any
    rational in the numerator or the denominator factors), exponent of
    s = |Im x|^2 among the denominator factors, and numerator total degree.
    """
    terms = bits = s_exp = degree = 0
    for expr in exprs:
        numer = expr.numer
        terms += len(numer.terms)
        degree = max(degree, numer.total_degree())
        polys = [numer] + [p for p, _ in expr.den_factors]
        for poly in polys:
            for coeff in poly.terms.values():
                for q in coeff.coeffs.values():
                    bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
        for p, k in expr.den_factors:
            if p == s_factor(p.signature):
                s_exp = max(s_exp, k)
    return {
        "operators.thetabar.numer_terms": terms,
        "operators.thetabar.coeff_bits": bits,
        "operators.thetabar.s_exp": s_exp,
        "operators.thetabar.degree": degree,
    }
