"""The functions the benchmark's traced run measures still exist.

``benchmarks/tracing.py`` looks its layer functions up by name; a name that no
longer resolves reads 0 in a traced run instead of failing.  This guard turns
a rename of such a function into a test failure.
"""

from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_traced_layer_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    table = tracing.layer_functions()
    assert table
    missing = [name for name, keys in table.items() if None in keys]
    assert missing == []
