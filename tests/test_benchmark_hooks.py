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


def test_every_check_has_its_own_timing_key(monkeypatch):
    # campaign.<id>.wall_s is keyed by the code object of the check's table value,
    # so checks sharing one function would all read the same time
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing
    from slicecalc.campaign import CHECKS

    table = tracing.layer_functions()
    keys = [tuple(keys) for name, keys in table.items() if name.startswith("campaign.")]
    assert len(keys) == len(CHECKS)
    assert len(set(keys)) == len(keys)
