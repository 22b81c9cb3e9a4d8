"""Smoke self-test of the benchmark at tiny sizes.

    python3 -m pytest -q benchmarks/test_benchmark.py

Checks that every declared metric is printed with its unit on every workload,
traced and untraced, that an altered verify report counts as failed, and that
the benchmark refuses to run without the slicecalc sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        assert any(
            line.startswith(f"{metric['name']} ") and line.endswith(f" {metric['unit']}")
            for line in lines[:-1]
        )
    assert any(line.startswith("failed_ratio 0.0 ratio") for line in lines)


def test_altered_verify_report_counts_as_failed():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    argv = ["--seed", "5", *workloads.VERIFY_TINY]
    code, report = workloads.run_verify(argv)
    assert code == 0
    trials, failures = workloads.report_counts(code, report)
    assert trials > 0 and failures == 0
    again = workloads.run_verify(argv)[1]
    assert workloads.compare_reports([report, again]) == (1, 0)
    altered = report.replace(b'"passed": true', b'"passed": false', 1)
    assert altered != report
    assert workloads.compare_reports([report, again, altered]) == (2, 1)


def test_refuses_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
        done = _run(WORKLOADS[0], 0, cwd=bare, script=bare / HERE.name / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip()
