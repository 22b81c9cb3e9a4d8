"""slicecalc benchmark: one workload per run, every metric by name and unit.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Workloads (see workloads.py): verify, global-eval,
global-symbolic, slice-plane.  The seed fixes every input, and --seconds sets
how many items a run issues (about --seconds of work when the benchmark was
defined); the work never depends on the clock.

With ``--trace 0`` the last stdout line holds the end-to-end metrics of
BENCHMARK.json, measured with tracing off.  Times are at reference speed: each
measured interval is scaled by a fixed loop timed around it (speed.py), so the
host's drifting speed does not pass into the figures; the result file keeps
the raw times as well.

* ``wall_s``: time from the first item to the workload's full verdict.
* ``item_p50_ms`` / ``item_tail_ms``: latency of one item (one check-body or
  identity call on one derived seed; for verify, one seed's eight checks).
  The tail is the highest of p90, p75 and p50 that leaves at least ten
  samples beyond it; with fewer than twenty items (verify issues two) it is
  p50.  Percentile and counts are in the result file.
* ``peak_rss_mb``: peak resident set size of the workload process.
* ``setup_s``: interpreter start, ``import slicecalc`` and input generation,
  up to the first timed item; the median over eight fresh processes, half
  started before the measured run and half after it.

``failed_ratio`` (failed trials over attempted ones, a differing verify
report counting as a failed trial) is printed above the last line; the last
line carries it as ``attempted`` and ``failed``.

With ``--trace 1`` the items run untraced, then the first third of them run
again under spans and cProfile (see tracing.py); the last line holds the
per-layer metrics of BENCHMARK.json for that third, and ``trace.overhead`` is
its raw traced time over its raw untraced time.  Each run writes ``benchmarks/results/<workload>-seed<N>-
trace<T>.json`` (and, traced, a ``-spans.jsonl`` file), stamped with the
Python version, CPU model, nproc, git revision, dirty flag and the ``src/``
line count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("verify", "global-eval", "global-symbolic", "slice-plane")
SETUP_PROBES = 8
DEADLINE_S = 170.0
TAIL_LADDER = (90, 75, 50)
TAIL_BEYOND = 10


def percentile(ordered: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks; p50 is the median."""
    pos = pct / 100 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(values: list[float]) -> tuple[int, float, int]:
    """(percentile, value, samples beyond it) for the item tail."""
    ordered = sorted(values)
    for pct in TAIL_LADDER:
        value = percentile(ordered, pct)
        beyond = sum(v > value for v in ordered)
        if beyond >= TAIL_BEYOND or pct == TAIL_LADDER[-1]:
            return pct, value, beyond
    raise AssertionError("unreachable")


def _git(*args: str):
    if not (ROOT / ".git").exists():
        return None
    cmd = ["git", f"--git-dir={ROOT / '.git'}", f"--work-tree={ROOT}", *args]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment() -> dict:
    revision = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "git_revision": revision.strip() if revision else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        # informational, not gated: tracked next to the benchmarks
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((SRC / "slicecalc").glob("*.py"))
        ),
    }


class Worker:
    """A worker process, started and read up to its ``ready`` line."""

    def __init__(self, args, extra: list[str], env: dict):
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
        ]
        if args.tiny:
            cmd.append("--tiny")
        start = perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        line = self.proc.stdout.readline()
        self.setup_s = perf_counter() - start
        if line != "ready\n":
            self.stop()
            raise RuntimeError(f"worker failed during set-up: {line!r}")

    def finish(self, timeout: float) -> str:
        try:
            out, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.stop()
            raise RuntimeError("worker exceeded the run deadline")
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return out

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()


def measure(args) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # same seed, same work: fix set iteration order too
    deadline = perf_counter() + DEADLINE_S
    setups, raw_setups = [], []

    def probe_setup(count: int) -> None:
        # The reference loop runs while no worker is alive: a live one would
        # slow the loop on this 2-CPU host and skew the scale.
        for _ in range(count):
            ref_before = speed.reference_time()
            probe = Worker(args, ["--setup-only"], env)
            probe.finish(deadline - perf_counter())
            raw_setups.append(probe.setup_s)
            setups.append(speed.scaled(probe.setup_s, ref_before, speed.reference_time()))

    # Probes before and after the measuring worker: the machine's speed
    # drifts over seconds, so samples taken at one moment would share it.
    probe_setup(SETUP_PROBES // 2)
    worker = Worker(args, [], env)
    try:
        out = worker.finish(deadline - perf_counter())
    finally:
        worker.stop()
    probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    raw = json.loads(out.strip().splitlines()[-1])
    raw["setup_samples_s"] = setups
    raw["raw_setup_samples_s"] = raw_setups
    return raw


def item_latencies(latencies: list[float], group: int) -> list[float]:
    return [sum(latencies[i:i + group]) for i in range(0, len(latencies), group)]


def end_to_end(raw: dict) -> tuple[dict, dict]:
    latencies_ms = [x * 1000 for x in item_latencies(raw["latencies_s"], raw["group"])]
    pct, tail, beyond = tail_percentile(latencies_ms)
    metrics = {
        "wall_s": sum(raw["latencies_s"]),
        "item_p50_ms": percentile(sorted(latencies_ms), 50),
        "item_tail_ms": tail,
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": statistics.median(raw["setup_samples_s"]),
    }
    info = {
        "items": len(latencies_ms),
        "raw_wall_s": sum(raw["raw_latencies_s"]),
        "raw_setup_s": statistics.median(raw["raw_setup_samples_s"]),
        "item_tail_percentile": pct,
        "item_tail_samples_beyond": beyond,
        "failed_ratio": raw["failed"] / raw["attempted"],
    }
    return metrics, info


def per_layer(raw: dict) -> tuple[dict, dict]:
    traced = raw["traced"]
    metrics = dict(traced["layers"])
    metrics["import_s"] = raw["import_s"]
    metrics["trace.overhead"] = traced["wall_s"] / traced["untraced_wall_s"]
    info = {
        "traced_items": traced["items"],
        "traced_wall_s": traced["wall_s"],
        "untraced_wall_s": traced["untraced_wall_s"],
        "span_self_s": traced["span_self_s"],
        "missing_functions": traced["missing_functions"],
    }
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes (self-test)")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "slicecalc" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no slicecalc sources under {SRC} or no {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        raw = measure(args)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = raw["attempted"]
    failed = raw["failed"]
    metrics, info = end_to_end(raw)
    if args.trace:
        layer_metrics, trace_info = per_layer(raw)
        metrics.update(layer_metrics)
        info.update(trace_info)
        attempted += raw["traced"]["attempted"]
        failed += raw["traced"]["failed"]
        info["failed_ratio"] = failed / attempted
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    stamp = environment()
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": stamp,
        "args": vars(args),
        "metrics": metrics,
        "info": info,
        "attempted": attempted,
        "failed": failed,
        "errors": raw["errors"] + raw.get("traced", {}).get("errors", []),
        "setup_samples_s": raw["setup_samples_s"],
        "raw_setup_samples_s": raw["raw_setup_samples_s"],
        "latencies_s": raw["latencies_s"],
        "raw_latencies_s": raw["raw_latencies_s"],
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        with open(RESULTS / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"environment": stamp, "fields": ["name", "start", "end", "parent", "item"]}) + "\n")
            for span in raw["traced"]["spans"]:
                fh.write(json.dumps(span) + "\n")

    units = {m["name"]: m["unit"] for m in declared}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} items {info['items']}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    print(f"failed_ratio {info['failed_ratio']!r} ratio ({failed} of {attempted} trials)")
    if not args.trace:
        print(
            f"item tail is p{info['item_tail_percentile']} with "
            f"{info['item_tail_samples_beyond']} of {info['items']} samples beyond it"
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
