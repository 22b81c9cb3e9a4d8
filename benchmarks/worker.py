"""One workload in a fresh single-threaded process; started by run.py.

Prints ``ready`` once slicecalc is imported and the inputs are built, so the
parent can time set-up from process start.  Then runs every item once with
tracing off; with ``--trace 1`` it runs the first third again under spans and
cProfile.  The last stdout line is a JSON object of raw measurements.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S
        [--trace 0|1] [--setup-only] [--tiny]
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from time import perf_counter

_t_start = perf_counter()
import slicecalc  # noqa: E402  (timed: import_s)

IMPORT_S = perf_counter() - _t_start

import cProfile  # noqa: E402
import resource  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TRACE_SHARE = 3


def run_items(workload, tracer) -> dict:
    """Each item once, in order; an exception is one failed trial, not an abort.

    Each item is bracketed by the reference loop, and its latency is kept both
    raw and at reference speed (see speed.py).
    """
    raw, scaled = [], []
    attempted = failed = 0
    errors = []
    ref_before = speed.reference_time()
    for index, item in enumerate(workload.items):
        tracer.item_id = index
        start = perf_counter()
        try:
            trials, failures = item(tracer)
        except Exception:  # a crashing identity is a failed trial
            trials, failures = 1, 1
            errors.append(traceback.format_exc(limit=4))
        elapsed = perf_counter() - start
        ref_after = speed.reference_time()
        raw.append(elapsed)
        scaled.append(speed.scaled(elapsed, ref_before, ref_after))
        ref_before = ref_after
        attempted += trials
        failed += failures
    return {
        "raw_latencies_s": raw,
        "latencies_s": scaled,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }


def traced_pass(args, untraced_raw: list[float]) -> dict:
    """Rebuild the inputs and run the first items again under spans and cProfile.

    Only the first 1/TRACE_SHARE of the items (at least one item group) are
    traced, which keeps a traced run within about twice an untraced one.
    Times here are raw: the profiler slows the reference loop too, so scaled
    times would hide part of its cost.
    """
    tracer = tracing.Tracer()
    profile = cProfile.Profile(builtins=False)
    profile.enable()
    with tracer.span("setup.inputs"):
        workload = workloads.build(args.workload, args.seed, args.seconds, args.tiny)
    groups = len(untraced_raw) // workload.group
    count = -(-groups // TRACE_SHARE) * workload.group
    workload.items = workload.items[:count]
    result = run_items(workload, tracer)
    profile.disable()
    profile.create_stats()
    layers, missing = tracing.profile_layers(profile.stats)
    kept = tracer.kept or workload.swell_exprs(count)
    layers.update(tracing.swell(kept, workloads.coord_s))
    tracer.item_id = None
    return {
        "items": count,
        "wall_s": sum(result["raw_latencies_s"]),
        "untraced_wall_s": sum(untraced_raw[:count]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "errors": result["errors"],
        "layers": layers,
        "missing_functions": missing,
        "span_self_s": tracer.self_times(),
        "spans": tracer.spans,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    out = sys.stdout
    workload = workloads.build(args.workload, args.seed, args.seconds, args.tiny)
    out.write("ready\n")
    out.flush()
    if args.setup_only:
        return 0

    before = workload.gate_before()
    result = run_items(workload, tracing.NullTracer())
    after = workload.gate_after()
    result["attempted"] += before[0] + after[0]
    result["failed"] += before[1] + after[1]
    result["group"] = workload.group
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["import_s"] = IMPORT_S
    if args.trace:
        result["traced"] = traced_pass(args, result["raw_latencies_s"])
    out.write(json.dumps(result) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
