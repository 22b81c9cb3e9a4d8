"""Reference-speed time: wall time scaled to a fixed interpreter speed.

On a shared host the interpreter's speed drifts with the neighbours' load: on
a 2-vCPU Xeon VM the same 0.1 s call took anywhere from 0.08 s to 0.19 s within
a few minutes, and 10 s windows of identical work varied by 11% (coefficient
of variation).  Every raw time moves with that drift, so a run's figures
would mostly say how busy the neighbours were.

So the benchmark times a short fixed loop right before and after each measured
interval, and reports the interval scaled by ``REFERENCE_S`` over the mean of
the two loop times: the time the interval would have taken at the speed where
the loop takes ``REFERENCE_S``.  The loop shares no code with slicecalc, so a
change to slicecalc does not move it.  On the host above, scaling cut the
variation of 10 s windows of identical work from 11% to 2%.  Raw times are
kept next to the scaled ones in the result files.
"""

from __future__ import annotations

from itertools import repeat
from time import perf_counter

LOOP_ITERATIONS = 50_000
# The loop's time on that host when it ran at its fastest; scaled figures
# therefore read close to the raw figures of an unloaded machine.
REFERENCE_S = 0.0035


def reference_time() -> float:
    """Seconds the fixed loop takes now.

    Small-integer arithmetic and dict stores: interpreter work that allocates
    nothing.  A loop that allocates (``Fraction`` arithmetic, say) tracked the
    host a little more closely but also sped up or slowed down with the heap
    the measured items left behind, which would let a change to slicecalc's
    memory use move the scale.
    """
    table = {}
    acc = 0
    start = perf_counter()
    for _ in repeat(None, LOOP_ITERATIONS):
        acc = (acc * 7 + 3) & 255
        table[acc] = acc
    return perf_counter() - start


def scaled(elapsed: float, ref_before: float, ref_after: float) -> float:
    """``elapsed`` at reference speed, from the loop times around it."""
    return elapsed * REFERENCE_S * 2 / (ref_before + ref_after)
