"""The machine's current speed, read from a fixed pure-Python loop.

On a virtual machine that shares its processor with other tenants (2 vCPUs,
x86_64) a fixed pure-Python loop ran up to 25% faster or slower from one
second to the next, more than the bounds the benchmark sets.  Every request is timed between two passes of the reference loop
below, and its wall time is scaled by ``REFERENCE_NS`` over the mean of the
two passes: the time the request would have taken had the loop run in
exactly one millisecond (``ITERATIONS`` is sized so that it takes about
that long on that machine).  The loop uses builtins only, allocates no
container and so never starts the garbage collector, and shares no code
with hopfkit.

This module imports nothing but ``time``, so that a cold start can read the
speed before hopfkit and its dependencies are imported.
"""

from time import perf_counter_ns

REFERENCE_NS = 1_000_000
ITERATIONS = 5_000
_TABLE = tuple((i * 7919) % 1009 for i in range(1024))


def _step(x: int, y: int) -> int:
    return (x * 31 + y) % 1_000_003


def reference_ns() -> int:
    """Wall time of one pass of the reference loop, in nanoseconds."""
    table, step, x = _TABLE, _step, 1
    start = perf_counter_ns()
    for i in range(ITERATIONS):
        x = step(x, table[i & 1023])
    return perf_counter_ns() - start
