"""One cold start of hopfkit, in a fresh interpreter.

    python3 benchmarks/coldstart.py SRC WORKLOAD

Times ``import hopfkit`` and ``import hopfkit.cli`` from the sources under
SRC, then the warm-up requests of WORKLOAD: what a user waits for before
the first real request.  Building the warm-up requests is not timed.  Only
``sys`` and the speed probe are imported before the clock starts, so the
import time includes every module hopfkit pulls in.  Prints the set-up time
in seconds, scaled to the reference speed (see ``speed.py``).
"""

import sys

from speed import REFERENCE_NS, perf_counter_ns, reference_ns


def main() -> int:
    src, workload = sys.argv[1], sys.argv[2]
    before = reference_ns()
    sys.path.insert(0, src)
    start = perf_counter_ns()
    import hopfkit
    import hopfkit.cli  # noqa: F401
    busy = perf_counter_ns() - start

    from workloads import WORKLOADS, execute

    warmup = WORKLOADS[workload](0).warmup()
    start = perf_counter_ns()
    for request in warmup:
        execute(hopfkit, request)
    busy += perf_counter_ns() - start
    after = reference_ns()
    print(busy * 2 * REFERENCE_NS / (before + after) / 1e9)
    return 0


if __name__ == "__main__":
    sys.exit(main())
