#!/usr/bin/env python3
"""hopfkit benchmark: seeded request streams in a closed loop.

Run from the repository root:

    python3 benchmarks/run.py --workload calculus --seed 1 --seconds 15 --trace 0

One process is one client.  It sends the requests of a seeded stream one
after another, each as soon as the previous one has returned, on one thread.
Each request goes through hopfkit's public API as a user would call it; CLI
requests include parsing the JSON config and rendering the report.  Requests
are timed one by one; the client's own work between requests (building
inputs, digesting outputs) is not part of any measured time.

Every time this script reports is scaled to a reference speed of the
machine, read between requests from a fixed pure-Python loop (``speed.py``):
on a shared processor that speed swings by a quarter within seconds, more
than the bounds the benchmark sets.  The unscaled busy time is printed too.
``setup_s`` is the median of SETUP_REPEATS cold starts, each in a fresh
interpreter (``coldstart.py``).

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs a fixed prefix of the stream twice, untraced and then
with per-layer wrappers installed, and reports the per-layer metrics; the
spans go to ``benchmarks/out/``.  ``--smoke`` shrinks every size class to
its smallest value.

Outputs are judged by the oracles in ``oracles.py`` after the timed phase.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The program's sources are imported from ``src/`` of the checkout
the script lives in; without them the run fails with exit code 2.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from speed import REFERENCE_NS, reference_ns  # noqa: E402
from workloads import WORKLOADS, execute, summarize  # noqa: E402

SETUP_REPEATS = 9
# At least 100 samples, so that 10 lie beyond the 90th percentile.
MIN_REQUESTS = 100
OUT = HERE / "out"


def with_units(values: dict, section: str) -> dict:
    """Attach the units BENCHMARK.json declares; every declared metric must be measured."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)}, but BENCHMARK.json declares {sorted(units)}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def import_program():
    """Import hopfkit (and its CLI module) from this checkout's sources."""
    hk = importlib.import_module("hopfkit")
    importlib.import_module("hopfkit.cli")
    if not Path(hk.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"hopfkit was imported from {hk.__file__}, not from {SRC}")
    return hk


def setup_seconds(workload) -> float:
    """Median scaled time of SETUP_REPEATS cold starts, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "coldstart.py"), str(SRC), workload.name],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


class Run:
    """Latencies, output facts and the report digest of one pass over a stream.

    Each request is timed between two passes of the reference loop, and
    ``latencies_ns`` holds its wall time scaled to the reference speed (see
    ``speed.py``); ``wall_ns`` holds the unscaled total.
    """

    def __init__(self):
        self.records: list[tuple[int, int, str, tuple]] = []  # (round, position, stratum, facts)
        self.latencies_ns: list[float] = []
        self.wall_ns = 0
        self._digest = hashlib.sha256()
        self._reference = None

    def serve(self, hk, workload, r, tracer=None):
        if self._reference is None:
            self._reference = reference_ns()
        for position, request in enumerate(workload.round(r)):
            if tracer is not None:
                tracer.request = len(self.latencies_ns)
            start = time.perf_counter_ns()
            try:
                result, text = execute(hk, request)
            except Exception as exc:  # judged by the oracle: some requests must fail
                result, text = exc, f"{type(exc).__name__}: {exc}"
                if request.expect[:1] != ("error",):
                    traceback.print_exc(file=sys.stderr)
            wall = time.perf_counter_ns() - start
            reference = reference_ns()
            self.latencies_ns.append(wall * 2 * REFERENCE_NS / (self._reference + reference))
            self.wall_ns += wall
            self._reference = reference
            if len(self.latencies_ns) <= MIN_REQUESTS:
                self._digest.update(text.encode("utf-8") + b"\0")
            self.records.append((r, position, request.stratum, summarize(request, result, text)))

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    @property
    def busy_s(self) -> float:
        return sum(self.latencies_ns) / 1e9


def rounds_for_prefix(workload) -> int:
    """Whole rounds that hold at least MIN_REQUESTS requests."""
    return -(-MIN_REQUESTS // len(workload.round(0)))


def timed_loop(hk, workload, seconds: float) -> Run:
    """Serve whole rounds until ``seconds`` have passed and MIN_REQUESTS are done."""
    run = Run()
    start = time.perf_counter()
    r = 0
    while time.perf_counter() - start < seconds or len(run.latencies_ns) < MIN_REQUESTS:
        run.serve(hk, workload, r)
        r += 1
    return run


def judge(workload, runs) -> tuple[int, int]:
    """Check every served request against its oracle; return (attempted, failed)."""
    from oracles import Oracle

    oracle = Oracle()
    attempted = failed = 0
    cache: dict[int, list] = {}
    for run in runs:
        for r, position, stratum, facts in run.records:
            if r not in cache:
                cache = {r: workload.round(r)}
            request = cache[r][position]
            if request.stratum != stratum:
                raise RuntimeError("regenerated stream differs from the served one")
            attempted += 1
            if not oracle.check(request, facts):
                failed += 1
                print(f"oracle failure: round {r} {stratum} {request.command}: {facts}", file=sys.stderr)
    return attempted, failed


def end_to_end(hk, workload, seconds, setup_s):
    run = timed_loop(hk, workload, seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = judge(workload, [run])
    latencies_ms = [ns / 1e6 for ns in run.latencies_ns]
    values = {
        "throughput_rps": len(latencies_ms) / run.busy_s,
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p90_ms": statistics.quantiles(latencies_ms, n=10)[8],
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib,
        # the share that passed; its complement, the failed share, is 0 on a
        # correct run and so cannot carry a bound relative to its median
        "ok_ratio": (attempted - failed) / attempted,
    }
    beyond = sum(1 for v in latencies_ms if v > values["latency_p90_ms"])
    print(f"samples: {len(latencies_ms)} requests, {beyond} beyond the 90th percentile")
    print(f"busy: {run.busy_s:.3f} s at the reference speed, {run.wall_ns / 1e9:.3f} s of wall time")
    return run, attempted, failed, with_units(values, "end_to_end")


def per_layer(hk, workload, seed):
    from tracing import Tracer

    rounds = rounds_for_prefix(workload)
    untraced = Run()
    for r in range(rounds):
        untraced.serve(hk, workload, r)
    tracer = Tracer()
    traced = Run()
    tracer.install()
    try:
        for r in range(rounds):
            traced.serve(hk, workload, r, tracer)
    finally:
        tracer.uninstall()
    if traced.digest != untraced.digest:
        print("traced and untraced reports differ", file=sys.stderr)
    attempted, failed = judge(workload, [untraced, traced])
    failed += traced.digest != untraced.digest
    tracer.write(OUT / f"spans-{workload.name}-seed{seed}.tsv.gz")

    counts = tracer.counts
    values = {}
    for layer, (calls, self_s) in tracer.layer_totals().items():
        values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = self_s
    for key in (
        "polynomials.mul_term_pairs",
        "forms.wedge_term_pairs",
        "rationals.ops",
        "rationals.div_ops",
        "rationals.parse_calls",
        "elimination.matrix_cells",
        "elimination.gcd_remainders",
        "sections.basis_entries",
        "cli.render_bytes",
    ):
        values[key] = counts[key]
    checks = counts["classify.checks"]
    values["classify.decided_ratio"] = counts["classify.decided"] / checks if checks else 0.0
    values["trace.overhead_ratio"] = traced.busy_s / untraced.busy_s
    print(f"traced pass: {rounds} rounds, {len(traced.latencies_ns)} requests, {tracer.span_count} spans")
    return traced, attempted, failed, with_units(values, "per_layer")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "hopfkit" / "__init__.py").is_file():
        print(f"error: hopfkit sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    sys.path.insert(0, str(SRC))
    hk = import_program()
    for request in workload.warmup():
        execute(hk, request)
    gc.collect()
    if args.trace:
        run, attempted, failed, metrics = per_layer(hk, workload, args.seed)
    else:
        run, attempted, failed, metrics = end_to_end(hk, workload, args.seconds, setup_seconds(workload))
    print(f"digest: sha256 {run.digest} over the first {MIN_REQUESTS} reports of {args.workload} seed {args.seed}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
