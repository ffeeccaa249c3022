#!/usr/bin/env python3
"""One-shot reference timings of single hopfkit operations.

Not a workload and not gated.  It times the operations whose hand timings
the roadmap lists, plus the slow cases the request streams leave out, and
writes the table to ``benchmarks/reference.json``:

    python3 benchmarks/reference.py

Each case is timed ``repeats`` times on inputs drawn from a fixed seed and
the median is reported next to the roadmap's figure.  Inputs are dense
(every monomial present) unless the case says otherwise.
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from gauss import monomials  # noqa: E402
from workloads import Nonsingularity, execute, random_coeff  # noqa: E402


def _poly(hk, n, data):
    return hk.Polynomial(n, {e: hk.GaussianRational(*c) for e, c in data.items()})


def _dense(hk, rng, n, degree, terms=None):
    monos = monomials(n, degree)
    chosen = rng.sample(monos, terms) if terms else monos
    return _poly(hk, n, {e: random_coeff(rng) for e in chosen})


def _form(hk, rng, n, degree, terms=None):
    return hk.DifferentialForm.from_components([_dense(hk, rng, n, degree, terms) for _ in range(n)])


def cases(hk):
    """(name, roadmap figure, repeats, thunk) for every reference case."""
    from hopfkit.cli import render_json, run_command
    from hopfkit.elimination import ternary_forms_have_common_zero

    rng = random.Random("reference")
    out = []
    for n, degree, terms, figure in ((4, 4, None, "68 ms"), (5, 5, None, "0.98 s"), (6, 4, 60, "3.06 s")):
        omega = _form(hk, rng, n, degree, terms)
        shape = f"{terms} terms per component" if terms else "dense"
        out.append((f"frobenius_defect n={n} deg {degree} {shape}", figure, 3,
                    lambda omega=omega: hk.frobenius_defect(omega)))
    for degree, figure in ((2, "20 ms"), (3, "0.25 s"), (4, "2.0 s"), (5, "6.9 s")):
        forms = [_dense(hk, rng, 3, degree) for _ in range(3)]
        out.append((f"ternary common-zero test, dense deg {degree}", figure, 3 if degree < 5 else 1,
                    lambda forms=forms: ternary_forms_have_common_zero(*forms)))
    a, b = _dense(hk, rng, 3, 12), _dense(hk, rng, 3, 12)
    out.append(("Polynomial product, dense deg 12 in 3 variables (91 x 91 terms)", "157 ms", 5, lambda: a * b))
    structure = hk.MultiplierStructure.classical(3)
    bundle = hk.BundleParam.monomial((-200, 0, 0))
    config = {"n": 3, "groups": [[1, 2, 3]], "bundle": {"type": "monomial", "exponents": [-200, 0, 0]}}
    out.append(("hopfkit dim mu^-200 (run_command + render_json)", "158 ms", 5,
                lambda: render_json(run_command("dim", json.loads(json.dumps(config))))))
    out.append(("dim_h0 mu^-200", "0.12 ms", 5, lambda: hk.dim_h0("tangent", structure, bundle)))
    out.append(("hopfkit hodge --n 1000 (run_command + render_json)", "1.16 s", 3,
                lambda: render_json(run_command("hodge", {"n": 1000}))))
    h, g = (_dense(hk, rng, 5, degree) for degree in (1, 3))
    planted = hk.DifferentialForm.from_components([h * g.partial_derivative(i) for i in range(1, 6)])
    out.append(("brunella_alternative n=5 on h*dg, deg h = 1, deg g = 3, dense (not in the streams)", "-", 3,
                lambda: hk.brunella_alternative(planted)))
    stream = Nonsingularity(seed=0)
    for kind, n, degree, figure in (("ternary", 3, 4, "3.5 s"), ("binary", 2, 40, "3.1 s")):
        request = stream.request(rng, 0, kind, n, degree, "planted")
        out.append((f"nonsingularity_check {request.stratum} (not in the streams)", figure, 1,
                    lambda request=request: execute(hk, request)))
    return out


def main() -> int:
    if not (SRC / "hopfkit" / "__init__.py").is_file():
        print(f"error: hopfkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hopfkit

    rows = []
    for name, figure, repeats, thunk in cases(hopfkit):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            thunk()
            times.append(time.perf_counter() - start)
        seconds = statistics.median(times)
        rows.append({"case": name, "seconds": seconds, "repeats": repeats, "roadmap": figure})
        print(f"{seconds * 1000:11.3f} ms  (roadmap {figure:>7})  {name}", flush=True)
    table = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "cases": rows,
    }
    (HERE / "reference.json").write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
