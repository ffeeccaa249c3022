"""Seeded request streams for the three benchmark workloads.

A workload is an endless sequence of rounds.  Every round holds the same
strata (size classes), one request each, in a fixed order; the seed draws
everything inside a stratum that leaves its cost alone: relabellings and
unit rescalings of the variables, exponent layouts, relation patterns and
twists.  Where the cost depends on the coefficients themselves (exact
elimination, products of forms), they are drawn from the stratum and the
round number, so that round r costs the same for every seed.  Fixing the
strata keeps a run's mix of cheap and expensive requests the same from seed
to seed, so the latency percentiles measure the program and not the draw.

A round holds a number of requests that is 5 modulo 10.  Over whole rounds
the median and the 90th percentile then fall in the middle of one stratum's
block of samples and not on the edge between two strata, where timing noise
would decide which neighbour they read.

Round ``r`` of seed ``s`` is rebuilt identically from ``(s, r)`` alone, which
lets the oracles regenerate inputs after the timed phase instead of keeping
them alive during it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from gauss import (
    ZERO,
    coeff_text,
    g_div,
    g_mul,
    linear_power,
    monomials,
    p_add,
    p_deriv,
    p_eval,
    p_mul,
    parse_coeff,
    poly_json,
)

ONE = (Fraction(1), Fraction(0))


@dataclass(frozen=True)
class Request:
    """One request: a CLI command with a JSON config, or a library call.

    ``expect`` is what the oracle needs to judge the output; it is built by
    the generator from the planted structure and never by hopfkit.
    """

    stratum: str
    command: str
    payload: object
    fmt: str = "json"
    expect: tuple = ()


# ---------------------------------------------------------------- helpers


def _small_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))


def random_coeff(rng: random.Random) -> tuple:
    """A nonzero Gaussian rational with small numerators and denominators."""
    while True:
        c = (_small_fraction(rng), _small_fraction(rng))
        if c != ZERO:
            return c


UNITS = (ONE, (Fraction(-1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1)))
I_POWERS = (ONE, (Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1)))


def _support(n: int, degree: int, density: Fraction, component: int) -> list[tuple[int, ...]]:
    """round(density * #monomials) monomials, the same for every seed.

    The seed relabels the variables instead, so that forms of one stratum
    are isomorphic and cost the same up to their coefficients.
    """
    monos = monomials(n, degree)
    count = max(1, round(density * len(monos)))
    return sorted(random.Random(f"support:{n}:{degree}:{density}:{component}").sample(monos, count))


def _relabel(poly: dict, perm: list[int]) -> dict:
    """Substitute z_k -> z_perm[k] (0-based)."""
    out = {}
    for e, c in poly.items():
        moved = [0] * len(e)
        for k, v in enumerate(e):
            moved[perm[k]] = v
        out[tuple(moved)] = c
    return out


def _dense(rng: random.Random, n: int, degree: int, coeff=random_coeff) -> dict:
    return {e: coeff(rng) for e in monomials(n, degree)}


def _gaussian_integer(rng: random.Random) -> tuple:
    """A nonzero Gaussian integer with parts in [-3, 3]."""
    while True:
        c = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        if c != ZERO:
            return c


def _unimodular(rng: random.Random, n: int) -> list[list[tuple]]:
    """A random invertible Gaussian-integer matrix L*U with unit diagonals.

    Every entry of the triangles of L and U is a unit, which keeps the
    entries of the product, and so the cost of a stratum, in a narrow range.
    """
    units = ((1, 0), (-1, 0), (0, 1), (0, -1))  # in machine integers: Fractions would be slower
    lower = [[rng.choice(units) if j < i else ((1, 0) if i == j else (0, 0)) for j in range(n)] for i in range(n)]
    upper = [[rng.choice(units) if j >= i else (0, 0) for j in range(n)] for i in range(n)]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            re = im = 0
            for k in range(min(i, j) + 1):
                (a, b), (c, d) = lower[i][k], upper[k][j]
                re, im = re + a * c - b * d, im + a * d + b * c
            row.append((Fraction(re), Fraction(im)))
        out.append(row)
    return out


def _vanish_at(poly: dict, point, degree: int) -> dict:
    """Adjust the z_n^degree coefficient so that ``poly`` vanishes at ``point``."""
    n = len(point)
    value = p_eval(poly, point)
    power = ONE
    for _ in range(degree):
        power = g_mul(power, point[-1])
    pure = tuple(degree if i == n - 1 else 0 for i in range(n))
    out = p_add(poly, {pure: g_div((-value[0], -value[1]), power)})
    if p_eval(out, point) != ZERO:
        raise RuntimeError("planted zero generator is inconsistent")
    return out


def _cli(stratum, command, config, fmt="json", expect=()) -> Request:
    return Request(stratum, command, json.dumps(config, sort_keys=True), fmt, expect)


def _form_config(n: int, components: list[dict]) -> dict:
    terms = [
        {"indices": [i], "coefficient": poly_json(g)}
        for i, g in enumerate(components, start=1)
        if g
    ]
    return {"n": n, "form": {"degree": 1, "terms": terms}}


def digest(items) -> str:
    return hashlib.sha256(repr(sorted(items)).encode()).hexdigest()


def form_digest(payload) -> str:
    """Canonical digest of a form or polynomial in hopfkit's JSON report format."""
    if isinstance(payload, list):  # a polynomial
        return digest((tuple(t["exponents"]), parse_coeff(t["coeff"])) for t in payload)
    return digest(
        (tuple(term["indices"]), tuple(t["exponents"]), parse_coeff(t["coeff"]))
        for term in payload["terms"]
        for t in term["coefficient"]
    )


def section_targets(n: int, groups, exps, space: str) -> list[list[int]]:
    """Per component k, the group sums every basis exponent alpha must have.

    The defining identities: tangent z^alpha d/dz_k with mu^alpha = mu_k / b;
    one-forms mu^alpha * mu_k = a; (n-1)-forms mu^(alpha + 1) / mu_k = b.
    """
    out = []
    for k in range(n):
        if space == "tangent":
            v = [(i == k) - x for i, x in enumerate(exps)]
        elif space == "one-form":
            v = [x - (i == k) for i, x in enumerate(exps)]
        else:
            v = [x - 1 + (i == k) for i, x in enumerate(exps)]
        out.append([sum(v[i - 1] for i in g) for g in groups])
    return out


def comb_count(groups, target) -> int:
    """Exponent vectors with the given group sums: a product of binomials."""
    if any(t < 0 for t in target):
        return 0
    count = 1
    for g, t in zip(groups, target):
        count *= comb(t + len(g) - 1, len(g) - 1)
    return count


def section_dimension(n, groups, exps, space) -> int:
    return sum(comb_count(groups, t) for t in section_targets(n, groups, exps, space))


# ---------------------------------------------------------------- workloads


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke

    def round(self, r: int) -> list[Request]:
        """The requests of round ``r``, in the same stratum order every round.

        A fixed order keeps the allocator's history, and so the peak memory,
        the same from seed to seed.
        """
        return self._round(random.Random(f"{self.name}:{self.seed}:{r}"), r)

    def warmup(self) -> list[Request]:
        """A few small requests, the same for every seed."""
        return self._warmup(random.Random(f"{self.name}:warmup"))

    def _round(self, rng, r):  # pragma: no cover - abstract
        raise NotImplementedError

    def _warmup(self, rng):  # pragma: no cover - abstract
        raise NotImplementedError


class Calculus(Workload):
    """Integrability defects and the invariant-hypersurface alternative.

    Per (n, degree) cell: random forms at densities 1/2 and 1 (only 1 at
    n = 3, degree 2), sent through ``integrability``; and planted integrable
    forms h*dg with dense h and g, deg h = 1 and, for degree 3 and n <= 4,
    also deg h = deg g = 2, sent through ``integrability``.  For n <= 4 the
    planted forms then go through ``brunella``; at n = 5 the degree-3 ones
    take 1.5 s or more each and are timed in the reference table instead.
    That makes 25 requests per round, and puts the 90th percentile on the
    n = 4, deg h = deg g = 2 ``brunella`` stratum, midway between the two
    n = 5 strata above it and the cheaper ones below: where a stratum of
    similar cost sat next to it, the percentile moved by a tenth from run
    to run.

    The coefficients of each request are drawn from its stratum and the
    round number alone, and the seed changes the variables: it relabels
    them (random forms) and multiplies each by a unit of Z[i], and it
    multiplies the form by a unit.  That keeps integrability and the sizes
    of all coefficients, and so the cost of round r, the same for every
    seed.
    """

    name = "calculus"

    def cells(self):
        if self.smoke:
            return [(3, 2)], (Fraction(1, 2), Fraction(1))
        return [(n, d) for n in (3, 4, 5) for d in (2, 3)], (Fraction(1, 2), Fraction(1))

    def _random_form(self, rng, r, n, d, density) -> Request:
        stratum = f"random n{n} d{d} density {density}"
        base = random.Random(f"{self.name}:{stratum}:{r}")
        perm = rng.sample(range(n), n)
        comps = [{}] * n
        for i in range(n):
            coeffs = {e: random_coeff(base) for e in _support(n, d, density, i)}
            comps[perm[i]] = _relabel(coeffs, perm)
        phases, phase = _unit_change(rng, n)
        comps = [_rescale(c, phases, phase + phases[i]) for i, c in enumerate(comps)]
        return _cli(stratum, "integrability", _form_config(n, comps), expect=("random", n, comps))

    def _planted(self, rng, r, n, a, b) -> list[Request]:
        stratum = f"planted n{n} h{a} g{b}"
        base = random.Random(f"{self.name}:{stratum}:{r}")
        phases, phase = _unit_change(rng, n)
        h = _rescale(_dense(base, n, a), phases, phase)
        g = _rescale(_dense(base, n, b), phases, 0)
        comps = [p_mul(h, p_deriv(g, i)) for i in range(n)]
        config = _form_config(n, comps)
        out = [_cli(stratum, "integrability", config, expect=("planted",))]
        if n <= 4:
            out.append(_cli(stratum, "brunella", config, expect=("planted", n, b, h, g)))
        return out

    def _round(self, rng, r):
        cells, densities = self.cells()
        out = []
        for n, d in cells:
            out.extend(self._random_form(rng, r, n, d, rho) for rho in densities if (n, d) != (3, 2) or rho == 1)
            for a in range(1, d if n <= 4 else 2):
                out.extend(self._planted(rng, r, n, a, d + 1 - a))
        return out

    def _warmup(self, rng):
        return [self._random_form(rng, -1, 3, 2, Fraction(1))] + self._planted(rng, -1, 3, 1, 2)


class Nonsingularity(Workload):
    """Exact nonsingularity verdicts on ternary, binary and linear fields.

    Every size is sent twice per round: once with a planted common zero in
    {1, -1}^n (expected singular) and once as coordinate powers under a
    random invertible Gaussian-integer substitution (expected nonsingular).
    One more request per round applies a monomial substitution (a signed
    permutation), which the monomial branch decides; it makes a round 35
    requests.  Sizes are spaced closely enough that the strata around the
    median and the 90th percentile have neighbours of similar cost.

    The cost of an elimination depends on the coefficients it starts from,
    so the base field of each stratum is drawn from the stratum and the
    round number alone.  The seed then multiplies every variable and every
    component by a unit of Z[i]: that keeps the verdict, moves the planted
    zero and changes every coefficient, but leaves their sizes, and so the
    cost of round r, the same for every seed.
    """

    name = "nonsingularity"

    def strata(self):
        """(kind, ambient dimension, degree) of every size class."""
        if self.smoke:
            return [("ternary", 3, 2), ("binary", 2, 8), ("linear", 6, 1)]
        return (
            [("ternary", 3, d) for d in (2, 3)]
            + [("binary", 2, d) for d in (8, 10, 12, 14, 16, 18, 20, 24)]
            + [("linear", n, 1) for n in (6, 8, 10, 12, 13, 14, 16)]
        )

    def request(self, rng, r, kind, n, degree, substitution) -> Request:
        stratum = f"{kind} n{n} d{degree} {substitution}"
        if substitution == "monomial":
            perm = rng.sample(range(n), n)
            rows = [[rng.choice(UNITS) if j == perm[i] else ZERO for j in range(n)] for i in range(n)]
            comps = [linear_power(row, degree) for row in rows]
        else:
            base = random.Random(f"{self.name}:{stratum}:{r}")
            if substitution == "planted":
                point = [base.choice(UNITS[:2]) for _ in range(n)]
                comps = [_vanish_at(_dense(base, n, degree, _gaussian_integer), point, degree) for _ in range(n)]
            else:
                comps = [linear_power(row, degree) for row in _unimodular(base, n)]
            phases = [rng.randrange(4) for _ in range(n)]
            comps = [_rescale(comp, phases, rng.randrange(4)) for comp in comps]
        expect = "singular" if substitution == "planted" else "nonsingular"
        payload = (n, tuple(tuple(sorted(c.items())) for c in comps))
        return Request(stratum, "nonsingularity", payload, expect=(expect,))

    def _round(self, rng, r):
        out = [
            self.request(rng, r, kind, n, degree, substitution)
            for kind, n, degree in self.strata()
            for substitution in ("planted", "invertible")
        ]
        out.append(self.request(rng, r, "ternary", 3, 3, "monomial"))
        return out

    def _warmup(self, rng):
        return [
            self.request(rng, -1, kind, n, degree, substitution)
            for kind, n, degree in (("ternary", 3, 2), ("binary", 2, 8), ("linear", 6, 1))
            for substitution in ("planted", "invertible")
        ]


def _unit_change(rng: random.Random, n: int) -> tuple[list[int], int]:
    """Exponents of i for a diagonal change of the n variables, and one more."""
    return [rng.randrange(4) for _ in range(n)], rng.randrange(4)


def _rescale(poly: dict, phases: list[int], phase: int) -> dict:
    """i^phase * poly(i^phases[0] z_1, ..., i^phases[n-1] z_n)."""
    out = {}
    for e, c in poly.items():
        k = (phase + sum(p * v for p, v in zip(phases, e))) % 4
        out[e] = g_mul(c, I_POWERS[k])
    return out


def _partition(rng, n: int, kind: str) -> list[list[int]]:
    """Groups of a random relation pattern of the requested kind on {1..n}."""
    indices = list(range(1, n + 1))
    rng.shuffle(indices)
    if kind == "classical":
        groups = [indices]
    elif kind == "generic":
        groups = [[i] for i in indices]
    elif kind == "intermediary":
        r = rng.randint(2, n - 1)
        groups = [indices[:r]] + [[i] for i in indices[r:]]
    else:  # general: at least two groups of size >= 2
        a = rng.randint(2, n - 2)
        b = rng.randint(2, n - a)
        groups = [indices[:a], indices[a:a + b]] + [[i] for i in indices[a + b:]]
    rng.shuffle(groups)
    return [sorted(g) for g in groups]


def _spread(rng, n: int, total: int) -> list[int]:
    """A random integer vector of length n with the given sum."""
    cuts = sorted(rng.randint(-abs(total) - 3, abs(total) + 3) for _ in range(n - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [0])]
    parts[0] += total - sum(parts)
    return parts


SPACES = ("tangent", "one-form", "top-minus-one-form")

ERRORS = (
    ("classify-general", "UnsupportedComputationError"),
    ("bundle-length", "ValueError"),
    ("hodge-small", "ValueError"),
    ("singlocus-nonmonomial", "UnsupportedComputationError"),
    ("leafcount-m0", "ValueError"),
    ("groups-overlap", "ValueError"),
)


class Tables(Workload):
    """Section spaces, dimensions, classification tables and small reports.

    Twenty-five strata per round, rendered alternately as JSON and text; the
    largest section space, dimension and Hodge table come in both formats.
    One stratum in twenty-five is a config the program must reject with a
    specific error.  Classical bundles have a fixed total degree per
    stratum; relation patterns with several groups are drawn until their
    section space has a dimension in the stratum's band, so every stratum
    keeps its cost from seed to seed.
    """

    name = "tables"

    def sizes(self):
        if self.smoke:
            return {"sec": 6, "sec1": 4, "sec2": 4, "sec4": 3, "dim": 10, "dim4": 3, "maxdeg": 4,
                    "band": (2, 8), "generic_band": (1, 4), "cls_n": 5, "hodge": 25, "hodge_small": 5}
        return {"sec": 100, "sec1": 60, "sec2": 35, "sec4": 10, "dim": 200, "dim4": 20, "maxdeg": 30,
                "band": (30, 60), "generic_band": (4, 8), "cls_n": 12, "hodge": 300, "hodge_small": 50}

    @classmethod
    def _classical(cls, rng, command, n, space, total):
        """A classical pattern; only the total degree of the bundle sets the cost."""
        return cls._sections(command, n, [list(range(1, n + 1))], _spread(rng, n, total), space)

    @classmethod
    def _banded(cls, rng, command, n, kind, band):
        """A pattern, twist and space whose section dimension lies in ``band``."""
        for _ in range(10000):
            groups = _partition(rng, n, kind)
            exps = [rng.randint(-2, 2) for _ in range(n)]
            space = rng.choice(SPACES)
            if band[0] <= section_dimension(n, groups, exps, space) <= band[1]:
                return cls._sections(command, n, groups, exps, space)
        raise RuntimeError(f"no {kind} pattern on {n} variables has a dimension in {band}")

    @staticmethod
    def _sections(command, n, groups, exps, space):
        config = {
            "n": n,
            "groups": groups,
            "bundle": {"type": "monomial", "exponents": exps},
            "parameters": {"space": space},
        }
        return command, config, ("sections", n, groups, exps, space)

    @staticmethod
    def _classify(rng, n, kind, side, max_degree=3):
        groups = _partition(rng, n, kind)
        params = {
            "side": side,
            "max_degree": max_degree,
            "coefficients": [coeff_text(random_coeff(rng)) for _ in range(n)],
        }
        return "classify", {"n": n, "groups": groups, "parameters": params}, ("classify", n, groups, side, max_degree)

    @staticmethod
    def _monomial_section(rng, command, n):
        comps = []
        for _ in range(n):
            e = tuple(rng.randint(0, 2) for _ in range(n))
            comps.append({} if rng.random() < 0.25 else {e: random_coeff(rng)})
        if not any(comps):
            comps[0] = {(1,) * n: ONE}
        if command == "obstruction":
            config = _form_config(n, comps)
        else:
            config = {"n": n, "vector_field": {"components": [poly_json(c) for c in comps]}}
        return command, config, ("locus", n, comps)

    @staticmethod
    def _error(rng):
        which, error = ERRORS[rng.randrange(len(ERRORS))]
        if which == "classify-general":
            command, config = "classify", {"n": 5, "groups": _partition(rng, 5, "general")}
        elif which == "bundle-length":
            command, config = "sections", {
                "n": 4, "groups": [[1, 2, 3, 4]], "bundle": {"type": "monomial", "exponents": [-1, 0]}}
        elif which == "hodge-small":
            command, config = "hodge", {"n": 1}
        elif which == "singlocus-nonmonomial":
            field = {"components": [poly_json({(1, 0, 0): ONE, (0, 1, 0): ONE}), [], []]}
            command, config = "singlocus", {"n": 3, "vector_field": field}
        elif which == "leafcount-m0":
            command, config = "leafcount", {"n": 4, "parameters": {"m": 0}}
        else:
            command, config = "dim", {"n": 3, "groups": [[1, 2], [2, 3]], "bundle": {"type": "unrelated"}}
        return command, config, ("error", error)

    def _round(self, rng, r):
        s = self.sizes()
        n, m = rng.randint(3, 8), rng.randint(1, 9)
        specs = [
            self._classical(rng, "sections", 3, "tangent", -s["sec"]),
            self._classical(rng, "sections", 3, "tangent", -s["sec"]),
            self._classical(rng, "sections", 3, "one-form", s["sec1"]),
            self._classical(rng, "sections", 3, "top-minus-one-form", s["sec2"]),
            self._classical(rng, "sections", 4, "tangent", -s["sec4"]),
            self._banded(rng, "sections", 8, "generic", s["generic_band"]),
            self._banded(rng, "sections", 6, "intermediary", s["band"]),
            self._banded(rng, "sections", 6, "general", s["band"]),
            self._classical(rng, "dim", 3, "tangent", -s["dim"]),
            self._classical(rng, "dim", 3, "tangent", -s["dim"]),
            self._classical(rng, "dim", 4, "tangent", -s["dim4"]),
            self._banded(rng, "dim", 6, rng.choice(("intermediary", "general")), s["band"]),
            self._classify(rng, 4, "classical", "tangent", s["maxdeg"]),
            self._classify(rng, 4, "classical", "conormal", s["maxdeg"]),
            self._classify(rng, s["cls_n"], "generic", "tangent"),
            self._classify(rng, s["cls_n"], "generic", "conormal"),
            self._classify(rng, s["cls_n"], "intermediary", "tangent"),
            self._classify(rng, s["cls_n"], "intermediary", "conormal"),
            ("hodge", {"n": s["hodge"]}, ("hodge", s["hodge"])),
            ("hodge", {"n": s["hodge"]}, ("hodge", s["hodge"])),
            ("hodge", {"n": s["hodge_small"]}, ("hodge", s["hodge_small"])),
            self._monomial_section(rng, "singlocus", 5),
            self._monomial_section(rng, "obstruction", 5),
            ("leafcount", {"n": n, "parameters": {"m": m}}, ("leafcount", n, m)),
            self._error(rng),
        ]
        return [
            _cli(f"{command} #{i}", command, config, ("json", "text")[i % 2], expect)
            for i, (command, config, expect) in enumerate(specs)
        ]

    def _warmup(self, rng):
        specs = [
            self._classical(rng, "sections", 3, "tangent", -5),
            self._banded(rng, "dim", 4, "generic", (1, 10)),
            self._classify(rng, 4, "intermediary", "tangent"),
            ("hodge", {"n": 4}, ("hodge", 4)),
            ("leafcount", {"n": 3, "parameters": {"m": 2}}, ("leafcount", 3, 2)),
        ]
        return [
            _cli(command, command, config, fmt, expect)
            for (command, config, expect), fmt in zip(specs, ("json", "text") * 3)
        ]


WORKLOADS = {w.name: w for w in (Calculus, Nonsingularity, Tables)}


# ---------------------------------------------------------------- execution


def execute(hk, request: Request):
    """Run one request through hopfkit's public API; return (result, rendered text)."""
    if request.command == "nonsingularity":
        n, comps = request.payload
        gauss = hk.GaussianRational
        field = hk.VectorField(
            tuple(hk.Polynomial(n, {e: gauss(*c) for e, c in comp}) for comp in comps)
        )
        result = hk.nonsingularity_check(field)
        return result, result.verdict.value
    report = hk.cli.run_command(request.command, json.loads(request.payload))
    render = hk.cli.render_json if request.fmt == "json" else hk.cli.render_text
    return report, render(report)


def summarize(request: Request, result, text: str) -> tuple:
    """Small facts about one output, enough for the oracle to judge it later."""
    if isinstance(result, Exception):
        return ("raised", type(result).__name__)
    if request.command == "nonsingularity":
        return (result.verdict.value,)
    # A light check of the rendering: the oracles judge the report itself, and
    # parsing a large rendering again would add the benchmark's own copy of
    # the report to the peak memory measured.
    if request.fmt == "json":
        rendered_ok = text.startswith('{\n  "command": ' + json.dumps(result["command"]))
    else:
        rendered_ok = text.startswith(f"command: {result['command']}\n")
    res = result["results"]
    command = request.command
    if command == "integrability":
        facts = (res["integrable"], form_digest(res["defect"]))
    elif command == "brunella":
        contraction = res["contraction"]
        facts = (res["verdict"], res["verified"], contraction and form_digest(contraction))
    elif command in ("sections", "dim"):
        basis = res.get("basis")
        if basis is None:
            facts = (res["dimension"],)
        else:
            entries = [(b["component"], tuple(b["exponents"])) for b in basis]
            facts = (res["dimension"], len(set(entries)), digest(entries))
    elif command == "classify":
        facts = tuple(
            (tuple(e["bundle"]["exponents"]), e["kind"], e["degree"], e["nonsingularity"]["verdict"])
            for e in res["entries"]
        )
    elif command == "hodge":
        facts = (tuple((e["p"], e["q"], e["value"]) for e in res["entries"]), res["chern_top"])
    elif command == "leafcount":
        facts = (res["count"], res["extrapolated"])
    else:  # singlocus, obstruction
        locus = tuple(tuple(c["vanishing"]) for c in res["locus"]["components"])
        facts = (locus, res.get("consistent"), res.get("chern_top"))
    return ("ok", rendered_ok) + facts
