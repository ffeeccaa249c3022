"""Oracles that judge each output without sharing code with hopfkit.

* calculus: planted forms h*dg must be integrable, and ``brunella`` must
  return a verified hypersurface cut out by deg(g) * h * g; for random forms
  the defect must equal omega ^ d(omega) expanded by sympy over Q(i).
* nonsingularity: the planted verdict.
* tables: dimensions from a ``math.comb`` count per component, a brute-force
  box scan on small cases, the table sizes and kinds of the classification,
  the four nonzero Hodge entries, the geometric leaf count, and minimal
  transversals found by scanning every coordinate subset.

sympy is imported only here and only after the timed phase, so it never
counts toward the measured peak memory.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from workloads import digest, section_dimension, section_targets

MAX_BOX = 20000


# ---------------------------------------------------------------- calculus


class Sympy:
    """Exact polynomial expansion over Q(i) with sympy."""

    def __init__(self):
        from sympy import QQ, QQ_I, Poly, symbols

        self.QQ, self.QQ_I, self.Poly, self.symbols = QQ, QQ_I, Poly, symbols
        self._gens = {}

    def gens(self, n):
        if n not in self._gens:
            self._gens[n] = self.symbols(f"z1:{n + 1}")
        return self._gens[n]

    def poly(self, n, data: dict):
        QQ, QQ_I = self.QQ, self.QQ_I
        coeffs = {
            e: QQ_I(QQ(c[0].numerator, c[0].denominator), QQ(c[1].numerator, c[1].denominator))
            for e, c in data.items()
        }
        return self.Poly.from_dict(coeffs or {(0,) * n: QQ_I(0)}, *self.gens(n), domain=QQ_I)

    @staticmethod
    def items(poly):
        for e, c in poly.as_dict(native=True).items():
            if c:
                yield tuple(e), (
                    Fraction(int(c.x.numerator), int(c.x.denominator)),
                    Fraction(int(c.y.numerator), int(c.y.denominator)),
                )

    def defect_digest(self, n, comps) -> tuple[bool, str]:
        """Digest of omega ^ d(omega) for omega = sum_i g_i dz_i."""
        g = [self.poly(n, c) for c in comps]
        z = self.gens(n)
        d = [[g[k].diff(z[j]) for k in range(n)] for j in range(n)]  # d[j][k] = dg_k/dz_j
        out = []
        for a, b, c in combinations(range(n), 3):
            coeff = (
                g[a] * (d[b][c] - d[c][b])
                - g[b] * (d[a][c] - d[c][a])
                + g[c] * (d[a][b] - d[b][a])
            )
            out.extend(((a + 1, b + 1, c + 1), e, v) for e, v in self.items(coeff))
        return not out, digest(out)

    def product_digest(self, n, factor, h, g) -> str:
        prod = self.poly(n, h) * self.poly(n, g) * factor
        return digest(self.items(prod))


# ---------------------------------------------------------------- tables


def _box_entries(n, groups, targets):
    """Every (k, alpha) found by scanning a box that covers all solutions."""
    bound = max((t for target in targets for t in target), default=0)
    if bound < 0:
        return []
    if (bound + 1) ** n > MAX_BOX:
        return None
    entries = []
    for alpha in product(range(bound + 1), repeat=n):
        key = [sum(alpha[i - 1] for i in g) for g in groups]
        entries.extend((k, alpha) for k, target in enumerate(targets, start=1) if key == target)
    return entries


def _check_sections(command, expect, facts) -> bool:
    _, n, groups, exps, space = expect
    targets = section_targets(n, groups, exps, space)
    dimension = section_dimension(n, groups, exps, space)
    if facts[0] != dimension:
        return False
    box = _box_entries(n, groups, targets)
    if box is not None and len(box) != dimension:
        return False
    if command == "dim":
        return True
    _, distinct, basis = facts
    return distinct == dimension and (box is None or basis == digest(box))


def _classification(n, groups, side, max_degree):
    """Expected entries (exponents, kind, degree, verdict) of a table."""
    unit = lambda j: tuple(1 if i == j else 0 for i in range(1, n + 1))  # noqa: E731
    trivial = (0,) * n
    entries = []
    if len(groups) == 1:
        if side == "tangent":
            for m in range(-1, max_degree + 1):
                kind = {-1: "constant", 0: "linear"}.get(m, "polynomial")
                entries.append(((-m,) + (0,) * (n - 1), kind, m if m > 0 else None))
        else:
            for m in range(1, max_degree + 1):
                kind = "constant" if m == 1 else "polynomial"
                entries.append(((m,) + (0,) * (n - 1), kind, m if m > 1 else None))
    elif all(len(g) == 1 for g in groups):
        if side == "tangent":
            entries.append((trivial, "linear", None))
        entries.extend((unit(j), "constant", None) for j in range(1, n + 1))
    else:
        block = next(g for g in groups if len(g) > 1)
        singles = sorted(i for g in groups if len(g) == 1 for i in g)
        if side == "tangent":
            entries.append((trivial, "linear", None))
        entries.append((unit(min(block)), "constant", None))
        entries.extend((unit(j), "constant", None) for j in singles)
    return tuple(e + ("nonsingular",) for e in entries)


def _minimal_transversals(n, comps):
    supports = [{i for i, v in enumerate(e, start=1) if v} for c in comps for e in c]
    if any(not s for s in supports):
        return ()
    found = []
    for size in range(1, n):
        for subset in combinations(range(1, n + 1), size):
            chosen = set(subset)
            if all(chosen & s for s in supports) and not any(set(f) <= chosen for f in found):
                found.append(subset)
    return tuple(found)


# ---------------------------------------------------------------- dispatch


class Oracle:
    def __init__(self):
        self._sympy = None

    @property
    def sympy(self) -> Sympy:
        if self._sympy is None:
            self._sympy = Sympy()
        return self._sympy

    def check(self, request, facts) -> bool:
        expect = request.expect
        if expect[0] == "error":
            return facts == ("raised", expect[1])
        if request.command == "nonsingularity":
            return facts == expect
        if facts[:2] != ("ok", True):
            return False
        facts = facts[2:]
        command = request.command
        if command == "integrability":
            if expect[0] == "planted":
                return facts == (True, digest([]))
            return facts == self.sympy.defect_digest(expect[1], expect[2])
        if command == "brunella":
            _, n, b, h, g = expect
            contraction = self.sympy.product_digest(n, b, h, g)
            return facts == ("invariant-hypersurface", True, contraction)
        if command in ("sections", "dim"):
            return _check_sections(command, expect, facts)
        if command == "classify":
            return facts == _classification(*expect[1:])
        if command == "hodge":
            n = expect[1]
            return facts == (((0, 0, 1), (0, 1, 1), (n, n - 1, 1), (n, n, 1)), 0)
        if command == "leafcount":
            _, n, m = expect
            return facts == (sum(m**i for i in range(n)), m == 1)
        locus = _minimal_transversals(expect[1], expect[2])
        if command == "singlocus":
            return facts == (locus, None, None)
        return facts == (locus, True, 0)
