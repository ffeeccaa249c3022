"""Exact Gaussian-rational polynomials for the benchmark's generators and oracles.

This module shares no code with hopfkit.  A scalar is a pair ``(re, im)`` of
:class:`~fractions.Fraction`; a polynomial is a dict from exponent tuples to
nonzero scalars.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

ZERO = (Fraction(0), Fraction(0))


def g_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def g_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def g_div(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / norm, (a[1] * b[0] - a[0] * b[1]) / norm)


def monomials(n: int, degree: int) -> list[tuple[int, ...]]:
    """Every exponent vector of total ``degree`` in ``n`` variables, sorted."""
    out = []
    for combo in combinations_with_replacement(range(n), degree):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return sorted(out)


def p_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        s = g_add(out.get(e, ZERO), c)
        if s != ZERO:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def p_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = g_add(out.get(e, ZERO), g_mul(c1, c2))
            if s != ZERO:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def p_deriv(p: dict, i: int) -> dict:
    """Partial derivative with respect to the variable at 0-based position ``i``."""
    out = {}
    for e, c in p.items():
        if e[i]:
            lowered = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[lowered] = (c[0] * e[i], c[1] * e[i])
    return out


def p_eval(p: dict, point) -> tuple:
    top = max((max(e) for e in p), default=0)
    powers = []
    for v in point:
        row = [(Fraction(1), Fraction(0))]
        for _ in range(top):
            row.append(g_mul(row[-1], v))
        powers.append(row)
    total = ZERO
    for e, c in p.items():
        term = c
        for row, k in zip(powers, e):
            if k:
                term = g_mul(term, row[k])
        total = g_add(total, term)
    return total


def linear_power(row, degree: int) -> dict:
    """Expand ``(sum_j row[j] z_j) ** degree`` by repeated multiplication."""
    n = len(row)
    linear = {
        tuple(1 if i == j else 0 for i in range(n)): c for j, c in enumerate(row) if c != ZERO
    }
    out = {(0,) * n: (Fraction(1), Fraction(0))}
    for _ in range(degree):
        out = p_mul(out, linear)
    return out


def _fraction_text(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def coeff_text(c) -> str:
    """hopfkit's coefficient syntax: "3", "-1/2", "3/4i", "1/2-3/4i"."""
    re_part, im_part = c
    if not im_part:
        return _fraction_text(re_part)
    imag = _fraction_text(im_part) + "i"
    if not re_part:
        return imag
    return _fraction_text(re_part) + ("+" if im_part > 0 else "") + imag


def parse_coeff(text: str) -> tuple:
    """Read a coefficient string as printed in a hopfkit report."""
    if not text.endswith("i"):
        return (Fraction(text), Fraction(0))
    body = text[:-1]
    # a real part, when present, is followed by the signed imaginary part
    cut = max(body.rfind("+"), body.rfind("-"))
    real, imag = (body[:cut], body[cut:]) if cut > 0 else ("", body)
    units = {"": 1, "+": 1, "-": -1}
    im_value = Fraction(units[imag]) if imag in units else Fraction(imag)
    return (Fraction(real) if real else Fraction(0), im_value)


def poly_json(p: dict) -> list:
    """A polynomial in hopfkit's config format."""
    return [{"exponents": list(e), "coeff": coeff_text(c)} for e, c in sorted(p.items())]
