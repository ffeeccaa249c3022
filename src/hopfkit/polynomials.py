"""Sparse multivariate polynomials over the Gaussian rationals.

A polynomial on C^n is a finite map from exponent vectors in N^n to nonzero
coefficients.  Arithmetic is exact, and the canonical term order (graded
lexicographic) makes printing and serialization deterministic.

Products (of polynomials, and the wedge and interior products of forms built
on them) are computed in Gaussian integers over a common denominator, with
each exponent vector packed into one int, and are converted back to
Gaussian-rational coefficients once per result term.  No step rounds: every
result stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .rationals import GaussianRational, as_gaussian

_SCALARS = (int, Fraction, GaussianRational, str)


class Polynomial:
    """Sparse polynomial in ``n`` complex variables."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms=None):
        if n < 1:
            raise ValueError("a polynomial needs at least one variable")
        self.n = n
        cleaned = {}
        for exps, coeff in dict(terms or {}).items():
            e = _int_tuple(exps, "exponents")
            if len(e) != n:
                raise ValueError(f"exponent vector {e} has length {len(e)}, expected {n}")
            if any(v < 0 for v in e):
                raise ValueError(f"negative exponent in {e}")
            c = as_gaussian(coeff)
            if c:
                cleaned[e] = c
        self._terms = cleaned

    @classmethod
    def _raw(cls, n: int, terms: dict) -> "Polynomial":
        out = object.__new__(cls)
        out.n = n
        out._terms = terms
        return out

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls._raw(n, {})

    @classmethod
    def constant(cls, n: int, value) -> "Polynomial":
        c = as_gaussian(value)
        return cls._raw(n, {(0,) * n: c} if c else {})

    @classmethod
    def monomial(cls, n: int, exponents, coeff=1) -> "Polynomial":
        return cls(n, {tuple(exponents): coeff})

    @classmethod
    def variable(cls, n: int, index: int) -> "Polynomial":
        """The coordinate function z_index (1-based)."""
        if not 1 <= index <= n:
            raise ValueError(f"variable index {index} out of range 1..{n}")
        exps = tuple(1 if i == index else 0 for i in range(1, n + 1))
        return cls._raw(n, {exps: GaussianRational(1)})

    def terms(self) -> list[tuple[tuple[int, ...], GaussianRational]]:
        """Term list in graded lexicographic order."""
        return sorted(self._terms.items(), key=lambda t: (sum(t[0]), t[0]))

    def coefficient(self, exponents) -> GaussianRational:
        return self._terms.get(tuple(exponents), GaussianRational(0))

    def as_monomial(self):
        """Return ``(exponents, coeff)`` when there is exactly one term, else None."""
        if len(self._terms) != 1:
            return None
        return next(iter(self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self):
        return hash((self.n, frozenset(self._terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self._terms)
        for e, c in other._terms.items():
            s = acc.get(e, GaussianRational(0)) + c
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]
        return Polynomial._raw(self.n, acc)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return Polynomial._raw(self.n, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if other.n != self.n:
                raise ValueError("ambient dimension mismatch in product")
            return _sum_of_products(self.n, [(1, self, other)])
        if isinstance(other, _SCALARS):
            c = as_gaussian(other)
            if not c:
                return Polynomial.zero(self.n)
            return Polynomial._raw(self.n, {e: v * c for e, v in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only non-negative integer powers are supported")
        out = Polynomial.constant(self.n, 1)
        base = self
        k = exponent
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.n != self.n:
                raise ValueError("ambient dimension mismatch")
            return other
        if isinstance(other, _SCALARS):
            return Polynomial.constant(self.n, other)
        return None

    def partial_derivative(self, index: int) -> "Polynomial":
        """Derivative with respect to z_index (1-based)."""
        if not 1 <= index <= self.n:
            raise ValueError(f"variable index {index} out of range 1..{self.n}")
        i = index - 1
        acc = {}
        for e, c in self._terms.items():
            if e[i] == 0:
                continue
            lowered = e[:i] + (e[i] - 1,) + e[i + 1:]
            acc[lowered] = c * e[i]
        return Polynomial._raw(self.n, acc)

    def evaluate(self, point) -> GaussianRational:
        """Exact evaluation at a point with Gaussian-rational coordinates."""
        values = [as_gaussian(v) for v in point]
        if len(values) != self.n:
            raise ValueError(f"point has length {len(values)}, expected {self.n}")
        total = GaussianRational(0)
        for e, c in self._terms.items():
            term = c
            for v, p in zip(values, e):
                if p:
                    term = term * v**p
            total = total + term
        return total

    def total_degree(self) -> int | None:
        """Largest total degree among the terms, or None for the zero polynomial."""
        if not self._terms:
            return None
        return max(sum(e) for e in self._terms)

    def homogeneous_degree(self) -> int | None:
        """Shared total degree of all terms; None when mixed, 0 for the zero polynomial."""
        degrees = {sum(e) for e in self._terms}
        if not degrees:
            return 0
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def homogeneous_components(self) -> dict[int, "Polynomial"]:
        parts: dict[int, dict] = {}
        for e, c in self._terms.items():
            parts.setdefault(sum(e), {})[e] = c
        return {d: Polynomial._raw(self.n, t) for d, t in sorted(parts.items())}

    def __str__(self) -> str:
        ts = self.terms()
        if not ts:
            return "0"
        rendered = [_format_term(e, c) for e, c in ts]
        out = rendered[0]
        for part in rendered[1:]:
            if part.startswith("-"):
                out += f" - {part[1:]}"
            else:
                out += f" + {part}"
        return out

    def __repr__(self) -> str:
        return f"Polynomial({self.n}, {self._terms!r})"

    def to_json(self) -> list:
        return [{"exponents": list(e), "coeff": str(c)} for e, c in self.terms()]

    @classmethod
    def from_json(cls, n: int, data) -> "Polynomial":
        if not isinstance(data, list):
            raise ValueError("polynomial payload must be a list of terms")
        terms = {}
        for entry in data:
            if not isinstance(entry, dict) or "exponents" not in entry or "coeff" not in entry:
                raise ValueError(f"malformed polynomial term {entry!r}")
            e = _int_tuple(entry["exponents"], "exponents")
            c = as_gaussian(entry["coeff"])
            terms[e] = terms.get(e, GaussianRational(0)) + c
        return cls(n, terms)


def _int_tuple(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints.

    Only a list or tuple of exact ints is accepted: ``int()`` would truncate
    floats and parse strings, and a bool is not a count.
    """
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{what} must be a list of integers, got {values!r}")
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{what} must be integers, got {v!r} in {list(values)!r}")
    return tuple(values)


def format_monomial(exponents) -> str:
    """The monomial z^exponents as "z_1^2*z_3"; "" for the zero exponent."""
    return "*".join(
        f"z_{i}" + (f"^{p}" if p > 1 else "")
        for i, p in enumerate(exponents, start=1)
        if p
    )


def _format_term(exponents, coeff) -> str:
    variables = format_monomial(exponents)
    text = str(coeff)
    composite = any(ch in text[1:] for ch in "+-")
    if not variables:
        return f"({text})" if composite else text
    if text == "1":
        return variables
    if text == "-1":
        return f"-{variables}"
    head = f"({text})" if composite else text
    return f"{head}*{variables}"


def _sum_of_products(n: int, pairs) -> Polynomial:
    """The polynomial sum of sign * p * q over ``(sign, p, q)`` triples.

    Exponent vectors are packed into one int with fields wide enough for the
    largest per-variable exponent sum, so adding two packed vectors
    multiplies the monomials without a carry between fields.  Real and
    imaginary parts are summed as ints over the common denominator ``D``,
    and each nonzero result term becomes one GaussianRational.
    """
    pairs = [(sign, p, q) for sign, p, q in pairs if p._terms and q._terms]
    if not pairs:
        return Polynomial.zero(n)
    operands = {id(poly): poly for _, p, q in pairs for poly in (p, q)}
    highest = {key: [max(column) for column in zip(*poly._terms)] for key, poly in operands.items()}
    top = max(a + b for _, p, q in pairs for a, b in zip(highest[id(p)], highest[id(q)]))
    width = top.bit_length()
    shifts = [width * i for i in range(n)]
    packed = {key: _packed(poly, shifts) for key, poly in operands.items()}
    D = lcm(*(packed[id(p)][0] * packed[id(q)][0] for _, p, q in pairs))
    real: dict[int, int] = {}
    imag: dict[int, int] = {}
    for sign, p, q in pairs:
        (dp, left), (dq, right) = packed[id(p)], packed[id(q)]
        k = sign * (D // (dp * dq))
        for m1, a1, b1 in left:
            a1, b1 = k * a1, k * b1
            for m2, a2, b2 in right:
                m = m1 + m2
                real[m] = real.get(m, 0) + a1 * a2 - b1 * b2
                imag[m] = imag.get(m, 0) + a1 * b2 + b1 * a2
    mask = (1 << width) - 1
    terms = {}
    for m, x in real.items():
        y = imag[m]
        if x or y:
            e = tuple((m >> s) & mask for s in shifts)
            terms[e] = GaussianRational(Fraction(x, D), Fraction(y, D))
    return Polynomial._raw(n, terms)


def _packed(poly: Polynomial, shifts) -> tuple[int, list[tuple[int, int, int]]]:
    """``(d, [(packed exponents, d * re, d * im), ...])``, d the lcm of the denominators."""
    coeffs = poly._terms.values()
    d = lcm(*(c.re.denominator for c in coeffs), *(c.im.denominator for c in coeffs))
    return d, [
        (
            sum(v << s for v, s in zip(e, shifts)),
            c.re.numerator * (d // c.re.denominator),
            c.im.numerator * (d // c.im.denominator),
        )
        for e, c in poly._terms.items()
    ]


@dataclass(frozen=True)
class VectorField:
    """Polynomial vector field sum_k g_k d/dz_k on C^n."""

    components: tuple[Polynomial, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("a vector field needs at least one component")
        n = len(comps)
        for g in comps:
            if not isinstance(g, Polynomial):
                raise ValueError("components must be polynomials")
            if g.n != n:
                raise ValueError(
                    f"component on {g.n} variables in a field with {n} components"
                )

    @property
    def n(self) -> int:
        return len(self.components)

    def is_zero(self) -> bool:
        return all(g.is_zero() for g in self.components)

    def __str__(self) -> str:
        parts = []
        for k, g in enumerate(self.components, start=1):
            if g.is_zero():
                continue
            text = str(g)
            if len(g._terms) > 1:
                text = f"({text})"
            parts.append(f"{text} ∂/∂z_{k}" if text != "1" else f"∂/∂z_{k}")
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"components": [g.to_json() for g in self.components]}

    @classmethod
    def from_json(cls, n: int, data) -> "VectorField":
        if not isinstance(data, dict) or "components" not in data:
            raise ValueError('vector field payload must be {"components": [...]}')
        comps = data["components"]
        if not isinstance(comps, list):
            raise ValueError(f"vector field components must be a list, got {comps!r}")
        if len(comps) != n:
            raise ValueError(f"expected {n} components, got {len(comps)}")
        return cls(tuple(Polynomial.from_json(n, c) for c in comps))
