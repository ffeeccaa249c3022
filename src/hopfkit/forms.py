"""Exterior calculus with polynomial coefficients.

Differential forms are stored on strictly increasing index tuples, so sign
normalization happens once, when terms are assembled, and equality checks are
structural.  Degree-0 forms are represented by bare :class:`Polynomial`
objects throughout.
"""

from __future__ import annotations

from bisect import bisect_left

from .polynomials import Polynomial, VectorField, _SCALARS, _int_tuple, _sum_of_products
from .rationals import as_gaussian


class DifferentialForm:
    """Polynomial differential form of degree >= 1 on C^n.

    Terms map strictly increasing tuples of 1-based indices to coefficient
    polynomials.  A degree above ``n`` is only inhabited by the zero form,
    which keeps wedge products and exterior derivatives total.
    """

    __slots__ = ("n", "degree", "_terms")

    def __init__(self, n: int, degree: int, terms=None):
        if n < 1:
            raise ValueError("a form needs at least one variable")
        if type(degree) is not int:
            raise ValueError(f"form degree must be an integer, got {degree!r}")
        if degree < 1:
            raise ValueError("degree-0 forms are represented by bare polynomials")
        self.n = n
        self.degree = degree
        cleaned = {}
        for indices, poly in dict(terms or {}).items():
            idx = _int_tuple(indices, "form indices")
            if len(idx) != degree:
                raise ValueError(f"index tuple {idx} has length {len(idx)}, expected {degree}")
            if any(not 1 <= i <= n for i in idx):
                raise ValueError(f"index tuple {idx} out of range 1..{n}")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"index tuple {idx} must be strictly increasing")
            if not isinstance(poly, Polynomial):
                poly = Polynomial(n, poly)
            if poly.n != n:
                raise ValueError("coefficient polynomial dimension mismatch")
            if not poly.is_zero():
                cleaned[idx] = poly
        self._terms = cleaned

    @classmethod
    def _raw(cls, n: int, degree: int, terms: dict) -> "DifferentialForm":
        out = object.__new__(cls)
        out.n = n
        out.degree = degree
        out._terms = terms
        return out

    @classmethod
    def zero(cls, n: int, degree: int) -> "DifferentialForm":
        return cls._raw(n, degree, {})

    @classmethod
    def coordinate(cls, n: int, index: int) -> "DifferentialForm":
        """The constant 1-form dz_index."""
        return cls(n, 1, {(index,): Polynomial.constant(n, 1)})

    @classmethod
    def from_components(cls, components) -> "DifferentialForm":
        """Build sum_i g_i dz_i from a full list of n coefficient polynomials."""
        comps = tuple(components)
        n = len(comps)
        return cls(n, 1, {(i,): g for i, g in enumerate(comps, start=1)})

    def terms(self) -> list[tuple[tuple[int, ...], Polynomial]]:
        return sorted(self._terms.items())

    def coefficient(self, indices) -> Polynomial:
        return self._terms.get(tuple(indices), Polynomial.zero(self.n))

    def component_list(self) -> list[Polynomial]:
        """For 1-forms: the full coefficient vector (g_1, ..., g_n)."""
        if self.degree != 1:
            raise ValueError("component_list is defined for 1-forms")
        return [self.coefficient((i,)) for i in range(1, self.n + 1)]

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        return (
            self.n == other.n
            and self.degree == other.degree
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.n, self.degree, frozenset(self._terms.items())))

    def __add__(self, other):
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        if other.n != self.n or other.degree != self.degree:
            raise ValueError("can only add forms of equal dimension and degree")
        acc = dict(self._terms)
        for idx, poly in other._terms.items():
            s = acc.get(idx, Polynomial.zero(self.n)) + poly
            if s.is_zero():
                acc.pop(idx, None)
            else:
                acc[idx] = s
        return DifferentialForm._raw(self.n, self.degree, acc)

    def __sub__(self, other):
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return DifferentialForm._raw(
            self.n, self.degree, {idx: -p for idx, p in self._terms.items()}
        )

    def __mul__(self, other):
        """Scale by a polynomial or scalar (degree is unchanged)."""
        if isinstance(other, Polynomial):
            scale = other
        elif isinstance(other, _SCALARS):
            scale = Polynomial.constant(self.n, as_gaussian(other))
        else:
            return NotImplemented
        acc = {}
        for idx, poly in self._terms.items():
            p = poly * scale
            if not p.is_zero():
                acc[idx] = p
        return DifferentialForm._raw(self.n, self.degree, acc)

    __rmul__ = __mul__

    def __str__(self) -> str:
        ts = self.terms()
        if not ts:
            return "0"
        parts = []
        for idx, poly in ts:
            basis = "∧".join(f"dz_{i}" for i in idx)
            text = str(poly)
            if len(poly._terms) > 1:
                parts.append(f"({text}) {basis}")
            elif text == "1":
                parts.append(basis)
            else:
                parts.append(f"{text} {basis}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"DifferentialForm({self.n}, {self.degree}, {self._terms!r})"

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "terms": [
                {"indices": list(idx), "coefficient": poly.to_json()}
                for idx, poly in self.terms()
            ],
        }

    @classmethod
    def from_json(cls, n: int, data) -> "DifferentialForm":
        if not isinstance(data, dict) or "degree" not in data or "terms" not in data:
            raise ValueError('form payload must be {"degree": p, "terms": [...]}')
        if not isinstance(data["terms"], list):
            raise ValueError(f"form terms must be a list, got {data['terms']!r}")
        terms = {}
        for entry in data["terms"]:
            if not isinstance(entry, dict) or "indices" not in entry or "coefficient" not in entry:
                raise ValueError(f"malformed form term {entry!r}")
            idx = _int_tuple(entry["indices"], "form indices")
            poly = Polynomial.from_json(n, entry["coefficient"])
            if idx in terms:
                poly = terms[idx] + poly
            terms[idx] = poly
        return cls(n, data["degree"], terms)


def _merge_indices(left: tuple[int, ...], right: tuple[int, ...]):
    """Merge two strictly increasing tuples; return (sign, merged) or None on overlap."""
    merged = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] == right[j]:
            return None
        if left[i] < right[j]:
            merged.append(left[i])
            i += 1
        else:
            # right[j] jumps over the remaining len(left) - i entries of left
            if (len(left) - i) % 2:
                sign = -sign
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return sign, tuple(merged)


def wedge(left, right):
    """Exterior product.  Degree-0 operands are bare polynomials."""
    if isinstance(left, Polynomial) and isinstance(right, Polynomial):
        return left * right
    if isinstance(left, Polynomial):
        return right * left
    if isinstance(right, Polynomial):
        return left * right
    if left.n != right.n:
        raise ValueError("ambient dimension mismatch in wedge product")
    products: dict = {}
    for idx_l, poly_l in left._terms.items():
        for idx_r, poly_r in right._terms.items():
            merged = _merge_indices(idx_l, idx_r)
            if merged is not None:
                sign, idx = merged
                products.setdefault(idx, []).append((sign, poly_l, poly_r))
    return _form_of_sums(left.n, left.degree + right.degree, products)


def _form_of_sums(n: int, degree: int, products: dict) -> DifferentialForm:
    """The form whose coefficient at each index tuple is that tuple's sum of products."""
    acc = {}
    for idx, pairs in products.items():
        poly = _sum_of_products(n, pairs)
        if poly:
            acc[idx] = poly
    return DifferentialForm._raw(n, degree, acc)


def exterior_derivative(obj):
    """Exterior derivative of a polynomial (0-form) or differential form."""
    if isinstance(obj, Polynomial):
        return DifferentialForm(
            obj.n,
            1,
            {(i,): obj.partial_derivative(i) for i in range(1, obj.n + 1)},
        )
    if not isinstance(obj, DifferentialForm):
        raise ValueError("exterior derivative expects a polynomial or a form")
    acc: dict = {}
    for idx, poly in obj._terms.items():
        for i in range(1, obj.n + 1):
            if i in idx:
                continue
            dpoly = poly.partial_derivative(i)
            if dpoly.is_zero():
                continue
            position = bisect_left(idx, i)
            new_idx = idx[:position] + (i,) + idx[position:]
            term = dpoly if position % 2 == 0 else -dpoly
            s = acc.get(new_idx, Polynomial.zero(obj.n)) + term
            if s.is_zero():
                acc.pop(new_idx, None)
            else:
                acc[new_idx] = s
    return DifferentialForm._raw(obj.n, obj.degree + 1, acc)


def interior_product(field: VectorField, omega: DifferentialForm):
    """Contraction i_v(omega); returns a polynomial when omega has degree 1."""
    if isinstance(omega, Polynomial):
        raise ValueError("interior product needs a form of degree at least 1")
    if field.n != omega.n:
        raise ValueError("ambient dimension mismatch in interior product")
    if omega.degree == 1:
        return _sum_of_products(
            omega.n,
            [(1, poly, field.components[i - 1]) for (i,), poly in omega._terms.items()],
        )
    products: dict = {}
    for idx, poly in omega._terms.items():
        for position, i in enumerate(idx):
            new_idx = idx[:position] + idx[position + 1:]
            sign = -1 if position % 2 else 1
            products.setdefault(new_idx, []).append((sign, poly, field.components[i - 1]))
    return _form_of_sums(omega.n, omega.degree - 1, products)


def radial_field(n: int) -> VectorField:
    """The Euler field sum_i z_i d/dz_i."""
    return VectorField(tuple(Polynomial.variable(n, i) for i in range(1, n + 1)))


def homogeneity(obj) -> int | None:
    """Common total degree of all coefficient monomials, or None when mixed.

    The zero polynomial and the zero form report degree 0.
    """
    if isinstance(obj, Polynomial):
        return obj.homogeneous_degree()
    if not isinstance(obj, DifferentialForm):
        raise ValueError("homogeneity expects a polynomial or a form")
    degrees = set()
    for poly in obj._terms.values():
        d = poly.homogeneous_degree()
        if d is None:
            return None
        degrees.add(d)
    if not degrees:
        return 0
    if len(degrees) == 1:
        return degrees.pop()
    return None
