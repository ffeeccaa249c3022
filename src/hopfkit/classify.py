"""Classification of nonsingular one-dimensional foliations and
codimension-one distributions.

For classical, generic, and intermediary relation patterns the admissible
bundle parameters form short explicit lists (an infinite classical family is
truncated by ``max_degree``), each carrying a nonsingular witness in normal
form.  The module also builds monomial normal forms from a bundle parameter,
computes singular loci of monomial sections as unions of coordinate
subspaces, and decides nonsingularity exactly wherever an exact procedure
exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .elimination import (
    binary_forms_have_common_zero,
    matrix_rank,
    ternary_forms_have_common_zero,
)
from .errors import UnsupportedComputationError
from .forms import DifferentialForm
from .multipliers import BundleParam, MultiplierStructure, StructureKind
from .polynomials import Polynomial, VectorField
from .rationals import GaussianRational, as_gaussian


class Side(str, Enum):
    TANGENT = "tangent"
    CONORMAL = "conormal"


class RepresentativeKind(str, Enum):
    """Shape of a classification entry, read off the tabulated bundle parameter.

    Constant entries have parameter equal to a single multiplier, linear
    entries have trivial parameter, everything else is polynomial.  On the
    tangent side this matches the usual naming for the witness field; on the
    conormal side the same rule is applied to the inverse conormal parameter.
    """

    CONSTANT = "constant"
    LINEAR = "linear"
    POLYNOMIAL = "polynomial"


class Verdict(str, Enum):
    NONSINGULAR = "nonsingular"
    SINGULAR = "singular"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class CoordinateLocus:
    """Union of coordinate subspaces inside C^n minus the origin.

    Each component is the tuple of indices whose coordinates vanish; its
    dimension is n minus the tuple length.  Components of dimension zero
    (the origin alone) are never stored because the origin is removed.
    """

    n: int
    components: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        comps = tuple(tuple(sorted(int(i) for i in c)) for c in self.components)
        object.__setattr__(self, "components", tuple(sorted(comps, key=lambda c: (len(c), c))))

    @property
    def is_empty(self) -> bool:
        return not self.components

    def dimensions(self) -> list[int]:
        return [self.n - len(c) for c in self.components]

    def __str__(self) -> str:
        if self.is_empty:
            return "empty"
        pieces = [
            "V(" + ", ".join(f"z_{i}" for i in c) + f") \\ {{0}}, dim {self.n - len(c)}"
            for c in self.components
        ]
        return "; ".join(pieces)


@dataclass(frozen=True)
class NonsingularityResult:
    verdict: Verdict
    locus: CoordinateLocus | None = None


@dataclass(frozen=True)
class FoliationClassification:
    """One admissible bundle parameter together with a witness in normal form.

    ``bundle`` is the tabulated parameter: on the tangent side the parameter
    b of the rank-one tangent subsheaf, on the conormal side the inverse
    b^(-1) of the conormal parameter (the twist whose 1-form sections contain
    the defining form).  ``degree`` carries the classical family parameter m
    for polynomial entries and is None otherwise.
    """

    side: Side
    bundle: BundleParam
    kind: RepresentativeKind
    degree: int | None
    representative: VectorField | DifferentialForm
    nonsingularity: NonsingularityResult


def _coefficient_vector(n: int, coefficients) -> list[GaussianRational]:
    if coefficients is None:
        return [GaussianRational(1)] * n
    values = [as_gaussian(c) for c in coefficients]
    if len(values) != n:
        raise ValueError(f"expected {n} coefficients, got {len(values)}")
    return values


def _kind_of_param(ms: MultiplierStructure, bundle: BundleParam) -> RepresentativeKind:
    key = ms.class_of(bundle.exponents)
    if all(v == 0 for v in key):
        return RepresentativeKind.LINEAR
    if sum(key) == 1 and all(v in (0, 1) for v in key):
        return RepresentativeKind.CONSTANT
    return RepresentativeKind.POLYNOMIAL


def _entry(side, ms, bundle, representative, family_degree=None) -> FoliationClassification:
    kind = _kind_of_param(ms, bundle)
    degree = family_degree if kind is RepresentativeKind.POLYNOMIAL else None
    return FoliationClassification(
        side=side,
        bundle=bundle,
        kind=kind,
        degree=degree,
        representative=representative,
        nonsingularity=nonsingularity_check(representative),
    )


def witness_classical_vf(n: int, m: int, coefficients=None) -> VectorField:
    """Degree m+1 coordinate-power field c_k z_k^(m+1) d/dz_k; m = -1 gives constants."""
    if m < -1:
        raise ValueError("the classical family starts at m = -1")
    c = _coefficient_vector(n, coefficients)
    comps = []
    for k in range(1, n + 1):
        exps = tuple(m + 1 if i == k else 0 for i in range(1, n + 1))
        comps.append(Polynomial(n, {exps: c[k - 1]}))
    return VectorField(tuple(comps))


def _diagonal_field(n: int, c) -> VectorField:
    return VectorField(tuple(Polynomial.variable(n, k) * c[k - 1] for k in range(1, n + 1)))


def _constant_field(n: int, c, indices) -> VectorField:
    chosen = set(indices)
    comps = [
        Polynomial.constant(n, c[k - 1]) if k in chosen else Polynomial.zero(n)
        for k in range(1, n + 1)
    ]
    return VectorField(tuple(comps))


def _constant_form(n: int, c, indices) -> DifferentialForm:
    return DifferentialForm(
        n, 1, {(i,): Polynomial.constant(n, c[i - 1]) for i in indices}
    )


def _table_groups(ms: MultiplierStructure) -> list[tuple[int, ...]]:
    """Groups in table order: the block of an intermediary pattern first, then singletons."""
    return sorted(ms.groups, key=lambda g: (len(g) == 1, g))


def _require_table_kind(ms: MultiplierStructure) -> StructureKind:
    kind = ms.kind
    if kind is StructureKind.GENERAL:
        raise UnsupportedComputationError(
            "no classification table for a general relation pattern"
        )
    return kind


def admissible_tangent_bundles(
    ms: MultiplierStructure, max_degree: int = 3, coefficients=None
) -> list[FoliationClassification]:
    """Admissible tangent subsheaf parameters with nonsingular witnesses.

    Classical patterns carry an infinite family indexed by m >= -1, truncated
    at ``max_degree``.  Generic and intermediary patterns give the trivial
    parameter and then one multiplier per group (the block first, then the
    singletons), witnessed by a constant field on that group.
    """
    kind = _require_table_kind(ms)
    n = ms.n
    c = _coefficient_vector(n, coefficients)
    if kind is StructureKind.CLASSICAL:
        if max_degree < -1:
            raise ValueError("max_degree must be at least -1")
        entries = []
        for m in range(-1, max_degree + 1):
            bundle = BundleParam.monomial((-m,) + (0,) * (n - 1))
            rep = witness_classical_vf(n, m, c)
            entries.append(_entry(Side.TANGENT, ms, bundle, rep, family_degree=m))
        return entries
    entries = [_entry(Side.TANGENT, ms, BundleParam.trivial(n), _diagonal_field(n, c))]
    for group in _table_groups(ms):
        bundle = BundleParam.multiplier(group[0], n)
        entries.append(_entry(Side.TANGENT, ms, bundle, _constant_field(n, c, group)))
    return entries


def admissible_conormal_bundles(
    ms: MultiplierStructure, max_degree: int = 3, coefficients=None
) -> list[FoliationClassification]:
    """Admissible conormal parameters (tabulated via their inverses) with witnesses.

    Classical patterns carry the family b^(-1) = mu^m for 1 <= m <=
    ``max_degree`` with coordinate-power witness forms.  Generic and
    intermediary patterns give one multiplier per group (the block first,
    then the singletons), witnessed by the sum of dz over that group.
    """
    kind = _require_table_kind(ms)
    n = ms.n
    c = _coefficient_vector(n, coefficients)
    entries = []
    if kind is StructureKind.CLASSICAL:
        for m in range(1, max_degree + 1):
            bundle = BundleParam.monomial((m,) + (0,) * (n - 1))
            comps = {}
            for i in range(1, n + 1):
                exps = tuple(m - 1 if j == i else 0 for j in range(1, n + 1))
                comps[(i,)] = Polynomial(n, {exps: c[i - 1]})
            rep = DifferentialForm(n, 1, comps)
            entries.append(_entry(Side.CONORMAL, ms, bundle, rep, family_degree=m))
        return entries
    for group in _table_groups(ms):
        bundle = BundleParam.multiplier(group[0], n)
        entries.append(_entry(Side.CONORMAL, ms, bundle, _constant_form(n, c, group)))
    return entries


def monomial_vf_from_bundle(
    ms: MultiplierStructure, bundle: BundleParam, coefficients=None
) -> VectorField:
    """Monomial normal form c_k z^(d + e_k) d/dz_k for a generic pattern.

    ``d`` is the exponent vector of the inverse bundle parameter; components
    with a negative entry in d + e_k are omitted.  Raises when every
    component is omitted.
    """
    if ms.kind is not StructureKind.GENERIC:
        raise UnsupportedComputationError(
            "monomial normal forms require a generic relation pattern"
        )
    if bundle.is_unrelated:
        raise ValueError("an unrelated parameter admits no monomial normal form")
    n = ms.n
    d = bundle.inverse().exponents
    if len(d) != n:
        raise ValueError(f"bundle exponent vector has length {len(d)}, expected {n}")
    c = _coefficient_vector(n, coefficients)
    comps = []
    for k in range(1, n + 1):
        exps = tuple(v + (1 if i == k else 0) for i, v in enumerate(d, start=1))
        if all(v >= 0 for v in exps):
            comps.append(Polynomial(n, {exps: c[k - 1]}))
        else:
            comps.append(Polynomial.zero(n))
    field = VectorField(tuple(comps))
    if field.is_zero():
        raise ValueError("no component of the requested normal form is admissible")
    return field


def monomial_form_from_bundle(
    ms: MultiplierStructure, bundle: BundleParam, coefficients=None
) -> DifferentialForm:
    """Monomial normal form sum_k c_k z^(m - e_k) dz_k for a generic pattern.

    ``m`` is the exponent vector of the inverse bundle parameter; components
    with a negative entry in m - e_k are omitted.
    """
    if ms.kind is not StructureKind.GENERIC:
        raise UnsupportedComputationError(
            "monomial normal forms require a generic relation pattern"
        )
    if bundle.is_unrelated:
        raise ValueError("an unrelated parameter admits no monomial normal form")
    n = ms.n
    m = bundle.inverse().exponents
    if len(m) != n:
        raise ValueError(f"bundle exponent vector has length {len(m)}, expected {n}")
    c = _coefficient_vector(n, coefficients)
    terms = {}
    for k in range(1, n + 1):
        exps = tuple(v - (1 if i == k else 0) for i, v in enumerate(m, start=1))
        if all(v >= 0 for v in exps):
            terms[(k,)] = Polynomial(n, {exps: c[k - 1]})
    if not terms:
        raise ValueError("no component of the requested normal form is admissible")
    return DifferentialForm(n, 1, terms)


def _section_coefficients(obj) -> tuple[int, list[Polynomial]]:
    """Ambient dimension and the nonzero coefficient polynomials of a section."""
    if isinstance(obj, VectorField):
        return obj.n, [g for g in obj.components if not g.is_zero()]
    if isinstance(obj, DifferentialForm):
        return obj.n, [g for _, g in obj.terms()]
    raise ValueError("expected a vector field or a differential form")


def _minimal_hitting_sets(supports, n: int) -> list[tuple[int, ...]]:
    found: list[tuple[int, ...]] = []
    for size in range(1, n + 1):
        for combo in combinations(range(1, n + 1), size):
            chosen = set(combo)
            if any(set(f) <= chosen for f in found):
                continue
            if all(chosen & support for support in supports):
                found.append(combo)
    return found


def singular_locus_monomial(obj) -> CoordinateLocus:
    """Singular locus of a section whose nonzero coefficients are single monomials.

    The common vanishing set of monomials is a union of coordinate
    subspaces: one component per minimal transversal of the supports, with
    the origin-only transversal discarded because the origin is removed from
    the ambient space.
    """
    n, comps = _section_coefficients(obj)
    if not comps:
        raise ValueError("the zero section has no meaningful singular locus")
    supports = []
    for poly in comps:
        mono = poly.as_monomial()
        if mono is None:
            raise UnsupportedComputationError(
                "singular locus in coordinate-subspace form needs monomial coefficients"
            )
        exps, _ = mono
        support = {i for i, v in enumerate(exps, start=1) if v > 0}
        if not support:
            return CoordinateLocus(n, ())  # a unit coefficient never vanishes
        supports.append(support)
    hitting = _minimal_hitting_sets(supports, n)
    return CoordinateLocus(n, tuple(h for h in hitting if len(h) < n))


def nonsingularity_check(obj) -> NonsingularityResult:
    """Decide whether a section vanishes anywhere away from the origin.

    Exact branches, in order: a nonvanishing constant coefficient; all
    coefficients single monomials (coordinate-subspace locus); all
    coefficients linear (rank of the coefficient matrix); all coefficients
    homogeneous in at most three variables (projective elimination).
    Anything else returns Unknown rather than guessing.
    """
    n, comps = _section_coefficients(obj)
    if not comps:
        raise ValueError("the zero section is singular everywhere; not a distribution")
    if any(p.total_degree() == 0 for p in comps):
        return NonsingularityResult(Verdict.NONSINGULAR)
    if all(p.as_monomial() is not None for p in comps):
        locus = singular_locus_monomial(obj)
        if locus.is_empty:
            return NonsingularityResult(Verdict.NONSINGULAR)
        return NonsingularityResult(Verdict.SINGULAR, locus)
    degrees = [p.homogeneous_degree() for p in comps]
    if any(d is None for d in degrees):
        return NonsingularityResult(Verdict.UNKNOWN)
    if all(d == 1 for d in degrees):
        rows = []
        for p in comps:
            rows.append(
                [
                    p.coefficient(tuple(1 if i == j else 0 for i in range(1, n + 1)))
                    for j in range(1, n + 1)
                ]
            )
        if matrix_rank(rows) == n:
            return NonsingularityResult(Verdict.NONSINGULAR)
        return NonsingularityResult(Verdict.SINGULAR)
    if n == 2:
        if len(comps) == 1:
            return NonsingularityResult(Verdict.SINGULAR)
        if binary_forms_have_common_zero(comps):
            return NonsingularityResult(Verdict.SINGULAR)
        return NonsingularityResult(Verdict.NONSINGULAR)
    if n == 3:
        if len(comps) <= 2:
            # at most two hypersurfaces in projective 2-space always intersect
            return NonsingularityResult(Verdict.SINGULAR)
        if ternary_forms_have_common_zero(*comps):
            return NonsingularityResult(Verdict.SINGULAR)
        return NonsingularityResult(Verdict.NONSINGULAR)
    return NonsingularityResult(Verdict.UNKNOWN)
