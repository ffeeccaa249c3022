"""Geometric identities and counts.

Integrability defects, radial-field calculus, the invariant-hypersurface
alternative for integrable homogeneous 1-forms, compact leaf counts for the
classical coordinate-power family, a fixed-direction oracle on the projective
line, and the Hodge/Chern bookkeeping of the quotient manifold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .classify import CoordinateLocus, singular_locus_monomial
from .elimination import dehomogenize_binary, distinct_root_count, uni_degree
from .forms import (
    DifferentialForm,
    exterior_derivative,
    homogeneity,
    interior_product,
    radial_field,
    wedge,
)
from .polynomials import Polynomial, VectorField


def frobenius_defect(omega: DifferentialForm) -> DifferentialForm:
    """The 3-form omega ^ d(omega); zero exactly when omega is integrable.

    Below ambient dimension 3 every 3-form vanishes, so the defect is
    trivially zero there and says nothing.
    """
    if not isinstance(omega, DifferentialForm) or omega.degree != 1:
        raise ValueError("the integrability defect is defined for 1-forms")
    return wedge(omega, exterior_derivative(omega))


def is_integrable(omega: DifferentialForm) -> bool:
    return frobenius_defect(omega).is_zero()


def is_closed(obj) -> bool:
    return exterior_derivative(obj).is_zero()


def primitive_of_closed(omega: DifferentialForm) -> Polynomial:
    """Polynomial T with dT = omega, for a closed polynomial 1-form.

    Splitting omega by coefficient degree k, each piece is closed and the
    radial contraction divided by k+1 is a primitive, so T is assembled
    exactly with zero constant term.
    """
    if not isinstance(omega, DifferentialForm) or omega.degree != 1:
        raise ValueError("primitives are computed for 1-forms")
    derivative = exterior_derivative(omega)
    if not derivative.is_zero():
        idx, poly = derivative.terms()[0]
        basis = "∧".join(f"dz_{i}" for i in idx)
        raise ValueError(f"form is not closed: d contains ({poly}) {basis}")
    n = omega.n
    radial = radial_field(n)
    pieces: dict[int, dict] = {}
    for idx, poly in omega.terms():
        for degree, part in poly.homogeneous_components().items():
            pieces.setdefault(degree, {})[idx] = part
    total = Polynomial.zero(n)
    for degree, terms in pieces.items():
        piece = DifferentialForm(n, 1, terms)
        total = total + interior_product(radial, piece) * Fraction(1, degree + 1)
    return total


def cartan_radial_check(omega: DifferentialForm) -> bool:
    """Verify i_R(d omega) + d(i_R omega) = (k+1) omega for coefficient degree k.

    This is the Lie derivative along the Euler field computed two ways; it
    must hold exactly for every homogeneous polynomial form.  Inhomogeneous
    input is rejected.
    """
    if not isinstance(omega, DifferentialForm) or omega.degree != 1:
        raise ValueError("the radial identity check expects a 1-form")
    k = homogeneity(omega)
    if k is None:
        raise ValueError("the radial identity needs homogeneous coefficients")
    radial = radial_field(omega.n)
    lhs = interior_product(radial, exterior_derivative(omega)) + exterior_derivative(
        interior_product(radial, omega)
    )
    return lhs == omega * (k + 1)


@dataclass(frozen=True)
class InvariantHypersurface:
    """The radial contraction cuts out an invariant hypersurface.

    ``verified`` certifies the exact identity omega ^ df = -f * d(omega),
    which exhibits omega ^ df as a multiple of f and hence the zero set of f
    as invariant.
    """

    contraction: Polynomial
    verified: bool


@dataclass(frozen=True)
class TangentToFibration:
    """The radial contraction vanishes identically: the distribution contains
    the fibration directions of the natural projection."""


def brunella_alternative(omega: DifferentialForm):
    """Dichotomy for an integrable homogeneous 1-form.

    Either the contraction f = i_R(omega) is nonzero and its zero set is an
    invariant hypersurface (returned with an exact certificate), or f
    vanishes identically and the foliation is tangent to the fibration.
    Non-integrable or inhomogeneous input is rejected.
    """
    if not isinstance(omega, DifferentialForm) or omega.degree != 1:
        raise ValueError("the alternative is stated for 1-forms")
    if homogeneity(omega) is None:
        raise ValueError("the alternative needs homogeneous coefficients")
    if not is_integrable(omega):
        raise ValueError("the alternative needs an integrable form")
    contraction = interior_product(radial_field(omega.n), omega)
    if contraction.is_zero():
        return TangentToFibration()
    lhs = wedge(omega, exterior_derivative(contraction))
    rhs = exterior_derivative(omega) * contraction
    return InvariantHypersurface(contraction, verified=(lhs + rhs).is_zero())


def leaf_count_classical(n: int, m: int) -> int:
    """Number of compact leaves of the coordinate-power foliation: (m^n - 1)/(m - 1).

    Defined for degree parameter m >= 2; at m = 1 the geometric-series limit
    n is returned, which extrapolates the formula rather than counting.
    """
    if n < 3:
        raise ValueError("the compact leaf count assumes ambient dimension at least 3")
    if m < 1:
        raise ValueError("the degree parameter must be at least 1")
    if m == 1:
        return n
    count, remainder = divmod(m**n - 1, m - 1)
    assert remainder == 0
    return count


@dataclass(frozen=True)
class FixedPointCount:
    """Fixed directions of a planar homogeneous field on the projective line."""

    infinite: bool
    with_multiplicity: int | None = None
    distinct: int | None = None


def fixed_point_count_p1(field: VectorField) -> FixedPointCount:
    """Count fixed directions of a homogeneous field on C^2.

    The directions fixed by (g_1, g_2) are the projective zeros of
    P = z_1 g_2 - z_2 g_1.  When P vanishes identically the field is radial
    up to a function and every direction is fixed.
    """
    if field.n != 2:
        raise ValueError("the fixed-direction count works on C^2")
    g1, g2 = field.components
    degrees = {
        g.homogeneous_degree() for g in (g1, g2) if not g.is_zero()
    }
    if not degrees:
        raise ValueError("the zero field has no fixed-direction count")
    if None in degrees or len(degrees) != 1:
        raise ValueError("components must be homogeneous of one common degree")
    z1 = Polynomial.variable(2, 1)
    z2 = Polynomial.variable(2, 2)
    pencil = z1 * g2 - z2 * g1
    if pencil.is_zero():
        return FixedPointCount(infinite=True)
    total = pencil.total_degree()
    coeffs = dehomogenize_binary(pencil)
    distinct = distinct_root_count(coeffs)
    if uni_degree(coeffs) < total:
        distinct += 1  # the direction (1 : 0) is a zero as well
    return FixedPointCount(infinite=False, with_multiplicity=total, distinct=distinct)


@dataclass(frozen=True)
class HodgeTable:
    """Hodge numbers of the quotient manifold.

    Exactly four entries are nonzero and equal to 1: (0,0), (0,1), (n,n-1),
    and (n,n).
    """

    n: int

    def _nonzero(self) -> tuple[tuple[int, int], ...]:
        return ((0, 0), (0, 1), (self.n, self.n - 1), (self.n, self.n))

    def h(self, p: int, q: int) -> int:
        if not (0 <= p <= self.n and 0 <= q <= self.n):
            raise ValueError(f"indices ({p}, {q}) out of range 0..{self.n}")
        return 1 if (p, q) in self._nonzero() else 0

    def nonzero_entries(self) -> list[tuple[int, int, int]]:
        """The four entries equal to 1, in row-major order."""
        return [(p, q, 1) for p, q in self._nonzero()]

    def alternating_sum(self) -> int:
        """Sum of (-1)^(p+q) h[p,q]; the four nonzero entries cancel to 0."""
        return sum((-1) ** (p + q) for p, q in self._nonzero())


def hodge_numbers(n: int) -> HodgeTable:
    if n < 2:
        raise ValueError("the Hodge table assumes ambient dimension at least 2")
    return HodgeTable(n)


def chern_top(n: int) -> int:
    """Top Chern number of the quotient: the alternating Hodge sum, which is 0."""
    return hodge_numbers(n).alternating_sum()


@dataclass(frozen=True)
class ObstructionReport:
    """Why a monomial section cannot have a nonempty isolated singular set."""

    locus: CoordinateLocus
    consistent: bool
    chern_top: int
    chain: tuple[str, ...]


_OBSTRUCTION_CHAIN = (
    "the second integral cohomology of the quotient vanishes, so every line "
    "bundle has c_1 = 0",
    "with c_1(L) = 0 the top Chern class of the twisted tangent sheaf equals "
    "c_n of the tangent sheaf, and the alternating Hodge sum makes that 0",
    "a nonempty isolated singular set would force a positive top Chern "
    "number, so the singular set is empty or positive-dimensional",
)


def isolated_singularity_obstruction(obj) -> ObstructionReport:
    """Check a monomial section against the isolated-singularity obstruction.

    Computes the coordinate-subspace singular locus and confirms it is empty
    or has every component of dimension at least 1, as the Chern-class chain
    demands.
    """
    locus = singular_locus_monomial(obj)
    n = locus.n
    consistent = locus.is_empty or all(d >= 1 for d in locus.dimensions())
    return ObstructionReport(
        locus=locus,
        consistent=consistent,
        chern_top=chern_top(n) if n >= 2 else 0,
        chain=_OBSTRUCTION_CHAIN,
    )
