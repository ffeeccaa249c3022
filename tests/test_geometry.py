from fractions import Fraction

import pytest

from hopfkit import (
    BundleParam,
    DifferentialForm,
    GaussianRational,
    HodgeTable,
    InvariantHypersurface,
    MultiplierStructure,
    Polynomial,
    TangentToFibration,
    VectorField,
    brunella_alternative,
    cartan_radial_check,
    chern_top,
    fixed_point_count_p1,
    frobenius_defect,
    hodge_numbers,
    interior_product,
    is_closed,
    is_integrable,
    isolated_singularity_obstruction,
    leaf_count_classical,
    monomial_form_from_bundle,
    primitive_of_closed,
    radial_field,
    singular_locus_monomial,
    exterior_derivative,
    wedge,
)
from tests.conftest import rand_homogeneous_poly, rand_poly, rand_scalar


def dz(n, i):
    return DifferentialForm.coordinate(n, i)


def coordinate_power_form(p):
    n = 3
    z1, z2, z3 = (Polynomial.variable(n, i) for i in (1, 2, 3))
    return z2 ** p * dz(n, 1) + z1 ** p * dz(n, 2) + z3 ** p * dz(n, 3)


def test_defect_of_coordinate_power_family():
    n = 3
    z1, z2, z3 = (Polynomial.variable(n, i) for i in (1, 2, 3))
    defect = frobenius_defect(coordinate_power_form(2))
    expected = (2 * z1 * z3 ** 2 - 2 * z2 * z3 ** 2) * wedge(
        wedge(dz(n, 1), dz(n, 2)), dz(n, 3)
    )
    assert defect == expected
    assert not is_integrable(coordinate_power_form(2))
    assert is_integrable(coordinate_power_form(1))
    for p in (3, 4, 5):
        assert not frobenius_defect(coordinate_power_form(p)).is_zero()


def test_frobenius_defect_rejects_higher_degree():
    n = 3
    with pytest.raises(ValueError):
        frobenius_defect(wedge(dz(n, 1), dz(n, 2)))


def test_primitive_of_closed_random(rng):
    for _ in range(30):
        n = rng.randint(2, 4)
        T = rand_poly(rng, n, max_degree=4, max_terms=3)
        omega = exterior_derivative(T)
        assert is_closed(omega)
        recovered = primitive_of_closed(omega)
        assert exterior_derivative(recovered) == omega
        # the Euler construction never reproduces the constant term
        assert recovered.coefficient((0,) * n) == 0


def test_primitive_requires_closed():
    n = 2
    z1 = Polynomial.variable(n, 1)
    omega = z1 * dz(n, 2)
    with pytest.raises(ValueError, match="not closed"):
        primitive_of_closed(omega)


def test_cartan_radial_identity_random(rng):
    for _ in range(40):
        n = rng.randint(2, 5)
        k = rng.randint(0, 4)
        terms = {}
        for i in range(1, n + 1):
            if rng.random() < 0.6:
                terms[(i,)] = rand_homogeneous_poly(rng, n, k)
        if not terms:
            continue
        omega = DifferentialForm(n, 1, terms)
        assert cartan_radial_check(omega)
        # the identity written out, against the raw operators
        R = radial_field(n)
        lhs = interior_product(R, exterior_derivative(omega)) + exterior_derivative(
            interior_product(R, omega)
        )
        assert lhs == omega * (k + 1)


def test_cartan_rejects_inhomogeneous():
    n = 2
    z1 = Polynomial.variable(n, 1)
    omega = (z1 + z1 * z1) * dz(n, 1)
    with pytest.raises(ValueError):
        cartan_radial_check(omega)


def test_brunella_invariant_hypersurface():
    n = 2
    z1 = Polynomial.variable(n, 1)
    outcome = brunella_alternative(z1 * dz(n, 2))
    assert isinstance(outcome, InvariantHypersurface)
    assert outcome.contraction == z1 * Polynomial.variable(n, 2)
    assert outcome.verified


def test_brunella_closed_and_constant_cases():
    n = 2
    z1, z2 = Polynomial.variable(n, 1), Polynomial.variable(n, 2)
    closed = brunella_alternative(z2 * dz(n, 1) + z1 * dz(n, 2))
    assert isinstance(closed, InvariantHypersurface)
    assert closed.contraction == 2 * z1 * z2
    assert closed.verified
    constant = brunella_alternative(dz(n, 1))
    assert isinstance(constant, InvariantHypersurface)
    assert constant.contraction == z1
    assert constant.verified


def test_brunella_tangent_to_fibration():
    n = 3
    z1, z2 = Polynomial.variable(n, 1), Polynomial.variable(n, 2)
    omega = z2 * dz(n, 1) - z1 * dz(n, 2)
    outcome = brunella_alternative(omega)
    assert isinstance(outcome, TangentToFibration)


def test_brunella_requires_integrability():
    with pytest.raises(ValueError):
        brunella_alternative(coordinate_power_form(2))


def test_brunella_identity_on_monomial_family(rng):
    # f = i_R omega is nonzero whenever the coefficients do not cancel,
    # and then df wedge omega = f d(omega) exactly
    for _ in range(40):
        n = rng.randint(3, 5)
        ms = MultiplierStructure.generic(n)
        m = tuple(rng.randint(0, 3) for _ in range(n))
        if max(m) == 0:
            continue
        coeffs = [abs(rand_scalar(rng).re) + 1 for _ in range(n)]
        try:
            omega = monomial_form_from_bundle(
                ms, BundleParam.monomial(tuple(-v for v in m)), coeffs
            )
        except ValueError:
            continue
        assert is_integrable(omega)
        outcome = brunella_alternative(omega)
        assert isinstance(outcome, InvariantHypersurface)
        assert outcome.verified
        f = outcome.contraction
        assert wedge(exterior_derivative(f), omega) == exterior_derivative(omega) * f


def test_leaf_count_values():
    assert leaf_count_classical(3, 2) == 7
    assert leaf_count_classical(3, 3) == 13
    assert leaf_count_classical(4, 2) == 15
    assert leaf_count_classical(5, 2) == 31
    assert leaf_count_classical(3, 1) == 3
    with pytest.raises(ValueError):
        leaf_count_classical(2, 2)
    with pytest.raises(ValueError):
        leaf_count_classical(3, 0)


def test_fixed_point_counts():
    n = 2
    sq = [Polynomial.monomial(n, (2, 0)), Polynomial.monomial(n, (0, 2))]
    count = fixed_point_count_p1(VectorField((sq[0], sq[1])))
    assert (count.with_multiplicity, count.distinct) == (3, 3)
    swapped = fixed_point_count_p1(VectorField((sq[1], sq[0])))
    assert (swapped.with_multiplicity, swapped.distinct) == (3, 3)

    radial = fixed_point_count_p1(radial_field(2))
    assert radial.infinite

    z1, z2 = Polynomial.variable(n, 1), Polynomial.variable(n, 2)
    repeated = fixed_point_count_p1(VectorField((z1 * z1, z1 * z2 + z2 * z2)))
    assert repeated.with_multiplicity == 3
    assert repeated.distinct == 2


def test_fixed_point_count_validation():
    with pytest.raises(ValueError):
        fixed_point_count_p1(radial_field(3))
    n = 2
    z1 = Polynomial.variable(n, 1)
    mixed = VectorField((z1 + z1 * z1, Polynomial.zero(n)))
    with pytest.raises(ValueError):
        fixed_point_count_p1(mixed)


def test_hodge_table():
    for n in [*range(2, 11), 10**6]:
        table = hodge_numbers(n)
        entries = table.nonzero_entries()
        assert [(p, q) for p, q, _ in entries] == [
            (0, 0),
            (0, 1),
            (n, n - 1),
            (n, n),
        ]
        assert all(v == 1 for _, _, v in entries)
        assert table.h(0, 0) == 1 and table.h(1, 1) == 0
        assert chern_top(n) == 0
        assert table.alternating_sum() == 0
    with pytest.raises(ValueError):
        hodge_numbers(1)


def test_obstruction_report():
    n = 3
    field = VectorField((
        Polynomial.monomial(n, (0, 1, 1)),
        Polynomial.monomial(n, (1, 0, 0)),
        Polynomial.monomial(n, (1, 0, 0)),
    ))
    report = isolated_singularity_obstruction(field)
    assert report.consistent
    assert report.chern_top == 0
    assert len(report.chain) == 3
    assert report.locus == singular_locus_monomial(field)
    empty = isolated_singularity_obstruction(
        VectorField(tuple(Polynomial.constant(n, 1) for _ in range(n)))
    )
    assert empty.consistent and empty.locus.is_empty
