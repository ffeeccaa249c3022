import pytest

from hopfkit import (
    DifferentialForm,
    Polynomial,
    VectorField,
    exterior_derivative,
    homogeneity,
    interior_product,
    radial_field,
    wedge,
)
from tests.conftest import rand_field, rand_form, rand_poly


def dz(n, i):
    return DifferentialForm.coordinate(n, i)


def test_term_validation():
    with pytest.raises(ValueError):
        DifferentialForm(3, 2, {(2, 1): Polynomial.constant(3, 1)})  # not increasing
    with pytest.raises(ValueError):
        DifferentialForm(3, 2, {(1, 1): Polynomial.constant(3, 1)})
    with pytest.raises(ValueError):
        DifferentialForm(3, 2, {(1,): Polynomial.constant(3, 1)})  # wrong length
    with pytest.raises(ValueError):
        DifferentialForm(3, 1, {(4,): Polynomial.constant(3, 1)})  # out of range
    for bad in (1.9, True, "1"):  # indices and degrees are exact ints
        with pytest.raises(ValueError):
            DifferentialForm(3, 1, {(bad,): Polynomial.constant(3, 1)})
        with pytest.raises(ValueError):
            DifferentialForm(3, bad, {})
    for bad in ({"degree": 1, "terms": 5},
                {"degree": 1.0, "terms": []},
                {"degree": 1, "terms": [{"indices": 1, "coefficient": []}]}):
        with pytest.raises(ValueError):
            DifferentialForm.from_json(3, bad)
    assert DifferentialForm.zero(3, 5).is_zero()  # degree above n only as zero


def test_wedge_basics():
    n = 3
    a, b = dz(n, 1), dz(n, 2)
    assert wedge(a, b) == -wedge(b, a)
    assert wedge(a, a).is_zero()
    z1 = Polynomial.variable(n, 1)
    assert wedge(z1, a) == z1 * a  # 0-forms are bare polynomials
    top = wedge(wedge(a, b), dz(n, 3))
    assert not top.is_zero() and top.degree == 3
    assert wedge(top, a).is_zero()  # degree past n collapses
    with pytest.raises(ValueError):
        wedge(a, dz(2, 1))


def test_exterior_derivative_fixed_example():
    n = 3
    z1, z2, z3 = (Polynomial.variable(n, i) for i in (1, 2, 3))
    omega = z2 * z2 * dz(n, 1) + z1 * z1 * dz(n, 2) + z3 * z3 * dz(n, 3)
    d = exterior_derivative(omega)
    expected = (2 * z1 - 2 * z2) * wedge(dz(n, 1), dz(n, 2))
    assert d == expected
    assert exterior_derivative(z1 * z2) == z2 * dz(n, 1) + z1 * dz(n, 2)


def test_interior_product_fixed_example():
    n = 3
    R = radial_field(n)
    z1, z2 = Polynomial.variable(n, 1), Polynomial.variable(n, 2)
    assert interior_product(R, wedge(dz(n, 1), dz(n, 2))) == z1 * dz(n, 2) - z2 * dz(n, 1)
    assert interior_product(R, dz(n, 1)) == z1  # degree 1 contracts to a polynomial
    with pytest.raises(ValueError):
        interior_product(R, z1)


def test_radial_field():
    R = radial_field(3)
    assert isinstance(R, VectorField)
    assert str(R) == "z_1 ∂/∂z_1 + z_2 ∂/∂z_2 + z_3 ∂/∂z_3"


def test_homogeneity():
    n = 3
    z1 = Polynomial.variable(n, 1)
    assert homogeneity(z1 * z1) == 2
    assert homogeneity(z1 * dz(n, 2)) == 1
    assert homogeneity(z1 * dz(n, 2) + dz(n, 1)) is None
    assert homogeneity(DifferentialForm.zero(n, 2)) == 0


def test_d_squared_random(rng):
    for _ in range(40):
        n = rng.randint(2, 5)
        p = rng.randint(1, min(3, n))
        omega = rand_form(rng, n, p)
        assert exterior_derivative(exterior_derivative(omega)).is_zero()
        f = rand_poly(rng, n)
        assert exterior_derivative(exterior_derivative(f)).is_zero()


def test_wedge_graded_commutativity_random(rng):
    for _ in range(40):
        n = rng.randint(2, 5)
        p = rng.randint(1, min(3, n))
        q = rng.randint(1, min(3, n))
        a = rand_form(rng, n, p)
        b = rand_form(rng, n, q)
        left = wedge(a, b)
        right = wedge(b, a)
        assert left == right * ((-1) ** (p * q))


def test_leibniz_rules_random(rng):
    for _ in range(40):
        n = rng.randint(2, 4)
        p = rng.randint(1, min(3, n))
        q = rng.randint(1, min(3, n))
        a = rand_form(rng, n, p)
        b = rand_form(rng, n, q)
        lhs = exterior_derivative(wedge(a, b))
        rhs = wedge(exterior_derivative(a), b) + wedge(a, exterior_derivative(b)) * (
            (-1) ** p
        )
        assert lhs == rhs
        f = rand_poly(rng, n)
        assert exterior_derivative(f * a) == wedge(exterior_derivative(f), a) + f * exterior_derivative(a)


def test_interior_antiderivation_random(rng):
    for _ in range(40):
        n = rng.randint(2, 4)
        p = rng.randint(1, min(2, n))
        q = rng.randint(1, min(2, n))
        v = rand_field(rng, n)
        a = rand_form(rng, n, p)
        b = rand_form(rng, n, q)
        lhs = interior_product(v, wedge(a, b))
        ia = interior_product(v, a)
        ib = interior_product(v, b)
        rhs = wedge(ia, b) + wedge(a, ib) * ((-1) ** p)
        assert lhs == rhs
        if p >= 2:
            assert interior_product(v, interior_product(v, a)).is_zero()


def test_json_roundtrip():
    n = 3
    z1 = Polynomial.variable(n, 1)
    omega = z1 * wedge(dz(n, 1), dz(n, 3)) - 2 * wedge(dz(n, 2), dz(n, 3))
    assert DifferentialForm.from_json(n, omega.to_json()) == omega


def test_str():
    n = 3
    z1 = Polynomial.variable(n, 1)
    assert str(z1 * dz(n, 2)) == "z_1 dz_2"
    assert str(wedge(dz(n, 1), dz(n, 2))) == "dz_1∧dz_2"
    assert str(DifferentialForm.zero(n, 1)) == "0"
