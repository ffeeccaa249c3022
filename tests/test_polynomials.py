from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfkit import GaussianRational, Polynomial, VectorField

coeffs = st.builds(
    GaussianRational,
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
)
exponents = st.tuples(*([st.integers(min_value=0, max_value=4)] * 3))
polys = st.dictionaries(exponents, coeffs, max_size=4).map(lambda d: Polynomial(3, d))


def test_constructor_validation():
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): 1})  # wrong arity
    with pytest.raises(ValueError):
        Polynomial(2, {(-1, 0): 1})
    with pytest.raises(ValueError):
        Polynomial(2, {(0, 0): 0.5})  # floats never enter
    for bad in (1.0, True, "1"):  # exponents are exact ints, never truncated or parsed
        with pytest.raises(ValueError):
            Polynomial(2, {(bad, 0): 1})
    for bad in ([1.7, 0], None, 5, [[1], 0]):
        with pytest.raises(ValueError):
            Polynomial.from_json(2, [{"exponents": bad, "coeff": "1"}])
    assert Polynomial(2, {(1, 0): 0}).is_zero()


def test_basic_construction():
    z1 = Polynomial.variable(3, 1)
    z2 = Polynomial.variable(3, 2)
    p = z1 * z1 + 2 * z2
    assert p.coefficient((2, 0, 0)) == 1
    assert p.coefficient((0, 1, 0)) == 2
    assert p.coefficient((5, 0, 0)) == 0
    assert p.total_degree() == 2
    assert Polynomial.zero(3).total_degree() is None
    assert Polynomial.constant(3, Fraction(1, 2)) * 2 == Polynomial.constant(3, 1)


def test_as_monomial():
    m = Polynomial.monomial(3, (1, 2, 0), 5)
    exps, coeff = m.as_monomial()
    assert exps == (1, 2, 0) and coeff == 5
    assert (m + Polynomial.variable(3, 1)).as_monomial() is None
    assert Polynomial.zero(3).as_monomial() is None


@given(polys, polys, polys)
@settings(max_examples=60)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p - p == Polynomial.zero(3)


@given(polys, polys)
@settings(max_examples=60)
def test_derivative_is_linear_and_leibniz(p, q):
    for i in (1, 2, 3):
        assert (p + q).partial_derivative(i) == p.partial_derivative(
            i
        ) + q.partial_derivative(i)
        assert (p * q).partial_derivative(i) == p.partial_derivative(
            i
        ) * q + p * q.partial_derivative(i)


@given(polys, polys)
@settings(max_examples=40)
def test_evaluate_is_a_homomorphism(p, q):
    point = (GaussianRational(2), GaussianRational(Fraction(-1, 2)), GaussianRational(0, 1))
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


def test_homogeneity():
    z1 = Polynomial.variable(3, 1)
    z3 = Polynomial.variable(3, 3)
    assert (z1 * z3).homogeneous_degree() == 2
    assert (z1 + z1 * z3).homogeneous_degree() is None
    assert Polynomial.zero(3).homogeneous_degree() == 0
    pieces = (z1 + z1 * z3).homogeneous_components()
    assert sorted(pieces) == [1, 2]
    assert pieces[1] == z1 and pieces[2] == z1 * z3


def test_pow_and_str():
    z1 = Polynomial.variable(2, 1)
    z2 = Polynomial.variable(2, 2)
    assert (z1 + z2) ** 2 == z1 * z1 + 2 * z1 * z2 + z2 * z2
    assert str(Polynomial.zero(2)) == "0"
    assert str(z1 * z1) == "z_1^2"
    assert str(Polynomial.monomial(2, (1, 1), GaussianRational(0, 1))) == "i*z_1*z_2"


def test_json_roundtrip():
    p = Polynomial(
        2, {(1, 0): GaussianRational(Fraction(1, 2), Fraction(3, 4)), (0, 2): -3}
    )
    assert Polynomial.from_json(2, p.to_json()) == p
    v = VectorField((p, Polynomial.zero(2)))
    assert VectorField.from_json(2, v.to_json()) == v


def test_vector_field_validation():
    with pytest.raises(ValueError):
        VectorField((Polynomial.zero(2), Polynomial.zero(3)))
    with pytest.raises(ValueError):
        VectorField.from_json(2, {"components": 5})
    with pytest.raises(ValueError):
        VectorField(())
    v = VectorField((Polynomial.variable(2, 1), Polynomial.zero(2)))
    assert v.n == 2 and not v.is_zero()
    assert str(v) == "z_1 ∂/∂z_1"
