"""Products, wedges and contractions against the naive term-pair oracle.

Inputs cover n = 1..6, mixed denominators, the zero polynomial, products
that cancel to zero, and exponents whose per-variable sums sit exactly at a
power-of-two boundary of the packed exponent fields.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfkit import (
    DifferentialForm,
    GaussianRational,
    Polynomial,
    VectorField,
    interior_product,
    wedge,
)
from tests.conftest import (
    form_term_pairs,
    naive_interior,
    naive_product,
    naive_wedge,
    term_pairs,
)

# (2**k - 1) + (2**k - 1) needs exactly k + 1 bits
BOUNDARY = [2**k - 1 for k in (1, 2, 7, 8, 31, 32, 63, 64)] + [10**6]
exponent = st.one_of(st.integers(0, 3), st.sampled_from(BOUNDARY))
fraction = st.one_of(
    st.fractions(min_value=-8, max_value=8, max_denominator=12),
    st.sampled_from([Fraction(1, 10**9 + 7), Fraction(-5, 2**40), Fraction(7, 9)]),
)
coeffs = st.builds(GaussianRational, fraction, fraction)
dimensions = st.integers(min_value=1, max_value=6)


def polys(n, max_size=4):
    return st.dictionaries(st.tuples(*[exponent] * n), coeffs, max_size=max_size).map(
        lambda terms: Polynomial(n, terms)
    )


def forms(n, degree):
    indices = st.sampled_from(list(combinations(range(1, n + 1), degree)))
    return st.dictionaries(indices, polys(n, 3), max_size=3).map(
        lambda terms: DifferentialForm(n, degree, terms)
    )


@given(st.data())
@settings(max_examples=60)
def test_product_matches_oracle(data):
    n = data.draw(dimensions)
    p, q = data.draw(polys(n)), data.draw(polys(n))
    assert term_pairs(p * q) == naive_product(p, q)
    assert (p * Polynomial.zero(n)).is_zero()


@given(st.data())
@settings(max_examples=40)
def test_wedge_matches_oracle(data):
    n = data.draw(dimensions)
    p, q = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
    alpha, beta = data.draw(forms(n, p)), data.draw(forms(n, q))
    assert form_term_pairs(wedge(alpha, beta)) == naive_wedge(alpha, beta)


@given(st.data())
@settings(max_examples=40)
def test_interior_product_matches_oracle(data):
    n = data.draw(dimensions)
    field = VectorField(tuple(data.draw(polys(n, 3)) for _ in range(n)))
    omega = data.draw(forms(n, data.draw(st.integers(1, n))))
    assert form_term_pairs(interior_product(field, omega)) == naive_interior(field, omega)


@given(st.data())
@settings(max_examples=30)
def test_cancelling_products_vanish(data):
    n = data.draw(st.integers(min_value=2, max_value=6))
    f, g, h = (data.draw(polys(n, 3)) for _ in range(3))
    dz1, dz2 = DifferentialForm.coordinate(n, 1), DifferentialForm.coordinate(n, 2)
    # (f dz_1 + g dz_2) ^ h (f dz_1 + g dz_2) = (f*hg - g*hf) dz_1 ^ dz_2
    alpha = f * dz1 + g * dz2
    beta = (h * f) * dz1 + (h * g) * dz2
    assert wedge(alpha, beta).is_zero() and naive_wedge(alpha, beta) == {}
    # contracting with (h g, -h f, 0, ...) gives f*hg - g*hf
    field = VectorField((h * g, -(h * f)) + (Polynomial.zero(n),) * (n - 2))
    assert interior_product(field, alpha).is_zero() and naive_interior(field, alpha) == {}


@pytest.mark.parametrize("top", BOUNDARY)
def test_product_at_packing_width_boundary(top):
    # the exponents of z_1 and z_3 add up to exactly 2 * top
    p = Polynomial(3, {(top, 0, top): Fraction(1, 3), (0, top, 1): GaussianRational(2, -1),
                       (top, top, 0): 5})
    q = Polynomial(3, {(top, 1, top): 7, (1, top, 0): GaussianRational(0, Fraction(1, 2))})
    assert term_pairs(p * q) == naive_product(p, q)
    assert (p * q).coefficient((2 * top, 1, 2 * top)) == Fraction(7, 3)
