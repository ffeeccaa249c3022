from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfkit import GaussianRational, as_gaussian

small = st.fractions(min_value=-20, max_value=20, max_denominator=12)
gauss = st.builds(GaussianRational, small, small)


def test_parse_forms():
    assert GaussianRational.parse("3") == 3
    assert GaussianRational.parse("-1/2") == GaussianRational(Fraction(-1, 2))
    assert GaussianRational.parse("i") == GaussianRational(0, 1)
    assert GaussianRational.parse("-i") == GaussianRational(0, -1)
    assert GaussianRational.parse("3/4i") == GaussianRational(0, Fraction(3, 4))
    assert GaussianRational.parse("1/2+3/4i") == GaussianRational(
        Fraction(1, 2), Fraction(3, 4)
    )
    assert GaussianRational.parse("1/2-3/4i") == GaussianRational(
        Fraction(1, 2), Fraction(-3, 4)
    )


def test_parse_rejects_garbage():
    for bad in ("", "one", "1//2", "1+", "+", "2i+3"):
        with pytest.raises(ValueError):
            GaussianRational.parse(bad)


def test_parse_accepts_exact_decimal_strings():
    # decimal text is an exact rational, no floats involved
    assert GaussianRational.parse("1.5") == GaussianRational(Fraction(3, 2))


@given(gauss)
@settings(max_examples=60)
def test_str_parse_roundtrip(x):
    assert GaussianRational.parse(str(x)) == x


@given(gauss, gauss, gauss)
@settings(max_examples=60)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(gauss)
@settings(max_examples=60)
def test_field_inverse(a):
    if a:
        assert a / a == 1
        assert a * (GaussianRational(1) / a) == 1
    else:
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1) / a


@given(st.one_of(st.integers(), st.fractions()))
@settings(max_examples=60)
def test_hash_agrees_with_equality(x):
    g = GaussianRational(x)
    assert g == x and hash(g) == hash(x)
    assert len({x, g}) == 1
    assert {x: "a"}.get(g) == "a"


def test_power():
    i = GaussianRational(0, 1)
    assert i ** 2 == -1
    assert i ** 4 == 1
    assert GaussianRational(Fraction(1, 2)) ** 3 == GaussianRational(Fraction(1, 8))


def test_floats_rejected():
    with pytest.raises(ValueError):
        as_gaussian(0.5)
    with pytest.raises(ValueError):
        as_gaussian(complex(1, 2))
    with pytest.raises(ValueError):
        as_gaussian(True)
    assert as_gaussian(2) == GaussianRational(2)
    assert as_gaussian(Fraction(1, 3)) == GaussianRational(Fraction(1, 3))
    assert as_gaussian("1/2+3/4i") == GaussianRational(Fraction(1, 2), Fraction(3, 4))
