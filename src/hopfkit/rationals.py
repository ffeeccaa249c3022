"""Exact Gaussian-rational scalars.

Every coefficient in the toolkit is a complex number with rational real and
imaginary parts, kept exact.  Floating point is rejected at the boundary so
that no rounding can creep into any computation.
"""

from __future__ import annotations

from fractions import Fraction


def _fraction_str(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class GaussianRational:
    """A complex number ``re + im*i`` with :class:`~fractions.Fraction` parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # Fractions are immutable, so an exact Fraction is kept, not copied.
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @classmethod
    def parse(cls, text) -> "GaussianRational":
        """Parse a coefficient string.

        Accepted forms: "3", "-1/2", "i", "-i", "3/4i", "1/2+3/4i",
        "1/2-3/4i".  Whitespace is ignored.  Integers and Fractions pass
        through unchanged.
        """
        if isinstance(text, GaussianRational):
            return text
        if isinstance(text, (int, Fraction)):
            return cls(text)
        s = str(text).replace(" ", "")
        if not s:
            raise ValueError("empty coefficient string")
        if not s.endswith("i"):
            return cls(Fraction(s))
        body = s[:-1]
        # Split a trailing imaginary part from an optional leading real part.
        split_at = 0
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "+-/":
                split_at = pos
                break
        real_part, imag_part = body[:split_at], body[split_at:]
        if imag_part in ("", "+"):
            imag = Fraction(1)
        elif imag_part == "-":
            imag = Fraction(-1)
        else:
            imag = Fraction(imag_part)
        real = Fraction(real_part) if real_part else Fraction(0)
        return cls(real, imag)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # Equal values hash equally: a real value hashes like the int or Fraction it equals.
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only non-negative integer powers are supported")
        out = GaussianRational(1)
        base = self
        k = exponent
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __str__(self) -> str:
        if not self.im:
            return _fraction_str(self.re)
        if self.im == 1:
            imag = "i"
        elif self.im == -1:
            imag = "-i"
        else:
            imag = f"{_fraction_str(self.im)}i"
        if not self.re:
            return imag
        joiner = "+" if self.im > 0 else ""
        return f"{_fraction_str(self.re)}{joiner}{imag}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return None


def as_gaussian(value) -> GaussianRational:
    """Coerce ints, Fractions, and coefficient strings; reject floats."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, bool):
        raise ValueError("booleans are not coefficients")
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    if isinstance(value, str):
        return GaussianRational.parse(value)
    if isinstance(value, (float, complex)):
        raise ValueError(
            f"floating point coefficient {value!r} rejected: all arithmetic is exact"
        )
    raise ValueError(f"cannot interpret {value!r} as a Gaussian rational")


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
