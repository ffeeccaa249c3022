"""Monomial bases of twisted section spaces.

On the quotient of C^n minus the origin by a diagonal contraction, the global
sections of the tangent sheaf, of 1-forms, and of (n-1)-forms twisted by a
line bundle are spanned by monomials whose exponents satisfy one monomial
identity in the multipliers per component.  With the relation pattern encoded
as a :class:`~hopfkit.multipliers.MultiplierStructure`, each identity becomes
an equality of equivalence keys, and the solution set per component is a
product of stars-and-bars enumerations, one per group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import product

from .multipliers import BundleParam, MultiplierStructure


def weak_compositions(total: int, parts: int):
    """Yield every tuple of ``parts`` non-negative integers summing to ``total``.

    Tuples appear in lexicographic order; there are C(total+parts-1, parts-1)
    of them.
    """
    if parts < 0:
        raise ValueError("parts must be non-negative")
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in weak_compositions(total - head, parts - 1):
            yield (head,) + rest


def _alphas_with_class(ms: MultiplierStructure, key) -> list[tuple[int, ...]]:
    """All alpha in N^n whose equivalence key equals ``key``, sorted lexicographically."""
    choices = []
    for group, target in zip(ms.groups, key):
        if target < 0:
            return []
        choices.append(list(weak_compositions(target, len(group))))
    out = []
    for combo in product(*choices):
        alpha = [0] * ms.n
        for group, part in zip(ms.groups, combo):
            for index, value in zip(group, part):
                alpha[index - 1] = value
        out.append(tuple(alpha))
    out.sort()
    return out


@dataclass(frozen=True)
class SolutionSet:
    """Finite monomial basis of a twisted section space.

    Entries are pairs ``(k, alpha)``: a component index and the exponent
    vector of one basis monomial, ordered by component and then
    lexicographically.  The section space fixes what the pair denotes: a
    field z^alpha d/dz_k (tangent), a form z^alpha dz_k (1-forms), or the
    (n-1)-form z^alpha dz_1^...^dz_n with dz_k omitted.
    """

    entries: tuple[tuple[int, tuple[int, ...]], ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def exponents_for(self, component: int) -> list[tuple[int, ...]]:
        return [alpha for k, alpha in self.entries if k == component]


class SectionSpace(str, Enum):
    """Which twisted section space a dimension query refers to."""

    TANGENT = "tangent"
    ONE_FORM = "one-form"
    TOP_MINUS_ONE_FORM = "top-minus-one-form"


# Component k of each space is one monomial identity mu^alpha = mu^(s*p + o*1 + d*e_k)
# in the parameter p, 1 the all-ones vector: tangent mu^alpha = mu_k / b, 1-forms
# mu^alpha * mu_k = a, (n-1)-forms mu^(alpha + 1) / mu_k = b.  Entries are (s, o, d).
_IDENTITIES = {
    SectionSpace.TANGENT: (-1, 0, +1),
    SectionSpace.ONE_FORM: (+1, 0, -1),
    SectionSpace.TOP_MINUS_ONE_FORM: (+1, -1, +1),
}


def _targets(space, ms: MultiplierStructure, param: BundleParam):
    """Equivalence key that basis exponents of component k must have, for k = 1..n.

    ``None`` for an unrelated parameter, whose section spaces are all zero.
    """
    space = SectionSpace(space)
    if space is SectionSpace.TOP_MINUS_ONE_FORM and ms.n < 3:
        raise ValueError("(n-1)-form sections need ambient dimension at least 3")
    if param.is_unrelated:
        return None
    if len(param.exponents) != ms.n:
        raise ValueError(
            f"bundle exponent vector has length {len(param.exponents)}, expected {ms.n}"
        )
    sign, offset, delta = _IDENTITIES[space]
    key = ms.class_of([sign * v + offset for v in param.exponents])
    return [
        tuple(v + delta if k in group else v for v, group in zip(key, ms.groups))
        for k in range(1, ms.n + 1)
    ]


def solve_sections(space, ms: MultiplierStructure, param: BundleParam) -> SolutionSet:
    """Monomial basis of the requested twisted section space.

    For ``SectionSpace.TANGENT`` the argument is the subsheaf parameter b and
    the basis is z^alpha d/dz_k with mu^alpha = mu_k * b^(-1); for
    ``ONE_FORM`` it is the twist a and the basis is z^alpha dz_k with
    mu^alpha * mu_k = a; for ``TOP_MINUS_ONE_FORM`` (n >= 3 only) it is the
    twist b and the basis is z^alpha dz_1^...^dz_n with dz_k omitted and
    mu^(alpha + 1) / mu_k = b, 1 the all-ones vector.  An unrelated parameter
    has no sections at all.
    """
    targets = _targets(space, ms, param) or ()
    return SolutionSet(tuple(
        (k, alpha)
        for k, key in enumerate(targets, start=1)
        for alpha in _alphas_with_class(ms, key)
    ))


def dim_h0(space, ms: MultiplierStructure, param: BundleParam) -> int:
    """Dimension of the requested twisted section space.

    The parameter convention is that of :func:`solve_sections`.  Evaluated
    through the closed binomial count per component rather than by
    enumerating the basis, so it stays cheap for large exponents; it always
    equals ``len(solve_sections(space, ms, param))``.
    """
    targets = _targets(space, ms, param) or ()
    return sum(solution_count_formula(ms, key) for key in targets)


def solution_count_formula(ms: MultiplierStructure, key) -> int:
    """Closed count of exponent vectors with a given equivalence key.

    Product over groups of C(target + size - 1, size - 1); zero when any
    group target is negative.
    """
    count = 1
    for group, target in zip(ms.groups, key):
        if target < 0:
            return 0
        count *= math.comb(target + len(group) - 1, len(group) - 1)
    return count


class Predicate(str, Enum):
    """Closed-form positivity tests for twisted section spaces.

    Values name the space whose positivity is decided; the parameter
    convention is listed with :func:`predicate_existence`.
    """

    TANGENT = "tangent"
    ONE_FORM = "one-form"
    TOP_MINUS_ONE_FORM = "top-minus-one-form"
    CONORMAL = "conormal"


# (section space, whether the predicate evaluates it at the inverse parameter)
_PREDICATE_SPACES = {
    Predicate.TANGENT: (SectionSpace.TANGENT, True),
    Predicate.ONE_FORM: (SectionSpace.ONE_FORM, False),
    Predicate.TOP_MINUS_ONE_FORM: (SectionSpace.TOP_MINUS_ONE_FORM, False),
    Predicate.CONORMAL: (SectionSpace.ONE_FORM, True),
}


def predicate_existence(predicate, ms: MultiplierStructure, param: BundleParam) -> bool:
    """Decide positivity of a twisted section space without enumeration.

    Parameter conventions:

    * ``TANGENT``: param is the twist a; decides dim of the tangent sheaf
      twisted by a, which is the tangent section space at a^(-1).
    * ``ONE_FORM``: param is the twist a of the 1-forms.
    * ``TOP_MINUS_ONE_FORM``: param is the twist b of the (n-1)-forms.
    * ``CONORMAL``: param is the conormal parameter b of a codimension-one
      distribution; the condition constrains b^(-1) and equals the ONE_FORM
      test at b^(-1).

    The space is nonzero exactly when some component's equivalence key has
    every group entry >= 0, which holds for every relation pattern.
    """
    space, inverse = _PREDICATE_SPACES[Predicate(predicate)]
    targets = _targets(space, ms, param.inverse() if inverse else param) or ()
    return any(all(v >= 0 for v in key) for key in targets)
