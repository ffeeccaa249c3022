"""Multiplier relation patterns for diagonal contractions.

A diagonal contraction of C^n is determined by multipliers mu_1, ..., mu_n
with 0 < |mu_i| < 1.  Everything downstream depends only on the equality
pattern among the multipliers, declared here as an ordered partition of the
index set {1, ..., n}: indices in one group share a common value, and the
distinct values jointly satisfy no multiplicative relation.  Under that
hypothesis two monomials in the multipliers are equal exactly when their
per-group exponent sums agree, which turns every monomial identity into
integer arithmetic on equivalence keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class StructureKind(str, Enum):
    """Coarse shape of the equality pattern among the multipliers."""

    CLASSICAL = "classical"        # a single group: all multipliers equal
    GENERIC = "generic"            # n singletons: no relations at all
    INTERMEDIARY = "intermediary"  # one block of size 2..n-1, rest singletons
    GENERAL = "general"            # any other partition


@dataclass(frozen=True)
class MultiplierStructure:
    """Ordered partition of {1, ..., n} encoding multiplier equalities.

    Indices are 1-based.  Group order is the declaration order and fixes the
    component order of every equivalence key derived from this structure.
    """

    n: int
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("ambient dimension must be at least 2")
        groups = tuple(tuple(sorted(int(i) for i in g)) for g in self.groups)
        object.__setattr__(self, "groups", groups)
        if not groups or any(not g for g in groups):
            raise ValueError("every group must be nonempty")
        flat = sorted(i for g in groups for i in g)
        if flat != list(range(1, self.n + 1)):
            raise ValueError(f"groups must partition {{1, ..., {self.n}}}, got {groups}")

    @classmethod
    def classical(cls, n: int) -> "MultiplierStructure":
        """All multipliers equal."""
        return cls(n, (tuple(range(1, n + 1)),))

    @classmethod
    def generic(cls, n: int) -> "MultiplierStructure":
        """No relations among the multipliers."""
        return cls(n, tuple((i,) for i in range(1, n + 1)))

    @classmethod
    def intermediary(cls, n: int, r: int) -> "MultiplierStructure":
        """One block mu_1 = ... = mu_r, the remaining multipliers unrelated."""
        if not 2 <= r <= n - 1:
            raise ValueError(f"block size must satisfy 2 <= r <= n-1, got r={r}, n={n}")
        groups = (tuple(range(1, r + 1)),) + tuple((j,) for j in range(r + 1, n + 1))
        return cls(n, groups)

    @property
    def kind(self) -> StructureKind:
        sizes = sorted(len(g) for g in self.groups)
        if len(self.groups) == 1:
            return StructureKind.CLASSICAL
        if sizes[-1] == 1:
            return StructureKind.GENERIC
        if sizes[-2] == 1 and sizes[-1] <= self.n - 1:
            return StructureKind.INTERMEDIARY
        return StructureKind.GENERAL

    @property
    def block(self) -> tuple[int, ...] | None:
        """The unique non-singleton group of an intermediary structure."""
        if self.kind is not StructureKind.INTERMEDIARY:
            return None
        return next(g for g in self.groups if len(g) > 1)

    @property
    def block_size(self) -> int | None:
        block = self.block
        return None if block is None else len(block)

    def class_of(self, exponents) -> tuple[int, ...]:
        """Equivalence key of an exponent vector: its per-group sums."""
        e = tuple(int(v) for v in exponents)
        if len(e) != self.n:
            raise ValueError(f"exponent vector has length {len(e)}, expected {self.n}")
        return tuple(sum(e[i - 1] for i in g) for g in self.groups)

    def classes_equal(self, first, second) -> bool:
        """Whether two exponent vectors give equal monomials in the multipliers."""
        return self.class_of(first) == self.class_of(second)

    def group_symbol(self, position: int) -> str:
        """Display symbol for a group: "mu" when classical, else mu_<least index>."""
        if len(self.groups) == 1:
            return "mu"
        return f"mu_{self.groups[position][0]}"

    def describe_key(self, key) -> str:
        """Render an equivalence key as a monomial in the group symbols."""
        parts = []
        for position, value in enumerate(key):
            if value == 0:
                continue
            sym = self.group_symbol(position)
            parts.append(sym if value == 1 else f"{sym}^{value}")
        return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class BundleParam:
    """Multiplicative parameter of a line bundle on the quotient manifold.

    ``exponents`` expresses the parameter as a monomial in the multipliers;
    ``None`` declares that no monomial expression exists, which forces every
    twisted section space downstream to be zero.
    """

    exponents: tuple[int, ...] | None

    def __post_init__(self):
        if self.exponents is not None:
            object.__setattr__(
                self, "exponents", tuple(int(v) for v in self.exponents)
            )

    @classmethod
    def monomial(cls, exponents) -> "BundleParam":
        return cls(tuple(int(v) for v in exponents))

    @classmethod
    def unrelated(cls) -> "BundleParam":
        return cls(None)

    @classmethod
    def trivial(cls, n: int) -> "BundleParam":
        return cls((0,) * n)

    @classmethod
    def multiplier(cls, index: int, n: int) -> "BundleParam":
        """The parameter equal to mu_index."""
        if not 1 <= index <= n:
            raise ValueError(f"multiplier index {index} out of range 1..{n}")
        return cls(tuple(1 if i == index else 0 for i in range(1, n + 1)))

    @property
    def is_unrelated(self) -> bool:
        return self.exponents is None

    def inverse(self) -> "BundleParam":
        if self.exponents is None:
            return self
        return BundleParam(tuple(-v for v in self.exponents))

    def display(self, ms: MultiplierStructure) -> str:
        if self.exponents is None:
            return "unrelated"
        return ms.describe_key(ms.class_of(self.exponents))
