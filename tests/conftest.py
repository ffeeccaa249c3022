"""Shared oracles and random object generators.

The brute-force counters here deliberately avoid the library's stars-and-bars
enumeration and its target keys: they read each component's target off the
defining monomial identity, walk a covering exponent box and compare group
sums directly, so solver bugs cannot cancel out.  ``predicate_oracle`` keeps
the paper's per-kind closed forms for the positivity predicates.

The ``naive_*`` products multiply term by term in Fraction pairs (real and
imaginary part) on unpacked exponent tuples, and find wedge signs by counting
inversions, so they share no code with the library's product kernel.
"""

from fractions import Fraction
from itertools import product

import pytest

from hopfkit import (
    DifferentialForm,
    GaussianRational,
    Polynomial,
    Predicate,
    StructureKind,
    VectorField,
)
from hopfkit.sections import SectionSpace


def _group_sums(ms, vector):
    return [sum(vector[i - 1] for i in group) for group in ms.groups]


def _targets(space, ms, param):
    """Per component k, the group sums every basis exponent alpha must have.

    The defining identities in the multipliers: tangent fields z^alpha d/dz_k
    with mu^alpha = mu_k / b; 1-forms z^alpha dz_k with mu^alpha * mu_k = a;
    (n-1)-forms omitting dz_k with mu^(alpha + 1) / mu_k = b.
    """
    space = SectionSpace(space)
    targets = []
    for k in range(1, ms.n + 1):
        unit = [int(i == k) for i in range(1, ms.n + 1)]
        if space is SectionSpace.TANGENT:  # alpha = e_k - b
            alpha = [u - b for u, b in zip(unit, param.exponents)]
        elif space is SectionSpace.ONE_FORM:  # alpha = a - e_k
            alpha = [a - u for a, u in zip(param.exponents, unit)]
        else:  # alpha = b + e_k - (1, ..., 1)
            alpha = [b + u - 1 for b, u in zip(param.exponents, unit)]
        targets.append(_group_sums(ms, alpha))
    return targets


def brute_force_entries(space, ms, param):
    """All (component, alpha) solutions found by scanning a covering box.

    Any solution alpha is non-negative with per-group sums equal to the
    target key, so every coordinate is bounded by the largest target entry.
    """
    if param.is_unrelated:
        return []
    targets = _targets(space, ms, param)
    bound = max((t for key in targets for t in key), default=0)
    if bound < 0:
        return []
    entries = []
    for k, target in enumerate(targets, start=1):
        if any(t < 0 for t in target):
            continue
        for alpha in product(range(bound + 1), repeat=ms.n):
            if _group_sums(ms, alpha) == target:
                entries.append((k, alpha))
    entries.sort()
    return entries


def brute_force_dim(space, ms, param):
    return len(brute_force_entries(space, ms, param))


def _all_but_one(values, low_one, low_rest):
    """Some entry is >= low_one while every other entry is >= low_rest."""
    return any(
        v >= low_one and all(w >= low_rest for j, w in enumerate(values) if j != i)
        for i, v in enumerate(values)
    )


def predicate_oracle(predicate, ms, param):
    """The paper's closed-form positivity tests, one formula per structure kind.

    Classical, generic and intermediary patterns only.  Conventions follow
    ``predicate_existence``: TANGENT and CONORMAL constrain the inverse
    parameter, and CONORMAL is the ONE_FORM test at that inverse.
    """
    predicate = Predicate(predicate)
    if param.is_unrelated:
        return False
    if predicate is Predicate.CONORMAL:
        return predicate_oracle(Predicate.ONE_FORM, ms, param.inverse())
    key = _group_sums(ms, param.exponents)
    if ms.kind is StructureKind.CLASSICAL:
        low = {Predicate.TANGENT: -1, Predicate.ONE_FORM: 1}.get(predicate, ms.n - 1)
        return key[0] >= low
    if ms.kind is StructureKind.GENERIC:
        if predicate is Predicate.TANGENT:
            return _all_but_one(key, -1, 0)
        if predicate is Predicate.ONE_FORM:
            return all(v >= 0 for v in key) and any(v >= 1 for v in key)
        return _all_but_one(key, 0, 1)
    assert ms.kind is StructureKind.INTERMEDIARY
    position = next(pos for pos, g in enumerate(ms.groups) if len(g) > 1)
    block, r = key[position], len(ms.groups[position])
    singles = [v for pos, v in enumerate(key) if pos != position]
    if predicate is Predicate.TANGENT:
        if block >= -1 and all(v >= 0 for v in singles):
            return True
        return block >= 0 and _all_but_one(singles, -1, 0)
    if predicate is Predicate.ONE_FORM:
        if any(v < 0 for v in singles):
            return False
        return block >= 1 or (block >= 0 and any(v >= 1 for v in singles))
    if block >= r - 1 and all(v >= 1 for v in singles):
        return True
    return block >= r and _all_but_one(singles, 0, 1)


def term_pairs(poly):
    """A polynomial as {exponents: (re, im)} with Fraction parts."""
    return {e: (c.re, c.im) for e, c in poly.terms()}


def form_term_pairs(obj):
    """A form as {indices: term_pairs(coefficient)}; a polynomial sits at ()."""
    if isinstance(obj, Polynomial):
        return {(): term_pairs(obj)} if obj else {}
    return {idx: term_pairs(poly) for idx, poly in obj.terms()}


def naive_sum_of_products(triples):
    """Sum of sign * p * q over (sign, p, q) in term_pairs form, one term pair at a time."""
    acc = {}
    for sign, p, q in triples:
        for e1, (a, b) in p.items():
            for e2, (c, d) in q.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                re, im = acc.get(e, (Fraction(0), Fraction(0)))
                acc[e] = (re + sign * (a * c - b * d), im + sign * (a * d + b * c))
    return {e: v for e, v in acc.items() if v[0] or v[1]}


def naive_product(p, q):
    return naive_sum_of_products([(1, term_pairs(p), term_pairs(q))])


def _collect(groups):
    sums = {idx: naive_sum_of_products(triples) for idx, triples in groups.items()}
    return {idx: s for idx, s in sums.items() if s}


def naive_wedge(alpha, beta):
    """alpha ^ beta: dz_I ^ dz_J is the sign of the sorting permutation of I + J."""
    groups = {}
    for left, f in alpha.terms():
        for right, g in beta.terms():
            joined = left + right
            if len(set(joined)) < len(joined):
                continue
            inversions = sum(
                joined[x] > joined[y]
                for x in range(len(joined))
                for y in range(x + 1, len(joined))
            )
            groups.setdefault(tuple(sorted(joined)), []).append(
                ((-1) ** inversions, term_pairs(f), term_pairs(g))
            )
    return _collect(groups)


def naive_interior(field, omega):
    """i_v(dz_I) = sum over positions k of (-1)^k v_(I_k) dz_(I without I_k)."""
    groups = {}
    for idx, f in omega.terms():
        for k, i in enumerate(idx):
            groups.setdefault(idx[:k] + idx[k + 1:], []).append(
                ((-1) ** k, term_pairs(f), term_pairs(field.components[i - 1]))
            )
    return _collect(groups)


def minimal_hitting_sets_oracle(supports, n):
    """Minimal hitting sets by exhaustive subset scan (exponential, tiny n only)."""
    if not supports:
        return [()]
    hitting = []
    for size in range(1, n + 1):
        for candidate in product(*([range(1, n + 1)] * size)):
            s = tuple(sorted(set(candidate)))
            if len(s) != size:
                continue
            if s in hitting:
                continue
            if any(set(h) <= set(s) for h in hitting):
                continue
            if all(set(s) & set(sup) for sup in supports):
                hitting.append(s)
    return sorted(hitting, key=lambda s: (len(s), s))


def rand_fraction(rng, zero_ok=False):
    num = rng.randint(-4, 4)
    if not zero_ok:
        while num == 0:
            num = rng.randint(-4, 4)
    return Fraction(num, rng.randint(1, 4))


def rand_scalar(rng, zero_ok=False):
    re = rand_fraction(rng, zero_ok=True)
    im = rand_fraction(rng, zero_ok=True)
    if not zero_ok:
        while not (re or im):
            re = rand_fraction(rng, zero_ok=True)
            im = rand_fraction(rng, zero_ok=True)
    return GaussianRational(re, im)


def rand_poly(rng, n, max_degree=3, max_terms=2, zero_ok=False):
    terms = {}
    for _ in range(rng.randint(0 if zero_ok else 1, max_terms)):
        exps = tuple(rng.randint(0, max_degree) for _ in range(n))
        terms[exps] = rand_scalar(rng)
    return Polynomial(n, terms)


def rand_homogeneous_poly(rng, n, degree, max_terms=2):
    from hopfkit.sections import weak_compositions

    monos = list(weak_compositions(degree, n))
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.choice(monos)] = rand_scalar(rng)
    return Polynomial(n, terms)


def rand_form(rng, n, degree, max_degree=3, max_terms=2):
    from itertools import combinations

    indices = list(combinations(range(1, n + 1), degree))
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.choice(indices)] = rand_poly(rng, n, max_degree=max_degree)
    return DifferentialForm(n, degree, terms)


def rand_field(rng, n, max_degree=3):
    return VectorField(
        tuple(rand_poly(rng, n, max_degree=max_degree, zero_ok=True) for _ in range(n))
    )


@pytest.fixture
def rng():
    import random

    return random.Random(20260814)
