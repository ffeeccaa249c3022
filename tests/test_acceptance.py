"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single PASS line when it completes; pytest -v adds the
matching PASSED/FAILED verdict per criterion.
"""

import random
from fractions import Fraction
from itertools import product

from hopfkit import (
    BundleParam,
    DifferentialForm,
    GaussianRational,
    MultiplierStructure,
    Polynomial,
    Predicate,
    RepresentativeKind,
    SectionSpace,
    VectorField,
    brunella_alternative,
    cartan_radial_check,
    chern_top,
    dim_h0,
    exterior_derivative,
    fixed_point_count_p1,
    frobenius_defect,
    hodge_numbers,
    interior_product,
    monomial_form_from_bundle,
    monomial_vf_from_bundle,
    predicate_existence,
    radial_field,
    singular_locus_monomial,
    solve_sections,
    wedge,
)
from hopfkit.cli import run_command
from tests.conftest import (
    brute_force_dim,
    predicate_oracle,
    rand_field,
    rand_form,
    rand_homogeneous_poly,
    rand_poly,
    rand_scalar,
)


def dz(n, i):
    return DifferentialForm.coordinate(n, i)


def test_criterion_01_generic_classification_count():
    from hopfkit import admissible_conormal_bundles, admissible_tangent_bundles

    for n in (3, 4, 5):
        ms = MultiplierStructure.generic(n)
        tangent = admissible_tangent_bundles(ms)
        assert len(tangent) == n + 1
        assert [e.bundle for e in tangent] == [BundleParam.trivial(n)] + [
            BundleParam.multiplier(j, n) for j in range(1, n + 1)
        ]
        assert str(tangent[0].representative) == " + ".join(
            f"z_{k} ∂/∂z_{k}" for k in range(1, n + 1)
        )
        for j, entry in enumerate(tangent[1:], start=1):
            assert str(entry.representative) == f"∂/∂z_{j}"

        conormal = admissible_conormal_bundles(ms)
        assert len(conormal) == n
        for j, entry in enumerate(conormal, start=1):
            assert entry.bundle == BundleParam.multiplier(j, n)
            assert str(entry.representative) == f"dz_{j}"
    print("PASS: criterion 1, generic tables list n+1 tangent and n conormal bundles")


def test_criterion_02_intermediary_tables():
    from hopfkit import admissible_conormal_bundles, admissible_tangent_bundles

    n = 4
    for r in (2, 3):
        ms = MultiplierStructure.intermediary(n, r)
        tangent = admissible_tangent_bundles(ms)
        expected = [BundleParam.trivial(n), BundleParam.multiplier(1, n)] + [
            BundleParam.multiplier(j, n) for j in range(r + 1, n + 1)
        ]
        assert [e.bundle for e in tangent] == expected
        assert tangent[0].kind is RepresentativeKind.LINEAR
        block_rep = tangent[1].representative
        # constant field supported exactly on the equal-multiplier block
        for j in range(1, n + 1):
            assert block_rep.components[j - 1].is_zero() == (j > r)
        for entry, j in zip(tangent[2:], range(r + 1, n + 1)):
            assert str(entry.representative) == f"∂/∂z_{j}"

        conormal = admissible_conormal_bundles(ms)
        assert [e.bundle for e in conormal] == [BundleParam.multiplier(1, n)] + [
            BundleParam.multiplier(j, n) for j in range(r + 1, n + 1)
        ]
        assert str(conormal[0].representative) == " + ".join(
            f"dz_{j}" for j in range(1, r + 1)
        )
        for entry, j in zip(conormal[1:], range(r + 1, n + 1)):
            assert str(entry.representative) == f"dz_{j}"
    print("PASS: criterion 2, intermediary bundle sets and witness shapes match")


def _structures(n):
    out = [MultiplierStructure.classical(n), MultiplierStructure.generic(n)]
    out.append(MultiplierStructure.intermediary(n, 2 if n < 5 else 3))
    return out


def _equivalences_hold(ms, exps):
    # the paper's per-kind closed forms, kept in the tests as the oracle
    param = BundleParam.monomial(exps)
    return all(
        predicate_existence(pred, ms, param) == predicate_oracle(pred, ms, param)
        for pred in Predicate
    )


def test_criterion_03_predicate_dimension_equivalence():
    mismatches = 0
    for exps in product(range(-3, 4), repeat=3):
        for ms in _structures(3):
            if not _equivalences_hold(ms, exps):
                mismatches += 1
    rng = random.Random(3003)
    for n in (4, 5):
        structures = _structures(n)
        for _ in range(1000):
            exps = tuple(rng.randint(-3, 3) for _ in range(n))
            for ms in structures:
                if not _equivalences_hold(ms, exps):
                    mismatches += 1
    assert mismatches == 0
    print("PASS: criterion 3, predicates match the closed forms with 0 mismatches")


def test_criterion_04_classical_dimensions():
    import math

    ms = MultiplierStructure.classical(3)
    for m in range(-1, 6):
        b = BundleParam.monomial((-m, 0, 0))
        expected = 3 * math.comb(m + 3, 2)  # n monomials of degree m+1
        assert dim_h0(SectionSpace.TANGENT, ms, b) == expected
        assert len(solve_sections(SectionSpace.TANGENT, ms, b)) == expected
        assert brute_force_dim(SectionSpace.TANGENT, ms, b) == expected
    print("PASS: criterion 4, classical tangent dimensions match brute force")


def test_criterion_05_monomial_forms_integrable():
    rng = random.Random(5005)
    produced = 0
    while produced < 500:
        n = 3 + produced % 3
        ms = MultiplierStructure.generic(n)
        m = tuple(rng.randint(0, 4) for _ in range(n))
        if max(m) == 0:
            continue
        coefficients = [rand_scalar(rng) for _ in range(n)]
        omega = monomial_form_from_bundle(
            ms, BundleParam.monomial(tuple(-v for v in m)), coefficients
        )
        assert frobenius_defect(omega).is_zero()
        produced += 1
    print("PASS: criterion 5, 500 monomial normal-form 1-forms are integrable")


def test_criterion_06_coordinate_power_defect():
    n = 3
    z1, z2, z3 = (Polynomial.variable(n, i) for i in (1, 2, 3))
    dz123 = wedge(wedge(dz(n, 1), dz(n, 2)), dz(n, 3))

    def family(p):
        return z2 ** p * dz(n, 1) + z1 ** p * dz(n, 2) + z3 ** p * dz(n, 3)

    defect = frobenius_defect(family(2))
    expected = (2 * z3 ** 2 * (z1 - z2)) * dz123
    assert defect == expected or defect == -1 * expected
    assert frobenius_defect(family(1)).is_zero()
    for p in range(2, 7):
        assert not frobenius_defect(family(p)).is_zero()
    print("PASS: criterion 6, coordinate-power family defect matches exactly")


def test_criterion_07_radial_and_invariance_identities():
    rng = random.Random(7007)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 5)
        k = rng.randint(0, 4)
        terms = {}
        for i in range(1, n + 1):
            if rng.random() < 0.7:
                terms[(i,)] = rand_homogeneous_poly(rng, n, k)
        if not terms:
            continue
        omega = DifferentialForm(n, 1, terms)
        assert cartan_radial_check(omega)
        R = radial_field(n)
        lhs = interior_product(R, exterior_derivative(omega)) + exterior_derivative(
            interior_product(R, omega)
        )
        assert lhs == omega * (k + 1)
        checked += 1

    built = 0
    while built < 100:
        n = rng.randint(3, 5)
        ms = MultiplierStructure.generic(n)
        m = tuple(rng.randint(0, 3) for _ in range(n))
        if max(m) == 0:
            continue
        coefficients = [GaussianRational(Fraction(rng.randint(1, 5))) for _ in range(n)]
        try:
            omega = monomial_form_from_bundle(
                ms, BundleParam.monomial(tuple(-v for v in m)), coefficients
            )
        except ValueError:
            continue
        f = interior_product(radial_field(n), omega)
        assert not f.is_zero()
        outcome = brunella_alternative(omega)
        assert outcome.contraction == f and outcome.verified
        # the invariance identity, in canonical operand order
        assert wedge(exterior_derivative(f), omega) == exterior_derivative(omega) * f
        built += 1
    print("PASS: criterion 7, radial and invariant-hypersurface identities exact")


def test_criterion_08_leaf_count_and_surface_oracle():
    from hopfkit import leaf_count_classical

    assert leaf_count_classical(3, 2) == 7
    assert leaf_count_classical(3, 3) == 13
    assert leaf_count_classical(4, 2) == 15

    field = VectorField((Polynomial.monomial(2, (2, 0)), Polynomial.monomial(2, (0, 2))))
    count = fixed_point_count_p1(field)
    assert (count.with_multiplicity, count.distinct) == (3, 3)

    report = run_command(
        "leafcount",
        {
            "n": 2,
            "parameters": {"m": 2},
            "vector_field": {
                "components": [
                    [{"exponents": [2, 0], "coeff": "1"}],
                    [{"exponents": [0, 2], "coeff": "1"}],
                ]
            },
        },
    )
    oracle = report["results"]["oracle"]
    assert (oracle["with_multiplicity"], oracle["distinct"]) == (3, 3)
    assert report["results"]["count"] is None  # formula not asserted at n = 2
    assert any("diagnostic" in note for note in report["results"]["notes"])
    print("PASS: criterion 8, leaf counts 7/13/15 and surface oracle (3,3) flagged")


def test_criterion_09_chern_hodge():
    for n in range(2, 11):
        assert chern_top(n) == 0
        entries = hodge_numbers(n).nonzero_entries()
        assert len(entries) == 4
        assert all(value == 1 for _, _, value in entries)
    print("PASS: criterion 9, top Chern number vanishes and Hodge table has four 1s")


def test_criterion_10_singular_loci_are_positive_dimensional():
    rng = random.Random(10010)
    produced = 0
    while produced < 500:
        n = rng.randint(3, 5)
        ms = MultiplierStructure.generic(n)
        if produced % 2 == 0:
            d = tuple(rng.randint(0, 3) for _ in range(n))
            if max(d) == 0:
                continue
            obj = monomial_vf_from_bundle(ms, BundleParam.monomial(tuple(-v for v in d)))
        else:
            m = tuple(rng.randint(0, 3) for _ in range(n))
            if sum(m) < 2:
                continue
            obj = monomial_form_from_bundle(ms, BundleParam.monomial(tuple(-v for v in m)))
        locus = singular_locus_monomial(obj)
        assert not locus.is_empty
        assert min(locus.dimensions()) >= 1  # never an isolated point
        produced += 1

    # boundary: a single-multiplier conormal parameter gives dz_j, no zeros at all
    ms = MultiplierStructure.generic(3)
    omega = monomial_form_from_bundle(ms, BundleParam.monomial((-1, 0, 0)))
    assert singular_locus_monomial(omega).is_empty
    print("PASS: criterion 10, 500 monomial singular loci nonempty with dim >= 1")


def test_criterion_11_exterior_algebra_laws():
    rng = random.Random(11011)
    objects = 0
    while objects < 1000:
        n = rng.randint(2, 5)
        p = rng.randint(1, min(3, n))
        q = rng.randint(1, min(3, n))
        a = rand_form(rng, n, p, max_degree=5)
        b = rand_form(rng, n, q, max_degree=5)
        f = rand_poly(rng, n, max_degree=5)
        v = rand_field(rng, n, max_degree=3)
        objects += 4

        assert exterior_derivative(exterior_derivative(a)).is_zero()
        assert exterior_derivative(exterior_derivative(f)).is_zero()
        assert wedge(a, b) == wedge(b, a) * ((-1) ** (p * q))
        assert exterior_derivative(wedge(a, b)) == wedge(
            exterior_derivative(a), b
        ) + wedge(a, exterior_derivative(b)) * ((-1) ** p)
        assert exterior_derivative(f * a) == wedge(exterior_derivative(f), a) + (
            f * exterior_derivative(a)
        )
        iv_ab = interior_product(v, wedge(a, b))
        expected = wedge(interior_product(v, a), b) + wedge(
            a, interior_product(v, b)
        ) * ((-1) ** p)
        assert iv_ab == expected
        if p >= 2:
            assert interior_product(v, interior_product(v, a)).is_zero()
    print("PASS: criterion 11, exterior algebra laws hold on 1000 random objects")
