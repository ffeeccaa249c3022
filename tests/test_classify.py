import pytest

from hopfkit import (
    BundleParam,
    CoordinateLocus,
    DifferentialForm,
    MultiplierStructure,
    Polynomial,
    RepresentativeKind,
    Side,
    UnsupportedComputationError,
    VectorField,
    Verdict,
    admissible_conormal_bundles,
    admissible_tangent_bundles,
    monomial_form_from_bundle,
    monomial_vf_from_bundle,
    nonsingularity_check,
    singular_locus_monomial,
    solve_sections,
    witness_classical_vf,
)
from tests.conftest import minimal_hitting_sets_oracle


def _bundle_displays(entries, ms):
    return [e.bundle.display(ms) for e in entries]


def test_generic_tangent_table():
    for n in (3, 4, 5):
        ms = MultiplierStructure.generic(n)
        entries = admissible_tangent_bundles(ms)
        assert len(entries) == n + 1
        displays = _bundle_displays(entries, ms)
        assert displays == ["1"] + [f"mu_{j}" for j in range(1, n + 1)]
        assert entries[0].kind is RepresentativeKind.LINEAR
        for e in entries[1:]:
            assert e.kind is RepresentativeKind.CONSTANT
        for e in entries:
            assert e.nonsingularity.verdict is Verdict.NONSINGULAR
            assert e.side is Side.TANGENT


def test_generic_conormal_table():
    for n in (3, 4, 5):
        ms = MultiplierStructure.generic(n)
        entries = admissible_conormal_bundles(ms)
        assert len(entries) == n
        for j, e in enumerate(entries, start=1):
            assert e.bundle == BundleParam.multiplier(j, n)
            assert e.kind is RepresentativeKind.CONSTANT
            assert str(e.representative) == f"dz_{j}"
            assert e.nonsingularity.verdict is Verdict.NONSINGULAR


def test_classical_tangent_table():
    ms = MultiplierStructure.classical(3)
    entries = admissible_tangent_bundles(ms, max_degree=3)
    assert _bundle_displays(entries, ms) == ["mu", "1", "mu^-1", "mu^-2", "mu^-3"]
    kinds = [e.kind for e in entries]
    assert kinds[0] is RepresentativeKind.CONSTANT
    assert kinds[1] is RepresentativeKind.LINEAR
    assert all(k is RepresentativeKind.POLYNOMIAL for k in kinds[2:])
    assert [e.degree for e in entries] == [None, None, 1, 2, 3]
    assert str(entries[2].representative) == (
        "z_1^2 ∂/∂z_1 + z_2^2 ∂/∂z_2 + z_3^2 ∂/∂z_3"
    )


def test_classical_conormal_table():
    ms = MultiplierStructure.classical(3)
    entries = admissible_conormal_bundles(ms, max_degree=2)
    assert _bundle_displays(entries, ms) == ["mu", "mu^2"]
    assert entries[0].kind is RepresentativeKind.CONSTANT
    assert str(entries[0].representative) == "dz_1 + dz_2 + dz_3"
    assert entries[1].kind is RepresentativeKind.POLYNOMIAL
    assert entries[1].degree == 2
    assert str(entries[1].representative) == "z_1 dz_1 + z_2 dz_2 + z_3 dz_3"


def test_intermediary_tables():
    for r in (2, 3):
        ms = MultiplierStructure.intermediary(4, r)
        tangent = admissible_tangent_bundles(ms)
        expected = ["1", "mu_1"] + [f"mu_{j}" for j in range(r + 1, 5)]
        assert _bundle_displays(tangent, ms) == expected
        assert tangent[0].kind is RepresentativeKind.LINEAR
        for e in tangent[1:]:
            assert e.kind is RepresentativeKind.CONSTANT
        # block bundle: constant field supported exactly on the block
        block_field = tangent[1].representative
        for j in range(1, 5):
            comp = block_field.components[j - 1]
            assert comp.is_zero() == (j > r)

        conormal = admissible_conormal_bundles(ms)
        assert _bundle_displays(conormal, ms) == ["mu_1"] + [
            f"mu_{j}" for j in range(r + 1, 5)
        ]
        for e in conormal:
            assert e.kind is RepresentativeKind.CONSTANT
            assert e.nonsingularity.verdict is Verdict.NONSINGULAR
        assert str(conormal[0].representative) == " + ".join(
            f"dz_{j}" for j in range(1, r + 1)
        )


def test_witnesses_are_actual_sections():
    from hopfkit import Predicate, SectionSpace, dim_h0, predicate_existence

    structures = [
        MultiplierStructure.classical(3),
        MultiplierStructure.generic(4),
        MultiplierStructure.intermediary(4, 2),
    ]
    for ms in structures:
        for entry in admissible_tangent_bundles(ms, max_degree=2):
            allowed = set(solve_sections(SectionSpace.TANGENT, ms, entry.bundle))
            field = entry.representative
            for k, poly in enumerate(field.components, start=1):
                for exps, _ in poly.terms():
                    assert (k, exps) in allowed
            assert dim_h0(SectionSpace.TANGENT, ms, entry.bundle) > 0
            assert predicate_existence(Predicate.TANGENT, ms, entry.bundle.inverse())
        for entry in admissible_conormal_bundles(ms, max_degree=2):
            allowed = set(solve_sections(SectionSpace.ONE_FORM, ms, entry.bundle))
            for indices, poly in entry.representative.terms():
                for exps, _ in poly.terms():
                    assert (indices[0], exps) in allowed
            # the table stores the inverse conormal parameter: it is the twist
            assert dim_h0(SectionSpace.ONE_FORM, ms, entry.bundle) > 0
            assert predicate_existence(Predicate.CONORMAL, ms, entry.bundle.inverse())


def test_general_pattern_has_no_table():
    ms = MultiplierStructure(4, ((1, 2), (3, 4)))
    with pytest.raises(UnsupportedComputationError):
        admissible_tangent_bundles(ms)
    with pytest.raises(UnsupportedComputationError):
        admissible_conormal_bundles(ms)


def test_witness_classical_vf():
    v = witness_classical_vf(3, 1)
    assert str(v) == "z_1^2 ∂/∂z_1 + z_2^2 ∂/∂z_2 + z_3^2 ∂/∂z_3"
    v0 = witness_classical_vf(2, -1, coefficients=(2, 3))
    assert str(v0) == "2 ∂/∂z_1 + 3 ∂/∂z_2"
    with pytest.raises(ValueError):
        witness_classical_vf(3, -2)


def test_custom_coefficients_can_break_nonsingularity():
    ms = MultiplierStructure.classical(3)
    entries = admissible_conormal_bundles(ms, max_degree=2, coefficients=(1, 0, 0))
    singular = entries[1]
    assert str(singular.representative) == "z_1 dz_1"
    assert singular.nonsingularity.verdict is Verdict.SINGULAR
    assert singular.nonsingularity.locus.components == ((1,),)


def test_monomial_vf_from_bundle():
    ms = MultiplierStructure.generic(3)
    # d = (1, 0, 0): every component admissible
    field = monomial_vf_from_bundle(ms, BundleParam.monomial((-1, 0, 0)))
    assert str(field) == (
        "z_1^2 ∂/∂z_1 + z_1*z_2 ∂/∂z_2 + z_1*z_3 ∂/∂z_3"
    )
    # d = (-1, 0, 0): only the first component survives
    field = monomial_vf_from_bundle(ms, BundleParam.monomial((1, 0, 0)))
    assert str(field) == "∂/∂z_1"
    with pytest.raises(UnsupportedComputationError):
        monomial_vf_from_bundle(MultiplierStructure.classical(3), BundleParam.trivial(3))
    with pytest.raises(ValueError):
        monomial_vf_from_bundle(ms, BundleParam.monomial((2, 2, 2)))


def test_monomial_form_from_bundle():
    ms = MultiplierStructure.generic(3)
    form = monomial_form_from_bundle(ms, BundleParam.monomial((-1, -1, 0)))
    assert str(form) == "z_2 dz_1 + z_1 dz_2"
    with pytest.raises(ValueError):
        monomial_form_from_bundle(ms, BundleParam.trivial(3))


def test_coordinate_locus():
    locus = CoordinateLocus(3, ((2, 1), (3,)))
    assert locus.components == ((3,), (1, 2))
    assert locus.dimensions() == [2, 1]
    assert str(locus) == "V(z_3) \\ {0}, dim 2; V(z_1, z_2) \\ {0}, dim 1"
    assert str(CoordinateLocus(3, ())) == "empty"
    assert CoordinateLocus(3, ()).is_empty


def test_singular_locus_monomial_fixed_cases():
    n = 3
    # radial-like field: common zeros only at the origin, which is excluded
    diag = VectorField(
        tuple(Polynomial.monomial(n, tuple(2 if i == k else 0 for i in range(1, 4)))
              for k in range(1, 4))
    )
    assert singular_locus_monomial(diag).is_empty

    shared = VectorField((
        Polynomial.monomial(n, (0, 1, 1)),
        Polynomial.monomial(n, (1, 0, 0)),
        Polynomial.monomial(n, (1, 0, 0)),
    ))
    assert singular_locus_monomial(shared).components == ((1, 2), (1, 3))

    constant = VectorField((
        Polynomial.constant(n, 1),
        Polynomial.zero(n),
        Polynomial.zero(n),
    ))
    assert singular_locus_monomial(constant).is_empty


def test_singular_locus_monomial_matches_hitting_set_oracle(rng):
    for _ in range(60):
        n = rng.randint(2, 4)
        comps = []
        for _ in range(n):
            if rng.random() < 0.2:
                comps.append(Polynomial.zero(n))
            else:
                exps = tuple(rng.randint(0, 2) for _ in range(n))
                comps.append(Polynomial.monomial(n, exps))
        field = VectorField(tuple(comps))
        if field.is_zero():
            continue
        supports = [
            tuple(i for i, e in enumerate(exps, start=1) if e)
            for exps, _ in (p.as_monomial() for p in comps if not p.is_zero())
        ]
        expected = [
            s for s in minimal_hitting_sets_oracle(supports, n) if len(s) < n
        ]
        assert list(singular_locus_monomial(field).components) == sorted(
            expected, key=lambda s: (len(s), s)
        )


def test_singular_locus_monomial_rejects():
    n = 2
    with pytest.raises(ValueError):
        singular_locus_monomial(VectorField((Polynomial.zero(n), Polynomial.zero(n))))
    mixed = VectorField((
        Polynomial.variable(n, 1) + Polynomial.variable(n, 2),
        Polynomial.zero(n),
    ))
    with pytest.raises(UnsupportedComputationError):
        singular_locus_monomial(mixed)


def test_nonsingularity_branches():
    n = 3
    z = [Polynomial.variable(n, i) for i in range(1, 4)]

    constant = VectorField((Polynomial.constant(n, 2), Polynomial.zero(n), Polynomial.zero(n)))
    assert nonsingularity_check(constant).verdict is Verdict.NONSINGULAR

    monomial = VectorField((z[0] * z[1], z[0], z[0]))
    res = nonsingularity_check(monomial)
    assert res.verdict is Verdict.SINGULAR
    assert res.locus.components == ((1,),)

    linear_good = VectorField((z[0] + z[1], z[1], z[2]))
    assert nonsingularity_check(linear_good).verdict is Verdict.NONSINGULAR
    linear_bad = VectorField((z[0] + z[1], z[0] + z[1], z[2]))
    assert nonsingularity_check(linear_bad).verdict is Verdict.SINGULAR

    # homogeneous degree 2, n = 3: graded elimination decides exactly
    sq = [p * p for p in z]
    hom_singular = VectorField((sq[0] - sq[1], sq[1] - sq[2], sq[0] - sq[2]))
    assert nonsingularity_check(hom_singular).verdict is Verdict.SINGULAR
    hom_good = VectorField((sq[0] + sq[1], sq[1] + sq[2], sq[0] + sq[2]))
    assert nonsingularity_check(hom_good).verdict is Verdict.NONSINGULAR

    inhomogeneous = VectorField((z[0] + sq[0], z[1] + sq[1], z[2] + sq[2]))
    assert nonsingularity_check(inhomogeneous).verdict is Verdict.UNKNOWN


def test_nonsingularity_surface_case():
    n = 2
    z1, z2 = Polynomial.variable(n, 1), Polynomial.variable(n, 2)
    coprime = VectorField((z1 + z2, z1 - z2))
    assert nonsingularity_check(coprime).verdict is Verdict.NONSINGULAR
    shared = VectorField((z1 * (z1 + z2), z2 * (z1 + z2)))
    assert nonsingularity_check(shared).verdict is Verdict.SINGULAR
    single = VectorField((z1 * z1 + z2 * z2, Polynomial.zero(n)))
    assert nonsingularity_check(single).verdict is Verdict.SINGULAR


def test_nonsingularity_on_forms():
    n = 3
    z1 = Polynomial.variable(n, 1)
    omega = DifferentialForm.from_components(
        [z1, Polynomial.zero(n), Polynomial.zero(n)]
    )
    res = nonsingularity_check(omega)
    assert res.verdict is Verdict.SINGULAR
    assert res.locus.components == ((1,),)
