"""Section-space solvers against independent brute-force enumeration.

Frozen dimension values below were derived by the box-scan oracle in
conftest (and, where small, by hand) before the solver existed; the solver
must reproduce them exactly.
"""

import random

import pytest

from hopfkit import (
    BundleParam,
    MultiplierStructure,
    Predicate,
    SectionSpace,
    dim_h0,
    predicate_existence,
    solution_count_formula,
    solve_sections,
)
from hopfkit.sections import weak_compositions
from tests.conftest import brute_force_dim, brute_force_entries


def test_weak_compositions():
    assert list(weak_compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(weak_compositions(0, 3)) == [(0, 0, 0)]
    assert list(weak_compositions(3, 1)) == [(3,)]
    assert list(weak_compositions(0, 0)) == [()]
    assert len(list(weak_compositions(4, 3))) == 15


# frozen: classical n=3 tangent dims for b = mu^-m, m = -1..3
CLASSICAL_TANGENT_DIMS = {-1: 3, 0: 9, 1: 18, 2: 30, 3: 45}


def test_classical_tangent_dimensions_frozen():
    ms = MultiplierStructure.classical(3)
    for m, expected in CLASSICAL_TANGENT_DIMS.items():
        b = BundleParam.monomial((-m, 0, 0))
        sols = solve_sections(SectionSpace.TANGENT, ms, b)
        assert len(sols) == expected
        assert brute_force_dim(SectionSpace.TANGENT, ms, b) == expected
        assert dim_h0(SectionSpace.TANGENT, ms, b) == expected


def test_classical_oneform_dimensions_frozen():
    ms = MultiplierStructure.classical(3)
    # frozen: twist mu^2 -> 9, twist mu -> 3, trivial twist -> 0
    for exps, expected in (((2, 0, 0), 9), ((1, 0, 0), 3), ((0, 0, 0), 0)):
        a = BundleParam.monomial(exps)
        assert len(solve_sections(SectionSpace.ONE_FORM, ms, a)) == expected
        assert brute_force_dim(SectionSpace.ONE_FORM, ms, a) == expected


def test_classical_nminus1_dimensions_frozen():
    ms = MultiplierStructure.classical(3)
    b2 = BundleParam.monomial((2, 0, 0))
    sols = solve_sections(SectionSpace.TOP_MINUS_ONE_FORM, ms, b2)
    assert len(sols) == 3
    assert sorted(alpha for _, alpha in sols) == [(0, 0, 0)] * 3
    assert len(solve_sections(SectionSpace.TOP_MINUS_ONE_FORM, ms, BundleParam.monomial((1, 0, 0)))) == 0


def test_generic_nminus1_diagonal_volume_twist():
    # twist mu_1*mu_2*mu_3 admits exactly the three z_i-weighted top omissions
    ms = MultiplierStructure.generic(3)
    b = BundleParam.monomial((1, 1, 1))
    sols = solve_sections(SectionSpace.TOP_MINUS_ONE_FORM, ms, b)
    assert list(sols) == [(1, (1, 0, 0)), (2, (0, 1, 0)), (3, (0, 0, 1))]
    assert brute_force_entries(SectionSpace.TOP_MINUS_ONE_FORM, ms, b) == list(sols)


def test_generic_tangent_single_multiplier():
    ms = MultiplierStructure.generic(3)
    for j in range(1, 4):
        sols = solve_sections(SectionSpace.TANGENT, ms, BundleParam.multiplier(j, 3))
        assert list(sols) == [(j, (0, 0, 0))]
    diag = solve_sections(SectionSpace.TANGENT, ms, BundleParam.trivial(3))
    assert list(diag) == [(1, (1, 0, 0)), (2, (0, 1, 0)), (3, (0, 0, 1))]


def test_intermediary_tangent_trivial_twist_frozen():
    ms = MultiplierStructure.intermediary(4, 2)
    sols = solve_sections(SectionSpace.TANGENT, ms, BundleParam.trivial(4))
    # block components move within the block, singles stay diagonal: dim 6
    assert len(sols) == 6
    assert sols.exponents_for(1) == [(0, 1, 0, 0), (1, 0, 0, 0)]
    assert sols.exponents_for(3) == [(0, 0, 1, 0)]
    assert brute_force_dim(SectionSpace.TANGENT, ms, BundleParam.trivial(4)) == 6


def test_unrelated_parameter_has_no_sections():
    ms = MultiplierStructure.classical(3)
    u = BundleParam.unrelated()
    assert len(solve_sections(SectionSpace.TANGENT, ms, u)) == 0
    assert len(solve_sections(SectionSpace.ONE_FORM, ms, u)) == 0
    assert len(solve_sections(SectionSpace.TOP_MINUS_ONE_FORM, ms, u)) == 0
    assert dim_h0(SectionSpace.TANGENT, ms, u) == 0


def test_nminus1_needs_three_variables():
    ms = MultiplierStructure.classical(2)
    with pytest.raises(ValueError):
        solve_sections(SectionSpace.TOP_MINUS_ONE_FORM, ms, BundleParam.monomial((1, 0)))
    with pytest.raises(ValueError):
        dim_h0(SectionSpace.TOP_MINUS_ONE_FORM, ms, BundleParam.monomial((1, 0)))


def test_exponent_length_mismatch():
    ms = MultiplierStructure.classical(3)
    with pytest.raises(ValueError):
        solve_sections(SectionSpace.TANGENT, ms, BundleParam.monomial((1, 0)))


def test_solvers_work_on_general_patterns():
    # no table exists, but the exponent equations still make sense
    ms = MultiplierStructure(4, ((1, 2), (3, 4)))
    b = BundleParam.monomial((-1, 0, 0, 0))
    sols = solve_sections(SectionSpace.TANGENT, ms, b)
    assert len(sols) == brute_force_dim(SectionSpace.TANGENT, ms, b) > 0


def test_dim_matches_enumeration_random(rng):
    structures = [
        MultiplierStructure.classical(3),
        MultiplierStructure.generic(3),
        MultiplierStructure.intermediary(4, 2),
        MultiplierStructure(4, ((1, 2), (3, 4))),
    ]
    for ms in structures:
        for _ in range(40):
            exps = tuple(rng.randint(-3, 3) for _ in range(ms.n))
            param = BundleParam.monomial(exps)
            for space in SectionSpace:
                if space is SectionSpace.TOP_MINUS_ONE_FORM and ms.n < 3:
                    continue
                assert len(solve_sections(space, ms, param)) == dim_h0(space, ms, param)


def test_dim_matches_brute_force_random(rng):
    structures = [
        MultiplierStructure.classical(3),
        MultiplierStructure.generic(3),
        MultiplierStructure.intermediary(3, 2),
    ]
    for ms in structures:
        for _ in range(25):
            exps = tuple(rng.randint(-2, 2) for _ in range(ms.n))
            param = BundleParam.monomial(exps)
            for space in SectionSpace:
                assert brute_force_dim(space, ms, param) == dim_h0(space, ms, param)


def test_solution_count_formula():
    ms = MultiplierStructure.intermediary(4, 2)
    assert solution_count_formula(ms, (2, 0, 0)) == 3  # C(3,1) in the block
    assert solution_count_formula(ms, (0, 0, 0)) == 1
    assert solution_count_formula(ms, (-1, 0, 0)) == 0
    classical = MultiplierStructure.classical(3)
    assert solution_count_formula(classical, (4,)) == 15


def test_deterministic_ordering():
    ms = MultiplierStructure.classical(3)
    b = BundleParam.monomial((-1, 0, 0))
    sols = list(solve_sections(SectionSpace.TANGENT, ms, b))
    assert sols == sorted(sols)
    assert sols[0][0] == 1


def test_predicates_on_general_pattern_match_brute_force(rng):
    # one rule, "some component has every group target >= 0", covers every pattern
    spaces = {
        Predicate.TANGENT: (SectionSpace.TANGENT, True),
        Predicate.ONE_FORM: (SectionSpace.ONE_FORM, False),
        Predicate.TOP_MINUS_ONE_FORM: (SectionSpace.TOP_MINUS_ONE_FORM, False),
        Predicate.CONORMAL: (SectionSpace.ONE_FORM, True),
    }
    for ms, samples in (
        (MultiplierStructure(4, ((1, 2), (3, 4))), 30),
        (MultiplierStructure(5, ((2, 5), (1, 3), (4,))), 10),
    ):
        for _ in range(samples):
            param = BundleParam.monomial(rng.randint(-2, 2) for _ in range(ms.n))
            for predicate, (space, inverse) in spaces.items():
                at = param.inverse() if inverse else param
                assert predicate_existence(predicate, ms, param) == (
                    brute_force_dim(space, ms, at) > 0
                )


def test_predicate_small_cases():
    classical = MultiplierStructure.classical(3)
    assert predicate_existence(Predicate.TANGENT, classical, BundleParam.monomial((-1, 0, 0)))
    assert not predicate_existence(Predicate.TANGENT, classical, BundleParam.monomial((-2, 0, 0)))
    assert predicate_existence(Predicate.ONE_FORM, classical, BundleParam.monomial((1, 0, 0)))
    assert not predicate_existence(Predicate.ONE_FORM, classical, BundleParam.trivial(3))
    assert predicate_existence(
        Predicate.TOP_MINUS_ONE_FORM, classical, BundleParam.monomial((2, 0, 0))
    )
    assert not predicate_existence(
        Predicate.TOP_MINUS_ONE_FORM, classical, BundleParam.monomial((1, 0, 0))
    )
    # conormal constrains the inverse parameter
    assert predicate_existence(Predicate.CONORMAL, classical, BundleParam.monomial((-1, 0, 0)))
    assert not predicate_existence(Predicate.CONORMAL, classical, BundleParam.monomial((1, 0, 0)))
    for predicate in Predicate:
        assert not predicate_existence(predicate, classical, BundleParam.unrelated())


def test_predicate_matches_dimension_exhaustive_n3():
    structures = [
        MultiplierStructure.classical(3),
        MultiplierStructure.generic(3),
        MultiplierStructure.intermediary(3, 2),
    ]
    from itertools import product as iproduct

    for ms in structures:
        for exps in iproduct(range(-2, 3), repeat=3):
            param = BundleParam.monomial(exps)
            assert predicate_existence(Predicate.ONE_FORM, ms, param) == (
                dim_h0(SectionSpace.ONE_FORM, ms, param) > 0
            )
            assert predicate_existence(Predicate.TOP_MINUS_ONE_FORM, ms, param) == (
                dim_h0(SectionSpace.TOP_MINUS_ONE_FORM, ms, param) > 0
            )
            inverse = param.inverse()
            assert predicate_existence(Predicate.TANGENT, ms, param) == (
                dim_h0(SectionSpace.TANGENT, ms, inverse) > 0
            )
            assert predicate_existence(Predicate.CONORMAL, ms, param) == (
                dim_h0(SectionSpace.ONE_FORM, ms, inverse) > 0
            )


def test_nminus1_predicate_needs_three_variables():
    ms = MultiplierStructure.classical(2)
    with pytest.raises(ValueError):
        predicate_existence(Predicate.TOP_MINUS_ONE_FORM, ms, BundleParam.monomial((2, 0)))
