import pytest

from hopfkit import BundleParam, MultiplierStructure, StructureKind


def test_kind_detection():
    assert MultiplierStructure.classical(3).kind is StructureKind.CLASSICAL
    assert MultiplierStructure.generic(4).kind is StructureKind.GENERIC
    assert MultiplierStructure.intermediary(4, 2).kind is StructureKind.INTERMEDIARY
    assert MultiplierStructure.intermediary(5, 4).kind is StructureKind.INTERMEDIARY
    # two non-trivial groups, and also a full-size block with a companion
    assert MultiplierStructure(4, ((1, 2), (3, 4))).kind is StructureKind.GENERAL
    assert MultiplierStructure(5, ((1, 2), (3, 4), (5,))).kind is StructureKind.GENERAL
    assert MultiplierStructure.classical(2).kind is StructureKind.CLASSICAL


def test_partition_validation():
    with pytest.raises(ValueError):
        MultiplierStructure(3, ((1, 2),))  # misses 3
    with pytest.raises(ValueError):
        MultiplierStructure(3, ((1, 2), (2, 3)))  # overlap
    with pytest.raises(ValueError):
        MultiplierStructure(3, ((0, 1), (2, 3)))  # out of range
    with pytest.raises(ValueError):
        MultiplierStructure(1, ((1,),))
    with pytest.raises(ValueError):
        MultiplierStructure.intermediary(3, 3)  # r must stay below n


def test_group_members_are_sorted_and_order_kept():
    # the partition is ordered: group positions index the equivalence key
    ms = MultiplierStructure(4, ((4,), (3, 2), (1,)))
    assert ms.groups == ((4,), (2, 3), (1,))
    assert ms.block == (2, 3)
    assert ms.block_size == 2
    assert MultiplierStructure.generic(3).block is None


def test_class_of_and_equality():
    ms = MultiplierStructure.intermediary(4, 2)
    assert ms.class_of((1, 2, 3, 4)) == (3, 3, 4)
    assert ms.classes_equal((1, 2, 0, 0), (0, 3, 0, 0))
    assert not ms.classes_equal((1, 0, 0, 0), (0, 0, 1, 0))
    with pytest.raises(ValueError):
        ms.class_of((1, 2, 3))


def test_group_symbols():
    classical = MultiplierStructure.classical(3)
    assert classical.group_symbol(0) == "mu"
    inter = MultiplierStructure.intermediary(4, 2)
    assert inter.group_symbol(0) == "mu_1"
    assert inter.group_symbol(1) == "mu_3"
    assert inter.describe_key((2, 0, 1)) == "mu_1^2*mu_4"
    assert inter.describe_key((0, 0, 0)) == "1"


def test_bundle_param():
    b = BundleParam.monomial((1, -2, 0))
    assert not b.is_unrelated
    assert b.inverse() == BundleParam.monomial((-1, 2, 0))
    assert BundleParam.trivial(3) == BundleParam.monomial((0, 0, 0))
    assert BundleParam.multiplier(2, 3) == BundleParam.monomial((0, 1, 0))
    u = BundleParam.unrelated()
    assert u.is_unrelated and u.inverse() is u

    ms = MultiplierStructure.generic(3)
    assert b.display(ms) == "mu_1*mu_2^-2"
    assert BundleParam.trivial(3).display(ms) == "1"
    assert u.display(ms) == "unrelated"
    classical = MultiplierStructure.classical(3)
    assert BundleParam.monomial((2, 0, 0)).display(classical) == "mu^2"
